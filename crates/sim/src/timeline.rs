//! Single-server resource timelines.
//!
//! A [`Timeline`] models a resource (a DMA engine, one direction of the
//! system bus, the DRAM channel) that serves one request at a time. Requests
//! reserve a contiguous service interval; a request arriving while the
//! resource is busy starts when the resource frees. Busy time is accumulated
//! so occupancy statistics (e.g. Fig. 13's interconnect occupancy) fall out
//! directly.

use crate::time::{Dur, Time};
use relief_trace::{EventKind, ResourceId, Tracer};

/// Accumulated utilization of a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusyStats {
    /// Total time the resource spent serving requests.
    pub busy: Dur,
    /// Number of reservations served.
    pub requests: u64,
    /// Total time requests waited before service began.
    pub queued: Dur,
}

/// A single-server resource that serves reservations in arrival order.
///
/// # Examples
///
/// ```
/// use relief_sim::{Timeline, Time, Dur};
/// let mut dma = Timeline::new();
/// let (s1, e1) = dma.reserve(Time::ZERO, Dur::from_ns(100));
/// assert_eq!((s1, e1), (Time::ZERO, Time::from_ns(100)));
/// // A second request at t=40ns queues behind the first.
/// let (s2, e2) = dma.reserve(Time::from_ns(40), Dur::from_ns(50));
/// assert_eq!((s2, e2), (Time::from_ns(100), Time::from_ns(150)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    free_at: Time,
    stats: BusyStats,
    tracer: Tracer,
    id: Option<ResourceId>,
}

impl Timeline {
    /// Creates an idle timeline at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a tracer and names this resource; every subsequent
    /// reservation (direct or joint) emits a `ResourceBusy` record.
    pub fn set_tracer(&mut self, tracer: Tracer, id: ResourceId) {
        self.tracer = tracer;
        self.id = Some(id);
    }

    /// Reserves `dur` of service starting no earlier than `now`, returning
    /// the `(start, end)` of the granted interval.
    #[inline]
    pub fn reserve(&mut self, now: Time, dur: Dur) -> (Time, Time) {
        let start = now.max(self.free_at);
        self.reserve_from(now, start, dur)
    }

    /// Books `dur` of service beginning exactly at `start` (which must be
    /// at or after [`earliest_start`](Self::earliest_start)), charging
    /// queued time relative to `now`. The single accounting path shared by
    /// [`reserve`](Self::reserve), [`reserve_joint`], and callers that
    /// compute a correlated start themselves (the transfer engine's
    /// allocation-free chunk path) — so stats, tracer emission, and
    /// `free_at` updates cannot drift between them.
    #[inline]
    pub fn reserve_from(&mut self, now: Time, start: Time, dur: Dur) -> (Time, Time) {
        debug_assert!(start >= self.earliest_start(now), "start predates availability");
        let end = start + dur;
        self.stats.busy += dur;
        self.stats.requests += 1;
        self.stats.queued += start.saturating_since(now);
        self.free_at = end;
        if let Some(resource) = self.id {
            self.tracer.emit(now.as_ps(), || EventKind::ResourceBusy {
                resource,
                start_ps: start.as_ps(),
                end_ps: end.as_ps(),
            });
        }
        (start, end)
    }

    /// Earliest instant at or after `now` when service could begin.
    #[inline]
    pub fn earliest_start(&self, now: Time) -> Time {
        now.max(self.free_at)
    }

    /// Instant the resource becomes idle.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// True if the resource is idle at `now`.
    pub fn is_idle(&self, now: Time) -> bool {
        self.free_at <= now
    }

    /// Utilization statistics accumulated so far.
    pub fn stats(&self) -> BusyStats {
        self.stats
    }

    /// Occupancy in `[0, 1]` over a horizon of `total` simulated time.
    ///
    /// Returns 0 when `total` is zero.
    pub fn occupancy(&self, total: Dur) -> f64 {
        if total.is_zero() {
            0.0
        } else {
            (self.stats.busy.as_ps() as f64 / total.as_ps() as f64).min(1.0)
        }
    }
}

/// Reserves a correlated interval across several timelines, as when one bus
/// transaction simultaneously occupies the DRAM channel and a bus lane.
///
/// All resources begin service together at the latest `earliest_start`; each
/// is held for its own duration from `durs`. Returns `(start, end)` where
/// `end` is when the slowest resource finishes.
///
/// # Panics
///
/// Panics if `resources` and `durs` have different lengths or are empty.
pub fn reserve_joint(resources: &mut [&mut Timeline], durs: &[Dur], now: Time) -> (Time, Time) {
    assert_eq!(resources.len(), durs.len(), "one duration per resource");
    assert!(!resources.is_empty(), "need at least one resource");
    let start = resources.iter().fold(now, |acc, r| acc.max(r.earliest_start(now)));
    let mut end = start;
    for (r, &d) in resources.iter_mut().zip(durs) {
        let (_, e) = r.reserve_from(now, start, d);
        end = end.max(e);
    }
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut t = Timeline::new();
        let (s, e) = t.reserve(Time::from_ns(10), Dur::from_ns(5));
        assert_eq!(s, Time::from_ns(10));
        assert_eq!(e, Time::from_ns(15));
        assert!(t.is_idle(Time::from_ns(15)));
        assert!(!t.is_idle(Time::from_ns(14)));
    }

    #[test]
    fn busy_resource_queues() {
        let mut t = Timeline::new();
        t.reserve(Time::ZERO, Dur::from_ns(100));
        let (s, e) = t.reserve(Time::from_ns(30), Dur::from_ns(10));
        assert_eq!(s, Time::from_ns(100));
        assert_eq!(e, Time::from_ns(110));
        assert_eq!(t.stats().queued, Dur::from_ns(70));
        assert_eq!(t.stats().requests, 2);
        assert_eq!(t.stats().busy, Dur::from_ns(110));
    }

    #[test]
    fn occupancy_fraction() {
        let mut t = Timeline::new();
        t.reserve(Time::ZERO, Dur::from_ns(25));
        assert_eq!(t.occupancy(Dur::from_ns(100)), 0.25);
        assert_eq!(t.occupancy(Dur::ZERO), 0.0);
    }

    #[test]
    fn joint_reservation_aligns_starts() {
        let mut dram = Timeline::new();
        let mut bus = Timeline::new();
        dram.reserve(Time::ZERO, Dur::from_ns(50)); // DRAM busy until 50ns
        let (s, e) = reserve_joint(
            &mut [&mut dram, &mut bus],
            &[Dur::from_ns(20), Dur::from_ns(10)],
            Time::from_ns(5),
        );
        assert_eq!(s, Time::from_ns(50));
        assert_eq!(e, Time::from_ns(70)); // slowest (DRAM) finishes last
        assert_eq!(bus.free_at(), Time::from_ns(60));
        assert_eq!(dram.free_at(), Time::from_ns(70));
    }

    #[test]
    fn joint_over_single_timeline_matches_reserve() {
        // The joint path over one resource must be indistinguishable from
        // a plain reserve: same intervals, same stats, same free_at.
        let mut plain = Timeline::new();
        let mut joint = Timeline::new();
        for &(now_ns, dur_ns) in &[(0u64, 100u64), (30, 10), (250, 40), (250, 5)] {
            let now = Time::from_ns(now_ns);
            let dur = Dur::from_ns(dur_ns);
            let a = plain.reserve(now, dur);
            let b = reserve_joint(&mut [&mut joint], &[dur], now);
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), joint.stats());
        assert_eq!(plain.free_at(), joint.free_at());
    }

    #[test]
    #[should_panic(expected = "one duration per resource")]
    fn joint_reservation_validates_lengths() {
        let mut a = Timeline::new();
        reserve_joint(&mut [&mut a], &[], Time::ZERO);
    }
}
