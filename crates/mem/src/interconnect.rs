//! Bus and crossbar interconnect models.

use crate::config::InterconnectKind;
use relief_sim::{Dur, Time, Timeline};

/// Endpoint index used by the interconnect: port 0 is the DRAM controller,
/// ports `1 + i` are accelerator scratchpads.
fn port_of(spad: Option<usize>) -> usize {
    match spad {
        None => 0,
        Some(i) => 1 + i,
    }
}

/// The system interconnect.
///
/// * **Bus** (default): one timeline per direction of a full-duplex bus.
///   Transfers *toward* memory use the write lane; reads from memory and
///   scratchpad-to-scratchpad forwards use the read lane.
/// * **Crossbar**: a timeline per source port and per destination port;
///   independent producer/consumer pairs proceed concurrently and only
///   endpoint ports serialize.
///
/// Occupancy (Fig. 13: "percentage of cycles for which the interconnect had
/// at least one transaction going through") is tracked as the union of all
/// lane/port busy intervals with a monotone watermark, which is exact for
/// the engine's in-order chunk issue.
#[derive(Debug, Clone)]
pub struct Interconnect {
    kind: InterconnectKind,
    lane_read: Timeline,
    lane_write: Timeline,
    src_ports: Vec<Timeline>,
    dst_ports: Vec<Timeline>,
    covered_until: Time,
    union_busy: Dur,
}

impl Interconnect {
    /// Creates an interconnect of `kind` connecting DRAM and `num_spads`
    /// scratchpads.
    pub fn new(kind: InterconnectKind, num_spads: usize) -> Self {
        let ports = 1 + num_spads;
        Interconnect {
            kind,
            lane_read: Timeline::new(),
            lane_write: Timeline::new(),
            src_ports: vec![Timeline::new(); ports],
            dst_ports: vec![Timeline::new(); ports],
            covered_until: Time::ZERO,
            union_busy: Dur::ZERO,
        }
    }

    /// Topology kind.
    pub fn kind(&self) -> InterconnectKind {
        self.kind
    }

    /// Mutable timelines a transaction from `src` to `dst` must reserve.
    /// Endpoints are `None` for DRAM and `Some(i)` for scratchpad `i`.
    ///
    /// Allocates the returned `Vec`; the simulation hot path uses
    /// [`earliest_start`](Self::earliest_start) +
    /// [`reserve_from`](Self::reserve_from) instead, which touch the same
    /// lanes without boxing them. This accessor remains for tests that
    /// drive lanes directly, including the transfer engine's
    /// reference-reservation oracle.
    pub fn lanes_mut(
        &mut self,
        src: Option<usize>,
        dst: Option<usize>,
    ) -> Vec<&mut Timeline> {
        match self.kind {
            InterconnectKind::Bus => {
                if dst.is_none() {
                    vec![&mut self.lane_write]
                } else {
                    vec![&mut self.lane_read]
                }
            }
            InterconnectKind::Crossbar => {
                let s = port_of(src);
                let d = port_of(dst);
                vec![&mut self.src_ports[s], &mut self.dst_ports[d]]
            }
        }
    }

    /// Earliest instant at or after `now` when every lane a `src -> dst`
    /// transaction needs is free. Same lane selection as
    /// [`lanes_mut`](Self::lanes_mut), no allocation.
    pub fn earliest_start(&self, src: Option<usize>, dst: Option<usize>, now: Time) -> Time {
        match self.kind {
            InterconnectKind::Bus => {
                if dst.is_none() {
                    self.lane_write.earliest_start(now)
                } else {
                    self.lane_read.earliest_start(now)
                }
            }
            InterconnectKind::Crossbar => self.src_ports[port_of(src)]
                .earliest_start(now)
                .max(self.dst_ports[port_of(dst)].earliest_start(now)),
        }
    }

    /// Reserves every lane of a `src -> dst` transaction for `dur`
    /// starting exactly at `start` (at or after
    /// [`earliest_start`](Self::earliest_start)). Lane-for-lane identical
    /// to reserving the [`lanes_mut`](Self::lanes_mut) set jointly.
    pub fn reserve_from(
        &mut self,
        src: Option<usize>,
        dst: Option<usize>,
        now: Time,
        start: Time,
        dur: Dur,
    ) {
        match self.kind {
            InterconnectKind::Bus => {
                if dst.is_none() {
                    self.lane_write.reserve_from(now, start, dur);
                } else {
                    self.lane_read.reserve_from(now, start, dur);
                }
            }
            InterconnectKind::Crossbar => {
                self.src_ports[port_of(src)].reserve_from(now, start, dur);
                self.dst_ports[port_of(dst)].reserve_from(now, start, dur);
            }
        }
    }

    /// Records that the interconnect carried a transaction over
    /// `[start, end)` for union-occupancy accounting.
    pub fn note_busy(&mut self, start: Time, end: Time) {
        let s = start.max(self.covered_until);
        if end > s {
            self.union_busy += end - s;
            self.covered_until = end;
        }
    }

    /// Union busy time across all lanes/ports.
    pub fn busy(&self) -> Dur {
        self.union_busy
    }

    /// Sum of queueing delay across all lanes/ports (diagnostic; the paper
    /// notes the bus queuing delay averages under a cycle).
    pub fn total_queued(&self) -> Dur {
        let mut q = self.lane_read.stats().queued + self.lane_write.stats().queued;
        for t in self.src_ports.iter().chain(&self.dst_ports) {
            q += t.stats().queued;
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_sim::timeline::reserve_joint;

    #[test]
    fn bus_directions_are_independent() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 2);
        let d = Dur::from_ns(100);
        {
            let mut lanes = icn.lanes_mut(Some(0), None); // SPAD0 -> DRAM (write lane)
            reserve_joint(&mut lanes, &[d], Time::ZERO);
        }
        {
            // A simultaneous read-direction transfer does not queue.
            let mut lanes = icn.lanes_mut(None, Some(1));
            let (s, _) = reserve_joint(&mut lanes, &[d], Time::ZERO);
            assert_eq!(s, Time::ZERO);
        }
        {
            // But a second write-direction transfer does.
            let mut lanes = icn.lanes_mut(Some(1), None);
            let (s, _) = reserve_joint(&mut lanes, &[d], Time::ZERO);
            assert_eq!(s, Time::from_ns(100));
        }
    }

    #[test]
    fn bus_serializes_spad_to_spad_with_reads() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 3);
        let d = Dur::from_ns(50);
        {
            let mut lanes = icn.lanes_mut(None, Some(0));
            reserve_joint(&mut lanes, &[d], Time::ZERO);
        }
        // SPAD1 -> SPAD2 shares the read lane.
        let mut lanes = icn.lanes_mut(Some(1), Some(2));
        let (s, _) = reserve_joint(&mut lanes, &[d], Time::ZERO);
        assert_eq!(s, Time::from_ns(50));
    }

    #[test]
    fn crossbar_allows_disjoint_pairs_concurrently() {
        let mut icn = Interconnect::new(InterconnectKind::Crossbar, 4);
        let d = Dur::from_ns(50);
        {
            let mut lanes = icn.lanes_mut(Some(0), Some(1));
            let (s, _) = reserve_joint(&mut lanes, &[d, d], Time::ZERO);
            assert_eq!(s, Time::ZERO);
        }
        {
            // Disjoint pair: no contention.
            let mut lanes = icn.lanes_mut(Some(2), Some(3));
            let (s, _) = reserve_joint(&mut lanes, &[d, d], Time::ZERO);
            assert_eq!(s, Time::ZERO);
        }
        {
            // Shared destination port: serializes.
            let mut lanes = icn.lanes_mut(Some(2), Some(1));
            let (s, _) = reserve_joint(&mut lanes, &[d, d], Time::ZERO);
            assert_eq!(s, Time::from_ns(50));
        }
    }

    #[test]
    fn union_busy_merges_overlaps() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 1);
        icn.note_busy(Time::from_ns(0), Time::from_ns(10));
        icn.note_busy(Time::from_ns(5), Time::from_ns(15)); // 5ns overlap
        icn.note_busy(Time::from_ns(20), Time::from_ns(30));
        assert_eq!(icn.busy(), Dur::from_ns(25));
    }

    #[test]
    fn note_busy_ignores_fully_covered_intervals() {
        let mut icn = Interconnect::new(InterconnectKind::Bus, 1);
        icn.note_busy(Time::from_ns(0), Time::from_ns(100));
        icn.note_busy(Time::from_ns(10), Time::from_ns(50));
        assert_eq!(icn.busy(), Dur::from_ns(100));
    }
}
