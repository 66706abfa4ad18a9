//! Deterministic event queue: one vector kept sorted on `(time, seq)`.
//!
//! Pending events live in a single `Vec` sorted *descending* on the full
//! `(time, seq)` key, so the global minimum sits at the back and a pop is
//! a plain `Vec::pop`. A push finds its slot with one `partition_point`
//! binary search and shifts the later-firing tail by one; the common
//! in-dispatch push (a same-instant requeue or a near-future completion)
//! lands next to the back. DMA chunk completions, the dominant event
//! class, wait in a [`ChunkLane`] beside the queue, so the SoC model keeps
//! at most a few dozen events pending here — a size at which the vector
//! fits in a handful of cache lines and no bucketed scheme beats it.
//!
//! Total order is `(time, seq)` with `seq` unique and monotonically
//! increasing, so FIFO-among-equals is exactly the order the key encodes,
//! same-instant requeues made while the queue drains included. The
//! `queue::tests` property suite pins the pop sequence against a
//! `BinaryHeap` oracle.
//!
//! [`ChunkLane`]: crate::ChunkLane

use crate::time::Time;
use relief_trace::{EventKind, Tracer};

/// The `(time, seq)` order as one integer: fire time in the high word,
/// sequence number in the low word.
#[inline]
pub(crate) fn pack_key(at: Time, seq: u64) -> u128 {
    (u128::from(at.as_ps()) << 64) | u128::from(seq)
}

/// One scheduled entry: fire time, insertion sequence, payload.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

/// A priority queue of timed events with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in insertion order,
/// which keeps simulations reproducible.
///
/// # Examples
///
/// ```
/// use relief_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(5), 'b');
/// q.push(Time::from_ns(1), 'a');
/// assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
/// assert_eq!(q.pop(), Some((Time::from_ns(1), 'a')));
/// ```
pub struct EventQueue<E> {
    /// Pending events, sorted *descending* by `(at, seq)` so the minimum
    /// sits at the back.
    entries: Vec<Entry<E>>,
    next_seq: u64,
    popped: u64,
    tracer: Tracer,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { entries: Vec::new(), next_seq: 0, popped: 0, tracer: Tracer::off() }
    }

    /// Attaches a tracer; every subsequent [`EventQueue::pop`] emits an
    /// `EventDispatched` record at the popped event's fire time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Draws the next sequence number. Every scheduled event takes one,
    /// whether it goes into this queue or into a [`ChunkLane`] beside it,
    /// so `(time, seq)` stays a total order across both.
    ///
    /// [`ChunkLane`]: crate::ChunkLane
    #[inline]
    pub(crate) fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        // A wrapped sequence counter would silently break FIFO-among-
        // equals; at one event per picosecond that is >200 days of
        // simulated time, so treat it as a simulator bug.
        debug_assert!(seq != u64::MAX, "event sequence counter about to wrap");
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.draw_seq();
        let key = (at, seq);
        let pos = self.entries.partition_point(|e| (e.at, e.seq) > key);
        self.entries.insert(pos, Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.entries.pop()?;
        self.mark_dispatched(e.at);
        Some((e.at, e.event))
    }

    /// Drains the earliest event *cohort* — every pending event scheduled
    /// for the earliest fire time — into `out` (cleared first), in exact
    /// `(time, seq)` pop order, and returns that fire time.
    ///
    /// Equivalent to calling [`EventQueue::pop`] while the head time is
    /// unchanged, except that dispatch accounting is deferred: drained
    /// events are *not* counted or traced here. The caller must invoke
    /// [`EventQueue::mark_dispatched`] once per drained event immediately
    /// before handling it, so `EventDispatched` trace records interleave
    /// with handler-emitted events exactly as on the one-at-a-time path.
    /// Events pushed at the cohort's time while the caller dispatches it
    /// get larger sequence numbers and form a later cohort, exactly as
    /// they would pop on the per-event path.
    pub fn pop_cohort(&mut self, out: &mut Vec<E>) -> Option<Time> {
        out.clear();
        let first = self.entries.pop()?;
        let at = first.at;
        out.push(first.event);
        // Descending (at, seq) order puts same-time entries back-to-front
        // in ascending sequence order, so popping while times match yields
        // exact pop order — and costs one comparison in the common size-1
        // case.
        while let Some(e) = self.entries.last() {
            if e.at != at {
                break;
            }
            // Pop cannot fail: `last()` just observed the entry.
            if let Some(e) = self.entries.pop() {
                out.push(e.event);
            }
        }
        Some(at)
    }

    /// Packed `(time, seq)` key of the earliest pending event, or
    /// `u128::MAX` when empty.
    #[inline]
    pub(crate) fn head_key(&self) -> u128 {
        self.entries.last().map_or(u128::MAX, |e| pack_key(e.at, e.seq))
    }

    /// Accounts one dispatched event: bumps the dispatch counter and emits
    /// the `EventDispatched` trace record at `at`. [`EventQueue::pop`]
    /// calls it itself; call it exactly once per event returned by
    /// [`EventQueue::pop_cohort`], immediately before handling it.
    /// [`ChunkLane::pop_merged`](crate::ChunkLane::pop_merged) calls it
    /// for every lane event it pops.
    pub fn mark_dispatched(&mut self, at: Time) {
        let index = self.popped;
        self.popped += 1;
        self.tracer.emit(at.as_ps(), || EventKind::EventDispatched { index });
    }

    /// Fire time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.entries.last().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of events delivered so far (dispatch counter).
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever scheduled (the next sequence number).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("dispatched", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The textbook event queue the sorted vector must match pop for pop:
    /// a min-heap on `(time, seq)` with its own sequence counter.
    #[derive(Default)]
    struct HeapOracle<E: Ord> {
        heap: BinaryHeap<Reverse<(Time, u64, E)>>,
        next_seq: u64,
        popped: u64,
    }

    impl<E: Ord> HeapOracle<E> {
        fn push(&mut self, at: Time, event: E) {
            self.heap.push(Reverse((at, self.next_seq, event)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(Time, E)> {
            let Reverse((at, _, event)) = self.heap.pop()?;
            self.popped += 1;
            Some((at, event))
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(Time::from_ns(7), "c");
        q.push(Time::from_ns(7), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(q.is_empty());
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled(), 2);
        q.pop();
        assert_eq!(q.dispatched(), 1);
        assert_eq!(q.peek_time(), Some(Time::ZERO));
    }

    #[test]
    fn peek_tracks_the_earliest_pending_event() {
        let mut q = EventQueue::new();
        // A cluster of near events plus one far-future outlier.
        for i in 0..200u64 {
            q.push(Time::from_ns(10 + i), i);
        }
        q.push(Time::from_ms(90), u64::MAX);
        assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
        assert_eq!(q.pop().unwrap().1, 0);
        // Drain down to the outlier; peek must see it, then see an
        // earlier push ahead of it.
        for _ in 0..199 {
            q.pop();
        }
        assert_eq!(q.peek_time(), Some(Time::from_ms(90)));
        q.push(Time::from_us(1), 7);
        assert_eq!(q.peek_time(), Some(Time::from_us(1)));
    }

    #[test]
    fn drains_a_large_population_in_order_and_refills() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(Time::from_ns(i * 3), i);
        }
        for i in 0..500u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.pop().is_none());
        // Still works after running empty.
        q.push(Time::from_ns(2), 'b' as u64);
        q.push(Time::from_ns(1), 'a' as u64);
        assert_eq!(q.pop().unwrap().1, 'a' as u64);
    }

    #[test]
    fn same_instant_requeue_during_drain_pops_in_seq_order() {
        // Fault-injection shape: while handling the event at time T, the
        // simulator re-schedules work at exactly T; it must pop after
        // every earlier same-T event but before anything later.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(100), "first");
        q.push(Time::from_ns(100), "second");
        q.push(Time::from_ns(200), "later");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(Time::from_ns(100), "requeued");
        q.push(Time::from_ns(150), "mid");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "requeued");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "later");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(Time::from_us(10 + i * 10), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        // Earlier than everything pending, including the instant just
        // popped.
        q.push(Time::from_ns(1), 999);
        assert_eq!(q.pop().unwrap().1, 999);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn far_future_outage_style_events_pop_last() {
        let mut q = EventQueue::new();
        q.push(Time::from_ms(200), u64::MAX); // far beyond everything else
        for i in 0..1000u64 {
            q.push(Time::from_ns(i), i);
        }
        for i in 0..1000u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop().unwrap().1, u64::MAX);
        assert!(q.is_empty());
    }

    /// Drives the queue and a [`BinaryHeap`] oracle keyed on
    /// `(time, seq)` through an identical randomized stream — bursty
    /// times, duplicate instants, interleaved pops, same-instant
    /// requeues — and asserts the pop sequences match exactly.
    #[test]
    fn property_matches_binary_heap_oracle() {
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(0xCA1E_4DA8 ^ seed);
            let mut q = EventQueue::new();
            let mut oracle = HeapOracle::default();
            let mut last_popped = 0u64;
            let mut pending = 0i64;
            for step in 0..4000u32 {
                let r = rng.next_u64();
                if r % 100 < 55 || pending == 0 {
                    // Push: cluster most times near the "present", with
                    // occasional far-future spikes (outage-style) and
                    // exact-requeue times.
                    let t = match r % 10 {
                        0 => last_popped,                                  // requeue "now"
                        1..=2 => last_popped + rng.next_u64() % 50,        // near future
                        3 => last_popped + rng.next_u64() % 1_000_000_000, // far future
                        _ => last_popped + rng.next_u64() % 100_000,       // mid
                    };
                    q.push(Time::from_ps(t), step);
                    oracle.push(Time::from_ps(t), step);
                    pending += 1;
                } else {
                    let a = q.pop();
                    let b = oracle.pop();
                    match (a, b) {
                        (Some((ta, ea)), Some((tb, eb))) => {
                            assert_eq!((ta, ea), (tb, eb), "seed {seed} step {step}");
                            last_popped = ta.as_ps();
                            pending -= 1;
                        }
                        (None, None) => {}
                        other => panic!("pop mismatch: {other:?}"),
                    }
                }
            }
            // Drain both completely.
            loop {
                match (q.pop(), oracle.pop()) {
                    (Some((ta, ea)), Some((tb, eb))) => {
                        assert_eq!((ta, ea), (tb, eb), "seed {seed} drain")
                    }
                    (None, None) => break,
                    other => panic!("drain mismatch: {other:?}"),
                }
            }
            assert_eq!(q.dispatched(), oracle.popped);
            assert_eq!(q.scheduled(), oracle.next_seq);
        }
    }

    #[test]
    fn cohort_pop_matches_per_event_pop() {
        // The cohort drain must yield exactly the per-event pop sequence,
        // chunked by fire time, with dense ties and same-instant requeues
        // pushed mid-cohort.
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(0x0C0_0147 ^ seed);
            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            let mut t = 0u64;
            for step in 0..600u32 {
                t += rng.next_u64() % 4; // dense ties, occasional gaps
                a.push(Time::from_ps(t), step);
                b.push(Time::from_ps(t), step);
            }
            let mut scratch = Vec::new();
            while let Some(at) = a.pop_cohort(&mut scratch) {
                for &e in &scratch {
                    a.mark_dispatched(at);
                    let (bt, be) = b.pop().expect("oracle has events left");
                    assert_eq!((at, e), (bt, be), "seed {seed}");
                    if e % 7 == 0 {
                        // Same-instant requeue while the cohort is being
                        // dispatched: must land in a *later* cohort on
                        // both paths.
                        a.push(at, e + 10_000);
                        b.push(at, e + 10_000);
                    }
                }
            }
            assert!(b.pop().is_none());
            assert_eq!(a.len(), 0);
            assert_eq!(a.dispatched(), b.dispatched());
            assert_eq!(a.scheduled(), b.scheduled());
        }
    }

    #[test]
    fn cohort_pop_counts_dispatches_via_mark() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_ns(1), 'b');
        q.push(Time::from_ns(2), 'c');
        let mut out = Vec::new();
        let at = q.pop_cohort(&mut out).unwrap();
        assert_eq!(at, Time::from_ns(1));
        assert_eq!(out, vec!['a', 'b']);
        assert_eq!(q.len(), 1);
        // Dispatch accounting is the caller's job.
        assert_eq!(q.dispatched(), 0);
        q.mark_dispatched(at);
        q.mark_dispatched(at);
        assert_eq!(q.dispatched(), 2);
        assert_eq!(q.pop_cohort(&mut out), Some(Time::from_ns(2)));
        assert_eq!(out, vec!['c']);
        assert_eq!(q.pop_cohort(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_binary_heap_oracle_on_simple_stream() {
        let mut a = EventQueue::new();
        let mut b = HeapOracle::default();
        for i in (0..200u64).rev() {
            a.push(Time::from_ns(i / 3), i);
            b.push(Time::from_ns(i / 3), i);
        }
        for _ in 0..200 {
            assert_eq!(a.pop(), b.pop());
        }
    }
}
