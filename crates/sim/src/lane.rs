//! A side lane for DMA chunk completions, merged into an [`EventQueue`]'s
//! dispatch order.
//!
//! Chunk completions are the SoC model's dominant event class (roughly
//! nine in ten dispatches), yet at most one is pending per in-flight
//! transfer, plus the stale completions of cancelled transfers. Keeping
//! them in the general queue makes every chunk pay for a sorted insert
//! into a rung built for a far more varied population. The lane holds
//! them instead: an unsorted pair of columns — packed `u128` keys
//! `(time << 64) | seq` and payloads — with the minimum's index cached,
//! so a push is an append plus one comparison and a pop is a
//! `swap_remove` plus a rescan of a few dozen keys.
//!
//! # Ordering
//!
//! The lane draws every sequence number from the queue's own counter, so
//! the `(time, seq)` keys of lane and queue entries are unique across
//! both and [`ChunkLane::pop_merged`] — which dispatches whichever head
//! key is smaller — yields exactly the order a single queue holding every
//! event would. Dispatch accounting (the counter behind
//! [`EventQueue::dispatched`] and the `EventDispatched` trace record)
//! goes through the queue for lane pops too, so counts and traces are
//! indistinguishable from the single-queue path. Entries are never
//! removed early: a completion whose transfer was cancelled stays in the
//! lane as a tombstone and is dispatched, counted and traced at its time
//! like any other event; the consumer drops it.

use crate::queue::{pack_key, EventQueue};
use crate::time::Time;

/// Pending chunk completions beside an [`EventQueue`] (module docs).
///
/// # Examples
///
/// ```
/// use relief_sim::{ChunkLane, EventQueue, Time};
/// let mut q: EventQueue<char> = EventQueue::new();
/// let mut lane: ChunkLane<u32> = ChunkLane::new();
/// q.push(Time::from_ns(5), 'q');
/// lane.push(&mut q, Time::from_ns(5), 7); // same instant, later sequence
/// lane.push(&mut q, Time::from_ns(1), 9);
/// let wrap = |n: u32| char::from_digit(n, 10).unwrap();
/// assert_eq!(lane.pop_merged(&mut q, wrap), Some((Time::from_ns(1), '9')));
/// assert_eq!(lane.pop_merged(&mut q, wrap), Some((Time::from_ns(5), 'q')));
/// assert_eq!(lane.pop_merged(&mut q, wrap), Some((Time::from_ns(5), '7')));
/// assert_eq!(lane.pop_merged(&mut q, wrap), None);
/// assert_eq!((q.scheduled(), q.dispatched()), (3, 3));
/// ```
#[derive(Debug, Clone)]
pub struct ChunkLane<T> {
    /// Packed `(time << 64) | seq` keys, unsorted.
    keys: Vec<u128>,
    /// Payloads, parallel to `keys`.
    vals: Vec<T>,
    /// Index of the minimum key; meaningful only while `keys` is
    /// non-empty (0 otherwise).
    head: usize,
}

impl<T> Default for ChunkLane<T> {
    fn default() -> Self {
        ChunkLane { keys: Vec::new(), vals: Vec::new(), head: 0 }
    }
}

impl<T: Copy> ChunkLane<T> {
    /// Creates an empty lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `val` at `at`, drawing its sequence number from `queue`
    /// so it orders against the queue's events exactly as if it had been
    /// pushed there.
    #[inline]
    pub fn push<E>(&mut self, queue: &mut EventQueue<E>, at: Time, val: T) {
        let key = pack_key(at, queue.draw_seq());
        if self.keys.get(self.head).is_none_or(|&head| key < head) {
            self.head = self.keys.len();
        }
        self.keys.push(key);
        self.vals.push(val);
    }

    /// Removes and returns the earliest event across the lane and
    /// `queue`, wrapping a lane payload with `wrap`. Counts and traces the
    /// dispatch in `queue` either way; `None` when both are empty.
    #[inline]
    pub fn pop_merged<E>(
        &mut self,
        queue: &mut EventQueue<E>,
        wrap: impl FnOnce(T) -> E,
    ) -> Option<(Time, E)> {
        if let Some(&head) = self.keys.get(self.head) {
            if head < queue.head_key() {
                let val = self.take_head();
                let at = Time::from_ps((head >> 64) as u64);
                queue.mark_dispatched(at);
                return Some((at, wrap(val)));
            }
        }
        queue.pop()
    }

    /// Removes the head entry and re-finds the minimum.
    fn take_head(&mut self) -> T {
        self.keys.swap_remove(self.head);
        let val = self.vals.swap_remove(self.head);
        let mut head = 0;
        let mut min = u128::MAX;
        for (i, &k) in self.keys.iter().enumerate() {
            if k < min {
                min = k;
                head = i;
            }
        }
        self.head = head;
        val
    }

    /// Number of pending entries (live and stale alike).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing is pending in the lane.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Which side an oracle entry was pushed to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Src {
        Queue(u32),
        Lane(u32),
    }

    /// Seeded interleavings of lane and queue pushes — dense equal
    /// timestamps, same-instant pushes made mid-dispatch, far-future
    /// spikes — popped through
    /// [`ChunkLane::pop_merged`] and checked against a [`BinaryHeap`]
    /// oracle on `(time, seq)`, with `scheduled()` / `dispatched()`
    /// parity. This pins FIFO-among-equals across the two sources.
    #[test]
    fn merged_pop_order_matches_binary_heap_oracle() {
        for seed in 0..24u64 {
            let mut rng = SplitMix64::new(0x1A4E_0D3E ^ seed);
            let mut queue: EventQueue<Src> = EventQueue::new();
            let mut lane: ChunkLane<u32> = ChunkLane::new();
            let mut oracle: BinaryHeap<Reverse<(u64, u64, Src)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut pushes = 0u64;
            let mut pops = 0u64;
            let mut push = |queue: &mut EventQueue<Src>,
                            lane: &mut ChunkLane<u32>,
                            oracle: &mut BinaryHeap<Reverse<(u64, u64, Src)>>,
                            rng: &mut SplitMix64,
                            now: u64,
                            tag: u32| {
                let r = rng.next_u64();
                let t = match r % 8 {
                    0 | 1 => now,                             // same instant
                    2 => now + 1_000_000_000 + r % 1_000_000, // far future
                    _ => now + (r >> 8) % 64,                 // dense ties
                };
                let at = Time::from_ps(t);
                let src = if (r >> 40).is_multiple_of(3) {
                    queue.push(at, Src::Queue(tag));
                    Src::Queue(tag)
                } else {
                    lane.push(queue, at, tag);
                    Src::Lane(tag)
                };
                oracle.push(Reverse((t, seq, src)));
                seq += 1;
            };
            let mut tag = 0u32;
            for _ in 0..600 {
                push(&mut queue, &mut lane, &mut oracle, &mut rng, now, tag);
                tag += 1;
                pushes += 1;
            }
            // A third of the pushes go to the queue, so both sides hold a
            // deep backlog when the merge starts.
            assert!(queue.len() >= 128, "seed {seed}: queue backlog too shallow");
            while let Some((at, got)) = lane.pop_merged(&mut queue, Src::Lane) {
                let Some(Reverse((t, _, want))) = oracle.pop() else {
                    panic!("seed {seed}: merged pop returned more events than were pushed");
                };
                assert_eq!((at.as_ps(), got), (t, want), "seed {seed} pop {pops}");
                pops += 1;
                now = t;
                // Mid-dispatch pushes, many at the current instant; the
                // stream tapers off so the run drains.
                if pushes < 4_000 {
                    let n = rng.next_u64() % 3;
                    for _ in 0..n {
                        push(&mut queue, &mut lane, &mut oracle, &mut rng, now, tag);
                        tag += 1;
                        pushes += 1;
                    }
                }
            }
            assert!(oracle.is_empty(), "seed {seed}: merged pop stopped early");
            assert!(lane.is_empty() && queue.is_empty());
            assert_eq!(queue.scheduled(), pushes, "seed {seed}: scheduled() parity");
            assert_eq!(queue.dispatched(), pops, "seed {seed}: dispatched() parity");
            assert_eq!(pushes, pops);
        }
    }

    #[test]
    fn equal_time_pushes_alternate_sources_in_push_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        let mut lane: ChunkLane<i32> = ChunkLane::new();
        let t = Time::from_ns(3);
        for i in 0..10 {
            if i % 2 == 0 {
                q.push(t, i);
            } else {
                lane.push(&mut q, t, i);
            }
        }
        let order: Vec<i32> =
            std::iter::from_fn(|| lane.pop_merged(&mut q, |v| v).map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lane_only_and_queue_only_drain() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut lane: ChunkLane<u8> = ChunkLane::new();
        assert_eq!(lane.pop_merged(&mut q, |v| v), None);
        lane.push(&mut q, Time::from_ns(2), 2);
        lane.push(&mut q, Time::from_ns(1), 1);
        assert_eq!(lane.len(), 2);
        assert_eq!(lane.pop_merged(&mut q, |v| v), Some((Time::from_ns(1), 1)));
        assert_eq!(lane.pop_merged(&mut q, |v| v), Some((Time::from_ns(2), 2)));
        q.push(Time::from_ns(4), 4);
        assert_eq!(lane.pop_merged(&mut q, |v| v), Some((Time::from_ns(4), 4)));
        assert_eq!(lane.pop_merged(&mut q, |v| v), None);
        assert_eq!(q.dispatched(), 3);
    }
}
