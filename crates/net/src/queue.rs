//! The discrete-event simulator's pending-event set.
//!
//! Every pending event is ordered by the total order `(at, seq)`:
//! primary key is the simulated firing time in nanoseconds, ties break
//! by insertion sequence number, so same-tick events drain in the exact
//! order they were scheduled. The simulator's determinism rests on this
//! order and on nothing else about the queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One heap entry: the item in payload slot `slot` fires at `at` ns,
/// ties broken by `seq`. `seq` is unique, so `slot` never decides.
#[derive(Clone, Copy, Debug, Eq, Ord, PartialEq, PartialOrd)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

// A sift moves keys, never payloads: keep a key within three words.
const _: () = assert!(std::mem::size_of::<Reverse<Key>>() <= 24);

/// A measured value: at 0, 256, 512, 768, 1536, 2048 or 4096 glibc trims and
/// re-faults its heap top between runs (`setup_s` +20–35 %, DESIGN.md §9).
const INITIAL_CAPACITY: usize = 1024;

/// The simulator's pending-event set: a binary min-heap of `(at, seq,
/// slot)` keys over a slab of payloads, whose vacated slots a free
/// list hands out again. Sequence numbers are assigned internally in
/// push order, so ties on `at` always drain first-scheduled-first.
#[derive(Debug)]
pub struct EventQueue<T> {
    seq: u64,
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            seq: 0,
            heap: BinaryHeap::with_capacity(INITIAL_CAPACITY),
            slab: Vec::with_capacity(INITIAL_CAPACITY),
            free: Vec::with_capacity(INITIAL_CAPACITY),
        }
    }

    /// Schedules `item` at `at_nanos`, after everything already
    /// scheduled for the same time.
    pub fn push(&mut self, at_nanos: u64, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            None => {
                self.slab.push(Some(item));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Reverse(Key { at: at_nanos, seq: self.seq, slot }));
        self.seq += 1;
    }

    /// Removes and returns the earliest `(at, item)`, or `None` when
    /// empty.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse(Key { at, slot, .. }) = self.heap.pop()?;
        self.free.push(slot);
        let item = self.slab[slot as usize].take().expect("a queued key owns its slot");
        Some((at, item))
    }

    /// Firing time of the earliest pending item, or `None` when empty.
    pub(crate) fn peek_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(key)| key.at)
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Random push/pop interleavings, pushes monotone w.r.t. the last
    /// popped time as in the simulator, over one horizon that mixes
    /// sub-µs and multi-day delays: every pop and every `peek_at` is
    /// the minimum of a sorted `(at, seq)` list kept alongside. Pops
    /// vacate slots that later pushes reuse, so the slab stays as deep
    /// as the deepest pending set.
    #[test]
    fn pops_in_at_then_push_order_at_every_horizon() {
        let mut rng = StdRng::seed_from_u64(1);
        // Pending `(at, id)` pairs, sorted; ids are handed out in push
        // order, so they stand for the sequence number.
        let mut pending: Vec<(u64, u32)> = Vec::new();
        let mut queue = EventQueue::new();
        let (mut now, mut next_id, mut deepest) = (0u64, 0u32, 0usize);
        for _ in 0..6000 {
            if rng.gen_bool(0.6) || pending.is_empty() {
                for _ in 0..rng.gen_range(1..4usize) {
                    // Delays below 2^1 .. 2^52 ns: sub-µs up to ~52 days.
                    let horizon = 1u64 << rng.gen_range(1..53u32);
                    let at = now + rng.gen_range(0..horizon);
                    let key = (at, next_id);
                    pending.insert(pending.partition_point(|k| *k < key), key);
                    queue.push(at, next_id);
                    next_id += 1;
                }
            } else {
                let want = pending.remove(0);
                assert_eq!(
                    queue.pop(),
                    Some(want),
                    "out of (at, seq) order at now={now}"
                );
                now = want.0;
            }
            assert_eq!(queue.peek_at(), pending.first().map(|&(at, _)| at));
            assert_eq!(queue.len(), pending.len());
            deepest = deepest.max(pending.len());
            assert_eq!(queue.slab.len(), deepest, "a push left a vacated slot unused");
            assert_eq!(queue.slab.len(), queue.len() + queue.free.len());
        }
        let reused = next_id as usize - deepest;
        assert!(reused > 1000, "only {reused} of {next_id} pushes reused a slot");
        for want in pending {
            assert_eq!(queue.pop(), Some(want));
        }
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.peek_at(), None);
    }

    #[test]
    fn same_tick_drains_in_push_order() {
        let mut q = EventQueue::new();
        // Two ticks interleaved out of order.
        q.push(500, 'a');
        q.push(100, 'b');
        q.push(500, 'c');
        q.push(100, 'd');
        q.push(500, 'e');
        let drained: Vec<(u64, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            drained,
            vec![(100, 'b'), (100, 'd'), (500, 'a'), (500, 'c'), (500, 'e')]
        );
    }

    #[test]
    fn far_future_then_near_past_ordering() {
        let mut q = EventQueue::new();
        q.push(1 << 50, 'f');
        q.push(10, 'a');
        assert_eq!(q.pop(), Some((10, 'a')));
        // A push at the time just popped still pops before later ones.
        q.push(10, 'b');
        assert_eq!(q.pop(), Some((10, 'b')));
        assert_eq!(q.pop(), Some((1 << 50, 'f')));
        assert_eq!(q.pop(), None);
    }

    /// Counts its own drops in a shared cell.
    struct Counted(Rc<Cell<usize>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// Every payload is dropped exactly once: by its popper, or by the
    /// queue when it is dropped still holding it — including payloads
    /// in reused slots.
    #[test]
    fn every_payload_drops_exactly_once() {
        let drops = Rc::new(Cell::new(0));
        let mut q = EventQueue::new();
        for at in 0..40u64 {
            q.push(at % 7, Counted(drops.clone()));
        }
        for popped in 1..=25 {
            drop(q.pop().expect("queued"));
            assert_eq!(drops.get(), popped);
        }
        // Refill into the vacated slots, then drop the queue.
        for at in 0..10u64 {
            q.push(at, Counted(drops.clone()));
        }
        assert_eq!((q.len(), q.slab.len()), (25, 40));
        assert_eq!(drops.get(), 25, "a push or a pop dropped a payload it did not own");
        drop(q);
        assert_eq!(drops.get(), 50, "each of the 50 payloads drops once");
    }
}
