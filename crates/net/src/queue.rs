//! The discrete-event simulator's pending-event set.
//!
//! The simulator orders every pending event by the total order
//! `(at, seq)`: primary key is the simulated firing time in
//! nanoseconds, ties break by insertion sequence number so that
//! same-tick events drain in the exact order they were scheduled.
//!
//! The engine is a hierarchical timer wheel (`TimerWheel`) whose near
//! horizon is a small binary heap, giving amortised `O(1)` scheduling
//! for the dense short-horizon traffic (backoff slots, SIFS/DIFS gaps,
//! frame airtimes) that dominates a run. It is a pure data structure,
//! invisible to simulated time: the pop sequence is exactly the one a
//! global `(at, seq)` min-heap would give, which the model tests below
//! check at every horizon; DESIGN.md §9 has the proof sketch.
//!
//! # Wheel geometry
//!
//! Level-0 slots span `2^12` ns = 4.096 µs — finer than every 802.11b
//! MAC quantum in [`crate::config::PhyConfig`] (SIFS 10 µs, slot time
//! 20 µs, DIFS 50 µs), so consecutive MAC events land in distinct or
//! adjacent slots, while the sub-slot events of one exchange
//! (propagation 500 ns) collapse into the near heap, which orders them
//! exactly. Six levels of 64 slots cover `2^48` ns ≈ 3.26 simulated
//! days; anything later (long crash/rejoin schedules) parks in a
//! `BTreeMap` overflow and migrates into the wheel when the cursor
//! reaches its window.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One scheduled item: fires at `at` ns, ties broken by `seq`.
#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Bits per wheel level: 64 slots.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Level-0 slot granularity: `2^12` ns = 4.096 µs (see module docs).
const SHIFT0: u32 = 12;
/// Number of wheel levels above the near heap.
const LEVELS: usize = 6;

/// Bit position where level `k`'s slot index starts.
#[inline]
fn level_shift(level: usize) -> u32 {
    SHIFT0 + SLOT_BITS * level as u32
}

/// One wheel level: 64 slot buckets plus an occupancy bitmap (bit `s`
/// set ⇔ `slots[s]` non-empty). Slot `Vec`s keep their capacity across
/// drain/refill cycles, so the steady state allocates nothing.
#[derive(Debug)]
struct Level<T> {
    slots: Vec<Vec<Entry<T>>>,
    occupied: u64,
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }
}

/// Hierarchical timer wheel preserving exact `(at, seq)` order.
///
/// Invariants (see DESIGN.md §9 for the ordering argument):
///
/// * `near` holds every pending entry in the cursor's level-0 slot
///   (plus any defensively accepted `at <= cur` entry), ordered by
///   `(at, seq)` — its minimum is the global minimum.
/// * A level-`k` slot `s` is occupied only for `s` strictly ahead of
///   the cursor's level-`k` index within the cursor's level-`(k+1)`
///   slot, so bitmap scans never wrap.
/// * `overflow` holds entries beyond the top level's `2^48` ns window;
///   all of them fire after every in-wheel entry.
#[derive(Debug)]
struct TimerWheel<T> {
    /// Cursor: the start (or an interior point) of the level-0 slot
    /// currently draining through `near`. Monotone non-decreasing.
    cur: u64,
    near: BinaryHeap<Reverse<Entry<T>>>,
    levels: Vec<Level<T>>,
    overflow: BTreeMap<(u64, u64), T>,
    len: usize,
}

impl<T> TimerWheel<T> {
    fn new() -> Self {
        TimerWheel {
            cur: 0,
            near: BinaryHeap::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    fn push(&mut self, entry: Entry<T>) {
        self.len += 1;
        self.insert(entry);
    }

    /// Routes an entry to the near heap, a wheel slot, or overflow.
    /// Does not touch `len` (also used for refill re-insertion).
    fn insert(&mut self, entry: Entry<T>) {
        let diff = entry.at ^ self.cur;
        if entry.at <= self.cur || diff >> SHIFT0 == 0 {
            // Past/current times or the cursor's own slot: the heap
            // orders them exactly.
            self.near.push(Reverse(entry));
            return;
        }
        for level in 0..LEVELS {
            if diff >> level_shift(level + 1) == 0 {
                let slot = ((entry.at >> level_shift(level)) & (SLOTS as u64 - 1)) as usize;
                let lvl = &mut self.levels[level];
                lvl.slots[slot].push(entry);
                lvl.occupied |= 1u64 << slot;
                return;
            }
        }
        self.overflow.insert((entry.at, entry.seq), entry.item);
    }

    /// Advances the cursor until `near` holds the global minimum.
    /// No-op when `near` is already non-empty or the wheel is empty.
    fn refill(&mut self) {
        loop {
            if !self.near.is_empty() {
                return;
            }
            if let Some(level) = (0..LEVELS).find(|&k| self.levels[k].occupied != 0) {
                // All lower levels and the near heap are empty, so the
                // earliest pending time lives in this level's first
                // occupied slot. Advance the cursor to that slot's
                // start and cascade its entries downwards.
                let slot = self.levels[level].occupied.trailing_zeros() as u64;
                let above = level_shift(level + 1);
                debug_assert!(above < 64);
                self.cur = (self.cur & (!0u64 << above)) | (slot << level_shift(level));
                let mut batch = std::mem::take(&mut self.levels[level].slots[slot as usize]);
                self.levels[level].occupied &= !(1u64 << slot);
                for entry in batch.drain(..) {
                    self.insert(entry);
                }
                // Cascaded entries always land strictly below `level`
                // (their high bits now match the cursor), so the slot
                // is still empty: hand its capacity back.
                debug_assert!(self.levels[level].slots[slot as usize].is_empty());
                std::mem::swap(&mut self.levels[level].slots[slot as usize], &mut batch);
                continue;
            }
            // Wheel empty: jump the cursor to the first overflow entry
            // and migrate everything inside its top-level window.
            let Some((&(at, _), _)) = self.overflow.first_key_value() else {
                return;
            };
            self.cur = at;
            let window_end = ((at >> level_shift(LEVELS)) + 1) << level_shift(LEVELS);
            let later = self.overflow.split_off(&(window_end, 0));
            let in_window = std::mem::replace(&mut self.overflow, later);
            for ((at, seq), item) in in_window {
                self.insert(Entry { at, seq, item });
            }
        }
    }

    fn pop(&mut self) -> Option<Entry<T>> {
        if self.len == 0 {
            return None;
        }
        self.refill();
        let Reverse(entry) = self.near.pop()?;
        self.len -= 1;
        Some(entry)
    }

    /// Firing time of the earliest pending entry. `&mut` because it
    /// may advance the cursor to surface that entry in `near`.
    fn peek_at(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.refill();
        self.near.peek().map(|Reverse(e)| e.at)
    }
}

/// The simulator's pending-event set: a total order over `(at, seq)`.
///
/// Sequence numbers are assigned internally in push order, so ties on
/// `at` always drain first-scheduled-first.
#[derive(Debug)]
pub struct EventQueue<T> {
    seq: u64,
    wheel: TimerWheel<T>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            seq: 0,
            wheel: TimerWheel::new(),
        }
    }

    /// Schedules `item` at `at_nanos`, after everything already
    /// scheduled for the same time.
    pub fn push(&mut self, at_nanos: u64, item: T) {
        let entry = Entry {
            at: at_nanos,
            seq: self.seq,
            item,
        };
        self.seq += 1;
        self.wheel.push(entry);
    }

    /// Removes and returns the earliest `(at, item)`, or `None` when
    /// empty.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.wheel.pop().map(|e| (e.at, e.item))
    }

    /// Firing time of the earliest pending item, or `None` when empty.
    ///
    /// Takes `&mut self`: the wheel may advance its cursor to answer.
    pub fn peek_at(&mut self) -> Option<u64> {
        self.wheel.peek_at()
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Drives the queue and a global `(at, seq)` min-heap model through
    /// the same push/pop interleaving and asserts every popped
    /// `(at, item)` pair matches. Pushes are monotone w.r.t. the last
    /// popped time, as in the simulator.
    fn differential(seed: u64, ops: usize, max_delay: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        // The item doubles as the sequence number.
        let mut model: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut wheel = EventQueue::new();
        let mut now = 0u64;
        let mut next_id = 0u32;
        for _ in 0..ops {
            if rng.gen_bool(0.6) || model.is_empty() {
                let burst = rng.gen_range(1..4usize);
                for _ in 0..burst {
                    let at = now + rng.gen_range(0..max_delay);
                    model.push(Reverse((at, next_id)));
                    wheel.push(at, next_id);
                    next_id += 1;
                }
            } else {
                let Reverse(want) = model.pop().expect("non-empty");
                assert_eq!(wheel.pop(), Some(want), "diverged from the model at now={now}");
                assert_eq!(wheel.peek_at(), model.peek().map(|Reverse((at, _))| *at));
                now = want.0;
            }
            assert_eq!(wheel.len(), model.len());
        }
        while let Some(Reverse(want)) = model.pop() {
            assert_eq!(wheel.pop(), Some(want));
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn wheel_matches_heap_short_horizon() {
        // Sub-slot to a few MAC slots: exercises the near heap.
        differential(1, 4000, 30_000);
    }

    #[test]
    fn wheel_matches_heap_mixed_horizon() {
        // Microseconds to tens of milliseconds: exercises levels 0–3.
        differential(2, 4000, 40_000_000);
    }

    #[test]
    fn wheel_matches_heap_long_horizon() {
        // Up to ~18 minutes: exercises the upper levels.
        differential(3, 2000, 1_000_000_000_000);
    }

    #[test]
    fn wheel_matches_heap_overflow_horizon() {
        // Past the 2^48 ns top window: exercises the overflow map.
        differential(4, 1500, 1 << 52);
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
    fn slot_granularity_is_below_mac_quanta() {
        // The wheel only orders-by-heap within one level-0 slot; the
        // 802.11b MAC quanta must each span at least one full slot so
        // that per-slot heaps stay small.
        let phy = crate::config::PhyConfig::default();
        let slot_ns = 1u64 << SHIFT0;
        assert!(slot_ns <= phy.sifs.as_nanos() as u64);
        assert!(slot_ns <= phy.slot.as_nanos() as u64);
        assert!(slot_ns <= phy.difs.as_nanos() as u64);
    }

    #[test]
    fn far_future_then_near_past_ordering() {
        let mut q = EventQueue::new();
        q.push(1 << 50, 'f');
        q.push(10, 'a');
        assert_eq!(q.pop(), Some((10, 'a')));
        // Cursor has advanced to 10; a same-time push must still pop.
        q.push(10, 'b');
        assert_eq!(q.pop(), Some((10, 'b')));
        assert_eq!(q.pop(), Some((1 << 50, 'f')));
        assert_eq!(q.pop(), None);
    }
}
