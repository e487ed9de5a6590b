//! `Bracha::on_message` allocates only for a genuinely new fact: a
//! repeated ECHO or READY — the bulk of Bracha's O(n²) votes per
//! broadcast once a few copies have arrived — makes no heap allocation,
//! before and after the instance delivers, and a vote from a new sender
//! for a payload the instance already holds makes none either. Only a
//! payload's first vote in a table pays, a fixed amount whatever `n`.
//!
//! Measured with a counting global allocator (this file is its own
//! crate, so `turquois-baselines` itself stays `forbid(unsafe_code)`);
//! the counter is thread-local, so the test harness's other threads
//! cannot disturb it.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use turquois_baselines::rbc::{RbcMessage, Tag};
use turquois_baselines::Bracha;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell` without a destructor, so
// touching it neither allocates nor can observe a destroyed value.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; both are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// The most a payload's first vote in an ECHO or READY table may
/// allocate: the payload's owned copy (two with the vendored `Bytes`,
/// its `Arc` and its buffer), the vote's sender bitset, and the table's
/// first slot.
const FIRST_VOTE_ALLOCATIONS: u64 = 4;

#[test]
fn repeated_votes_allocate_nothing() {
    for n in [7usize, 16, 64] {
        let f = (n - 1) / 3;
        let mut engine = Bracha::new(n, f, 0, true, 3);
        let tag = Tag {
            origin: 1,
            round: 1,
            step: 1,
        };
        let echo = |payload: u8| {
            RbcMessage::Echo {
                tag,
                payload: Bytes::copy_from_slice(&[payload]),
            }
            .encode()
        };
        let ready = RbcMessage::Ready {
            tag,
            payload: Bytes::copy_from_slice(&[1]),
        }
        .encode();
        // The instance's first message creates it and its round.
        engine.on_message(1, &echo(1));
        let mut heard = vec![(1, echo(1))];
        let repeat_all = |engine: &mut Bracha, heard: &[(usize, Bytes)], when: &str| {
            for (from, wire) in heard {
                let (count, out) = allocations_in(|| engine.on_message(*from, wire));
                assert!(out.send.is_empty() && out.newly_decided.is_none());
                assert_eq!(count, 0, "n={n}, {when}: repeat from {from} allocated");
            }
        };
        repeat_all(&mut engine, &heard, "one echo");

        // A second sender for the held payload is one bit.
        let wire = echo(1);
        let (count, _) = allocations_in(|| engine.on_message(2, &wire));
        assert_eq!(count, 0, "n={n}: a new sender of a held payload allocated");
        heard.push((2, wire));

        // A payload's first vote in a table pays a fixed amount: the
        // first READY, and an equivocating ECHO.
        for (from, wire) in [(1, ready.clone()), (3, echo(0))] {
            let (count, out) = allocations_in(|| engine.on_message(from, &wire));
            assert!(out.send.is_empty());
            assert!(count <= FIRST_VOTE_ALLOCATIONS, "n={n}: a first vote made {count}");
            heard.push((from, wire));
        }
        repeat_all(&mut engine, &heard, "before delivery");

        // Enough READYs to amplify and deliver; repeats still allocate
        // nothing once the instance has delivered.
        for from in 2..=2 * f + 1 {
            engine.on_message(from, &ready);
            heard.push((from, ready.clone()));
        }
        assert_eq!(engine.deliveries(), 1, "n={n}: the instance delivered");
        repeat_all(&mut engine, &heard, "after delivery");
    }
}
