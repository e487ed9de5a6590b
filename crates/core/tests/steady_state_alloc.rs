//! Steady-state `Turquois::on_message` performs no heap allocation:
//! once a receiver holds the facts a frame carries — the common case,
//! every tick re-broadcasts the same justified state to every
//! neighbour — a bare broadcast and a justified re-broadcast are both
//! processed out of the receive buffer, the stores and two recycled
//! scratch vectors, and so is another sender's frame carrying a bundle
//! the receiver has absorbed. Re-broadcasting an unchanged state reuses
//! its wire bytes and allocates nothing either.
//!
//! Key set-up is held to the same counter: `KeyRing::trusted_setup`
//! makes `O(n)` allocations whatever the phase count, and cloning a
//! ring makes `O(1)`.
//!
//! Measured with a counting global allocator (this file is its own
//! crate, so `turquois-core` itself stays `forbid(unsafe_code)`); the
//! counter is thread-local, so the test harness's other threads cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use turquois_core::config::Config;
use turquois_core::instance::{MessageOutcome, Turquois};
use turquois_core::message::{Envelope, Message, Status};
use turquois_core::KeyRing;
use turquois_crypto::otss::Value;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell` without a destructor, so
// touching it neither allocates nor can observe a destroyed value.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

fn note(size: usize) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// Bytes requested by this thread while `f` runs (frees not subtracted).
fn bytes_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (BYTES.with(Cell::get) - before, r)
}

fn claim(sender: usize, phase: u32) -> Envelope {
    Envelope {
        sender,
        phase,
        value: Value::One,
        coin_flip: false,
        status: Status::Undecided,
    }
}

#[test]
fn trusted_setup_allocates_in_proportion_to_n_only() {
    // Four per process — its epoch and block table, its one-epoch list
    // in the shared table, its ring's `own_epochs` — and a handful of
    // containers. (The parent made n² + O(n).)
    for n in [16usize, 64] {
        let (count, rings) = allocations_in(|| KeyRing::trusted_setup(n, 600, 3));
        assert!(count <= 5 * n as u64, "n={n}: {count} allocations");
        drop(rings);
    }
    for phases in [30usize, 600, 60_000] {
        let ring = KeyRing::trusted_setup(4, phases, 3).remove(0);
        let (count, copy) = allocations_in(|| ring.clone());
        assert!(
            count <= 1,
            "{phases} phases: a clone made {count} allocations"
        );
        drop(copy);
    }
}

#[test]
fn a_million_phase_setup_pays_only_for_the_phases_touched() {
    // Materialised, 16 × 10⁶ phases × 192 B of keys is 3 GB (and ≈ 7 s
    // of hashing); the set-up may ask for under a hundredth of it.
    const PHASES: usize = 1_000_000;
    let (bytes, rings) = bytes_in(|| KeyRing::trusted_setup(16, PHASES, 7));
    assert!(
        bytes < 3_000_000_000 / 100,
        "set-up requested {bytes} bytes"
    );
    let (bytes, ()) = bytes_in(|| {
        for phase in [999_999u32, 1] {
            let sig = rings[0].sign(phase, Value::One).expect("in range");
            assert!(rings[15].verify(&claim(0, phase), &sig));
            assert!(!rings[15].verify(&claim(1, phase), &sig));
        }
    });
    assert!(bytes < 100_000, "touching two phases requested {bytes} bytes");
}

/// Allocations of an unchanged re-broadcast (`Turquois::on_tick`):
/// none. Its wire bytes are reused, and the debug builds' rebuild of
/// the bundle runs out of the engine's recycled bundle.
const REBROADCAST_ALLOCATIONS: u64 = 0;

#[test]
fn repeat_deliveries_allocate_nothing() {
    const PHASES: usize = 30;
    for n in [4usize, 16, 64] {
        let cfg = Config::evaluation(n).expect("valid n");
        let mut procs: Vec<Turquois> = KeyRing::trusted_setup(n, PHASES, 0xa110c)
            .into_iter()
            .enumerate()
            .map(|(i, ring)| Turquois::new(cfg, i, true, ring, 7 + i as u64))
            .collect();
        let first: Vec<_> = procs
            .iter_mut()
            .map(|p| p.on_tick().expect("keys cover phase"))
            .collect();
        let (head, rest) = procs.split_at_mut(1);
        let sender = &mut head[0];
        let [receiver, other, ..] = rest else {
            unreachable!("n ≥ 4")
        };
        for bytes in &first {
            sender.on_message(bytes);
        }
        assert_eq!(sender.phase(), 2);
        let bare = sender.on_tick().expect("keys cover phase");
        let justified = sender.on_tick().expect("keys cover phase");
        let bundle = Message::decode(&justified, &cfg)
            .expect("own encoding")
            .justification
            .len();
        assert!(
            bundle >= cfg.quorum_min(),
            "a re-broadcast carries its quorum"
        );
        let (count, again) = allocations_in(|| sender.on_tick().expect("keys cover phase"));
        assert_eq!(again, justified, "the state has not changed");
        assert_eq!(count, REBROADCAST_ALLOCATIONS, "n={n}: unchanged re-broadcast");

        // First sight pays: slots, signatures, scratch capacity. (The
        // receiver has heard nothing yet, so the bundle is what makes
        // the phase-2 claim acceptable.)
        let (first_sight, receipt) = allocations_in(|| receiver.on_message(&justified));
        assert_eq!(receipt.outcome, MessageOutcome::Accepted);
        assert_eq!(receipt.sig_verifications, bundle + 1);
        assert!(
            first_sight > 0,
            "n={n}: first sight should have had to allocate"
        );

        for round in 0..3 {
            for (what, bytes) in [("bare", &bare), ("justified", &justified)] {
                let (count, receipt) = allocations_in(|| receiver.on_message(bytes));
                assert_eq!(receipt.outcome, MessageOutcome::Duplicate);
                assert_eq!(count, 0, "n={n} round {round}: {what} repeat allocated");
            }
        }

        // Another sender's re-broadcast from the same evidence carries
        // the same bundle: the receiver's remembered frame answers its
        // attachments, and only its own record is new.
        for bytes in &first {
            other.on_message(bytes);
        }
        other.on_tick().expect("keys cover phase");
        let same_bundle = other.on_tick().expect("keys cover phase");
        let justification = |bytes| Message::decode(bytes, &cfg).expect("own encoding").justification;
        assert_eq!(justification(&same_bundle), justification(&justified));
        let (count, receipt) = allocations_in(|| receiver.on_message(&same_bundle));
        assert_eq!(receipt.outcome, MessageOutcome::Accepted);
        assert_eq!(count, 0, "n={n}: a remembered bundle's delivery allocated");

        // The same for a `decided` claim, whose status check walks the
        // stored decide phases: run everyone to a decision, then nine
        // phases on, so the snapshot sits below the receiver's GC floor
        // (8 phases under its own) and the claim's decide quorum is
        // counted over the frame's below-floor attachments.
        while procs.iter().any(|p| p.decision().is_none()) {
            exchange(&mut procs);
        }
        let decided_at = procs[1].phase();
        while procs[1].phase() < decided_at + 9 {
            exchange(&mut procs);
        }
        let (head, rest) = procs.split_at_mut(1);
        let (sender, receiver) = (&mut head[0], &mut rest[0]);
        let bare = sender.on_tick().expect("keys cover phase");
        let decided = sender.on_tick().expect("keys cover phase");
        let message = Message::decode(&decided, &cfg).expect("own encoding");
        assert_eq!(message.envelope.status, Status::Decided);
        let lowest = message.justification.iter().map(|(e, _)| e.phase).min();
        let below_floor = lowest.is_some_and(|p| p + 8 < receiver.phase());
        assert!(below_floor, "n={n}: no attachment below the floor");
        let (count, again) = allocations_in(|| sender.on_tick().expect("keys cover phase"));
        assert_eq!(again, decided, "the state has not changed");
        assert_eq!(count, REBROADCAST_ALLOCATIONS, "n={n}: unchanged decided re-broadcast");
        receiver.on_message(&decided);
        // The repeat path, then the full path in release builds too: a
        // bare frame in between replaces the remembered one.
        for (what, before) in [("repeat", None), ("full-path", Some(&bare))] {
            if let Some(bytes) = before {
                receiver.on_message(bytes);
            }
            let (count, receipt) = allocations_in(|| receiver.on_message(&decided));
            assert_eq!(receipt.outcome, MessageOutcome::Duplicate);
            assert_eq!(count, 0, "n={n}: {what} decided delivery allocated");
        }
    }
}

/// One lossless round: every process broadcasts, everyone hears all.
fn exchange(procs: &mut [Turquois]) {
    let round: Vec<_> = procs
        .iter_mut()
        .map(|p| p.on_tick().expect("keys cover phase"))
        .collect();
    for p in procs.iter_mut() {
        for bytes in &round {
            p.on_message(bytes);
        }
    }
}
