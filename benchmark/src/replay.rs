//! Replaying one node's recorded callbacks through a bare engine.
//!
//! The traced pass records, at one always-correct node of every
//! Turquois job, the exact sequence of callbacks the simulator made
//! (frame bytes or timer id). Feeding that sequence to a fresh
//! `Turquois` built from the same parameters, with the adapter's own
//! tick rule, must land on the live node's final phase and decision —
//! if it does not, the recording or the rule is wrong and the `core`
//! metrics are reported as failed instead of as numbers. When it does,
//! the replay is the engine with the adapter and the simulator peeled
//! off: timing it gives `turquois-core`'s own cost on real traffic,
//! and the same frames feed stand-alone probes of decode, verify and
//! store insert.

use crate::alloc;
use crate::surface::{MessageOutcome, MessageStore, MessageView, OneTimeSignature, Turquois};
use crate::traced::{Callback, EngineSeed, Fold};
use std::collections::HashSet;
use std::time::Instant;

/// What replaying one job's recording measured.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// The replay reached the live node's phase and decision.
    pub faithful: bool,
    /// Frames fed to `on_message`.
    pub frames: u64,
    /// Their total length, bytes.
    pub frame_bytes: u64,
    /// Justification entries carried by the frames that decode.
    pub just_entries: u64,
    /// Frames the engine accepted or recognised as duplicates.
    pub accepted: u64,
    /// `Turquois::on_message`, one span per frame.
    pub on_message: Fold,
    /// `Turquois::on_tick`, one span per broadcast.
    pub on_tick: Fold,
    /// `MessageView::parse`, one span per frame.
    pub decode: Fold,
    /// `KeyRing::verify`, one span per distinct signature.
    pub verify: Fold,
    /// `MessageStore::insert`, one span per decoded frame.
    pub store_insert: Fold,
    /// Allocations made inside `on_message` (0 unless the counting
    /// allocator is installed).
    pub on_message_allocs: u64,
}

impl Replay {
    /// Adds another job's replay.
    pub fn merge(&mut self, other: &Replay) {
        self.frames += other.frames;
        self.frame_bytes += other.frame_bytes;
        self.just_entries += other.just_entries;
        self.accepted += other.accepted;
        self.on_message.merge(&other.on_message);
        self.on_tick.merge(&other.on_tick);
        self.decode.merge(&other.decode);
        self.verify.merge(&other.verify);
        self.store_insert.merge(&other.store_insert);
        self.on_message_allocs += other.on_message_allocs;
    }

    /// Host ns the engine spent in the replay (`on_message` + `on_tick`).
    pub fn engine_ns(&self) -> u64 {
        self.on_message.total_ns + self.on_tick.total_ns
    }
}

/// The adapter's tick rule (`TurquoisApp`): broadcast on start, on the
/// newest generation's timer, and whenever the phase advanced; every
/// broadcast starts a new timer generation; stop for good once the
/// one-time keys run out.
#[derive(Default)]
struct Ticker {
    generation: u64,
    exhausted: bool,
}

impl Ticker {
    fn broadcast(&mut self, engine: &mut Turquois, fold: &mut Fold) {
        if self.exhausted {
            return;
        }
        match timed(fold, || engine.on_tick()) {
            Ok(_) => self.generation += 1,
            Err(_) => self.exhausted = true,
        }
    }
}

fn timed<R>(fold: &mut Fold, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let d = t0.elapsed().as_nanos() as u64;
    fold.add(d, d);
    r
}

/// Replays `callbacks` through a fresh engine and probes the frames.
/// `live` is the live node's final `(phase, decision)`.
pub fn replay(seed: &EngineSeed, callbacks: &[Callback], live: (u32, Option<bool>)) -> Replay {
    let mut out = Replay::default();
    let mut engine = Turquois::new(
        seed.cfg,
        seed.ring.id(),
        seed.proposal,
        seed.ring.clone(),
        seed.seed,
    );
    let mut ticker = Ticker::default();
    for callback in callbacks {
        match callback {
            Callback::Start => ticker.broadcast(&mut engine, &mut out.on_tick),
            Callback::Timer(id) => {
                if *id == ticker.generation {
                    ticker.broadcast(&mut engine, &mut out.on_tick);
                }
            }
            Callback::Frame(bytes) => {
                out.frames += 1;
                out.frame_bytes += bytes.len() as u64;
                let before = alloc::totals().0;
                let was = alloc::counting(true);
                let receipt = timed(&mut out.on_message, || engine.on_message(bytes));
                alloc::counting(was);
                out.on_message_allocs += alloc::totals().0 - before;
                if matches!(
                    receipt.outcome,
                    MessageOutcome::Accepted | MessageOutcome::Duplicate
                ) {
                    out.accepted += 1;
                }
                if receipt.phase_advanced {
                    ticker.broadcast(&mut engine, &mut out.on_tick);
                }
            }
        }
    }
    out.faithful = (engine.phase(), engine.decision()) == live;

    // Stand-alone probes over the same frames.
    let mut store = MessageStore::new(seed.cfg.n());
    let mut seen: HashSet<(usize, u32, OneTimeSignature)> = HashSet::new();
    for callback in callbacks {
        let Callback::Frame(bytes) = callback else {
            continue;
        };
        let Ok(view) = timed(&mut out.decode, || MessageView::parse(bytes, &seed.cfg)) else {
            continue;
        };
        out.just_entries += view.justification_len() as u64;
        let (envelope, signature) = (view.envelope(), view.signature());
        if seen.insert((envelope.sender, envelope.phase, signature)) {
            timed(&mut out.verify, || seed.ring.verify(&envelope, &signature));
        }
        timed(&mut out.store_insert, || store.insert(&envelope, signature));
    }
    out
}
