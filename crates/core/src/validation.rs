//! Semantic validation of messages (paper §6.2).
//!
//! Authenticity validation (§6.1, see [`crate::keyring`]) proves that
//! `(φ, v)` originated at the claimed sender; semantic validation proves
//! that the claim is *congruent with the execution* — that enough earlier
//! messages exist to justify the phase, the value, and the status. This
//! is what confines Byzantine lies: a compromised process may only send
//! states that some correct execution could have produced.
//!
//! Evidence is counted over an *authentic-evidence store* (every
//! correctly-signed message seen, including justification attachments)
//! plus the attachments of the message currently being validated
//! (`EvidenceView`). Thresholds are the paper's: `> (n+f)/2` (quorum)
//! and `> ((n+f)/2)/2` (half-quorum), in exact integer arithmetic. Every
//! threshold's minimum exceeds `f`, so evidence fabricated exclusively by
//! Byzantine processes can never satisfy a check — each satisfied check
//! names at least one correct process that genuinely sent the claimed
//! message.

use crate::config::Config;
use crate::message::{Envelope, Status};
use crate::state::PhaseKind;
use crate::store::MessageStore;
use std::fmt;
use turquois_crypto::otss::{bot_legal_at, OneTimeSignature, Value};

/// Why a message failed semantic validation.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum RejectReason {
    /// `⊥` appeared in a phase where it is not a legal proposal.
    BotIllegalHere,
    /// The coin-provenance flag was set outside a CONVERGE phase.
    CoinFlagOutsideConverge,
    /// No quorum of phase `φ − 1` messages justifies the phase.
    PhaseUnjustified,
    /// The proposal value lacks its required evidence.
    ValueUnjustified,
    /// `decided` claimed at phase ≤ 3 (impossible) or without a decide
    /// quorum.
    DecidedUnjustified,
    /// `undecided` claimed past phase 3 without divergence evidence.
    UndecidedUnjustified,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::BotIllegalHere => "⊥ illegal at this phase",
            RejectReason::CoinFlagOutsideConverge => "coin flag outside CONVERGE phase",
            RejectReason::PhaseUnjustified => "phase not justified by a quorum",
            RejectReason::ValueUnjustified => "value not justified",
            RejectReason::DecidedUnjustified => "decided status not justified",
            RejectReason::UndecidedUnjustified => "undecided status not justified",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RejectReason {}

/// Evidence = the persistent authentic store plus attachments of the
/// message under validation that are *not* in the store (the engine
/// passes the ones below its GC floor; attachments that are also stored
/// are harmless), with senders deduplicated across both.
///
/// The view sorts the attachments by `(phase, sender)` once, so a count
/// is a binary search for the phase's run plus one pass over it, a
/// repeated sender sitting next to its first entry.
pub(crate) struct EvidenceView<'a> {
    store: &'a MessageStore,
    extra: &'a [(Envelope, OneTimeSignature)],
}

impl<'a> EvidenceView<'a> {
    /// Creates a view over `store` extended by `extra` attachments
    /// (already authenticity-checked by the caller), sorting `extra` in
    /// place (`sort_unstable` allocates nothing).
    pub fn new(store: &'a MessageStore, extra: &'a mut [(Envelope, OneTimeSignature)]) -> Self {
        extra.sort_unstable_by_key(|(env, _)| (env.phase, env.sender));
        EvidenceView { store, extra }
    }

    /// Distinct senders with any message at `phase`.
    pub(crate) fn count_phase(&self, phase: u32) -> usize {
        self.store.count_phase(phase)
            + self.count_extra(phase, |env| !self.store.has_sender(phase, env.sender))
    }

    /// Distinct senders with a `(phase, value)` message.
    pub(crate) fn count_value(&self, phase: u32, value: Value) -> usize {
        self.store.count_value(phase, value)
            + self.count_extra(phase, |env| {
                env.value == value && !self.store.has_sender_value(phase, env.sender, value)
            })
    }

    /// Distinct senders among the attachments at `phase` that `keep`
    /// admits. `keep` depends only on the sender and the value, and the
    /// run is sorted by sender, so a sender's admitted entries follow
    /// one another.
    fn count_extra(&self, phase: u32, keep: impl Fn(&Envelope) -> bool) -> usize {
        let start = self.extra.partition_point(|(env, _)| env.phase < phase);
        let mut last: Option<usize> = None;
        self.extra[start..]
            .iter()
            .take_while(|(env, _)| env.phase == phase)
            .filter(|(env, _)| keep(env) && last.replace(env.sender) != Some(env.sender))
            .count()
    }

    /// The lowest DECIDE phase strictly below `limit`, present in
    /// either evidence source, whose senders carrying `value` exceed a
    /// quorum: what justifies a `decided` claim on `value` (§6.2).
    pub(crate) fn lowest_decide_quorum(
        &self,
        cfg: &Config,
        limit: u32,
        value: Value,
    ) -> Option<u32> {
        let carries = |psi| cfg.exceeds_quorum(self.count_value(psi, value));
        let stored = self
            .store
            .decide_phases()
            .take_while(|&p| p < limit)
            .find(|&p| carries(p));
        let below = stored.unwrap_or(limit);
        // The attachments' distinct phases come in ascending order, so
        // the first DECIDE phase that carries is the lowest.
        let mut last = None;
        self.extra
            .iter()
            .map(|(env, _)| env.phase)
            .take_while(|&p| p < below)
            .filter(|&p| last.replace(p) != Some(p) && PhaseKind::of(p) == PhaseKind::Decide)
            .find(|&p| carries(p))
            .or(stored)
    }
}

/// How many distinct senders a [`Need`] asks for.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum Threshold {
    /// More than `(n + f)/2`.
    Quorum,
    /// More than `((n + f)/2)/2`.
    HalfQuorum,
}

impl Threshold {
    /// Whether `count` distinct senders meet the threshold.
    fn holds(self, cfg: &Config, count: usize) -> bool {
        match self {
            Threshold::Quorum => cfg.exceeds_quorum(count),
            Threshold::HalfQuorum => cfg.exceeds_half_quorum(count),
        }
    }

    /// The fewest distinct senders that meet the threshold.
    pub(crate) fn min(self, cfg: &Config) -> usize {
        match self {
            Threshold::Quorum => cfg.quorum_min(),
            Threshold::HalfQuorum => cfg.half_quorum_min(),
        }
    }
}

/// One §6.2 requirement: messages at `phase` (carrying `value`, when
/// given) from enough distinct senders to meet `threshold`, or the
/// claim is rejected for `reason`.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) struct Need {
    pub(crate) phase: u32,
    pub(crate) value: Option<Value>,
    pub(crate) threshold: Threshold,
    pub(crate) reason: RejectReason,
}

/// What justifies the phase and the value of `env` (§6.2), in bundle
/// order: the value needs first (their messages double as phase
/// evidence when they sit at `φ − 1`), the `φ − 1` phase quorum last.
/// `None` is an empty slot; phase-1 messages need nothing.
/// [`semantic_check`] evaluates these needs and
/// `Turquois::build_justification` assembles bundles to them; this is
/// the one copy of the rule.
pub(crate) fn needs(env: &Envelope) -> [Option<Need>; 3] {
    use Threshold::{HalfQuorum, Quorum};
    let phase = env.phase;
    let value = |back, value, threshold| {
        Some(Need {
            phase: phase - back,
            value: Some(value),
            threshold,
            reason: RejectReason::ValueUnjustified,
        })
    };
    let [a, b] = match PhaseKind::of(phase) {
        // "Messages with phase value φ = 1 are the only that do not
        // require validation."
        _ if phase == 1 => [None, None],
        // LOCK: v justified by more than half a quorum at φ−1.
        PhaseKind::Lock => [value(1, env.value, HalfQuorum), None],
        // DECIDE: ⊥ needs half-quorums of both binary values at φ−2; a
        // binary v needs a quorum at φ−1.
        PhaseKind::Decide if env.value == Value::Bot => [
            value(2, Value::Zero, HalfQuorum),
            value(2, Value::One, HalfQuorum),
        ],
        PhaseKind::Decide => [value(1, env.value, Quorum), None],
        // CONVERGE (φ > 1): coin values need a quorum of ⊥ at φ−1;
        // deterministic values need a quorum carrying v at φ−2.
        PhaseKind::Converge if env.coin_flip => [value(1, Value::Bot, Quorum), None],
        PhaseKind::Converge => [value(2, env.value, Quorum), None],
    };
    // "The phase value φ requires more than (n+f)/2 messages of the form
    // ⟨*, φ−1, *, *⟩."
    let phase_need = (phase > 1).then(|| Need {
        phase: phase - 1,
        value: None,
        threshold: Quorum,
        reason: RejectReason::PhaseUnjustified,
    });
    [a, b, phase_need]
}

/// Validates `env` semantically against the evidence.
///
/// # Errors
///
/// Returns the first [`RejectReason`] encountered, checking structure,
/// then phase, then value, then status — mirroring §6.2's independent
/// per-variable validation.
pub(crate) fn semantic_check(
    env: &Envelope,
    cfg: &Config,
    view: &EvidenceView<'_>,
) -> Result<(), RejectReason> {
    structure_ok(env)?;
    // Reversed, the bundle order puts the phase need first.
    for need in needs(env).into_iter().rev().flatten() {
        let count = match need.value {
            None => view.count_phase(need.phase),
            Some(value) => view.count_value(need.phase, value),
        };
        if !need.threshold.holds(cfg, count) {
            return Err(need.reason);
        }
    }
    status_ok(env, cfg, view)
}

fn structure_ok(env: &Envelope) -> Result<(), RejectReason> {
    if env.value == Value::Bot && !bot_legal_at(env.phase) {
        return Err(RejectReason::BotIllegalHere);
    }
    if env.coin_flip && PhaseKind::of(env.phase) != PhaseKind::Converge {
        return Err(RejectReason::CoinFlagOutsideConverge);
    }
    Ok(())
}

fn status_ok(env: &Envelope, cfg: &Config, view: &EvidenceView<'_>) -> Result<(), RejectReason> {
    match env.status {
        // "Any message with phase φ ≤ 3 must necessarily carry value
        // undecided because no process can decide prior to phase 3", and
        // "status = decided (and value v) requires more than (n+f)/2
        // messages of the form ⟨*, φ, v, *⟩ where φ mod 3 = 0."
        Status::Decided => {
            if env.phase > 3
                && env.value.as_bit().is_some()
                && view.lowest_decide_quorum(cfg, env.phase, env.value).is_some()
            {
                Ok(())
            } else {
                Err(RejectReason::DecidedUnjustified)
            }
        }
        // `undecided` is always accepted. The paper (§6.2) asks for
        // half-quorums of both values at the latest LOCK phase, but read
        // literally that rejects legitimate messages in benign
        // histories: e.g. when proposals diverge, re-unify at a coin
        // round, and a process then stands at a DECIDE+1 phase still
        // undecided — no divergence evidence exists at the latest LOCK,
        // yet the state is honest, and rejecting it deadlocks the round.
        // The rule's purpose — neutralizing the status-replay attack of
        // §6.1 — is entirely about forged `decided` claims, which the
        // strict branch above still blocks. Downgrading a replayed
        // message's status to `undecided` is harmless: an adopter merely
        // keeps executing and decides through the normal path. See
        // DESIGN.md §5.
        Status::Undecided => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;
    use turquois_crypto::sha256::DIGEST_LEN;

    fn cfg() -> Config {
        // n=4, f=1: quorum ≥ 3, half-quorum ≥ 2.
        Config::new(4, 1, 3).expect("valid")
    }

    fn sig(b: u8) -> OneTimeSignature {
        OneTimeSignature([b; DIGEST_LEN])
    }

    fn env(sender: usize, phase: u32, value: Value) -> Envelope {
        Envelope {
            sender,
            phase,
            value,
            coin_flip: false,
            status: Status::Undecided,
        }
    }

    fn store_with(entries: &[(usize, u32, Value)]) -> MessageStore {
        let mut s = MessageStore::new(4);
        for &(sender, phase, value) in entries {
            s.insert(&env(sender, phase, value), sig(sender as u8));
        }
        s
    }

    fn check(e: &Envelope, s: &MessageStore) -> Result<(), RejectReason> {
        semantic_check(e, &cfg(), &EvidenceView::new(s, &mut []))
    }

    #[test]
    fn phase_one_always_valid() {
        let s = MessageStore::new(4);
        assert_eq!(check(&env(0, 1, Value::Zero), &s), Ok(()));
        assert_eq!(check(&env(3, 1, Value::One), &s), Ok(()));
    }

    #[test]
    fn bot_rejected_outside_decide_phases() {
        let s = MessageStore::new(4);
        assert_eq!(
            check(&env(0, 1, Value::Bot), &s),
            Err(RejectReason::BotIllegalHere)
        );
        assert_eq!(
            check(&env(0, 2, Value::Bot), &s),
            Err(RejectReason::BotIllegalHere)
        );
    }

    #[test]
    fn coin_flag_rejected_outside_converge() {
        let s = MessageStore::new(4);
        let mut e = env(0, 2, Value::One);
        e.coin_flip = true;
        assert_eq!(check(&e, &s), Err(RejectReason::CoinFlagOutsideConverge));
    }

    #[test]
    fn phase_requires_previous_quorum() {
        // Phase 2 message with only 2 senders at phase 1: rejected.
        let s = store_with(&[(0, 1, Value::One), (1, 1, Value::One)]);
        assert_eq!(
            check(&env(0, 2, Value::One), &s),
            Err(RejectReason::PhaseUnjustified)
        );
        // With 3 senders it passes (value also justified: half-quorum of
        // 1s at phase 1 is 2 < 3 present).
        let s = store_with(&[(0, 1, Value::One), (1, 1, Value::One), (2, 1, Value::One)]);
        assert_eq!(check(&env(0, 2, Value::One), &s), Ok(()));
    }

    #[test]
    fn lock_value_needs_half_quorum() {
        // Quorum at phase 1 but only one sender proposed 0: a LOCK
        // message carrying 0 is a lie.
        let s = store_with(&[(0, 1, Value::Zero), (1, 1, Value::One), (2, 1, Value::One)]);
        assert_eq!(
            check(&env(3, 2, Value::Zero), &s),
            Err(RejectReason::ValueUnjustified)
        );
        assert_eq!(check(&env(3, 2, Value::One), &s), Ok(()));
    }

    #[test]
    fn decide_binary_value_needs_lock_quorum() {
        let mut entries = vec![];
        for sender in 0..4 {
            entries.push((sender, 1, Value::One));
        }
        // Only 2 senders locked One: quorum (3) not met for the value.
        entries.push((0, 2, Value::One));
        entries.push((1, 2, Value::One));
        entries.push((2, 2, Value::Zero));
        let s = store_with(&entries);
        assert_eq!(
            check(&env(0, 3, Value::One), &s),
            Err(RejectReason::ValueUnjustified)
        );
        // A third One-lock fixes it.
        let mut s = s;
        s.insert(&env(3, 2, Value::One), sig(3));
        assert_eq!(check(&env(0, 3, Value::One), &s), Ok(()));
    }

    #[test]
    fn decide_bot_needs_divergence_at_converge() {
        let entries = [
            // Divergent phase 1: two 0s, two 1s.
            (0, 1, Value::Zero),
            (1, 1, Value::Zero),
            (2, 1, Value::One),
            (3, 1, Value::One),
            // Locks at phase 2 (any mix reaching quorum count).
            (0, 2, Value::Zero),
            (1, 2, Value::Zero),
            (2, 2, Value::One),
        ];
        let s = store_with(&entries);
        assert_eq!(check(&env(0, 3, Value::Bot), &s), Ok(()));

        // Unanimous phase 1: ⊥ at phase 3 is a lie.
        let s = store_with(&[
            (0, 1, Value::One),
            (1, 1, Value::One),
            (2, 1, Value::One),
            (3, 1, Value::One),
            (0, 2, Value::One),
            (1, 2, Value::One),
            (2, 2, Value::One),
        ]);
        assert_eq!(
            check(&env(0, 3, Value::Bot), &s),
            Err(RejectReason::ValueUnjustified)
        );
    }

    #[test]
    fn converge_deterministic_needs_lock_quorum_two_back() {
        // Uniform history: quorum locked One at 2, quorum of One at 3 —
        // so a phase-4 (CONVERGE) deterministic One from a *decided*
        // process validates, while a deterministic Zero is a lie.
        let s = store_with(&[
            (0, 2, Value::One),
            (1, 2, Value::One),
            (2, 2, Value::One),
            (0, 3, Value::One),
            (1, 3, Value::One),
            (2, 3, Value::One),
        ]);
        let mut e = env(3, 4, Value::One);
        e.status = Status::Decided; // undecided at 4 would itself be a lie here
        assert_eq!(check(&e, &s), Ok(()));
        let mut e0 = env(3, 4, Value::Zero);
        e0.status = Status::Decided;
        assert_eq!(check(&e0, &s), Err(RejectReason::ValueUnjustified));
    }

    #[test]
    fn converge_coin_value_needs_bot_quorum() {
        // Divergent history: split proposals, split locks, ⊥ quorum at
        // the DECIDE phase — the canonical coin round.
        let s = store_with(&[
            (0, 1, Value::Zero),
            (1, 1, Value::Zero),
            (2, 1, Value::One),
            (3, 1, Value::One),
            (0, 2, Value::Zero),
            (1, 2, Value::Zero),
            (2, 2, Value::One),
            (3, 2, Value::One),
            (0, 3, Value::Bot),
            (1, 3, Value::Bot),
            (2, 3, Value::Bot),
        ]);
        let mut e = env(3, 4, Value::Zero);
        e.coin_flip = true;
        assert_eq!(check(&e, &s), Ok(()));
        // Without the coin flag the same value needs a ⟨2, Zero⟩ quorum
        // (only 2 senders): rejected.
        let e_det = env(3, 4, Value::Zero);
        assert_eq!(check(&e_det, &s), Err(RejectReason::ValueUnjustified));
    }

    #[test]
    fn decided_rejected_at_or_below_phase_three() {
        let s = store_with(&[
            (0, 1, Value::One),
            (1, 1, Value::One),
            (2, 1, Value::One),
        ]);
        let mut e = env(0, 2, Value::One);
        e.status = Status::Decided;
        assert_eq!(check(&e, &s), Err(RejectReason::DecidedUnjustified));
    }

    #[test]
    fn decided_needs_decide_quorum() {
        // Full unanimous history through phase 3.
        let mut entries = vec![];
        for phase in 1..=3u32 {
            for sender in 0..4usize {
                entries.push((sender, phase, Value::One));
            }
        }
        let s = store_with(&entries);
        let mut e = env(0, 4, Value::One);
        e.status = Status::Decided;
        assert_eq!(check(&e, &s), Ok(()));

        // Claiming the decision was on Zero fails.
        let mut e0 = env(0, 4, Value::Zero);
        e0.status = Status::Decided;
        // (Value check fails first for Zero; force the point by checking
        // the status rule on a One-valued but zero-evidence store.)
        assert!(check(&e0, &s).is_err());

        // Without the phase-3 quorum the decided claim fails.
        let mut entries = vec![];
        for phase in 1..=2u32 {
            for sender in 0..4usize {
                entries.push((sender, phase, Value::One));
            }
        }
        entries.push((0, 3, Value::One));
        entries.push((1, 3, Value::One));
        let s2 = store_with(&entries);
        let mut e = env(0, 4, Value::One);
        e.status = Status::Decided;
        assert_eq!(check(&e, &s2), Err(RejectReason::PhaseUnjustified));
    }

    #[test]
    fn decided_justified_by_decide_phases_of_either_source() {
        // A phase-7 `decided One`: phase and value are justified from
        // the store (⊥ quorum at 6, One quorum at 5); the decide quorum
        // sits at phase 3, which the store may have pruned.
        let mut entries = vec![];
        for sender in 0..3 {
            entries.push((sender, 5, Value::One));
            entries.push((sender, 6, Value::Bot));
        }
        let mut e = env(0, 7, Value::One);
        e.status = Status::Decided;
        let attached = |senders: &[usize]| -> Vec<(Envelope, OneTimeSignature)> {
            senders
                .iter()
                .map(|&s| (env(s, 3, Value::One), sig(s as u8)))
                .collect()
        };
        let check_with = |s: &MessageStore, extra: &[(Envelope, OneTimeSignature)]| {
            semantic_check(&e, &cfg(), &EvidenceView::new(s, &mut extra.to_vec()))
        };

        // Only attachments know phase 3.
        let s = store_with(&entries);
        assert_eq!(check_with(&s, &[]), Err(RejectReason::DecidedUnjustified));
        assert_eq!(
            check_with(&s, &attached(&[0, 1])),
            Err(RejectReason::DecidedUnjustified)
        );
        assert_eq!(check_with(&s, &attached(&[0, 1, 2])), Ok(()));
        // A decide phase at or above the claim's phase never counts.
        let late: Vec<_> = (0..3)
            .map(|s| (env(s, 9, Value::One), sig(s as u8)))
            .collect();
        assert_eq!(check_with(&s, &late), Err(RejectReason::DecidedUnjustified));

        // Both sources know phase 3: senders are counted once.
        entries.push((0, 3, Value::One));
        entries.push((1, 3, Value::One));
        let s = store_with(&entries);
        assert_eq!(
            check_with(&s, &attached(&[0, 1])),
            Err(RejectReason::DecidedUnjustified)
        );
        assert_eq!(check_with(&s, &attached(&[1, 2])), Ok(()));

        // Only the store knows it.
        entries.push((2, 3, Value::One));
        assert_eq!(check_with(&store_with(&entries), &[]), Ok(()));

        // The bound is strict for stored phases too: a phase-6 claim is
        // not justified by the phase-6 quorum it would be part of.
        let s = store_with(&[
            (0, 5, Value::One),
            (1, 5, Value::One),
            (2, 5, Value::One),
            (0, 6, Value::One),
            (1, 6, Value::One),
            (2, 6, Value::One),
        ]);
        let mut at_six = env(3, 6, Value::One);
        at_six.status = Status::Decided;
        assert_eq!(check(&at_six, &s), Err(RejectReason::DecidedUnjustified));
    }

    #[test]
    fn decided_with_bot_value_rejected() {
        // History where a ⊥ at phase 6 is value-justifiable (divergence
        // at the CONVERGE phase 4) — claiming `decided` with it must
        // still fail: decisions are always on binary values.
        let s = store_with(&[
            (0, 4, Value::Zero),
            (1, 4, Value::Zero),
            (2, 4, Value::One),
            (3, 4, Value::One),
            (0, 5, Value::Zero),
            (1, 5, Value::Zero),
            (2, 5, Value::One),
        ]);
        let mut e = env(0, 6, Value::Bot);
        e.status = Status::Decided;
        assert_eq!(check(&e, &s), Err(RejectReason::DecidedUnjustified));
    }

    #[test]
    fn undecided_accepted_even_past_three() {
        // `undecided` carries no forgeable advantage (see the module
        // docs); a phase-4 undecided message with justified phase and
        // value is accepted even in a unanimous history.
        let mut entries = vec![];
        for phase in 1..=3u32 {
            for sender in 0..4usize {
                entries.push((sender, phase, Value::One));
            }
        }
        let s = store_with(&entries);
        let e = env(0, 4, Value::One); // undecided by default
        assert_eq!(check(&e, &s), Ok(()));
    }

    #[test]
    fn evidence_view_merges_extras_with_dedupe() {
        let s = store_with(&[(0, 1, Value::One)]);
        let mut extras = vec![
            (env(0, 1, Value::One), sig(0)), // duplicate of stored
            (env(1, 1, Value::One), sig(1)),
            (env(1, 1, Value::One), sig(1)), // duplicate within extras
            (env(2, 1, Value::One), sig(2)),
        ];
        let view = EvidenceView::new(&s, &mut extras);
        assert_eq!(view.count_phase(1), 3);
        assert_eq!(view.count_value(1, Value::One), 3);
        assert_eq!(view.count_value(1, Value::Zero), 0);
    }

    #[test]
    fn attachments_enable_acceptance() {
        // Receiver has nothing; sender attaches the phase-1 quorum.
        let s = MessageStore::new(4);
        let mut extras = vec![
            (env(0, 1, Value::One), sig(0)),
            (env(1, 1, Value::One), sig(1)),
            (env(2, 1, Value::One), sig(2)),
        ];
        let view = EvidenceView::new(&s, &mut extras);
        assert_eq!(
            semantic_check(&env(0, 2, Value::One), &cfg(), &view),
            Ok(())
        );
    }

    #[test]
    fn byzantine_alone_cannot_justify() {
        // f = 1: a single Byzantine sender's fabricated evidence never
        // reaches any threshold.
        let s = MessageStore::new(4);
        let mut extras = vec![(env(3, 1, Value::Zero), sig(3))];
        let view = EvidenceView::new(&s, &mut extras);
        assert_eq!(
            semantic_check(&env(3, 2, Value::Zero), &cfg(), &view),
            Err(RejectReason::PhaseUnjustified)
        );
    }

    #[test]
    fn reject_reason_display() {
        assert!(!RejectReason::PhaseUnjustified.to_string().is_empty());
        assert!(!RejectReason::BotIllegalHere.to_string().is_empty());
    }

    /// The hand-written per-variable checks `semantic_check` ran before
    /// the needs table, kept as the reference it is held to. The one
    /// change: the decide-quorum search scans every DECIDE phase below
    /// the claim instead of the phases either source holds (a phase
    /// neither holds counts zero senders and never justifies).
    mod retired {
        use super::*;

        pub(super) fn semantic_check(
            env: &Envelope,
            cfg: &Config,
            view: &EvidenceView<'_>,
        ) -> Result<(), RejectReason> {
            structure_ok(env)?;
            phase_ok(env, cfg, view)?;
            value_ok(env, cfg, view)?;
            status_ok(env, cfg, view)
        }

        fn structure_ok(env: &Envelope) -> Result<(), RejectReason> {
            if env.value == Value::Bot && !bot_legal_at(env.phase) {
                return Err(RejectReason::BotIllegalHere);
            }
            if env.coin_flip && env.phase % 3 != 1 {
                return Err(RejectReason::CoinFlagOutsideConverge);
            }
            Ok(())
        }

        fn phase_ok(
            env: &Envelope,
            cfg: &Config,
            view: &EvidenceView<'_>,
        ) -> Result<(), RejectReason> {
            if env.phase == 1 || cfg.exceeds_quorum(view.count_phase(env.phase - 1)) {
                Ok(())
            } else {
                Err(RejectReason::PhaseUnjustified)
            }
        }

        fn value_ok(
            env: &Envelope,
            cfg: &Config,
            view: &EvidenceView<'_>,
        ) -> Result<(), RejectReason> {
            if env.phase == 1 {
                return Ok(());
            }
            let ok = match env.phase % 3 {
                2 => cfg.exceeds_half_quorum(view.count_value(env.phase - 1, env.value)),
                0 => match env.value {
                    Value::Bot => {
                        cfg.exceeds_half_quorum(view.count_value(env.phase - 2, Value::Zero))
                            && cfg.exceeds_half_quorum(view.count_value(env.phase - 2, Value::One))
                    }
                    v => cfg.exceeds_quorum(view.count_value(env.phase - 1, v)),
                },
                _ => {
                    if env.coin_flip {
                        cfg.exceeds_quorum(view.count_value(env.phase - 1, Value::Bot))
                    } else {
                        cfg.exceeds_quorum(view.count_value(env.phase - 2, env.value))
                    }
                }
            };
            if ok {
                Ok(())
            } else {
                Err(RejectReason::ValueUnjustified)
            }
        }

        fn status_ok(
            env: &Envelope,
            cfg: &Config,
            view: &EvidenceView<'_>,
        ) -> Result<(), RejectReason> {
            match env.status {
                Status::Decided => {
                    if env.phase <= 3 {
                        return Err(RejectReason::DecidedUnjustified);
                    }
                    let Some(_) = env.value.as_bit() else {
                        return Err(RejectReason::DecidedUnjustified);
                    };
                    let justified = (3..env.phase)
                        .step_by(3)
                        .any(|psi| cfg.exceeds_quorum(view.count_value(psi, env.value)));
                    if justified {
                        Ok(())
                    } else {
                        Err(RejectReason::DecidedUnjustified)
                    }
                }
                Status::Undecided => Ok(()),
            }
        }
    }

    /// Blocks of senders `start, start + 1, …` (mod n), `share`/64 of
    /// the group, all at one `(phase, value, coin, status)`.
    type Block = (u32, usize, usize, usize, bool, bool);

    fn block_records(n: usize, blocks: &[Block]) -> Vec<Envelope> {
        let mut out = Vec::new();
        for &(phase, vi, start, share, coin_flip, decided) in blocks {
            for i in 0..share * n / 64 {
                out.push(Envelope {
                    sender: (start + i) % n,
                    phase,
                    value: [Value::Zero, Value::One, Value::Bot][vi],
                    coin_flip,
                    status: if decided { Status::Decided } else { Status::Undecided },
                });
            }
        }
        out
    }

    fn block() -> impl proptest::strategy::Strategy<Value = Block> {
        (1u32..=10, 0usize..3, 0usize..64, 0usize..=64, any::<bool>(), any::<bool>())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `count_phase`, `count_value` and `lowest_decide_quorum` equal
        /// naive set arithmetic over the stored records and the
        /// attachments, at n = 4, 16 and 64, with the attachments
        /// shuffled, repeated and spread over several DECIDE phases.
        #[test]
        fn evidence_counts_match_set_arithmetic(
            n_sel in 0usize..3,
            stored in proptest::collection::vec(block(), 0..12),
            attached in proptest::collection::vec((block(), any::<bool>()), 0..8),
            picks in proptest::collection::vec((0usize..1024, 0usize..1024), 0..64),
        ) {
            let n = [4, 16, 64][n_sel];
            let cfg = Config::evaluation(n).expect("valid n");
            let records = block_records(n, &stored);
            let mut store = MessageStore::new(n);
            for e in &records {
                store.insert(e, sig(0));
            }
            // A flagged block moves up to the next DECIDE phase.
            let attached: Vec<Block> = attached
                .into_iter()
                .map(|((p, v, s, share, coin, decided), up)| {
                    (if up { p.div_ceil(3) * 3 } else { p }, v, s, share, coin, decided)
                })
                .collect();
            let mut extra: Vec<_> =
                block_records(n, &attached).into_iter().map(|e| (e, sig(1))).collect();
            // Each pick repeats one attachment and swaps two.
            for (r, j) in picks {
                if let Some(&entry) = extra.get(r % extra.len().max(1)) {
                    extra.push(entry);
                    let len = extra.len();
                    extra.swap(r % len, j % len);
                }
            }
            let facts: Vec<Envelope> =
                records.iter().chain(extra.iter().map(|(e, _)| e)).copied().collect();
            let naive = |phase, value: Option<Value>| {
                let fits = |e: &&Envelope| e.phase == phase && value.is_none_or(|v| e.value == v);
                let senders = facts.iter().filter(fits).map(|e| e.sender);
                senders.collect::<std::collections::BTreeSet<_>>().len()
            };
            let view = EvidenceView::new(&store, &mut extra);
            for value in [None, Some(Value::Zero), Some(Value::One), Some(Value::Bot)] {
                for phase in 1..=13 {
                    let got = value.map_or(view.count_phase(phase), |v| view.count_value(phase, v));
                    let want = naive(phase, value);
                    proptest::prop_assert_eq!(got, want, "n={} phase {} {:?}", n, phase, value);
                }
                let Some(v) = value else { continue };
                let quorum = |psi| cfg.exceeds_quorum(naive(psi, value));
                for limit in 1..=14 {
                    let want = (3..limit).step_by(3).find(|&psi| quorum(psi));
                    let got = view.lowest_decide_quorum(&cfg, limit, v);
                    proptest::prop_assert_eq!(got, want, "n={} limit {} {:?}", n, limit, v);
                }
            }
        }

        /// The table-driven `semantic_check` returns what the retired
        /// hand-written checks return, reasons included, for every
        /// claim at phases 1–10 (each value, coin flag and status) over
        /// stores of equivocating sender blocks plus extra attachments
        /// the store may or may not hold, at n = 4, 10, 16 and 64.
        #[test]
        fn semantic_check_matches_retired_checks(
            n_sel in 0usize..4,
            stored in proptest::collection::vec(block(), 0..24),
            extra in proptest::collection::vec(block(), 0..6),
        ) {
            let n = [4, 10, 16, 64][n_sel];
            let cfg = Config::evaluation(n).expect("valid n");
            let mut store = MessageStore::new(n);
            for e in block_records(n, &stored) {
                store.insert(&e, sig(0));
            }
            let mut extra: Vec<_> =
                block_records(n, &extra).into_iter().map(|e| (e, sig(1))).collect();
            let view = EvidenceView::new(&store, &mut extra);
            for phase in 1..=10 {
                for value in [Value::Zero, Value::One, Value::Bot] {
                    for coin_flip in [false, true] {
                        for status in [Status::Undecided, Status::Decided] {
                            let claim = Envelope { sender: 0, phase, value, coin_flip, status };
                            proptest::prop_assert_eq!(
                                semantic_check(&claim, &cfg, &view),
                                retired::semantic_check(&claim, &cfg, &view),
                                "n={} {:?}",
                                n,
                                claim
                            );
                        }
                    }
                }
            }
        }
    }
}
