//! The Turquois state machine — a line-for-line implementation of the
//! paper's Algorithm 1.
//!
//! A process's internal state is the triple `(φ_i, v_i, status_i)` plus
//! the write-once `decision_i`. Transitions are driven entirely by the
//! set of valid messages `V_i` (here the `Valid` view of the message
//! store) and happen under two conditions (paper §5):
//!
//! 1. **Catch-up** (lines 10–18): some valid message carries a phase
//!    higher than `φ_i` — adopt its state. If the adopted message sits in
//!    a CONVERGE phase and its value came from a coin flip, flip a local
//!    coin instead of copying the value (a Byzantine process cannot be
//!    forced into a fair flip, so each correct process randomizes
//!    independently).
//! 2. **Quorum** (lines 19–39): more than `(n+f)/2` distinct senders are
//!    represented at `φ_i` — apply the CONVERGE/LOCK/DECIDE step and move
//!    to `φ_i + 1`.
//!
//! Both rules are applied to fixpoint after every message arrival; each
//! application strictly increases `φ_i`, so the loop terminates.

use crate::config::Config;
use crate::message::{Envelope, Status};
use crate::store::Valid;
use turquois_crypto::otss::Value;

/// The protocol phase kind for a phase number (phases are 1-based).
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum PhaseKind {
    /// `φ mod 3 = 1`: processes converge on the most common value.
    Converge,
    /// `φ mod 3 = 2`: processes lock a value (or `⊥`).
    Lock,
    /// `φ mod 3 = 0`: processes try to decide.
    Decide,
}

impl PhaseKind {
    /// The kind of `phase`.
    ///
    /// # Panics
    ///
    /// Panics on phase 0 (phases are 1-based).
    pub fn of(phase: u32) -> PhaseKind {
        assert!(phase >= 1, "phases are 1-based");
        match phase % 3 {
            1 => PhaseKind::Converge,
            2 => PhaseKind::Lock,
            _ => PhaseKind::Decide,
        }
    }
}

/// Result of a [`ProcessState::try_advance`] fixpoint.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub(crate) struct Advance {
    /// Whether `φ_i` changed (triggers an immediate broadcast per the
    /// clock-tick rule of §7.1).
    pub(crate) phase_changed: bool,
    /// `Some(v)` when `decision_i` was set during this advance.
    pub newly_decided: Option<bool>,
}

/// The `(φ_i, v_i, status_i, decision_i)` state of one process.
#[derive(Clone, Debug)]
pub(crate) struct ProcessState {
    cfg: Config,
    id: usize,
    phase: u32,
    value: Value,
    coin_flip: bool,
    status: Status,
    decision: Option<bool>,
}

impl ProcessState {
    /// Initial state: `φ_i = 1`, `v_i = proposal`, undecided
    /// (Algorithm 1, lines 1–3).
    pub fn new(cfg: Config, id: usize, proposal: bool) -> Self {
        ProcessState {
            cfg,
            id,
            phase: 1,
            value: Value::from_bit(proposal),
            coin_flip: false,
            status: Status::Undecided,
            decision: None,
        }
    }

    /// This process's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current phase `φ_i`.
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Current proposal value `v_i`.
    pub fn value(&self) -> Value {
        self.value
    }

    /// Whether the current value came from a local coin flip.
    pub fn coin_flip(&self) -> bool {
        self.coin_flip
    }

    /// Current decision status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// The write-once decision, if reached.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// The message this process broadcasts on a clock tick
    /// (`⟨i, φ_i, v_i, status_i⟩`, line 6).
    pub fn envelope(&self) -> Envelope {
        Envelope {
            sender: self.id,
            phase: self.phase,
            value: self.value,
            coin_flip: self.coin_flip,
            status: self.status,
        }
    }

    /// Applies transition rules 1 and 2 to fixpoint against the valid
    /// message set, flipping `coin` where Algorithm 1 calls `coin_i()`.
    pub(crate) fn try_advance(
        &mut self,
        valid: Valid<'_>,
        coin: &mut dyn FnMut() -> bool,
    ) -> Advance {
        let start_phase = self.phase;
        let mut result = Advance::default();
        loop {
            let mut progressed = false;

            // Rule 1 (lines 10–18): adopt the state of a higher-phase
            // valid message.
            if let Some((phase, _sender, rec)) = valid.best_catch_up(self.phase) {
                self.phase = phase;
                if PhaseKind::of(phase) == PhaseKind::Converge && rec.coin_flip {
                    // Lines 12–13: re-randomize locally.
                    self.value = Value::from_bit(coin());
                    self.coin_flip = true;
                } else {
                    self.value = rec.value;
                    self.coin_flip = rec.coin_flip && PhaseKind::of(phase) == PhaseKind::Converge;
                }
                self.status = rec.status;
                progressed = true;
            }

            // Rule 2 (lines 19–39): a quorum at the current phase.
            if self.cfg.exceeds_quorum(valid.count_phase(self.phase)) {
                match PhaseKind::of(self.phase) {
                    PhaseKind::Converge => {
                        // Lines 20–21: adopt the majority value.
                        self.value = valid.majority_value(self.phase);
                        self.coin_flip = false;
                    }
                    PhaseKind::Lock => {
                        // Lines 22–27: lock a super-majority value or ⊥.
                        self.value = Value::ALL
                            .into_iter()
                            .filter(|v| v.as_bit().is_some())
                            .find(|&v| {
                                self.cfg.exceeds_quorum(valid.count_value(self.phase, v))
                            })
                            .unwrap_or(Value::Bot);
                        self.coin_flip = false;
                    }
                    PhaseKind::Decide => {
                        // Lines 29–31: decide on a super-majority value.
                        let decided_value = [Value::Zero, Value::One].into_iter().find(|&v| {
                            self.cfg.exceeds_quorum(valid.count_value(self.phase, v))
                        });
                        if decided_value.is_some() {
                            self.status = Status::Decided;
                        }
                        // Lines 32–36: carry any binary value forward, or
                        // flip the local coin.
                        match valid.any_binary_value(self.phase) {
                            Some(v) => {
                                self.value = v;
                                self.coin_flip = false;
                            }
                            None => {
                                self.value = Value::from_bit(coin());
                                self.coin_flip = true;
                            }
                        }
                    }
                }
                // Line 38.
                self.phase += 1;
                progressed = true;
            }

            // Lines 40–42: the write-once decision.
            if self.status == Status::Decided && self.decision.is_none() {
                debug_assert!(
                    self.value.as_bit().is_some(),
                    "a decided state always carries a binary value"
                );
                if let Some(bit) = self.value.as_bit() {
                    self.decision = Some(bit);
                    result.newly_decided = Some(bit);
                }
            }

            if !progressed {
                break;
            }
        }
        result.phase_changed = self.phase != start_phase;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MessageStore;
    use turquois_crypto::otss::OneTimeSignature;
    use turquois_crypto::sha256::DIGEST_LEN;

    fn cfg() -> Config {
        Config::new(4, 1, 3).expect("valid") // quorum = 3
    }

    fn sig() -> OneTimeSignature {
        OneTimeSignature([0; DIGEST_LEN])
    }

    fn put(store: &mut MessageStore, sender: usize, phase: u32, value: Value) {
        put_full(store, sender, phase, value, false, Status::Undecided);
    }

    fn put_full(
        store: &mut MessageStore,
        sender: usize,
        phase: u32,
        value: Value,
        coin_flip: bool,
        status: Status,
    ) {
        let env = Envelope {
            sender,
            phase,
            value,
            coin_flip,
            status,
        };
        store.insert(&env, sig());
        store.validate(&env);
    }

    fn no_coin() -> impl FnMut() -> bool {
        || panic!("coin must not be consulted in this scenario")
    }

    #[test]
    fn phase_kind_cycle() {
        assert_eq!(PhaseKind::of(1), PhaseKind::Converge);
        assert_eq!(PhaseKind::of(2), PhaseKind::Lock);
        assert_eq!(PhaseKind::of(3), PhaseKind::Decide);
        assert_eq!(PhaseKind::of(4), PhaseKind::Converge);
        assert_eq!(PhaseKind::of(300), PhaseKind::Decide);
    }

    #[test]
    fn initial_state() {
        let st = ProcessState::new(cfg(), 2, true);
        assert_eq!(st.phase(), 1);
        assert_eq!(st.value(), Value::One);
        assert_eq!(st.status(), Status::Undecided);
        assert_eq!(st.decision(), None);
        let env = st.envelope();
        assert_eq!(env.sender, 2);
        assert_eq!(env.phase, 1);
    }

    #[test]
    fn no_quorum_no_progress() {
        let mut st = ProcessState::new(cfg(), 0, true);
        let mut store = MessageStore::new(4);
        put(&mut store, 0, 1, Value::One);
        put(&mut store, 1, 1, Value::One);
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(adv, Advance::default());
        assert_eq!(st.phase(), 1);
    }

    #[test]
    fn unanimous_run_decides_at_phase_three() {
        // All four processes propose 1; feed process 0 full quorums for
        // phases 1, 2, 3 and it must decide 1 entering phase 4.
        let mut st = ProcessState::new(cfg(), 0, true);
        let mut store = MessageStore::new(4);
        for sender in 0..4 {
            put(&mut store, sender, 1, Value::One);
        }
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert!(adv.phase_changed);
        assert_eq!(st.phase(), 2);
        assert_eq!(st.value(), Value::One, "CONVERGE adopts the majority");

        for sender in 0..4 {
            put(&mut store, sender, 2, Value::One);
        }
        st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(st.phase(), 3);
        assert_eq!(st.value(), Value::One, "LOCK locks the quorum value");

        for sender in 0..4 {
            put(&mut store, sender, 3, Value::One);
        }
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(st.phase(), 4);
        assert_eq!(st.status(), Status::Decided);
        assert_eq!(adv.newly_decided, Some(true));
        assert_eq!(st.decision(), Some(true));
    }

    #[test]
    fn fixpoint_cascades_through_buffered_phases() {
        // Quorums for phases 1..=3 already buffered: one call cascades.
        let mut st = ProcessState::new(cfg(), 0, false);
        let mut store = MessageStore::new(4);
        for phase in 1..=3 {
            for sender in 0..4 {
                put(&mut store, sender, phase, Value::Zero);
            }
        }
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(st.phase(), 4);
        assert_eq!(adv.newly_decided, Some(false));
    }

    #[test]
    fn lock_without_supermajority_locks_bot() {
        let mut st = ProcessState::new(cfg(), 0, true);
        st.phase = 2;
        let mut store = MessageStore::new(4);
        put(&mut store, 0, 2, Value::Zero);
        put(&mut store, 1, 2, Value::Zero);
        put(&mut store, 2, 2, Value::One);
        put(&mut store, 3, 2, Value::One);
        st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(st.phase(), 3);
        assert_eq!(st.value(), Value::Bot);
    }

    #[test]
    fn decide_phase_all_bot_flips_coin() {
        let mut st = ProcessState::new(cfg(), 0, true);
        st.phase = 3;
        let mut store = MessageStore::new(4);
        for sender in 0..4 {
            put(&mut store, sender, 3, Value::Bot);
        }
        let mut flips = 0;
        let mut coin = || {
            flips += 1;
            false
        };
        let adv = st.try_advance(store.valid(), &mut coin);
        assert_eq!(st.phase(), 4);
        assert_eq!(st.value(), Value::Zero);
        assert!(st.coin_flip());
        assert_eq!(st.status(), Status::Undecided);
        assert_eq!(adv.newly_decided, None);
        assert_eq!(flips, 1);
    }

    #[test]
    fn decide_phase_partial_value_carries_without_deciding() {
        // Quorum at phase 3 but only one non-⊥ value: carry it, stay
        // undecided.
        let mut st = ProcessState::new(cfg(), 0, true);
        st.phase = 3;
        let mut store = MessageStore::new(4);
        put(&mut store, 0, 3, Value::Bot);
        put(&mut store, 1, 3, Value::Bot);
        put(&mut store, 2, 3, Value::One);
        st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(st.phase(), 4);
        assert_eq!(st.value(), Value::One);
        assert!(!st.coin_flip());
        assert_eq!(st.status(), Status::Undecided);
    }

    #[test]
    fn catch_up_adopts_state() {
        let mut st = ProcessState::new(cfg(), 0, false);
        let mut store = MessageStore::new(4);
        put_full(&mut store, 3, 5, Value::One, false, Status::Undecided);
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert!(adv.phase_changed);
        assert_eq!(st.phase(), 5);
        assert_eq!(st.value(), Value::One);
    }

    #[test]
    fn catch_up_to_coin_converge_message_flips_own_coin() {
        let mut st = ProcessState::new(cfg(), 0, false);
        let mut store = MessageStore::new(4);
        // Phase 4 is CONVERGE; the sender's value came from its coin.
        put_full(&mut store, 2, 4, Value::Zero, true, Status::Undecided);
        let mut coin = || true;
        st.try_advance(store.valid(), &mut coin);
        assert_eq!(st.phase(), 4);
        assert_eq!(st.value(), Value::One, "local coin overrides the carried value");
        assert!(st.coin_flip());
    }

    #[test]
    fn catch_up_adopts_decided_status_and_decides() {
        let mut st = ProcessState::new(cfg(), 0, false);
        let mut store = MessageStore::new(4);
        put_full(&mut store, 1, 7, Value::One, false, Status::Decided);
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(st.phase(), 7);
        assert_eq!(adv.newly_decided, Some(true));
        assert_eq!(st.decision(), Some(true));
    }

    #[test]
    fn decision_is_write_once() {
        let mut st = ProcessState::new(cfg(), 0, false);
        let mut store = MessageStore::new(4);
        put_full(&mut store, 1, 7, Value::One, false, Status::Decided);
        assert_eq!(
            st.try_advance(store.valid(), &mut no_coin()).newly_decided,
            Some(true)
        );
        // A later (even higher-phase) message cannot change the decision.
        put_full(&mut store, 2, 10, Value::Zero, false, Status::Decided);
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(adv.newly_decided, None);
        assert_eq!(st.decision(), Some(true));
        assert_eq!(st.value(), Value::Zero, "v_i keeps tracking the protocol");
    }

    #[test]
    fn quorum_counts_distinct_senders_not_messages() {
        // An equivocating sender contributes one sender to the phase
        // count: 2 senders ≠ quorum of 3.
        let mut st = ProcessState::new(cfg(), 0, true);
        let mut store = MessageStore::new(4);
        put(&mut store, 1, 1, Value::Zero);
        put(&mut store, 1, 1, Value::One); // equivocation
        put(&mut store, 2, 1, Value::One);
        let adv = st.try_advance(store.valid(), &mut no_coin());
        assert!(!adv.phase_changed);
        assert_eq!(st.phase(), 1);
    }

    #[test]
    fn converge_majority_breaks_tie_to_one() {
        let mut st = ProcessState::new(cfg(), 0, false);
        let mut store = MessageStore::new(4);
        put(&mut store, 0, 1, Value::Zero);
        put(&mut store, 1, 1, Value::Zero);
        put(&mut store, 2, 1, Value::One);
        put(&mut store, 3, 1, Value::One);
        st.try_advance(store.valid(), &mut no_coin());
        assert_eq!(st.phase(), 2);
        assert_eq!(st.value(), Value::One);
    }
}
