//! Bracha's asynchronous ⌊(n−1)/3⌋-resilient binary consensus (PODC
//! 1984) — the first baseline of the paper's evaluation.
//!
//! Every logical message is sent through `ReliableBroadcast`, which is
//! what gives the protocol its O(n³) message complexity and prevents
//! Byzantine equivocation. Rounds have three steps:
//!
//! 1. broadcast `(k, 1, v)`; await `n − f` valid step-1 messages; adopt
//!    the majority value.
//! 2. broadcast `(k, 2, v)`; await `n − f`; if more than `n/2` carry the
//!    same `w`, adopt `w`, else adopt `⊥` (no super-majority witnessed).
//! 3. broadcast `(k, 3, v)`; await `n − f`; with at least `2f + 1`
//!    non-`⊥` `w`: **decide** `w`; with at least `f + 1`: adopt `w`;
//!    otherwise flip the local coin.
//!
//! Messages carry no signatures (the channels are authenticated — IPSec
//! AH in the paper, per-link HMAC in the reproduction's adapter), but a
//! *validation* filter discards values a correct process could not have
//! computed (Bracha's "validated messages"; see `Bracha::is_valid` in the
//! source).
//! Validation is monotone in delivered evidence, so rejected messages
//! are kept pending and re-examined as evidence accumulates.

use crate::quorum::{Quorums, Tally, TallyValue};
use crate::rbc::{RbcView, ReliableBroadcast, Tag};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use turquois_crypto::memo::FixedMap;

/// A step value: a binary value or `⊥` (step 3 only).
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub(crate) enum StepValue {
    /// Binary 0.
    Zero,
    /// Binary 1.
    One,
    /// No super-majority witnessed (legal only in step 3).
    Null,
}

impl StepValue {
    fn from_bit(bit: bool) -> StepValue {
        if bit {
            StepValue::One
        } else {
            StepValue::Zero
        }
    }

    fn as_bit(self) -> Option<bool> {
        match self {
            StepValue::Zero => Some(false),
            StepValue::One => Some(true),
            StepValue::Null => None,
        }
    }

    fn encode(self) -> u8 {
        match self {
            StepValue::Zero => 0,
            StepValue::One => 1,
            StepValue::Null => 2,
        }
    }

    fn decode(byte: u8) -> Option<StepValue> {
        match byte {
            0 => Some(StepValue::Zero),
            1 => Some(StepValue::One),
            2 => Some(StepValue::Null),
            _ => None,
        }
    }
}

impl TallyValue for StepValue {
    fn index(self) -> usize {
        usize::from(self.encode())
    }
}

/// Output of feeding one network message to the engine.
#[derive(Debug, Default)]
pub struct BrachaOutput {
    /// Wire messages to send to every process (via the reliable
    /// point-to-point transport).
    pub send: Vec<Bytes>,
    /// Set when this call made the process decide.
    pub newly_decided: Option<bool>,
}

/// One process's Bracha consensus engine.
#[derive(Debug)]
pub struct Bracha {
    q: Quorums,
    me: usize,
    rbc: ReliableBroadcast,
    round: u32,
    step: u8,
    value: StepValue,
    decision: Option<bool>,
    /// Validated step values per round, one tally per step (1–3).
    rounds: FixedMap<u32, [Tally<StepValue>; 3]>,
    /// Votes accepted across `rounds` (the sum of their totals):
    /// counted at accept, recounted when GC drops rounds.
    votes: usize,
    /// Delivered-but-not-yet-valid messages, re-examined as evidence
    /// grows.
    pending: Vec<(Tag, StepValue)>,
    rng: StdRng,
    /// Total RBC deliveries (diagnostics).
    deliveries: u64,
}

impl Bracha {
    /// Creates the engine for process `me`, proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n` and `me < n`.
    pub fn new(n: usize, f: usize, me: usize, proposal: bool, seed: u64) -> Self {
        Bracha {
            q: Quorums::new(n, f),
            me,
            rbc: ReliableBroadcast::new(n, f, me),
            round: 1,
            step: 1,
            value: StepValue::from_bit(proposal),
            decision: None,
            rounds: FixedMap::default(),
            votes: 0,
            pending: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xb2ac_4a84),
            deliveries: 0,
        }
    }

    /// This process's id.
    pub fn id(&self) -> usize {
        self.me
    }

    /// Current round.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Current step within the round (1–3).
    pub fn step(&self) -> u8 {
        self.step
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// Total reliable-broadcast deliveries so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Deterministic estimate of the engine's consensus-store footprint
    /// in bytes: 64 per live round plus one byte per accepted vote and
    /// 8 per pending message. O(1): the vote count is kept as votes are
    /// accepted (the simulator polls this after every callback). A
    /// function of logical content only — never of map capacities.
    /// Excludes the RBC layer.
    pub fn store_bytes(&self) -> usize {
        debug_assert_eq!(self.votes, self.scan_votes());
        self.rounds.len() * 64 + self.votes + 8 * self.pending.len()
    }

    /// The per-round vote totals, summed: `votes` recounted (at GC, and
    /// as its debug oracle).
    fn scan_votes(&self) -> usize {
        self.rounds.values().flatten().map(Tally::total).sum()
    }

    /// Accepts `value` from `tag`'s origin into its round and step
    /// (first value wins).
    fn accept_vote(&mut self, tag: Tag, value: StepValue) {
        let steps = self.rounds.entry(tag.round).or_default();
        self.votes += usize::from(steps[usize::from(tag.step - 1)].insert(tag.origin, value, ()));
    }

    /// Drops the evidence of every round below `floor`: votes, RBC
    /// instances and pending messages.
    fn gc_below(&mut self, floor: u32) {
        self.rounds.retain(|&r, _| r >= floor);
        self.votes = self.scan_votes();
        self.rbc.prune_rounds_below(floor);
        self.pending.retain(|(t, _)| t.round >= floor);
    }

    /// Starts the protocol: broadcast the round-1 step-1 value.
    pub fn on_start(&mut self) -> BrachaOutput {
        let mut out = BrachaOutput::default();
        self.send_current(&mut out);
        out
    }

    /// Processes a wire message from link-layer sender `from`.
    ///
    /// The wire bytes are parsed into a borrowed `RbcView` (no
    /// payload copy; DESIGN.md §13).
    pub fn on_message(&mut self, from: usize, bytes: &[u8]) -> BrachaOutput {
        let mut out = BrachaOutput::default();
        let Some(view) = RbcView::parse(bytes) else {
            return out;
        };
        let rbc_out = self.rbc.on_view(from, &view);
        for m in rbc_out.send {
            out.send.push(m.encode());
        }
        for (tag, payload) in rbc_out.deliver {
            self.deliveries += 1;
            if payload.len() != 1 {
                continue;
            }
            let Some(value) = StepValue::decode(payload[0]) else {
                continue;
            };
            // No correct process sends round 0, and step-1 validation
            // looks one round back.
            if tag.round == 0 || !(1..=3).contains(&tag.step) {
                continue;
            }
            // Null is legal only in step 3.
            if value == StepValue::Null && tag.step != 3 {
                continue;
            }
            self.pending.push((tag, value));
        }
        self.drain_pending(&mut out);
        out
    }

    /// Moves newly valid pending messages (filtered in place, in order)
    /// into the accepted sets and fires any step transitions, to fixpoint.
    fn drain_pending(&mut self, out: &mut BrachaOutput) {
        loop {
            let mut progressed = false;
            let mut pending = std::mem::take(&mut self.pending);
            pending.retain(|&(tag, value)| {
                let valid = self.is_valid(tag, value);
                if valid {
                    self.accept_vote(tag, value);
                    progressed = true;
                }
                !valid
            });
            self.pending = pending;
            while self.try_fire(out) {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Bracha's message validation: would a correct process ever send
    /// this? Monotone in accepted evidence.
    fn is_valid(&self, tag: Tag, value: StepValue) -> bool {
        let count = |round: u32, step: usize, v: StepValue| {
            self.rounds.get(&round).map_or(0, |steps| steps[step - 1].count(v))
        };
        match (tag.step, value.as_bit()) {
            // Initial proposals are free.
            (1, _) if tag.round == 1 => true,
            // A round-k step-1 binary value must have appeared in round
            // k−1 step 3 (adoption), or a coin flip must have been
            // plausible (some ⊥ witnessed there).
            (1, _) => count(tag.round - 1, 3, value) > 0 || count(tag.round - 1, 3, StepValue::Null) > 0,
            // Some (n−f)-subset of step-1 senders must adopt the claimed
            // value, under step 1's tie-break.
            (2, Some(bit)) => count(tag.round, 1, value) >= self.q.majority_bit_min(bit),
            // A binary step-3 value claims step 2's majority.
            (3, Some(_)) => self.q.exceeds_half(count(tag.round, 2, value)),
            // ⊥ claims the absence of a majority. A correct ⊥-sender
            // accepted n−f step-2 messages with no value above n/2, which
            // forces at least one of *each* value in its view — evidence
            // that must eventually reach us too. (Monotone, and it bars
            // Byzantine ⊥ in unanimous runs.)
            (3, None) => count(tag.round, 2, StepValue::Zero) > 0 && count(tag.round, 2, StepValue::One) > 0,
            _ => false,
        }
    }

    /// Fires the current step's transition if its quorum is ready. A
    /// step fires once: firing moves `(round, step)` past it for good.
    fn try_fire(&mut self, out: &mut BrachaOutput) -> bool {
        let q = self.q;
        let tally = &self.rounds.entry(self.round).or_default()[usize::from(self.step - 1)];
        if tally.total() < q.wait() {
            return false;
        }
        // `Null` counts are never needed by the transitions below.
        let (zero, one) = (tally.count(StepValue::Zero), tally.count(StepValue::One));
        match self.step {
            1 => {
                self.value = StepValue::from_bit(q.majority_bit(zero, one));
                self.step = 2;
            }
            2 => {
                let w = [(StepValue::Zero, zero), (StepValue::One, one)]
                    .into_iter()
                    .find(|&(_, c)| q.exceeds_half(c))
                    .map(|(v, _)| v);
                self.value = w.unwrap_or(StepValue::Null);
                self.step = 3;
            }
            _ => {
                let bit = q.majority_bit(zero, one);
                let best_count = if bit { one } else { zero };
                if best_count >= q.strong() {
                    if self.decision.is_none() {
                        self.decision = Some(bit);
                        out.newly_decided = self.decision;
                    }
                    self.value = StepValue::from_bit(bit);
                } else if best_count >= q.weak() {
                    self.value = StepValue::from_bit(bit);
                } else {
                    self.value = StepValue::from_bit(self.rng.gen_bool(0.5));
                }
                self.step = 1;
                self.round += 1;
                // GC: evidence older than the previous round is dead.
                if self.round > 2 {
                    self.gc_below(self.round - 2);
                }
            }
        }
        self.send_current(out);
        true
    }

    fn send_current(&mut self, out: &mut BrachaOutput) {
        let payload = Bytes::copy_from_slice(&[self.value.encode()]);
        let rbc_out = self.rbc.broadcast(self.round, self.step, payload);
        for m in rbc_out.send {
            out.send.push(m.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbc::RbcMessage;

    /// Lossless full-information network: every sent message reaches
    /// every process (including the sender). Returns decisions.
    fn run_lossless(engines: &mut [Bracha], max_iters: usize) -> Vec<Option<bool>> {
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            if iters > max_iters {
                panic!("message budget exceeded — likely livelock");
            }
            for (to, engine) in engines.iter_mut().enumerate() {
                let out = engine.on_message(from, &bytes);
                queue.extend(out.send.into_iter().map(|b| (to, b)));
            }
            if engines.iter().all(|e| e.decision().is_some()) {
                break;
            }
        }
        engines.iter().map(|e| e.decision()).collect()
    }

    fn group(n: usize, f: usize, proposals: &[bool], seed: u64) -> Vec<Bracha> {
        (0..n)
            .map(|me| Bracha::new(n, f, me, proposals[me % proposals.len()], seed + me as u64))
            .collect()
    }

    #[test]
    fn unanimous_decides_proposed_value() {
        for bit in [false, true] {
            let mut engines = group(4, 1, &[bit], 1);
            let decisions = run_lossless(&mut engines, 2_000_000);
            assert!(
                decisions.iter().all(|d| *d == Some(bit)),
                "bit={bit}: {decisions:?}"
            );
        }
    }

    #[test]
    fn divergent_proposals_agree() {
        for seed in 0..4u64 {
            let mut engines = group(4, 1, &[true, false], seed * 7);
            let decisions = run_lossless(&mut engines, 5_000_000);
            let first = decisions[0].expect("lossless run decides");
            assert!(
                decisions.iter().all(|d| *d == Some(first)),
                "seed={seed}: {decisions:?}"
            );
        }
    }

    #[test]
    fn larger_group_unanimous() {
        let mut engines = group(7, 2, &[true], 3);
        let decisions = run_lossless(&mut engines, 5_000_000);
        assert!(decisions.iter().all(|d| *d == Some(true)));
    }

    #[test]
    fn crashed_minority_does_not_block() {
        // f = 1 process silent from the start (n = 4): the rest decide.
        let mut engines = group(4, 1, &[true], 9);
        let n = 4;
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut().take(3) {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            // All three decide after 70 messages: 10× that is a livelock.
            assert!(iters < 700, "livelock");
            // process 3 crashed: receives nothing
            for (to, engine) in engines[..n - 1].iter_mut().enumerate() {
                let out = engine.on_message(from, &bytes);
                queue.extend(out.send.into_iter().map(|b| (to, b)));
            }
            if engines[..3].iter().all(|e| e.decision().is_some()) {
                break;
            }
        }
        assert!(engines[..3].iter().all(|e| e.decision() == Some(true)));
    }

    #[test]
    fn byzantine_value_flip_cannot_break_unanimous_validity() {
        // n = 4, f = 1. Process 3 is Byzantine: it reliably-broadcasts
        // the flipped value at steps 1 and 2, ⊥ at step 3 (the paper's
        // §7.2 strategy). Correct processes all propose `true` and must
        // decide `true`.
        let n = 4;
        let f = 1;
        let mut engines: Vec<Bracha> = (0..3).map(|me| Bracha::new(n, f, me, true, me as u64)).collect();
        // The Byzantine node runs its own RBC engine to participate in
        // echo/ready (it wants its lies delivered).
        let mut evil_rbc = ReliableBroadcast::new(n, f, 3);
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        // Byzantine lies for round 1 (it stays in round 1; that is the
        // worst it can do for a unanimous round-1 decision).
        for (step, value) in [
            (1u8, StepValue::Zero), // flipped
            (2, StepValue::Zero),   // flipped
            (3, StepValue::Null),
        ] {
            let out = evil_rbc.broadcast(1, step, Bytes::copy_from_slice(&[value.encode()]));
            queue.extend(out.send.into_iter().map(|m| (3usize, m.encode())));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            // All three decide after 102 messages: 10× that is a livelock.
            assert!(iters < 1_020, "livelock");
            // Correct processes receive everything; the Byzantine node's
            // RBC engine also participates (echoes/readies).
            if let Some(msg) = RbcMessage::decode(&bytes) {
                let out = evil_rbc.on_message(from, &msg);
                queue.extend(out.send.into_iter().map(|m| (3usize, m.encode())));
            }
            for (to, engine) in engines.iter_mut().enumerate().take(3) {
                let out = engine.on_message(from, &bytes);
                queue.extend(out.send.into_iter().map(|b| (to, b)));
            }
            if engines.iter().all(|e| e.decision().is_some()) {
                break;
            }
        }
        for e in &engines {
            assert_eq!(e.decision(), Some(true), "validity must hold");
        }
    }

    #[test]
    fn even_quorum_tie_adoption_recovers_after_partition() {
        // n = 5, f = 1 ⇒ n − f = 4 is even: a process firing step 1 on
        // a 2–2 tie adopts One (the tie-break). Step-2 validation must
        // accept the resulting One with only ⌈(n−f)/2⌉ = 2 step-1
        // One-senders in existence, or the round deadlocks. Emulated
        // 4|1 partition: traffic crossing the split is buffered and
        // released at the heal (what a reliable transport does), so the
        // majority fires step 1 on exactly the four majority proposals
        // {0, 1, 0, 1} — the tie. Proposals overall are 3×Zero, 2×One:
        // under the pre-fix strict-majority validation the four tie-
        // adopted step-2 Ones could never validate and nobody reached
        // n − f step-2 acceptances — the queue drained undecided.
        let n = 5;
        let mut engines = group(n, 1, &[false, true, false, true, false], 5);
        let mut queue: Vec<(usize, usize, Bytes)> = Vec::new();
        let mut held: Vec<(usize, usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            for b in out.send {
                for to in 0..n {
                    queue.push((me, to, b.clone()));
                }
            }
        }
        let mut healed = false;
        let mut iters = 0;
        while !engines.iter().all(|e| e.decision().is_some()) {
            // Heal once the majority side has run its course: decided
            // (fixed validation) or wedged with the network quiescent
            // (the pre-fix deadlock).
            if !healed
                && (queue.is_empty() || engines[..4].iter().all(|e| e.decision().is_some()))
            {
                healed = true;
                queue.append(&mut held);
            }
            let Some((from, to, bytes)) = queue.pop() else {
                panic!("deadlock: network quiescent after heal, undecided");
            };
            iters += 1;
            // All five decide after 926 deliveries: 10× that is a livelock.
            assert!(iters < 9_260, "livelock");
            if !healed && (from == 4) != (to == 4) {
                held.push((from, to, bytes));
                continue;
            }
            let out = engines[to].on_message(from, &bytes);
            for b in out.send {
                for dst in 0..n {
                    queue.push((to, dst, b.clone()));
                }
            }
        }
        let first = engines[0].decision().expect("all decided");
        assert!(
            engines.iter().all(|e| e.decision() == Some(first)),
            "agreement after heal"
        );
    }

    /// A Byzantine origin's round-0 message reaches the engine like any
    /// other, since RBC delivers whatever 2f + 1 READYs back. No correct
    /// process sends round 0, and step-1 validation looks one round
    /// back, so the delivery is dropped.
    #[test]
    fn round_zero_delivery_is_dropped() {
        let mut node = Bracha::new(4, 1, 0, true, 0);
        let tag = Tag { origin: 3, round: 0, step: 1 };
        let payload = Bytes::copy_from_slice(&[StepValue::One.encode()]);
        let initial = RbcMessage::Initial { tag, payload: payload.clone() };
        let ready = RbcMessage::Ready { tag, payload };
        let _ = node.on_message(3, &initial.encode());
        for from in 1..=3 {
            let _ = node.on_message(from, &ready.encode());
        }
        assert_eq!(node.deliveries(), 1, "RBC delivered the round-0 message");
        assert!(node.pending.is_empty(), "round-0 message left pending");
    }

    /// The hot path's vote table stays one byte per sender.
    #[test]
    fn a_step_vote_is_one_byte() {
        assert_eq!(std::mem::size_of::<Option<(StepValue, ())>>(), 1);
    }

    #[test]
    fn step_value_helpers() {
        assert_eq!(StepValue::from_bit(true), StepValue::One);
        assert_eq!(StepValue::One.as_bit(), Some(true));
        assert_eq!(StepValue::Null.as_bit(), None);
        assert_eq!(StepValue::decode(3), None);
        for v in [StepValue::Zero, StepValue::One, StepValue::Null] {
            assert_eq!(StepValue::decode(v.encode()), Some(v));
        }
    }

    #[test]
    fn garbage_bytes_ignored() {
        let mut e = Bracha::new(4, 1, 0, true, 1);
        let out = e.on_message(1, b"garbage");
        assert!(out.send.is_empty());
        assert_eq!(out.newly_decided, None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The engine's per-round tallies vs. a naive model, a flat list
        /// of every accept scanned per query, under accepts and garbage
        /// collection: GC drops whole rounds below its floor, each vote
        /// lands in its round's and step's tally, and the O(1) vote
        /// count behind `store_bytes` matches the model's. What a tally
        /// does with a vote is `quorum::tests`' to check.
        #[test]
        fn round_votes_match_naive_model(
            ops in proptest::collection::vec(
                // (round, step sel, origin, value sel, gc trigger)
                (1u32..6, 1u8..4, 0usize..7, 0u8..3, 0u8..16),
                1..80,
            ),
        ) {
            const VALUES: [StepValue; 3] = [StepValue::Zero, StepValue::One, StepValue::Null];
            let mut engine = Bracha::new(7, 2, 0, true, 0);
            // Every accept in order: (round, step, origin, value).
            let mut model: Vec<(u32, u8, usize, StepValue)> = Vec::new();
            for (round, step, origin, v, gc) in ops {
                if gc == 0 {
                    engine.gc_below(round);
                    model.retain(|m| m.0 >= round);
                } else {
                    engine.accept_vote(Tag { origin, round, step }, VALUES[v as usize]);
                    model.push((round, step, origin, VALUES[v as usize]));
                }
                let mut live: Vec<u32> = engine.rounds.keys().copied().collect();
                let mut want: Vec<u32> = model.iter().map(|m| m.0).collect();
                live.sort_unstable();
                want.sort_unstable();
                want.dedup();
                proptest::prop_assert_eq!(live, want);
                let mut all_votes = 0;
                for (&round, steps) in &engine.rounds {
                    for step in 1u8..=3 {
                        // A sender's vote is the first value it had accepted.
                        let votes: Vec<StepValue> = (0..7)
                            .filter_map(|origin| {
                                model
                                    .iter()
                                    .find(|m| (m.0, m.1, m.2) == (round, step, origin))
                                    .map(|m| m.3)
                            })
                            .collect();
                        all_votes += votes.len();
                        let got: Vec<StepValue> = steps[usize::from(step - 1)].iter().map(|(v, _)| v).collect();
                        proptest::prop_assert_eq!(got, votes);
                    }
                }
                proptest::prop_assert_eq!(engine.votes, all_votes);
                proptest::prop_assert_eq!(engine.store_bytes(), 64 * engine.rounds.len() + all_votes);
            }
        }
    }
}
