//! The baselines' vote counting, declared once: [`Quorums`] holds every
//! threshold Bracha, its reliable broadcast and ABBA compare against,
//! and `Tally` is the first-vote-wins sender table they count in.
//!
//! A rule a correct process fires on and the rule a receiver validates
//! the resulting message with read the same method here, and the tests
//! audit each pair, and each quorum-intersection fact the protocols'
//! proofs rest on, at every n ∈ 4..=256 and every f with n > 3f.

/// The thresholds of a group of `n` processes, at most `f` of them
/// Byzantine.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Quorums {
    n: usize,
    f: usize,
}

impl Quorums {
    /// The thresholds of `n` processes tolerating `f` Byzantine ones.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n`.
    pub fn new(n: usize, f: usize) -> Quorums {
        assert!(3 * f < n, "Byzantine quorums require n > 3f");
        Quorums { n, f }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `n − f`: the most votes a process can wait for while `f` stay
    /// silent. Every Bracha step and both ABBA votes fire on it, and it
    /// is ABBA's signature threshold.
    pub fn wait(&self) -> usize {
        self.n - self.f
    }

    /// `f + 1`: enough senders to include a correct one. Bracha's
    /// step-3 adoption, RBC's READY amplification, ABBA's coin
    /// threshold.
    pub(crate) fn weak(&self) -> usize {
        self.f + 1
    }

    /// `2f + 1`: enough senders to include `f + 1` correct ones.
    /// Bracha decides and RBC delivers on it.
    pub(crate) fn strong(&self) -> usize {
        2 * self.f + 1
    }

    /// `true` when `count` exceeds `(n + f)/2`: RBC's echo quorum.
    pub(crate) fn exceeds_echo_quorum(&self, count: usize) -> bool {
        2 * count > self.n + self.f
    }

    /// `true` when `count` exceeds `n/2`. Bracha's step 2 adopts such a
    /// value, and step-3 validation accepts a binary value on it.
    pub(crate) fn exceeds_half(&self, count: usize) -> bool {
        2 * count > self.n
    }

    /// The binary majority of `zero` and `one` votes, ties to One
    /// (`true`), as Turquois breaks them. Bracha adopts it at step 1
    /// and weighs it at step 3.
    pub(crate) fn majority_bit(&self, zero: usize, one: usize) -> bool {
        one >= zero
    }

    /// Fewest votes for `bit` with which some [`wait`](Self::wait)
    /// votes have it as their [`majority_bit`](Self::majority_bit):
    /// Bracha's step-2 validation. One wins a tie, so ⌈(n−f)/2⌉ suffice
    /// for it, while Zero needs ⌊(n−f)/2⌋ + 1. Demanding the latter of
    /// One pends a tie-adopted step-2 value forever when n − f is even.
    pub(crate) fn majority_bit_min(&self, bit: bool) -> usize {
        if bit {
            self.wait().div_ceil(2)
        } else {
            self.wait() / 2 + 1
        }
    }
}

/// A value a [`Tally`] counts: one of at most three, numbered by
/// `index`.
pub(crate) trait TallyValue: Copy + Eq {
    /// This value's count slot, below 3.
    fn index(self) -> usize;
}

impl TallyValue for bool {
    fn index(self) -> usize {
        usize::from(self)
    }
}

/// One vote per sender, the first one: a dense table indexed by sender
/// (node ids are dense `0..n`), grown on demand, with its per-value
/// counts and its total kept at insert so every quorum check is O(1).
/// `P` is what a vote carries besides its value (ABBA's signature
/// share); with `P = ()` and a one-byte `V` a slot is one byte.
#[derive(Debug)]
pub(crate) struct Tally<V, P = ()> {
    slots: Vec<Option<(V, P)>>,
    counts: [usize; 3],
    total: usize,
}

impl<V, P> Default for Tally<V, P> {
    fn default() -> Self {
        Tally {
            slots: Vec::new(),
            counts: [0; 3],
            total: 0,
        }
    }
}

impl<V: TallyValue, P> Tally<V, P> {
    /// Records `sender`'s vote unless it has one; returns whether it
    /// was recorded.
    pub fn insert(&mut self, sender: usize, value: V, payload: P) -> bool {
        if self.slots.len() <= sender {
            self.slots.resize_with(sender + 1, || None);
        }
        let slot = &mut self.slots[sender];
        if slot.is_some() {
            return false;
        }
        *slot = Some((value, payload));
        self.counts[value.index()] += 1;
        self.total += 1;
        true
    }

    /// Senders whose vote is `value`. O(1); the scan is its debug
    /// oracle.
    pub fn count(&self, value: V) -> usize {
        debug_assert_eq!(
            self.counts[value.index()],
            self.iter().filter(|&(v, _)| v == value).count()
        );
        self.counts[value.index()]
    }

    /// Senders with a vote. O(1); the scan is its debug oracle.
    pub fn total(&self) -> usize {
        debug_assert_eq!(self.total, self.iter().count());
        self.total
    }

    /// The votes, in ascending sender order.
    pub fn iter(&self) -> impl Iterator<Item = (V, &P)> + '_ {
        self.slots.iter().flatten().map(|(value, payload)| (*value, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bracha::StepValue;

    /// Every group the audit covers: n ∈ 4..=256, every f with n > 3f.
    fn groups() -> impl Iterator<Item = Quorums> {
        (4..=256).flat_map(|n| (0..=(n - 1) / 3).map(move |f| Quorums::new(n, f)))
    }

    /// The smallest count `exceeds` accepts.
    fn min_count(exceeds: impl Fn(usize) -> bool) -> usize {
        (0..).find(|&c| exceeds(c)).expect("some count exceeds")
    }

    /// Whatever a correct Bracha process sends after firing a step on
    /// `total ≥ n − f` votes passes every receiver's validation once the
    /// same votes reach it, for every (zero, one) split: the step-1
    /// majority passes step-2 validation, step 2's value or ⊥ passes
    /// step-3 validation, and a step-3 coin flip finds a ⊥ to justify
    /// it. Totals are n − f at every n, and every total up to n for
    /// n ≤ 64 (a step can fire on more votes than it waits for).
    #[test]
    fn every_value_a_correct_process_sends_is_valid() {
        for q in groups() {
            let n = q.n();
            let top = if n <= 64 { n } else { q.wait() };
            for total in q.wait()..=top {
                for one in 0..=total {
                    let zero = total - one;
                    let at = || format!("n={n} f={} total={total} zero={zero} one={one}", n - q.wait());
                    let bit = q.majority_bit(zero, one);
                    let adopted = if bit { one } else { zero };
                    let need = q.majority_bit_min(bit);
                    assert!(adopted >= need, "{}: step 1 adopts {bit}, step-2 validation wants {need}", at());
                    // ⊥ at step 3 claims no step-2 majority; validation
                    // asks for one vote of each value.
                    if !q.exceeds_half(zero) && !q.exceeds_half(one) {
                        assert!(zero > 0 && one > 0, "{}: step-3 ⊥ unjustifiable", at());
                    }
                    assert!(!(q.exceeds_half(zero) && q.exceeds_half(one)), "{}: two step-2 majorities", at());
                }
                // A coin flip means neither value reached f + 1, which
                // leaves at least one ⊥ among `total` step-3 votes.
                assert!(total - 2 * (q.weak() - 1) >= 1, "n={n} total={total}: coin without a ⊥");
            }
            // Step-2 validation is tight: one vote short of its minimum,
            // no n − f votes adopt the value.
            for bit in [false, true] {
                let short = q.majority_bit_min(bit) - 1;
                let (zero, one) = if bit { (q.wait() - short, short) } else { (short, q.wait() - short) };
                assert_ne!(q.majority_bit(zero, one), bit, "n={n}: {short} votes pass step-2 validation");
            }
        }
    }

    /// The quorum-intersection and liveness facts the three protocols'
    /// proofs rest on, at every group.
    #[test]
    fn quorums_intersect_and_are_reachable() {
        for q in groups() {
            let (n, f) = (q.n(), q.weak() - 1);
            let echo = min_count(|c| q.exceeds_echo_quorum(c));
            assert!(2 * q.wait() - n >= q.weak(), "n={n} f={f}: two n − f quorums share no correct process");
            assert!(2 * echo - n > f, "n={n} f={f}: two echo quorums share no correct process");
            assert!(q.strong() - f >= q.weak(), "n={n} f={f}: 2f + 1 READYs without f + 1 correct");
            assert!(echo <= q.wait() && q.strong() <= q.wait(), "n={n} f={f}: a quorum the correct cannot fill");
            // ABBA combines a coin from the shares that came with n − f
            // main-votes.
            assert!(q.wait() >= q.weak(), "n={n} f={f}: signature threshold below the coin's");
        }
    }

    /// Checks `tally` against `model`, every insert in order as
    /// (sender, value, payload): a sender's vote is its first insert.
    fn matches_model<V: TallyValue + std::fmt::Debug>(
        tally: &Tally<V, usize>,
        model: &[(usize, V, usize)],
        values: &[V],
    ) -> Result<(), proptest::prelude::TestCaseError> {
        let mut first: Vec<(usize, V, usize)> = Vec::new();
        for &(sender, value, payload) in model {
            if first.iter().all(|&(s, _, _)| s != sender) {
                first.push((sender, value, payload));
            }
        }
        first.sort_by_key(|&(sender, _, _)| sender);
        let want: Vec<(V, usize)> = first.iter().map(|&(_, v, p)| (v, p)).collect();
        let got: Vec<(V, usize)> = tally.iter().map(|(v, &p)| (v, p)).collect();
        proptest::prop_assert_eq!(got, want);
        proptest::prop_assert_eq!(tally.total(), first.len());
        for &value in values {
            let count = first.iter().filter(|&&(_, v, _)| v == value).count();
            proptest::prop_assert_eq!(tally.count(value), count);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// [`Tally`] against a naive model, a flat list of every insert
        /// scanned per query, for a three-valued and a binary `V`:
        /// duplicate senders and conflicting values (the first vote
        /// wins, payload included), senders past the table's current
        /// length, ascending-sender iteration, and `insert`'s verdict.
        /// `count` and `total` also check their scan oracles here.
        #[test]
        fn tally_matches_a_naive_model(
            inserts in proptest::collection::vec((0usize..40, 0u8..3), 1..120),
        ) {
            const STEP_VALUES: [StepValue; 3] = [StepValue::Zero, StepValue::One, StepValue::Null];
            let mut three: Tally<StepValue, usize> = Tally::default();
            let mut two: Tally<bool, usize> = Tally::default();
            let mut model3 = Vec::new();
            let mut model2 = Vec::new();
            for (payload, (sender, v)) in inserts.into_iter().enumerate() {
                let fresh = model3.iter().all(|&(s, _, _)| s != sender);
                let (value3, value2) = (STEP_VALUES[usize::from(v)], v == 1);
                proptest::prop_assert_eq!(three.insert(sender, value3, payload), fresh);
                proptest::prop_assert_eq!(two.insert(sender, value2, payload), fresh);
                model3.push((sender, value3, payload));
                model2.push((sender, value2, payload));
                matches_model(&three, &model3, &STEP_VALUES)?;
                matches_model(&two, &model2, &[false, true])?;
            }
        }
    }

    /// Whether `code` contains `pattern` as whole words: an identifier
    /// character on neither side.
    fn has_word(code: &str, pattern: &str) -> bool {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        code.match_indices(pattern).any(|(at, _)| {
            let before = code[..at].chars().next_back();
            let after = code[at + pattern.len()..].chars().next();
            !before.is_some_and(ident) && !after.is_some_and(ident)
        })
    }

    /// The shipped part of each engine (up to its first `#[cfg(test)]`)
    /// computes no threshold inline: `self.` stripped, no code line of
    /// it spells `n - f`, `f + 1`, `2 * f`, `n / 2`, `n + f` or
    /// `div_ceil(2)`. They are read from [`Quorums`].
    #[test]
    fn engines_compute_no_threshold_inline() {
        const INLINE: [&str; 6] = ["n - f", "f + 1", "2 * f", "n / 2", "n + f", "div_ceil(2)"];
        assert!(has_word("self.n - self.f".replace("self.", "").as_str(), "n - f"));
        assert!(!has_word("len - f", "n - f") && !has_word("buf + 1", "f + 1"));
        let sources = [
            ("bracha.rs", include_str!("bracha.rs")),
            ("abba.rs", include_str!("abba.rs")),
            ("rbc.rs", include_str!("rbc.rs")),
        ];
        for (file, text) in sources {
            let shipped = text.split("#[cfg(test)]").next().unwrap_or_default();
            for (i, line) in shipped.lines().enumerate() {
                let code = line.split("//").next().unwrap_or_default().replace("self.", "");
                for pattern in INLINE {
                    assert!(
                        !has_word(&code, pattern),
                        "{file}:{}: inline threshold `{pattern}`; read it from `Quorums`",
                        i + 1
                    );
                }
            }
        }
    }
}
