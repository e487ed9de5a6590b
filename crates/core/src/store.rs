//! The message set `V_i` and its evidence companion.
//!
//! Algorithm 1 accumulates *valid* arriving messages in a set `V_i` and
//! drives every state transition from counts over that set. Two details
//! matter for a faithful, Byzantine-safe implementation:
//!
//! * **Counting is per sender.** A Byzantine process holds one-time keys
//!   for every value, so it can *equivocate* — sign both `0` and `1` in
//!   the same phase. Counting raw messages would let `f` Byzantine
//!   processes weigh like `2f`; counting distinct senders per criterion
//!   keeps the quorum-intersection arguments intact (two `> (n+f)/2`
//!   sender-quorums intersect in more than `f` senders, hence in a
//!   correct process).
//! * **Sets, not multisets.** A correct process rebroadcasts the same
//!   state every clock tick; duplicates must not inflate counts.
//!
//! The same structure backs both stores kept by a process (see
//! `validation`): the semantically-validated `V_i` that drives
//! transitions, and the authentic-evidence store used by the §6.2
//! semantic checks and for building justifications.
//!
//! # Storage layout (DESIGN.md §10)
//!
//! Node ids are dense `0..n`, and a sender can contribute at most one
//! record per distinct `(value, coin, status)` combination — twelve in
//! total. A phase slot therefore keeps one record per sender — a 12-bit
//! presence mask (one bit per combination code), a packed `u64` of
//! 4-bit codes in insertion order, and three arena indices (one per
//! value) into a slot-local signature arena — in one `Vec`: 22 bytes of
//! content per sender (24 with alignment) plus 32 per distinct
//! `(sender, value)` signature, with no per-sender heap allocation —
//! the difference between n=16 and n=256 staying resident.
//!
//! All retrieval paths return the *first* record matching their
//! criterion in insertion order, and the signature for a given
//! `(sender, phase, value)` is fixed at the first insert of that value
//! (verified one-time signatures are unique per `(phase, value)` by
//! construction). The model proptest below holds every query to a flat
//! insertion-ordered record list answering by naive scan.

use crate::message::{Envelope, Status};
use crate::state::PhaseKind;
use turquois_crypto::otss::{OneTimeSignature, Value};

/// One stored record: the distinct content a sender put in a phase.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Record {
    /// The proposal value.
    pub value: Value,
    /// Coin-provenance flag.
    pub coin_flip: bool,
    /// Decision status.
    pub status: Status,
    /// The one-time signature authenticating `(phase, value)`.
    pub signature: OneTimeSignature,
}

impl Record {
    /// Reassembles the envelope for `sender` at `phase`.
    pub fn to_envelope(self, sender: usize, phase: u32) -> Envelope {
        Envelope {
            sender,
            phase,
            value: self.value,
            coin_flip: self.coin_flip,
            status: self.status,
        }
    }
}

/// Tally index for a [`Value`] (`Zero`, `One`, `Bot` in order).
#[inline]
fn value_idx(value: Value) -> usize {
    match value {
        Value::Zero => 0,
        Value::One => 1,
        Value::Bot => 2,
    }
}

const VALUES: [Value; 3] = [Value::Zero, Value::One, Value::Bot];

/// Encodes a record's observable content as a 4-bit combination code
/// `value_idx * 4 + coin * 2 + status` (twelve possible codes, 0..12).
#[inline]
pub(crate) fn combo_code(value: Value, coin_flip: bool, status: Status) -> u8 {
    (value_idx(value) as u8) * 4
        + (coin_flip as u8) * 2
        + (status == Status::Decided) as u8
}

/// Decodes a combination code back into a [`Record`], attaching the
/// signature recovered from the slot arena.
#[inline]
fn decode_code(code: u8, signature: OneTimeSignature) -> Record {
    Record {
        value: VALUES[(code >> 2) as usize],
        coin_flip: code & 0b10 != 0,
        status: if code & 1 != 0 {
            Status::Decided
        } else {
            Status::Undecided
        },
        signature,
    }
}

/// Presence-mask bits covering every code of `value`.
#[inline]
pub(crate) fn value_mask(value: Value) -> u16 {
    0b1111 << (4 * value_idx(value))
}

/// Arena-index sentinel: no signature stored for this `(sender, value)`.
const NO_SIG: u32 = u32::MAX;

/// What a phase slot keeps for one sender, together so a probe reads
/// one cache line.
#[derive(Clone, Copy, Debug)]
struct SenderRecords {
    /// Packed 4-bit combination codes in insertion order; the record
    /// count is `mask.count_ones()` (≤ 12 records → 48 bits).
    order: u64,
    /// Per-value arena index of the signature recorded at the first
    /// insert of that value ([`NO_SIG`] when absent).
    sig_idx: [u32; 3],
    /// Presence bitmask, one bit per combination code.
    mask: u16,
}

impl SenderRecords {
    const EMPTY: Self = SenderRecords {
        order: 0,
        sig_idx: [NO_SIG; 3],
        mask: 0,
    };
}

/// Iterates a sender's records in insertion order.
struct RecordsIter<'a> {
    order: u64,
    left: u32,
    sig_idx: &'a [u32; 3],
    sigs: &'a [OneTimeSignature],
}

impl Iterator for RecordsIter<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.left == 0 {
            return None;
        }
        let code = (self.order & 0xF) as u8;
        self.order >>= 4;
        self.left -= 1;
        let sig = self.sigs[self.sig_idx[(code >> 2) as usize] as usize];
        Some(decode_code(code, sig))
    }
}

/// One phase's records in the index-keyed bitset/arena layout (see the
/// module docs).
#[derive(Clone, Debug)]
struct PhaseSlot {
    /// Indexed by sender.
    senders: Vec<SenderRecords>,
    /// Slot-local signature arena, one entry per distinct
    /// `(sender, value)` pair — the slot's signature population.
    sigs: Vec<OneTimeSignature>,
    /// Distinct senders with ≥ 1 record in this phase, maintained on
    /// insert so quorum checks are O(1) instead of rescanning.
    phase_senders: usize,
    /// Distinct senders per value (indexed by [`value_idx`]); an
    /// equivocator contributes once per value it signed, never twice to
    /// the same value.
    value_senders: [usize; 3],
    /// Records stored, maintained on insert. A slot only grows until
    /// it is pruned, so an unchanged count means unchanged contents.
    records: usize,
}

impl PhaseSlot {
    fn new(n: usize) -> Self {
        PhaseSlot {
            senders: vec![SenderRecords::EMPTY; n],
            sigs: Vec::new(),
            phase_senders: 0,
            value_senders: [0; 3],
            records: 0,
        }
    }

    /// Inserts a record for `sender`; returns `true` if it was new (not
    /// an exact duplicate of a stored record), updating all tallies.
    fn insert(&mut self, sender: usize, record: Record) -> bool {
        // Duplicate = same observable content. (Signatures for the same
        // (phase, value) are identical by construction.)
        if self.has_record(sender, record.value, record.coin_flip, record.status) {
            return false;
        }
        let code = combo_code(record.value, record.coin_flip, record.status);
        let s = &mut self.senders[sender];
        if s.mask == 0 {
            self.phase_senders += 1;
        }
        let vi = value_idx(record.value);
        if s.mask & value_mask(record.value) == 0 {
            self.value_senders[vi] += 1;
            s.sig_idx[vi] = self.sigs.len() as u32;
            self.sigs.push(record.signature);
        }
        s.order |= u64::from(code) << (4 * s.mask.count_ones());
        s.mask |= 1 << code;
        self.records += 1;
        true
    }

    /// The records sender `s` produced, in insertion order.
    fn records(&self, sender: usize) -> RecordsIter<'_> {
        let s = &self.senders[sender];
        RecordsIter {
            order: s.order,
            left: s.mask.count_ones(),
            sig_idx: &s.sig_idx,
            sigs: &self.sigs,
        }
    }

    /// `sender`'s first record, in insertion order, whose combination
    /// code is in `want`.
    fn first_in(&self, sender: usize, want: u16) -> Option<Record> {
        if self.senders[sender].mask & want == 0 {
            return None;
        }
        self.records(sender)
            .find(|r| want & (1 << combo_code(r.value, r.coin_flip, r.status)) != 0)
    }

    /// Whether `sender` has any record in this phase. O(1).
    fn sender_present(&self, sender: usize) -> bool {
        self.senders[sender].mask != 0
    }

    /// Whether `sender` has a record with `value`. O(1): a mask probe.
    fn sender_has_value(&self, sender: usize, value: Value) -> bool {
        self.senders[sender].mask & value_mask(value) != 0
    }

    /// The signature recorded at `sender`'s first insert of `value`.
    fn signature_of(&self, sender: usize, value: Value) -> Option<OneTimeSignature> {
        let idx = self.senders[sender].sig_idx[value_idx(value)];
        (idx != NO_SIG).then(|| self.sigs[idx as usize])
    }

    /// Whether `sender` has this exact `(value, coin_flip, status)`
    /// record — i.e. whether inserting it would be a no-op.
    fn has_record(&self, sender: usize, value: Value, coin_flip: bool, status: Status) -> bool {
        self.senders[sender].mask & (1 << combo_code(value, coin_flip, status)) != 0
    }

    /// The retired scan the incremental `records` replaced.
    fn scan_records(&self) -> usize {
        self.senders.iter().map(|s| s.mask.count_ones() as usize).sum()
    }

    /// Number of senders the slot was sized for.
    fn n(&self) -> usize {
        self.senders.len()
    }

    /// Distinct `(sender, value)` pairs stored.
    fn sig_slots(&self) -> usize {
        self.sigs.len()
    }

    /// The retired scan the incremental `phase_senders` replaced; kept
    /// as the `debug_assert!` oracle (and exercised by the proptest).
    fn scan_phase_senders(&self) -> usize {
        (0..self.n())
            .filter(|&s| self.records(s).next().is_some())
            .count()
    }

    /// The retired scan the incremental `value_senders` replaced.
    fn scan_value_senders(&self, value: Value) -> usize {
        (0..self.n())
            .filter(|&s| self.records(s).any(|r| r.value == value))
            .count()
    }
}

/// A phase-indexed, sender-deduplicated message set.
#[derive(Clone, Debug)]
pub struct MessageStore {
    n: usize,
    /// One slot per retained phase, ascending by phase; pruning drains
    /// the front. See [`MessageStore::index`] for the lookup.
    phases: Vec<(u32, PhaseSlot)>,
    /// Live distinct `(sender, value)` pairs across all retained
    /// phases, maintained on insert and prune for O(1)
    /// [`MessageStore::approx_bytes`].
    sig_slots: usize,
}

impl MessageStore {
    /// Creates an empty store for `n` processes.
    pub fn new(n: usize) -> Self {
        MessageStore {
            n,
            phases: Vec::new(),
            sig_slots: 0,
        }
    }

    /// Inserts a message. Returns `true` if it was new (not an exact
    /// duplicate of a stored record).
    ///
    /// # Panics
    ///
    /// Panics if `envelope.sender >= n` (the wire decoder enforces this
    /// upstream).
    pub fn insert(&mut self, envelope: &Envelope, signature: OneTimeSignature) -> bool {
        assert!(envelope.sender < self.n, "sender out of range");
        let i = self.index(envelope.phase).unwrap_or_else(|i| {
            self.phases.insert(i, (envelope.phase, PhaseSlot::new(self.n)));
            i
        });
        let slot = &mut self.phases[i].1;
        let before = slot.sig_slots();
        let fresh = slot.insert(
            envelope.sender,
            Record {
                value: envelope.value,
                coin_flip: envelope.coin_flip,
                status: envelope.status,
                signature,
            },
        );
        self.sig_slots += slot.sig_slots() - before;
        fresh
    }

    /// Where `phase`'s slot is (`Ok`) or would go (`Err`). The retained
    /// phases are almost always consecutive, so the slot as far from the
    /// first as `phase` is tried first: one compare on the slot's own
    /// cache line. Otherwise a binary search, which keeps a lookup
    /// O(log k) in the retained phases even when a Byzantine sender
    /// fills the evidence store with authentic future phases.
    fn index(&self, phase: u32) -> Result<usize, usize> {
        let first = self.phases.first().map_or(0, |&(p, _)| p);
        let guess = phase.wrapping_sub(first) as usize;
        match self.phases.get(guess) {
            Some(&(p, _)) if p == phase => Ok(guess),
            _ => self.phases.binary_search_by_key(&phase, |&(p, _)| p),
        }
    }

    /// `phase`'s slot, if any record is stored at it.
    fn slot(&self, phase: u32) -> Option<&PhaseSlot> {
        self.index(phase).ok().map(|i| &self.phases[i].1)
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Records stored at `phase`, from a tally maintained on insert.
    /// Between prunes a slot only grows, so while `phase` is retained an
    /// unchanged count means unchanged contents.
    pub fn records_at(&self, phase: u32) -> usize {
        self.slot(phase)
            .map(|s| {
                debug_assert_eq!(s.records, s.scan_records());
                s.records
            })
            .unwrap_or(0)
    }

    /// Distinct senders with at least one message at `phase`. O(1):
    /// answered from the incremental tally maintained by
    /// [`MessageStore::insert`].
    pub fn count_phase(&self, phase: u32) -> usize {
        self.slot(phase)
            .map(|s| {
                debug_assert_eq!(s.phase_senders, s.scan_phase_senders());
                s.phase_senders
            })
            .unwrap_or(0)
    }

    /// Distinct senders with at least one message `(phase, value)`.
    /// O(1), from the same incremental tallies.
    pub fn count_value(&self, phase: u32, value: Value) -> usize {
        self.slot(phase)
            .map(|s| {
                debug_assert_eq!(s.value_senders[value_idx(value)], s.scan_value_senders(value));
                s.value_senders[value_idx(value)]
            })
            .unwrap_or(0)
    }

    /// Whether `sender` has any message at `phase`.
    pub fn has_sender(&self, phase: u32, sender: usize) -> bool {
        self.slot(phase)
            .is_some_and(|s| s.sender_present(sender))
    }

    /// Whether `sender` sent `(phase, value)`.
    pub fn has_sender_value(&self, phase: u32, sender: usize, value: Value) -> bool {
        self.slot(phase)
            .is_some_and(|s| s.sender_has_value(sender, value))
    }

    /// The signature stored for `(phase, sender, value)`: the one given
    /// at the first insert of that value, whatever the flags. A store
    /// fed only verified signatures therefore answers "is this
    /// signature authentic?" for every fact it holds with a 32-byte
    /// compare (see `Turquois::authentic`).
    pub fn signature_of(
        &self,
        phase: u32,
        sender: usize,
        value: Value,
    ) -> Option<OneTimeSignature> {
        self.slot(phase)?.signature_of(sender, value)
    }

    /// Whether this exact record is stored, i.e. whether
    /// [`MessageStore::insert`] of `envelope` would return `false`.
    pub fn contains(&self, envelope: &Envelope) -> bool {
        self.slot(envelope.phase).is_some_and(|s| {
            s.has_record(
                envelope.sender,
                envelope.value,
                envelope.coin_flip,
                envelope.status,
            )
        })
    }

    /// Whether this exact record is stored under exactly `signature`:
    /// [`MessageStore::contains`] and the [`MessageStore::signature_of`]
    /// compare in one slot probe. In a store fed only verified
    /// signatures a `true` both authenticates the fact and says that
    /// inserting it would change nothing.
    pub(crate) fn holds(&self, envelope: &Envelope, signature: &OneTimeSignature) -> bool {
        self.slot(envelope.phase).is_some_and(|s| {
            s.has_record(
                envelope.sender,
                envelope.value,
                envelope.coin_flip,
                envelope.status,
            ) && s.signature_of(envelope.sender, envelope.value) == Some(*signature)
        })
    }

    /// The best catch-up candidate: a record with phase strictly above
    /// `above`, from the **highest** such phase (lowest sender, first
    /// record as deterministic tie-breaks). Returns
    /// `(phase, sender, record)`.
    pub fn best_catch_up(&self, above: u32) -> Option<(u32, usize, Record)> {
        let &(phase, ref slot) = self.phases.last().filter(|&&(p, _)| p > above)?;
        for sender in 0..slot.n() {
            if let Some(rec) = slot.records(sender).next() {
                return Some((phase, sender, rec));
            }
        }
        None
    }

    /// The value in `{0, 1}` held by the most distinct senders at
    /// `phase`; ties break to `One`. Returns `Zero` when the phase is
    /// empty (callers only invoke this after a quorum check).
    pub fn majority_value(&self, phase: u32) -> Value {
        let zeros = self.count_value(phase, Value::Zero);
        let ones = self.count_value(phase, Value::One);
        if zeros > ones {
            Value::Zero
        } else {
            Value::One
        }
    }

    /// The binary value present at `phase` with the most senders, if any
    /// sender sent a binary value at all (Algorithm 1, line 32).
    pub fn any_binary_value(&self, phase: u32) -> Option<Value> {
        let zeros = self.count_value(phase, Value::Zero);
        let ones = self.count_value(phase, Value::One);
        if zeros == 0 && ones == 0 {
            None
        } else if zeros > ones {
            Some(Value::Zero)
        } else {
            Some(Value::One)
        }
    }

    /// The messages at `phase`, one per sender in ascending sender
    /// order, optionally restricted to `value`: each sender's first
    /// matching record. Senders without one are skipped on their
    /// presence mask, and nothing is materialized, so a justification
    /// bundle takes what it needs straight from the slot.
    pub(crate) fn one_per_sender(
        &self,
        phase: u32,
        value: Option<Value>,
    ) -> impl Iterator<Item = (Envelope, OneTimeSignature)> + '_ {
        let slot = self.slot(phase);
        let want = value.map_or(u16::MAX, value_mask);
        (0..slot.map_or(0, PhaseSlot::n)).filter_map(move |sender| {
            let rec = slot?.first_in(sender, want)?;
            Some((rec.to_envelope(sender, phase), rec.signature))
        })
    }

    /// Iterates over the DECIDE phases currently stored, ascending.
    pub fn decide_phases(&self) -> impl Iterator<Item = u32> + '_ {
        self.phases
            .iter()
            .map(|&(p, _)| p)
            .filter(|&p| PhaseKind::of(p) == PhaseKind::Decide)
    }

    /// Drops all phases strictly below `min_phase` (garbage collection).
    pub fn prune_below(&mut self, min_phase: u32) {
        let dead = self.phases.partition_point(|&(p, _)| p < min_phase);
        for (_, slot) in self.phases.drain(..dead) {
            self.sig_slots -= slot.sig_slots();
        }
    }

    /// Lowest phase retained, if non-empty.
    pub fn min_phase(&self) -> Option<u32> {
        self.phases.first().map(|&(p, _)| p)
    }

    /// Every stored record as `(phase, sender, record)`, by phase, then
    /// sender, then insertion order — whole-store equality for tests.
    #[cfg(test)]
    pub(crate) fn records(&self) -> Vec<(u32, usize, Record)> {
        let mut out = Vec::new();
        for &(phase, ref slot) in &self.phases {
            for sender in 0..slot.n() {
                out.extend(slot.records(sender).map(|rec| (phase, sender, rec)));
            }
        }
        out
    }

    /// Total stored records (for tests and memory diagnostics).
    pub fn record_count(&self) -> usize {
        self.phases.iter().map(|(_, s)| s.records).sum()
    }

    /// Deterministic O(1) estimate of the store's resident footprint in
    /// bytes: each retained phase charges the slot layout's fixed 22
    /// bytes per sender plus 64 bytes of slot/map overhead, and every
    /// distinct `(sender, value)` pair charges a 32-byte signature. A
    /// function of record counts only — never of `Vec` capacities or
    /// allocator behaviour — so it is reproducible across runs and
    /// platforms (supervised tables print its high-water mark).
    pub fn approx_bytes(&self) -> usize {
        self.phases.len() * (22 * self.n + 64) + 32 * self.sig_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turquois_crypto::sha256::DIGEST_LEN;

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

    #[test]
    fn duplicates_do_not_inflate_counts() {
        let mut s = MessageStore::new(4);
        assert!(s.insert(&env(0, 1, Value::One), sig(1)));
        assert!(!s.insert(&env(0, 1, Value::One), sig(1)));
        assert_eq!(s.count_phase(1), 1);
        assert_eq!(s.count_value(1, Value::One), 1);
        assert_eq!(s.record_count(), 1);
    }

    #[test]
    fn equivocation_counts_once_per_value_once_per_phase() {
        let mut s = MessageStore::new(4);
        assert!(s.insert(&env(2, 1, Value::Zero), sig(1)));
        assert!(s.insert(&env(2, 1, Value::One), sig(2)));
        // Phase count: the sender is present once.
        assert_eq!(s.count_phase(1), 1);
        // Value counts: present for each value it signed.
        assert_eq!(s.count_value(1, Value::Zero), 1);
        assert_eq!(s.count_value(1, Value::One), 1);
    }

    #[test]
    fn counts_across_senders() {
        let mut s = MessageStore::new(5);
        for sender in 0..4 {
            s.insert(&env(sender, 2, Value::One), sig(sender as u8));
        }
        s.insert(&env(4, 2, Value::Zero), sig(9));
        assert_eq!(s.count_phase(2), 5);
        assert_eq!(s.count_value(2, Value::One), 4);
        assert_eq!(s.count_value(2, Value::Zero), 1);
        assert_eq!(s.count_phase(3), 0);
    }

    #[test]
    fn best_catch_up_prefers_highest_phase() {
        let mut s = MessageStore::new(4);
        s.insert(&env(1, 3, Value::One), sig(1));
        s.insert(&env(2, 7, Value::Zero), sig(2));
        s.insert(&env(3, 5, Value::One), sig(3));
        let (phase, sender, rec) = s.best_catch_up(1).expect("candidates exist");
        assert_eq!((phase, sender), (7, 2));
        assert_eq!(rec.value, Value::Zero);
        assert!(s.best_catch_up(7).is_none());
        let (phase, _, _) = s.best_catch_up(5).expect("phase 7 qualifies");
        assert_eq!(phase, 7);
    }

    #[test]
    fn majority_and_tiebreak() {
        let mut s = MessageStore::new(5);
        s.insert(&env(0, 1, Value::Zero), sig(0));
        s.insert(&env(1, 1, Value::Zero), sig(1));
        s.insert(&env(2, 1, Value::One), sig(2));
        assert_eq!(s.majority_value(1), Value::Zero);
        s.insert(&env(3, 1, Value::One), sig(3));
        // Tie 2–2 breaks to One.
        assert_eq!(s.majority_value(1), Value::One);
        assert_eq!(s.any_binary_value(1), Some(Value::One));
        assert_eq!(s.any_binary_value(9), None);
    }

    #[test]
    fn any_binary_value_ignores_bot() {
        let mut s = MessageStore::new(4);
        s.insert(&env(0, 3, Value::Bot), sig(0));
        assert_eq!(s.any_binary_value(3), None);
        s.insert(&env(1, 3, Value::Zero), sig(1));
        assert_eq!(s.any_binary_value(3), Some(Value::Zero));
    }

    #[test]
    fn one_per_sender_with_filter() {
        let mut s = MessageStore::new(4);
        s.insert(&env(0, 2, Value::One), sig(0));
        s.insert(&env(1, 2, Value::Zero), sig(1));
        s.insert(&env(1, 2, Value::One), sig(2)); // equivocator
        s.insert(&env(3, 2, Value::One), sig(3));
        let ones: Vec<_> = s.one_per_sender(2, Some(Value::One)).collect();
        assert_eq!(ones.len(), 3);
        assert!(ones.iter().all(|(e, _)| e.value == Value::One));
        assert_eq!(s.one_per_sender(2, None).count(), 3);
        assert_eq!(s.one_per_sender(2, Some(Value::Bot)).count(), 0);
        assert_eq!(s.one_per_sender(5, None).count(), 0);
    }

    #[test]
    fn prune_below_drops_old_phases() {
        let mut s = MessageStore::new(3);
        for phase in 1..=10 {
            s.insert(&env(0, phase, Value::One), sig(phase as u8));
        }
        s.prune_below(7);
        assert_eq!(s.min_phase(), Some(7));
        assert_eq!(s.count_phase(6), 0);
        assert_eq!(s.count_phase(7), 1);
        assert_eq!(s.record_count(), 4);
    }

    /// Phases past a gap — a Byzantine sender's authentic future
    /// phases — are found by the binary search behind the direct probe,
    /// before and after the front is pruned.
    #[test]
    fn phases_past_a_gap_are_found() {
        let mut s = MessageStore::new(3);
        let phases = [2u32, 3, 4, 900, 70_000, u32::MAX];
        for &phase in phases.iter().rev() {
            s.insert(&env(1, phase, Value::One), sig(1));
        }
        for cut in [0, 3, 4] {
            s.prune_below(phases[cut]);
            for &phase in &phases[cut..] {
                assert_eq!(s.count_phase(phase), 1, "phase {phase}");
                assert!(s.has_sender(phase, 1), "phase {phase}");
            }
            for phase in [1, 5, 899, 901, u32::MAX - 1] {
                assert_eq!(s.count_phase(phase), 0, "phase {phase}");
            }
            assert_eq!(s.min_phase(), Some(phases[cut]));
        }
        assert_eq!(s.best_catch_up(4).map(|(p, _, _)| p), Some(u32::MAX));
    }

    #[test]
    fn decide_phases_iterates_stored_mod3_zero() {
        let mut s = MessageStore::new(2);
        for phase in [1u32, 3, 4, 6, 8, 9] {
            if phase % 3 == 0 {
                s.insert(&env(0, phase, Value::Bot), sig(0));
            } else {
                s.insert(&env(0, phase, Value::One), sig(0));
            }
        }
        let decides: Vec<u32> = s.decide_phases().collect();
        assert_eq!(decides, vec![3, 6, 9]);
    }

    #[test]
    fn signature_of_keeps_the_first_signature_per_value() {
        let mut s = MessageStore::new(3);
        assert_eq!(s.signature_of(4, 1, Value::Zero), None);
        s.insert(&env(1, 4, Value::Zero), sig(7));
        // Same value under other flags: a new record, the same
        // signature slot.
        let mut decided = env(1, 4, Value::Zero);
        decided.status = Status::Decided;
        assert!(!s.contains(&decided));
        assert!(s.insert(&decided, sig(8)));
        assert!(s.contains(&decided));
        assert_eq!(s.signature_of(4, 1, Value::Zero), Some(sig(7)));
        assert_eq!(s.signature_of(4, 1, Value::One), None);
        assert_eq!(s.signature_of(4, 0, Value::Zero), None);
        s.prune_below(5);
        assert_eq!(s.signature_of(4, 1, Value::Zero), None);
        assert!(!s.contains(&decided));
    }

    #[test]
    fn has_sender_queries() {
        let mut s = MessageStore::new(3);
        s.insert(&env(1, 4, Value::Zero), sig(0));
        assert!(s.has_sender(4, 1));
        assert!(!s.has_sender(4, 0));
        assert!(s.has_sender_value(4, 1, Value::Zero));
        assert!(!s.has_sender_value(4, 1, Value::One));
    }

    #[test]
    #[should_panic(expected = "sender out of range")]
    fn insert_rejects_out_of_range_sender() {
        let mut s = MessageStore::new(2);
        s.insert(&env(5, 1, Value::One), sig(0));
    }

    #[test]
    fn combo_codes_round_trip() {
        for value in VALUES {
            for coin_flip in [false, true] {
                for status in [Status::Undecided, Status::Decided] {
                    let code = combo_code(value, coin_flip, status);
                    assert!(code < 12);
                    let rec = decode_code(code, sig(code));
                    assert_eq!(rec.value, value);
                    assert_eq!(rec.coin_flip, coin_flip);
                    assert_eq!(rec.status, status);
                }
            }
        }
    }

    #[test]
    fn approx_bytes_is_content_driven() {
        let mut s = MessageStore::new(4);
        assert_eq!(s.approx_bytes(), 0);
        s.insert(&env(0, 1, Value::One), sig(1));
        s.insert(&env(0, 1, Value::Zero), sig(2));
        // Same (sender, value), different status: no new signature.
        let mut e = env(0, 1, Value::One);
        e.status = Status::Decided;
        s.insert(&e, sig(1));
        s.insert(&env(2, 4, Value::Bot), sig(3));
        // 2 phases × (22·4 + 64) + 3 signatures × 32.
        assert_eq!(s.approx_bytes(), 2 * (22 * 4 + 64) + 3 * 32);
        s.prune_below(2);
        assert_eq!(s.approx_bytes(), (22 * 4 + 64) + 32);
    }

    /// Group size of the model tests.
    const N: usize = 4;

    /// The store's specification: every record in insertion order, and
    /// every query answered by a naive scan over that list.
    #[derive(Default)]
    struct Model {
        records: Vec<(u32, usize, Record)>,
    }

    impl Model {
        fn at(&self, phase: u32, sender: usize) -> impl Iterator<Item = Record> + '_ {
            self.records
                .iter()
                .filter(move |&&(p, s, _)| p == phase && s == sender)
                .map(|&(_, _, rec)| rec)
        }

        fn contains(&self, e: &Envelope) -> bool {
            self.at(e.phase, e.sender)
                .any(|r| r.to_envelope(e.sender, e.phase) == *e)
        }

        fn insert(&mut self, e: &Envelope, signature: OneTimeSignature) -> bool {
            if self.contains(e) {
                return false;
            }
            // The signature of a (phase, sender, value) is fixed at the
            // first insert of that value.
            let signature = self.signature_of(e.phase, e.sender, e.value).unwrap_or(signature);
            let record = Record {
                value: e.value,
                coin_flip: e.coin_flip,
                status: e.status,
                signature,
            };
            self.records.push((e.phase, e.sender, record));
            true
        }

        fn signature_of(&self, phase: u32, sender: usize, value: Value) -> Option<OneTimeSignature> {
            self.at(phase, sender).find(|r| r.value == value).map(|r| r.signature)
        }

        fn senders(&self, phase: u32, value: Option<Value>) -> Vec<usize> {
            (0..N)
                .filter(|&s| self.at(phase, s).any(|r| value.is_none_or(|v| r.value == v)))
                .collect()
        }

        fn one_per_sender(&self, phase: u32, value: Option<Value>) -> Vec<(Envelope, OneTimeSignature)> {
            (0..N)
                .filter_map(|s| {
                    let rec = self.at(phase, s).find(|r| value.is_none_or(|v| r.value == v))?;
                    Some((rec.to_envelope(s, phase), rec.signature))
                })
                .collect()
        }

        fn best_catch_up(&self, above: u32) -> Option<(u32, usize, Record)> {
            let phase = self.records.iter().map(|r| r.0).filter(|&p| p > above).max()?;
            (0..N).find_map(|s| self.at(phase, s).next().map(|rec| (phase, s, rec)))
        }

        fn phases(&self) -> Vec<u32> {
            let mut phases: Vec<u32> = self.records.iter().map(|r| r.0).collect();
            phases.sort_unstable();
            phases.dedup();
            phases
        }

        fn approx_bytes(&self) -> usize {
            let mut pairs: Vec<(u32, usize, usize)> = self
                .records
                .iter()
                .map(|&(p, s, r)| (p, s, value_idx(r.value)))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            self.phases().len() * (22 * N + 64) + 32 * pairs.len()
        }
    }

    /// Applies one op stream to the store and the model and checks every
    /// observable query answers identically after each op.
    fn ops_match_model(ops: &[(usize, u32, u8, bool, u8, u8)]) {
        let mut store = MessageStore::new(N);
        let mut model = Model::default();
        for &(sender, phase, v, coin, st, prune) in ops {
            if prune == 0 {
                store.prune_below(phase);
                model.records.retain(|r| r.0 >= phase);
            } else {
                let value = VALUES[v as usize];
                let status = if st == 0 { Status::Undecided } else { Status::Decided };
                let e = Envelope { sender, phase, value, coin_flip: coin, status };
                let held = model.contains(&e);
                assert_eq!(store.contains(&e), held);
                // A varying signature byte: only the first one per
                // (phase, sender, value) may stick.
                let signature = sig(v + 3 * coin as u8 + 6 * st);
                assert_eq!(store.insert(&e, signature), !held, "contains ⇔ insert is a no-op");
                assert_eq!(model.insert(&e, signature), !held);
                assert!(store.contains(&e));
            }
            assert_eq!(store.records(), {
                let mut all = model.records.clone();
                all.sort_by_key(|&(p, s, _)| (p, s)); // stable: keeps insertion order
                all
            });
            assert_eq!(store.min_phase(), model.phases().first().copied());
            assert_eq!(store.record_count(), model.records.len());
            assert_eq!(store.approx_bytes(), model.approx_bytes());
            assert_eq!(
                store.decide_phases().collect::<Vec<_>>(),
                model.phases().into_iter().filter(|p| p % 3 == 0).collect::<Vec<_>>()
            );
            for phase in 0..9u32 {
                assert_eq!(store.count_phase(phase), model.senders(phase, None).len());
                assert_eq!(
                    store.records_at(phase),
                    model.records.iter().filter(|r| r.0 == phase).count(),
                    "records_at({phase})"
                );
                assert_eq!(store.best_catch_up(phase), model.best_catch_up(phase));
                let zeros = model.senders(phase, Some(Value::Zero)).len();
                let ones = model.senders(phase, Some(Value::One)).len();
                let majority = if zeros > ones { Value::Zero } else { Value::One };
                assert_eq!(store.majority_value(phase), majority);
                assert_eq!(
                    store.any_binary_value(phase),
                    (zeros + ones > 0).then_some(majority)
                );
                for value in VALUES {
                    let senders = model.senders(phase, Some(value));
                    assert_eq!(store.count_value(phase, value), senders.len());
                    for sender in 0..N {
                        assert_eq!(
                            store.has_sender_value(phase, sender, value),
                            senders.contains(&sender)
                        );
                        assert_eq!(
                            store.signature_of(phase, sender, value),
                            model.signature_of(phase, sender, value)
                        );
                    }
                    assert_eq!(
                        store.one_per_sender(phase, Some(value)).collect::<Vec<_>>(),
                        model.one_per_sender(phase, Some(value))
                    );
                }
                for sender in 0..N {
                    assert_eq!(
                        store.has_sender(phase, sender),
                        model.at(phase, sender).next().is_some()
                    );
                }
                assert_eq!(
                    store.one_per_sender(phase, None).collect::<Vec<_>>(),
                    model.one_per_sender(phase, None)
                );
            }
        }
    }

    #[test]
    fn equivocator_with_mixed_flags_matches_model() {
        // An adversary signing every combination for one value plus the
        // opposite value, interleaved with another sender and a prune.
        ops_match_model(&[
            (2, 1, 1, false, 0, 1),
            (2, 1, 1, true, 0, 1),
            (2, 1, 1, false, 1, 1),
            (2, 1, 1, true, 1, 1),
            (2, 1, 0, false, 0, 1),
            (0, 1, 2, false, 0, 1),
            (2, 4, 1, false, 0, 1),
            (0, 2, 0, false, 0, 0), // prune_below(2)
            (1, 4, 0, true, 1, 1),
        ]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Incremental tallies vs. the retired scan oracle under
        /// arbitrary interleavings of inserts (including duplicates and
        /// equivocation — repeated (sender, phase) pairs with varying
        /// values/flags) and garbage collection (`prune_below`).
        #[test]
        fn incremental_tallies_match_scan_oracle(
            ops in proptest::collection::vec(
                // (sender, phase, value sel, coin, status sel, prune trigger)
                (0usize..4, 1u32..8, 0u8..3, proptest::arbitrary::any::<bool>(), 0u8..2, 0u8..16),
                1..60,
            ),
        ) {
            let mut s = MessageStore::new(4);
            for (sender, phase, v, coin, st, prune) in ops {
                if prune == 0 {
                    // GC: drop everything below this phase.
                    s.prune_below(phase);
                } else {
                    let value = [Value::Zero, Value::One, Value::Bot][v as usize];
                    let status = if st == 0 { Status::Undecided } else { Status::Decided };
                    let e = Envelope { sender, phase, value, coin_flip: coin, status };
                    s.insert(&e, sig(v));
                }
                // Check every live phase against the scan oracle (the
                // debug_assert inside count_* checks too, but this also
                // runs with debug assertions off).
                for &(phase, ref slot) in &s.phases {
                    proptest::prop_assert_eq!(s.count_phase(phase), slot.scan_phase_senders());
                    proptest::prop_assert_eq!(s.records_at(phase), slot.scan_records());
                    for value in [Value::Zero, Value::One, Value::Bot] {
                        proptest::prop_assert_eq!(
                            s.count_value(phase, value),
                            slot.scan_value_senders(value)
                        );
                    }
                }
            }
        }

        /// The store agrees with the naive-scan model on every
        /// observable query under arbitrary
        /// insert/equivocate/duplicate/GC interleavings.
        #[test]
        fn store_matches_naive_scan_model(
            ops in proptest::collection::vec(
                (0usize..4, 1u32..8, 0u8..3, proptest::arbitrary::any::<bool>(), 0u8..2, 0u8..16),
                1..60,
            ),
        ) {
            ops_match_model(&ops);
        }
    }
}
