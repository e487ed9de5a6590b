//! The message store: authentic evidence, with `V_i` as a bit of it.
//!
//! Algorithm 1 drives every state transition from counts over the set
//! `V_i` of valid messages; the §6.2 checks count authentic evidence,
//! attachments included (DESIGN.md §7, deviation 2). `V_i` ⊆ evidence,
//! so one store keeps both: a record has a second presence bit for
//! `V_i`, a phase one tally per set, and `MessageStore::valid` is the
//! view transitions read. `MessageStore::validate` takes stored
//! records only. Two details matter for a Byzantine-safe count:
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
//! # Storage layout (DESIGN.md §10)
//!
//! Node ids are dense `0..n`, and a sender can contribute at most one
//! record per distinct `(value, coin, status)` combination — twelve in
//! total. A phase slot therefore keeps one 24-byte record per sender in
//! one `Vec` — two 12-bit presence masks (one bit per combination code:
//! stored, and in `V_i`), a packed `u64` of 4-bit codes in insertion
//! order (its spare bits: the first code validated), and three arena
//! indices (one per value) into a slot-local signature arena — plus 32
//! bytes per distinct `(sender, value)` signature, with no per-sender
//! heap allocation: the difference between n=16 and n=256 staying
//! resident.
//!
//! All retrieval paths return the *first* record matching their
//! criterion in insertion order — `V_i`'s own order for
//! `Valid::best_catch_up` — and the signature for a given
//! `(sender, phase, value)` is fixed at the first insert of that value
//! (verified one-time signatures are unique per `(phase, value)` by
//! construction). The model proptest below holds every query to flat
//! insertion-ordered record lists answering by naive scan.

use crate::message::{Envelope, Status};
use crate::state::PhaseKind;
use turquois_crypto::otss::{OneTimeSignature, Value};

/// One stored record: the distinct content a sender put in a phase.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) struct Record {
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
    pub(crate) fn to_envelope(self, sender: usize, phase: u32) -> Envelope {
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

/// The two record sets, as indices into masks and tallies: every record
/// stored, and the subset in `V_i`.
const STORED: usize = 0;
const VALID: usize = 1;
/// Where [`SenderRecords::order`] keeps the first validated code.
const FIRST_VALID: u32 = 48;

/// What a phase slot keeps for one sender, together so a probe reads
/// one cache line.
#[derive(Clone, Copy, Debug)]
struct SenderRecords {
    /// Packed 4-bit combination codes in insertion order (≤ 12 records
    /// → bits 0..48), then the code of the first record validated.
    order: u64,
    /// Per-value arena index of the signature recorded at the first
    /// insert of that value ([`NO_SIG`] when absent).
    sig_idx: [u32; 3],
    /// Presence bitmasks, one bit per combination code: the records
    /// stored, and those in `V_i` ([`STORED`], [`VALID`]).
    masks: [u16; 2],
}

impl SenderRecords {
    const EMPTY: Self = SenderRecords {
        order: 0,
        sig_idx: [NO_SIG; 3],
        masks: [0; 2],
    };
}

/// One record set's counts at one phase, maintained on insert so
/// quorum checks are O(1) instead of rescanning.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
struct Tally {
    /// Distinct senders with ≥ 1 record.
    senders: usize,
    /// Distinct senders per value (indexed by [`value_idx`]); an
    /// equivocator contributes once per value it signed, never twice to
    /// the same value.
    value_senders: [usize; 3],
    /// Records. A slot only grows until it is pruned, so an unchanged
    /// count means unchanged contents.
    records: usize,
}

impl Tally {
    /// Counts record `code` joining a sender whose mask was `mask`.
    fn add(&mut self, mask: u16, code: u8) {
        let vi = usize::from(code >> 2);
        self.senders += usize::from(mask == 0);
        self.value_senders[vi] += usize::from(mask & value_mask(VALUES[vi]) == 0);
        self.records += 1;
    }
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
    /// The stored records' tally and `V_i`'s ([`STORED`], [`VALID`]).
    tallies: [Tally; 2],
}

impl PhaseSlot {
    fn new(n: usize) -> Self {
        PhaseSlot {
            senders: vec![SenderRecords::EMPTY; n],
            sigs: Vec::new(),
            tallies: [Tally::default(); 2],
        }
    }

    /// Inserts a record for `sender`; returns `true` if it was new (not
    /// an exact duplicate of a stored record), updating the tally.
    fn insert(&mut self, sender: usize, record: Record) -> bool {
        // Duplicate = same observable content. (Signatures for the same
        // (phase, value) are identical by construction.)
        let code = combo_code(record.value, record.coin_flip, record.status);
        let s = &mut self.senders[sender];
        let mask = s.masks[STORED];
        if mask & (1 << code) != 0 {
            return false;
        }
        if mask & value_mask(record.value) == 0 {
            s.sig_idx[value_idx(record.value)] = self.sigs.len() as u32;
            self.sigs.push(record.signature);
        }
        self.tallies[STORED].add(mask, code);
        s.order |= u64::from(code) << (4 * mask.count_ones());
        s.masks[STORED] |= 1 << code;
        true
    }

    /// Puts `sender`'s stored record `code` in `V_i`; returns `true` if
    /// it was new there. Of `V_i`'s order only the first code is read.
    fn validate(&mut self, sender: usize, code: u8) -> bool {
        let s = &mut self.senders[sender];
        assert!(s.masks[STORED] & (1 << code) != 0, "V_i holds stored records only");
        let mask = s.masks[VALID];
        if mask & (1 << code) != 0 {
            return false;
        }
        if mask == 0 {
            s.order |= u64::from(code) << FIRST_VALID;
        }
        self.tallies[VALID].add(mask, code);
        s.masks[VALID] |= 1 << code;
        true
    }

    /// The records sender `s` stored, in insertion order.
    fn records(&self, sender: usize) -> RecordsIter<'_> {
        let s = &self.senders[sender];
        RecordsIter {
            order: s.order,
            left: s.masks[STORED].count_ones(),
            sig_idx: &s.sig_idx,
            sigs: &self.sigs,
        }
    }

    /// `sender`'s first stored record, in insertion order, whose
    /// combination code is in `want`.
    fn first_in(&self, sender: usize, want: u16) -> Option<Record> {
        if self.senders[sender].masks[STORED] & want == 0 {
            return None;
        }
        self.records(sender)
            .find(|r| want & (1 << combo_code(r.value, r.coin_flip, r.status)) != 0)
    }

    /// The first record `sender` had validated, if any.
    fn first_valid(&self, sender: usize) -> Option<Record> {
        let s = &self.senders[sender];
        if s.masks[VALID] == 0 {
            return None;
        }
        let code = (s.order >> FIRST_VALID) as u8 & 0xF;
        Some(decode_code(code, self.sigs[s.sig_idx[usize::from(code >> 2)] as usize]))
    }

    /// The signature recorded at `sender`'s first insert of `value`.
    fn signature_of(&self, sender: usize, value: Value) -> Option<OneTimeSignature> {
        let idx = self.senders[sender].sig_idx[value_idx(value)];
        (idx != NO_SIG).then(|| self.sigs[idx as usize])
    }

    /// Whether `set` holds `envelope`'s exact record (its sender's).
    fn has_record(&self, set: usize, envelope: &Envelope) -> bool {
        let code = combo_code(envelope.value, envelope.coin_flip, envelope.status);
        self.senders[envelope.sender].masks[set] & (1 << code) != 0
    }

    /// `set`'s tally recounted from the masks: the retired scan the
    /// incremental tallies replaced, kept as their `debug_assert!`
    /// oracle (and exercised by the proptests).
    fn scan(&self, set: usize) -> Tally {
        let mut tally = Tally::default();
        for mask in self.senders.iter().map(|s| s.masks[set]) {
            tally.senders += usize::from(mask != 0);
            for (vi, value) in VALUES.into_iter().enumerate() {
                tally.value_senders[vi] += usize::from(mask & value_mask(value) != 0);
            }
            tally.records += mask.count_ones() as usize;
        }
        tally
    }

    /// Number of senders the slot was sized for.
    fn n(&self) -> usize {
        self.senders.len()
    }

    /// Distinct `(sender, value)` pairs stored.
    fn sig_slots(&self) -> usize {
        self.sigs.len()
    }
}

/// A phase-indexed, sender-deduplicated store of authentic messages,
/// with `V_i` as a subset (`MessageStore::valid`).
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

    /// Puts the stored message `envelope` in `V_i`. Returns `true` if
    /// `V_i` did not hold it yet.
    ///
    /// # Panics
    ///
    /// Panics unless the store holds `envelope`: `V_i` is a subset of
    /// the evidence.
    pub(crate) fn validate(&mut self, envelope: &Envelope) -> bool {
        let i = self.index(envelope.phase).expect("V_i holds stored records only");
        let code = combo_code(envelope.value, envelope.coin_flip, envelope.status);
        self.phases[i].1.validate(envelope.sender, code)
    }

    /// `V_i`, the messages that passed both validations: the only set
    /// Algorithm 1's transitions count.
    pub(crate) fn valid(&self) -> Valid<'_> {
        Valid(self)
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

    /// `set`'s tally at `phase`; debug builds check it against its scan.
    fn tally(&self, set: usize, phase: u32) -> Tally {
        self.slot(phase).map_or(Tally::default(), |s| {
            debug_assert_eq!(s.tallies[set], s.scan(set));
            s.tallies[set]
        })
    }

    /// Records stored at `phase`, from a tally maintained on insert.
    /// Between prunes a slot only grows, so while `phase` is retained an
    /// unchanged count means unchanged contents.
    pub(crate) fn records_at(&self, phase: u32) -> usize {
        self.tally(STORED, phase).records
    }

    /// Distinct senders with at least one message at `phase`. O(1):
    /// answered from the incremental tally maintained by
    /// [`MessageStore::insert`].
    pub(crate) fn count_phase(&self, phase: u32) -> usize {
        self.tally(STORED, phase).senders
    }

    /// Distinct senders with at least one message `(phase, value)`.
    /// O(1), from the same incremental tallies.
    pub(crate) fn count_value(&self, phase: u32, value: Value) -> usize {
        self.tally(STORED, phase).value_senders[value_idx(value)]
    }

    /// Whether `sender` has any message at `phase`.
    pub(crate) fn has_sender(&self, phase: u32, sender: usize) -> bool {
        self.slot(phase).is_some_and(|s| s.senders[sender].masks[STORED] != 0)
    }

    /// Whether `sender` sent `(phase, value)`.
    pub(crate) fn has_sender_value(&self, phase: u32, sender: usize, value: Value) -> bool {
        self.slot(phase)
            .is_some_and(|s| s.senders[sender].masks[STORED] & value_mask(value) != 0)
    }

    /// The signature stored for `(phase, sender, value)`: the one given
    /// at the first insert of that value, whatever the flags. A store
    /// fed only verified signatures therefore answers "is this
    /// signature authentic?" for every fact it holds with a 32-byte
    /// compare (see `Turquois::authentic`).
    pub(crate) fn signature_of(
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
        self.slot(envelope.phase).is_some_and(|s| s.has_record(STORED, envelope))
    }

    /// `Some(in V_i)` when this exact record is stored under exactly
    /// `signature`, else `None`, from one slot probe. In a store fed
    /// only verified signatures a `Some` both authenticates the fact and
    /// says that inserting it would change nothing.
    pub(crate) fn held(&self, envelope: &Envelope, signature: &OneTimeSignature) -> Option<bool> {
        let slot = self.slot(envelope.phase)?;
        let stored = slot.has_record(STORED, envelope)
            && slot.signature_of(envelope.sender, envelope.value) == Some(*signature);
        stored.then(|| slot.has_record(VALID, envelope))
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
    pub(crate) fn decide_phases(&self) -> impl Iterator<Item = u32> + '_ {
        self.phases
            .iter()
            .map(|&(p, _)| p)
            .filter(|&p| PhaseKind::of(p) == PhaseKind::Decide)
    }

    /// Drops all phases strictly below `min_phase` (garbage collection).
    pub(crate) fn prune_below(&mut self, min_phase: u32) {
        let dead = self.phases.partition_point(|&(p, _)| p < min_phase);
        for (_, slot) in self.phases.drain(..dead) {
            self.sig_slots -= slot.sig_slots();
        }
    }

    /// Every stored record as `(phase, sender, record, in V_i, the
    /// sender's first in V_i)`, by phase, then sender, then insertion
    /// order — whole-store equality for tests.
    #[cfg(test)]
    pub(crate) fn records(&self) -> Vec<(u32, usize, Record, bool, bool)> {
        let mut out = Vec::new();
        for &(phase, ref slot) in &self.phases {
            for sender in 0..slot.n() {
                let first = slot.first_valid(sender);
                out.extend(slot.records(sender).map(|rec| {
                    let validated = slot.has_record(VALID, &rec.to_envelope(sender, phase));
                    (phase, sender, rec, validated, first == Some(rec))
                }));
            }
        }
        out
    }

    /// Records stored, and those in `V_i` (for tests and the debug
    /// rechecks).
    pub(crate) fn record_count(&self) -> [usize; 2] {
        [STORED, VALID].map(|set| self.phases.iter().map(|(_, s)| s.tallies[set].records).sum())
    }

    /// Deterministic O(1) estimate of the store's resident footprint in
    /// bytes: each retained phase charges the slot layout's 24 bytes per
    /// sender plus 64 bytes of slot/map overhead, and every distinct
    /// `(sender, value)` pair charges a 32-byte signature. A function
    /// of record counts only — never of `Vec` capacities or allocator
    /// behaviour — so it is reproducible across runs and platforms
    /// (supervised tables print its high-water mark).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.phases.len() * (24 * self.n + 64) + 32 * self.sig_slots
    }
}

/// `V_i` (Algorithm 1): the records of a [`MessageStore`] that passed
/// both validations, read through their own presence bits and tallies.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Valid<'a>(&'a MessageStore);

impl Valid<'_> {
    /// Distinct senders with at least one message in `V_i` at `phase`.
    /// O(1), from a tally maintained by [`MessageStore::validate`].
    pub(crate) fn count_phase(&self, phase: u32) -> usize {
        self.0.tally(VALID, phase).senders
    }

    /// Distinct senders with a `(phase, value)` message in `V_i`. O(1).
    pub(crate) fn count_value(&self, phase: u32, value: Value) -> usize {
        self.0.tally(VALID, phase).value_senders[value_idx(value)]
    }

    /// Whether `V_i` holds this exact record.
    pub fn contains(&self, envelope: &Envelope) -> bool {
        self.0.slot(envelope.phase).is_some_and(|s| s.has_record(VALID, envelope))
    }

    /// The best catch-up candidate: a `V_i` record with phase strictly
    /// above `above`, from the **highest** such phase (lowest sender,
    /// its first record validated, as deterministic tie-breaks).
    /// Returns `(phase, sender, record)`. Slots where no sender is
    /// validated are skipped.
    pub(crate) fn best_catch_up(&self, above: u32) -> Option<(u32, usize, Record)> {
        let mut higher = self.0.phases.iter().rev().take_while(|&&(p, _)| p > above);
        let (phase, slot) = higher.find(|(_, s)| s.tallies[VALID].senders > 0)?;
        (0..slot.n()).find_map(|sender| Some((*phase, sender, slot.first_valid(sender)?)))
    }

    /// The value in `{0, 1}` held by the most distinct senders of `V_i`
    /// at `phase`; ties — an empty phase included — break to `One`
    /// (callers only invoke this after a quorum check).
    pub(crate) fn majority_value(&self, phase: u32) -> Value {
        let zeros = self.count_value(phase, Value::Zero);
        let ones = self.count_value(phase, Value::One);
        if zeros > ones {
            Value::Zero
        } else {
            Value::One
        }
    }

    /// The binary value present in `V_i` at `phase` with the most
    /// senders, if any sender sent a binary value at all (Algorithm 1,
    /// line 32).
    pub(crate) fn any_binary_value(&self, phase: u32) -> Option<Value> {
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
        assert_eq!(s.record_count(), [1, 0]);
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

    /// Inserts `e` and puts it in `V_i`.
    fn put_valid(s: &mut MessageStore, e: &Envelope, signature: OneTimeSignature) {
        s.insert(e, signature);
        s.validate(e);
    }

    #[test]
    fn best_catch_up_prefers_highest_phase() {
        let mut s = MessageStore::new(4);
        put_valid(&mut s, &env(1, 3, Value::One), sig(1));
        put_valid(&mut s, &env(2, 7, Value::Zero), sig(2));
        put_valid(&mut s, &env(3, 5, Value::One), sig(3));
        // Evidence alone is no candidate.
        s.insert(&env(0, 9, Value::One), sig(4));
        s.insert(&env(0, 7, Value::One), sig(4));
        let (phase, sender, rec) = s.valid().best_catch_up(1).expect("candidates exist");
        assert_eq!((phase, sender), (7, 2));
        assert_eq!(rec.value, Value::Zero);
        assert!(s.valid().best_catch_up(7).is_none());
        let (phase, _, _) = s.valid().best_catch_up(5).expect("phase 7 qualifies");
        assert_eq!(phase, 7);
    }

    /// `V_i` counts only what was validated, per sender as the evidence
    /// does, and a validated record is still evidence.
    #[test]
    fn valid_is_a_counted_subset_of_the_evidence() {
        let mut s = MessageStore::new(4);
        for sender in 0..3 {
            s.insert(&env(sender, 2, Value::One), sig(1));
        }
        assert_eq!((s.count_phase(2), s.valid().count_phase(2)), (3, 0));
        assert!(s.validate(&env(1, 2, Value::One)));
        assert!(!s.validate(&env(1, 2, Value::One)), "validated twice");
        assert_eq!((s.count_phase(2), s.valid().count_phase(2)), (3, 1));
        assert_eq!(s.valid().count_value(2, Value::One), 1);
        assert_eq!(s.valid().count_value(2, Value::Zero), 0);
        assert!(s.valid().contains(&env(1, 2, Value::One)));
        assert!(!s.valid().contains(&env(0, 2, Value::One)));
        assert_eq!(s.record_count(), [3, 1]);
        assert_eq!(s.held(&env(1, 2, Value::One), &sig(1)), Some(true));
        assert_eq!(s.held(&env(0, 2, Value::One), &sig(1)), Some(false));
        assert_eq!(s.held(&env(0, 2, Value::One), &sig(2)), None, "another signature");
        assert_eq!(s.held(&env(3, 2, Value::One), &sig(1)), None, "not stored");
        s.prune_below(3);
        assert_eq!(s.record_count(), [0, 0]);
        assert!(!s.valid().contains(&env(1, 2, Value::One)));
    }

    #[test]
    #[should_panic(expected = "V_i holds stored records only")]
    fn validate_rejects_a_record_not_stored() {
        let mut s = MessageStore::new(4);
        s.insert(&env(0, 1, Value::Zero), sig(0));
        s.validate(&env(0, 1, Value::One));
    }

    #[test]
    fn majority_and_tiebreak() {
        let mut s = MessageStore::new(5);
        put_valid(&mut s, &env(0, 1, Value::Zero), sig(0));
        put_valid(&mut s, &env(1, 1, Value::Zero), sig(1));
        put_valid(&mut s, &env(2, 1, Value::One), sig(2));
        assert_eq!(s.valid().majority_value(1), Value::Zero);
        put_valid(&mut s, &env(3, 1, Value::One), sig(3));
        // Tie 2–2 breaks to One.
        assert_eq!(s.valid().majority_value(1), Value::One);
        assert_eq!(s.valid().any_binary_value(1), Some(Value::One));
        assert_eq!(s.valid().any_binary_value(9), None);
        // Evidence outside V_i does not vote.
        s.insert(&env(4, 1, Value::Zero), sig(4));
        assert_eq!(s.valid().majority_value(1), Value::One);
    }

    #[test]
    fn any_binary_value_ignores_bot() {
        let mut s = MessageStore::new(4);
        put_valid(&mut s, &env(0, 3, Value::Bot), sig(0));
        assert_eq!(s.valid().any_binary_value(3), None);
        s.insert(&env(2, 3, Value::One), sig(2));
        assert_eq!(s.valid().any_binary_value(3), None, "evidence alone");
        put_valid(&mut s, &env(1, 3, Value::Zero), sig(1));
        assert_eq!(s.valid().any_binary_value(3), Some(Value::Zero));
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
        assert_eq!(s.records()[0].0, 7);
        assert_eq!(s.count_phase(6), 0);
        assert_eq!(s.count_phase(7), 1);
        assert_eq!(s.record_count(), [4, 0]);
    }

    /// Phases past a gap — a Byzantine sender's authentic future
    /// phases — are found by the binary search behind the direct probe,
    /// before and after the front is pruned.
    #[test]
    fn phases_past_a_gap_are_found() {
        let mut s = MessageStore::new(3);
        let phases = [2u32, 3, 4, 900, 70_000, u32::MAX];
        for &phase in phases.iter().rev() {
            put_valid(&mut s, &env(1, phase, Value::One), sig(1));
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
            assert_eq!(s.records()[0].0, phases[cut]);
        }
        assert_eq!(s.valid().best_catch_up(4).map(|(p, _, _)| p), Some(u32::MAX));
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
        // Validating stores nothing new.
        s.validate(&e);
        // 2 phases × (24·4 + 64) + 3 signatures × 32.
        assert_eq!(s.approx_bytes(), 2 * (24 * 4 + 64) + 3 * 32);
        s.prune_below(2);
        assert_eq!(s.approx_bytes(), (24 * 4 + 64) + 32);
    }

    /// Group size of the model tests.
    const N: usize = 4;

    /// A record list in one set's insertion order.
    type Log = Vec<(u32, usize, Record)>;

    /// The store's specification: the evidence in insertion order,
    /// `V_i` in its own (validation) order, and every query answered by
    /// a naive scan over the list it reads.
    #[derive(Default)]
    struct Model {
        records: Log,
        valid: Log,
    }

    fn at(log: &Log, phase: u32, sender: usize) -> impl Iterator<Item = Record> + '_ {
        log.iter()
            .filter(move |&&(p, s, _)| p == phase && s == sender)
            .map(|&(_, _, rec)| rec)
    }

    fn holds(log: &Log, e: &Envelope) -> bool {
        at(log, e.phase, e.sender).any(|r| r.to_envelope(e.sender, e.phase) == *e)
    }

    fn senders(log: &Log, phase: u32, value: Option<Value>) -> Vec<usize> {
        (0..N)
            .filter(|&s| at(log, phase, s).any(|r| value.is_none_or(|v| r.value == v)))
            .collect()
    }

    impl Model {
        fn insert(&mut self, e: &Envelope, signature: OneTimeSignature) -> bool {
            if holds(&self.records, e) {
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

        fn validate(&mut self, e: &Envelope) -> bool {
            if holds(&self.valid, e) {
                return false;
            }
            let rec = at(&self.records, e.phase, e.sender)
                .find(|r| r.to_envelope(e.sender, e.phase) == *e)
                .expect("V_i holds stored records only");
            self.valid.push((e.phase, e.sender, rec));
            true
        }

        fn signature_of(&self, phase: u32, sender: usize, value: Value) -> Option<OneTimeSignature> {
            at(&self.records, phase, sender).find(|r| r.value == value).map(|r| r.signature)
        }

        fn one_per_sender(&self, phase: u32, value: Option<Value>) -> Vec<(Envelope, OneTimeSignature)> {
            (0..N)
                .filter_map(|s| {
                    let rec = at(&self.records, phase, s).find(|r| value.is_none_or(|v| r.value == v))?;
                    Some((rec.to_envelope(s, phase), rec.signature))
                })
                .collect()
        }

        /// `V_i`'s highest phase above `above`, its lowest sender, and
        /// that sender's first record in `V_i`'s own order.
        fn best_catch_up(&self, above: u32) -> Option<(u32, usize, Record)> {
            let phase = self.valid.iter().map(|r| r.0).filter(|&p| p > above).max()?;
            (0..N).find_map(|s| at(&self.valid, phase, s).next().map(|rec| (phase, s, rec)))
        }

        /// The evidence with each record's `V_i` flags, as
        /// [`MessageStore::records`] lists it.
        fn records(&self) -> Vec<(u32, usize, Record, bool, bool)> {
            let mut all: Vec<_> = self
                .records
                .iter()
                .map(|&(p, s, rec)| {
                    let e = rec.to_envelope(s, p);
                    let first = at(&self.valid, p, s).next() == Some(rec);
                    (p, s, rec, holds(&self.valid, &e), first)
                })
                .collect();
            all.sort_by_key(|&(p, s, ..)| (p, s)); // stable: keeps insertion order
            all
        }

        fn prune_below(&mut self, phase: u32) {
            self.records.retain(|r| r.0 >= phase);
            self.valid.retain(|r| r.0 >= phase);
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
            self.phases().len() * (24 * N + 64) + 32 * pairs.len()
        }
    }

    /// One op of the model tests: `(sender, phase, value sel, coin,
    /// status sel, op sel)`. Op 0 prunes below `phase`; ops 1..=5
    /// validate a stored record picked by `sender` and `phase` (when
    /// any is stored); every other op inserts.
    type Op = (usize, u32, u8, bool, u8, u8);

    /// Applies `op` to the store and the model (which must agree on
    /// what each returns).
    fn apply(store: &mut MessageStore, model: &mut Model, &(sender, phase, v, coin, st, op): &Op) {
        match op {
            0 => {
                store.prune_below(phase);
                model.prune_below(phase);
            }
            1..=5 if !model.records.is_empty() => {
                let (p, s, rec) = model.records[(sender * 8 + phase as usize) % model.records.len()];
                let e = rec.to_envelope(s, p);
                assert_eq!(store.validate(&e), model.validate(&e), "validate {e:?}");
            }
            _ => {
                let value = VALUES[v as usize];
                let status = if st == 0 { Status::Undecided } else { Status::Decided };
                let e = Envelope { sender, phase, value, coin_flip: coin, status };
                let held = holds(&model.records, &e);
                assert_eq!(store.contains(&e), held);
                // A varying signature byte: only the first one per
                // (phase, sender, value) may stick.
                let signature = sig(v + 3 * coin as u8 + 6 * st);
                assert_eq!(store.insert(&e, signature), !held, "contains ⇔ insert is a no-op");
                assert_eq!(model.insert(&e, signature), !held);
                assert!(store.contains(&e));
            }
        }
    }

    /// Applies one op stream to the store and the model and checks every
    /// observable query answers identically after each op.
    fn ops_match_model(ops: &[Op]) {
        let mut store = MessageStore::new(N);
        let mut model = Model::default();
        for op in ops {
            apply(&mut store, &mut model, op);
            assert_eq!(store.records(), model.records());
            assert_eq!(store.record_count(), [model.records.len(), model.valid.len()]);
            assert_eq!(store.approx_bytes(), model.approx_bytes());
            assert_eq!(
                store.decide_phases().collect::<Vec<_>>(),
                model.phases().into_iter().filter(|p| p % 3 == 0).collect::<Vec<_>>()
            );
            let valid = store.valid();
            for phase in 0..9u32 {
                assert_eq!(store.count_phase(phase), senders(&model.records, phase, None).len());
                assert_eq!(valid.count_phase(phase), senders(&model.valid, phase, None).len());
                assert_eq!(
                    store.records_at(phase),
                    model.records.iter().filter(|r| r.0 == phase).count(),
                    "records_at({phase})"
                );
                assert_eq!(valid.best_catch_up(phase), model.best_catch_up(phase));
                let zeros = senders(&model.valid, phase, Some(Value::Zero)).len();
                let ones = senders(&model.valid, phase, Some(Value::One)).len();
                let majority = if zeros > ones { Value::Zero } else { Value::One };
                assert_eq!(valid.majority_value(phase), majority);
                assert_eq!(valid.any_binary_value(phase), (zeros + ones > 0).then_some(majority));
                for value in VALUES {
                    let stored = senders(&model.records, phase, Some(value));
                    assert_eq!(store.count_value(phase, value), stored.len());
                    assert_eq!(valid.count_value(phase, value), senders(&model.valid, phase, Some(value)).len());
                    for sender in 0..N {
                        assert_eq!(store.has_sender_value(phase, sender, value), stored.contains(&sender));
                        assert_eq!(
                            store.signature_of(phase, sender, value),
                            model.signature_of(phase, sender, value)
                        );
                        for code in 4 * value_idx(value) as u8..4 * value_idx(value) as u8 + 4 {
                            let rec = decode_code(code, sig(0));
                            let e = rec.to_envelope(sender, phase);
                            // V_i ⊆ evidence, and held() is the two
                            // membership probes plus the signature compare.
                            assert!(!valid.contains(&e) || store.contains(&e), "V_i ⊄ evidence: {e:?}");
                            assert_eq!(valid.contains(&e), holds(&model.valid, &e));
                            let signature = model.signature_of(phase, sender, value).unwrap_or(sig(99));
                            let held = holds(&model.records, &e).then(|| holds(&model.valid, &e));
                            assert_eq!(store.held(&e, &signature), held);
                        }
                    }
                    assert_eq!(
                        store.one_per_sender(phase, Some(value)).collect::<Vec<_>>(),
                        model.one_per_sender(phase, Some(value))
                    );
                }
                for sender in 0..N {
                    assert_eq!(
                        store.has_sender(phase, sender),
                        at(&model.records, phase, sender).next().is_some()
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
        // opposite value, interleaved with another sender, validations
        // and a prune.
        ops_match_model(&[
            (2, 1, 1, false, 0, 9),
            (2, 1, 1, true, 0, 9),
            (2, 1, 1, false, 1, 9),
            (2, 1, 1, true, 1, 9),
            (2, 1, 0, false, 0, 9),
            (0, 1, 2, false, 0, 9),
            (0, 2, 0, false, 0, 1), // validate the record at index 2
            (2, 4, 1, false, 0, 9),
            (0, 2, 0, false, 0, 0), // prune_below(2)
            (1, 4, 0, true, 1, 9),
            (0, 1, 0, false, 0, 1), // validate the record at index 1
        ]);
    }

    /// An equivocator's records can enter `V_i` in another order than
    /// they entered the evidence: catch-up adopts the first one
    /// validated, not the first one stored. A higher phase held only as
    /// evidence is skipped.
    #[test]
    fn first_validated_record_leads_catch_up() {
        let mut s = MessageStore::new(N);
        let (zero, one) = (env(2, 5, Value::Zero), env(2, 5, Value::One));
        s.insert(&zero, sig(1));
        s.insert(&one, sig(2));
        s.insert(&env(0, 6, Value::Zero), sig(3));
        s.validate(&one);
        s.validate(&zero);
        let (phase, sender, rec) = s.valid().best_catch_up(1).expect("phase 5 is in V_i");
        assert_eq!((phase, sender, rec.value, rec.signature), (5, 2, Value::One, sig(2)));
        ops_match_model(&[
            (2, 5, 0, false, 0, 9),
            (2, 5, 1, true, 1, 9),
            (0, 6, 2, false, 0, 9),
            (0, 0, 0, false, 0, 1), // validate index 0: sender 2's One
            (0, 1, 0, false, 0, 1), // validate index 1: sender 2's Zero
        ]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Incremental tallies vs. the retired scan oracle, for both
        /// sets, under arbitrary interleavings of inserts (including
        /// duplicates and equivocation — repeated (sender, phase) pairs
        /// with varying values/flags), validations and garbage
        /// collection (`prune_below`).
        #[test]
        fn incremental_tallies_match_scan_oracle(
            ops in proptest::collection::vec(
                (0usize..4, 1u32..8, 0u8..3, proptest::arbitrary::any::<bool>(), 0u8..2, 0u8..16),
                1..60,
            ),
        ) {
            let mut s = MessageStore::new(4);
            let mut model = Model::default();
            for op in &ops {
                apply(&mut s, &mut model, op);
                // Check every live phase against the scan oracle (the
                // debug_assert inside the count methods checks too, but
                // this also runs with debug assertions off).
                for &(phase, ref slot) in &s.phases {
                    for set in [STORED, VALID] {
                        proptest::prop_assert_eq!(slot.tallies[set], slot.scan(set));
                    }
                    let (stored, valid) = (slot.scan(STORED), slot.scan(VALID));
                    proptest::prop_assert_eq!(s.count_phase(phase), stored.senders);
                    proptest::prop_assert_eq!(s.valid().count_phase(phase), valid.senders);
                    proptest::prop_assert_eq!(s.records_at(phase), stored.records);
                    for value in VALUES {
                        let vi = value_idx(value);
                        proptest::prop_assert_eq!(s.count_value(phase, value), stored.value_senders[vi]);
                        proptest::prop_assert_eq!(s.valid().count_value(phase, value), valid.value_senders[vi]);
                    }
                    // V_i ⊆ evidence, sender by sender.
                    for rec in &slot.senders {
                        proptest::prop_assert_eq!(rec.masks[VALID] & !rec.masks[STORED], 0);
                    }
                }
            }
        }

        /// The store agrees with the naive-scan model on every
        /// observable query under arbitrary
        /// insert/validate/equivocate/duplicate/GC interleavings.
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
