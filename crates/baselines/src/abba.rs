//! ABBA — Asynchronous Binary Byzantine Agreement (Cachin, Kursawe,
//! Shoup: *Random oracles in Constantinople*, J. Cryptology 2005) — the
//! second baseline of the paper's evaluation.
//!
//! ABBA trades messages for cryptography: O(n²) messages and a constant
//! expected number of rounds, but every message carries threshold
//! signature shares and justifications whose verification is RSA-class
//! work. Each round:
//!
//! 1. **Pre-vote** for a value `b`, justified by: nothing (round 1), a
//!    threshold signature on `pre-vote(r−1, b)` ("hard"), or a threshold
//!    signature on `main-vote(r−1, abstain)` plus a coin proof ("coin").
//!    The message carries the party's signature share on
//!    `pre-vote(r, b)`.
//! 2. After `n − f` valid pre-votes: **main-vote** — for `b` when the
//!    pre-votes were unanimous (justified by combining their shares into
//!    a threshold signature), or `abstain` when mixed (justified by one
//!    valid pre-vote for each value). Carries a share on
//!    `main-vote(r, v)` and the party's coin share for round `r`.
//! 3. After `n − f` valid main-votes: unanimous `b` → **decide** `b`
//!    (and help for one more round); some `b` → hard pre-vote `b` for
//!    `r + 1`; all abstain → combine the shared coin and coin-pre-vote
//!    its value.
//!
//! Threshold cryptography comes from [`turquois_crypto::threshold`] (see
//! `DESIGN.md` §4 for the substitution argument): a dual-threshold setup
//! with signature threshold `n − f` and coin threshold `f + 1`. The CPU
//! cost of the real RSA-class operations is charged by the simulator
//! through the [`CryptoOps`] counters every call returns.

use crate::quorum::{Quorums, Tally, TallyValue};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use turquois_crypto::memo::FixedMap;
use turquois_crypto::sha256::{Digest, DIGEST_LEN};
use turquois_crypto::threshold::{
    CoinProof, CoinShare, PartyKey, SharePublic, SigShare, ThresholdSignature,
};

/// Counters of cryptographic work performed during one call, for the
/// simulator's CPU cost accounting.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct CryptoOps {
    /// Threshold signature/coin shares generated.
    pub share_signs: u32,
    /// Threshold shares verified.
    pub share_verifies: u32,
    /// Combined threshold signatures / coin proofs verified.
    pub sig_verifies: u32,
    /// Total shares fed into combination operations.
    pub shares_combined: u32,
}

impl CryptoOps {
    /// Component-wise sum.
    pub fn add(&mut self, other: CryptoOps) {
        self.share_signs += other.share_signs;
        self.share_verifies += other.share_verifies;
        self.sig_verifies += other.sig_verifies;
        self.shares_combined += other.shares_combined;
    }
}

/// A main-vote value.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum MainVoteValue {
    /// Vote for 0.
    Zero,
    /// Vote for 1.
    One,
    /// No unanimous pre-vote witnessed.
    Abstain,
}

impl MainVoteValue {
    fn from_bit(bit: bool) -> Self {
        if bit {
            MainVoteValue::One
        } else {
            MainVoteValue::Zero
        }
    }

    fn as_bit(self) -> Option<bool> {
        match self {
            MainVoteValue::Zero => Some(false),
            MainVoteValue::One => Some(true),
            MainVoteValue::Abstain => None,
        }
    }

    fn encode(self) -> u8 {
        match self {
            MainVoteValue::Zero => 0,
            MainVoteValue::One => 1,
            MainVoteValue::Abstain => 2,
        }
    }

    fn decode(b: u8) -> Option<Self> {
        match b {
            0 => Some(MainVoteValue::Zero),
            1 => Some(MainVoteValue::One),
            2 => Some(MainVoteValue::Abstain),
            _ => None,
        }
    }
}

impl TallyValue for MainVoteValue {
    fn index(self) -> usize {
        usize::from(self.encode())
    }
}

/// Justification of a pre-vote.
#[derive(Clone, Debug, PartialEq)]
pub enum PreVoteJust {
    /// Round 1: the initial proposal needs no justification.
    Round1,
    /// A threshold signature on `pre-vote(r−1, b)`.
    Hard(ThresholdSignature),
    /// A threshold signature on `main-vote(r−1, abstain)` plus the coin
    /// proof whose value the pre-vote must match.
    Coin {
        /// Signature proving round `r−1` ended all-abstain.
        abstain_sig: ThresholdSignature,
        /// Transferable proof of the round-`r−1` coin.
        proof: CoinProof,
    },
}

/// A pre-vote as embedded inside an abstain justification.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddedPreVote {
    /// The pre-voted value.
    pub value: bool,
    /// The voter's share on `pre-vote(r, value)` (binds the party id).
    pub share: SigShare,
    /// The pre-vote's own justification.
    pub just: PreVoteJust,
}

/// Justification of a main-vote.
#[derive(Clone, Debug, PartialEq)]
pub enum MainVoteJust {
    /// `main-vote(r, b)`: a threshold signature on `pre-vote(r, b)`.
    ForValue(ThresholdSignature),
    /// `abstain`: one valid pre-vote for each value.
    Abstain {
        /// A pre-vote for 0.
        zero: EmbeddedPreVote,
        /// A pre-vote for 1.
        one: EmbeddedPreVote,
    },
}

/// An ABBA wire message.
#[derive(Clone, Debug, PartialEq)]
pub enum AbbaMessage {
    /// Step 1 of a round.
    PreVote {
        /// Round number (1-based).
        round: u32,
        /// The value pre-voted.
        value: bool,
        /// Share on `pre-vote(round, value)`.
        share: SigShare,
        /// Why this pre-vote is legal.
        just: PreVoteJust,
    },
    /// Step 2 of a round.
    MainVote {
        /// Round number.
        round: u32,
        /// The value main-voted.
        value: MainVoteValue,
        /// Share on `main-vote(round, value)`.
        share: SigShare,
        /// The party's coin share for this round (eager release).
        coin_share: CoinShare,
        /// Why this main-vote is legal.
        just: MainVoteJust,
    },
}

fn pv_statement(round: u32, value: bool) -> Vec<u8> {
    format!("abba/pv/{round}/{}", value as u8).into_bytes()
}

fn mv_statement(round: u32, value: MainVoteValue) -> Vec<u8> {
    format!("abba/mv/{round}/{}", value.encode()).into_bytes()
}

fn coin_tag(round: u32) -> Vec<u8> {
    format!("abba/coin/{round}").into_bytes()
}

// ---- wire codec -----------------------------------------------------

const KIND_PREVOTE: u8 = 1;
const KIND_MAINVOTE: u8 = 2;

/// Encoded size of a [`SigShare`]: party id plus tag.
const SIG_SHARE_LEN: usize = 2 + DIGEST_LEN;

fn put_digest(buf: &mut BytesMut, d: &Digest) {
    buf.put_slice(d.as_bytes());
}

fn get_digest(buf: &mut &[u8]) -> Option<Digest> {
    if buf.len() < DIGEST_LEN {
        return None;
    }
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(&buf[..DIGEST_LEN]);
    buf.advance(DIGEST_LEN);
    Some(Digest(out))
}

/// Writes a share's party id in the format's 16-bit field.
///
/// # Panics
///
/// Panics if the id does not fit: truncated, it would decode as another
/// party's share.
fn put_party(buf: &mut BytesMut, party: usize) {
    buf.put_u16(u16::try_from(party).expect("party id exceeds the wire format's u16"));
}

fn put_sig_share(buf: &mut BytesMut, s: &SigShare) {
    put_party(buf, s.party);
    put_digest(buf, &s.tag);
}

fn get_sig_share(buf: &mut &[u8]) -> Option<SigShare> {
    if buf.len() < 2 {
        return None;
    }
    let party = buf.get_u16() as usize;
    let tag = get_digest(buf)?;
    Some(SigShare { party, tag })
}

/// Encoded size of a [`PreVoteJust`] (discriminant byte included).
fn prevote_just_len(just: &PreVoteJust) -> usize {
    match just {
        PreVoteJust::Round1 => 1,
        PreVoteJust::Hard(_) => 1 + DIGEST_LEN,
        PreVoteJust::Coin { .. } => 1 + DIGEST_LEN + 1 + DIGEST_LEN,
    }
}

fn put_prevote_just(buf: &mut BytesMut, just: &PreVoteJust) {
    match just {
        PreVoteJust::Round1 => buf.put_u8(0),
        PreVoteJust::Hard(sig) => {
            buf.put_u8(1);
            put_digest(buf, &sig.tag);
        }
        PreVoteJust::Coin { abstain_sig, proof } => {
            buf.put_u8(2);
            put_digest(buf, &abstain_sig.tag);
            buf.put_u8(proof.value as u8);
            put_digest(buf, &proof.tag);
        }
    }
}

fn get_prevote_just(buf: &mut &[u8]) -> Option<PreVoteJust> {
    if buf.is_empty() {
        return None;
    }
    let kind = buf.get_u8();
    match kind {
        0 => Some(PreVoteJust::Round1),
        1 => Some(PreVoteJust::Hard(ThresholdSignature {
            tag: get_digest(buf)?,
        })),
        2 => {
            let abstain_sig = ThresholdSignature {
                tag: get_digest(buf)?,
            };
            if buf.is_empty() {
                return None;
            }
            let value_byte = buf.get_u8();
            if value_byte > 1 {
                return None;
            }
            let proof = CoinProof {
                value: value_byte == 1,
                tag: get_digest(buf)?,
            };
            Some(PreVoteJust::Coin { abstain_sig, proof })
        }
        _ => None,
    }
}

/// Encoded size of an [`EmbeddedPreVote`].
fn embedded_len(pv: &EmbeddedPreVote) -> usize {
    1 + SIG_SHARE_LEN + prevote_just_len(&pv.just)
}

fn put_embedded(buf: &mut BytesMut, pv: &EmbeddedPreVote) {
    buf.put_u8(pv.value as u8);
    put_sig_share(buf, &pv.share);
    put_prevote_just(buf, &pv.just);
}

fn get_embedded(buf: &mut &[u8]) -> Option<EmbeddedPreVote> {
    if buf.is_empty() {
        return None;
    }
    let value_byte = buf.get_u8();
    if value_byte > 1 {
        return None;
    }
    let share = get_sig_share(buf)?;
    let just = get_prevote_just(buf)?;
    Some(EmbeddedPreVote {
        value: value_byte == 1,
        share,
        just,
    })
}

impl AbbaMessage {
    /// The round this message belongs to.
    pub fn round(&self) -> u32 {
        match self {
            AbbaMessage::PreVote { round, .. } | AbbaMessage::MainVote { round, .. } => *round,
        }
    }

    /// The exact wire length [`AbbaMessage::encode`] produces, computed
    /// arithmetically — no buffer is built. The adapter's RSA airtime
    /// model uses this instead of a throwaway encode.
    pub fn encoded_len(&self) -> usize {
        match self {
            AbbaMessage::PreVote { just, .. } => {
                1 + 4 + 1 + SIG_SHARE_LEN + prevote_just_len(just)
            }
            AbbaMessage::MainVote { just, .. } => {
                1 + 4
                    + 1
                    + SIG_SHARE_LEN
                    + 2
                    + DIGEST_LEN
                    + 1
                    + match just {
                        MainVoteJust::ForValue(_) => DIGEST_LEN,
                        MainVoteJust::Abstain { zero, one } => {
                            embedded_len(zero) + embedded_len(one)
                        }
                    }
            }
        }
    }

    /// Encodes for transmission into one exact-capacity buffer.
    ///
    /// # Panics
    ///
    /// Panics if a share's party id (the signature share's, the coin
    /// share's or an embedded pre-vote's) does not fit the format's
    /// 16-bit field: truncated, it would decode as another party's share.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            AbbaMessage::PreVote {
                round,
                value,
                share,
                just,
            } => {
                buf.put_u8(KIND_PREVOTE);
                buf.put_u32(*round);
                buf.put_u8(*value as u8);
                put_sig_share(&mut buf, share);
                put_prevote_just(&mut buf, just);
            }
            AbbaMessage::MainVote {
                round,
                value,
                share,
                coin_share,
                just,
            } => {
                buf.put_u8(KIND_MAINVOTE);
                buf.put_u32(*round);
                buf.put_u8(value.encode());
                put_sig_share(&mut buf, share);
                put_party(&mut buf, coin_share.party);
                put_digest(&mut buf, &coin_share.tag);
                match just {
                    MainVoteJust::ForValue(sig) => {
                        buf.put_u8(0);
                        put_digest(&mut buf, &sig.tag);
                    }
                    MainVoteJust::Abstain { zero, one } => {
                        buf.put_u8(1);
                        put_embedded(&mut buf, zero);
                        put_embedded(&mut buf, one);
                    }
                }
            }
        }
        buf.freeze()
    }

    /// Decodes from wire bytes; `None` for malformed input.
    pub fn decode(bytes: &[u8]) -> Option<AbbaMessage> {
        let mut buf = bytes;
        if buf.len() < 6 {
            return None;
        }
        let kind = buf.get_u8();
        let round = buf.get_u32();
        if round == 0 {
            return None;
        }
        match kind {
            KIND_PREVOTE => {
                let value_byte = buf.get_u8();
                if value_byte > 1 {
                    return None;
                }
                let share = get_sig_share(&mut buf)?;
                let just = get_prevote_just(&mut buf)?;
                if !buf.is_empty() {
                    return None;
                }
                Some(AbbaMessage::PreVote {
                    round,
                    value: value_byte == 1,
                    share,
                    just,
                })
            }
            KIND_MAINVOTE => {
                let value = MainVoteValue::decode(buf.get_u8())?;
                let share = get_sig_share(&mut buf)?;
                if buf.len() < 2 {
                    return None;
                }
                let party = buf.get_u16() as usize;
                let coin_share = CoinShare {
                    party,
                    tag: get_digest(&mut buf)?,
                };
                if buf.is_empty() {
                    return None;
                }
                let just = match buf.get_u8() {
                    0 => MainVoteJust::ForValue(ThresholdSignature {
                        tag: get_digest(&mut buf)?,
                    }),
                    1 => MainVoteJust::Abstain {
                        zero: get_embedded(&mut buf)?,
                        one: get_embedded(&mut buf)?,
                    },
                    _ => return None,
                };
                if !buf.is_empty() {
                    return None;
                }
                Some(AbbaMessage::MainVote {
                    round,
                    value,
                    share,
                    coin_share,
                    just,
                })
            }
            _ => None,
        }
    }
}

impl AbbaMessage {
    /// The size this message would have in a real RSA-1024 deployment:
    /// every threshold object (share, signature, coin share/proof) is a
    /// 128-byte group element instead of a 32-byte hash tag. The
    /// simulator adapter charges airtime for this size, keeping the
    /// bandwidth cost of ABBA's cryptography honest.
    pub fn rsa_equivalent_size(&self) -> usize {
        const INFLATE: usize = 128 - DIGEST_LEN;
        let objects = match self {
            AbbaMessage::PreVote { just, .. } => 1 + just_objects(just),
            AbbaMessage::MainVote { just, .. } => {
                // share + coin share.
                2 + match just {
                    MainVoteJust::ForValue(_) => 1,
                    MainVoteJust::Abstain { zero, one } => {
                        2 + just_objects(&zero.just) + just_objects(&one.just)
                    }
                }
            }
        };
        self.encoded_len() + objects * INFLATE
    }
}

fn just_objects(just: &PreVoteJust) -> usize {
    match just {
        PreVoteJust::Round1 => 0,
        PreVoteJust::Hard(_) => 1,
        PreVoteJust::Coin { .. } => 2,
    }
}

// ---- engine ----------------------------------------------------------

/// Output of feeding one event to the engine.
#[derive(Debug, Default)]
pub struct AbbaOutput {
    /// Wire messages to send to every process.
    pub send: Vec<Bytes>,
    /// Set when this call made the process decide.
    pub newly_decided: Option<bool>,
    /// Cryptographic work performed (charge via the cost model).
    pub ops: CryptoOps,
}

/// Dual-threshold key material for one ABBA party (from the trusted
/// dealer).
#[derive(Clone, Debug)]
pub struct AbbaKeys {
    /// Signature scheme public state (threshold `n − f`).
    pub sig_public: SharePublic,
    /// This party's signature key.
    pub sig_key: PartyKey,
    /// Coin scheme public state (threshold `f + 1`).
    pub coin_public: SharePublic,
    /// This party's coin key.
    pub coin_key: PartyKey,
}

impl AbbaKeys {
    /// Trusted-dealer setup: one key bundle per party.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n`.
    pub fn trusted_setup(n: usize, f: usize, seed: u64) -> Vec<AbbaKeys> {
        let q = Quorums::new(n, f);
        let (sig_public, sig_keys) =
            turquois_crypto::threshold::Dealer::deal(n, q.wait(), seed ^ 0x51c);
        let (coin_public, coin_keys) =
            turquois_crypto::threshold::Dealer::deal(n, q.weak(), seed ^ 0xc01);
        sig_keys
            .into_iter()
            .zip(coin_keys)
            .map(|(sig_key, coin_key)| AbbaKeys {
                sig_public: sig_public.clone(),
                sig_key,
                coin_public: coin_public.clone(),
                coin_key,
            })
            .collect()
    }
}

/// Builds a correctly-signed round-1 pre-vote for `value` on behalf of
/// the holder of `keys`. Round-1 pre-votes need no justification, so a
/// Byzantine party can legitimately sign *both* values and deliver a
/// different one to each receiver — the canonical equivocation the
/// `turquois-check` schedule explorer injects. (For rounds > 1 the
/// justification requirement makes this unforgeable.)
pub fn round1_prevote(keys: &AbbaKeys, value: bool) -> AbbaMessage {
    AbbaMessage::PreVote {
        round: 1,
        value,
        share: keys.sig_key.sign_share(&pv_statement(1, value)),
        just: PreVoteJust::Round1,
    }
}

/// One party's ABBA engine.
pub struct Abba {
    q: Quorums,
    me: usize,
    keys: AbbaKeys,
    proposal: bool,
    round: u32,
    /// Pre-votes per round, with each party's share.
    pre: FixedMap<u32, Tally<bool, SigShare>>,
    /// The first verified pre-vote for each value per round, kept to
    /// justify an abstaining main-vote.
    examples: FixedMap<(u32, bool), EmbeddedPreVote>,
    /// Whether this party main-voted in the current round.
    main_voted: bool,
    /// Main-votes per round, with each party's share.
    main: FixedMap<u32, Tally<MainVoteValue, SigShare>>,
    coin_shares: FixedMap<u32, FixedMap<usize, CoinShare>>,
    hard_sigs: FixedMap<(u32, bool), ThresholdSignature>,
    /// Pre-votes, main-votes and coin shares held in the round maps:
    /// counted as they are recorded, recounted when GC drops rounds.
    records: usize,
    decision: Option<bool>,
    stop_round: Option<u32>,
    _rng: StdRng,
}

impl std::fmt::Debug for Abba {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Abba")
            .field("me", &self.me)
            .field("round", &self.round)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

impl Abba {
    /// Creates the engine for party `me` proposing `proposal`.
    ///
    /// # Panics
    ///
    /// Panics unless `3f < n`, `me < n`, and the key bundle's thresholds
    /// are [`Quorums::wait`] and [`Quorums::weak`].
    pub fn new(n: usize, f: usize, me: usize, proposal: bool, keys: AbbaKeys, seed: u64) -> Self {
        let q = Quorums::new(n, f);
        assert!(me < n, "party id out of range");
        assert_eq!(keys.sig_public.threshold(), q.wait(), "wrong sig threshold");
        assert_eq!(keys.coin_public.threshold(), q.weak(), "wrong coin threshold");
        assert_eq!(keys.sig_key.party(), me, "keys belong to another party");
        Abba {
            q,
            me,
            keys,
            proposal,
            round: 1,
            pre: FixedMap::default(),
            examples: FixedMap::default(),
            main_voted: false,
            main: FixedMap::default(),
            coin_shares: FixedMap::default(),
            hard_sigs: FixedMap::default(),
            records: 0,
            decision: None,
            stop_round: None,
            _rng: StdRng::seed_from_u64(seed ^ 0xabba),
        }
    }

    /// This party's id.
    pub fn id(&self) -> usize {
        self.me
    }

    /// Current round.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// Deterministic estimate of the engine's consensus-store footprint
    /// in bytes: 64 per live pre/main round plus 40 per recorded vote,
    /// coin share, and deposited hard signature (a share is a party id
    /// plus a 32-byte tag). O(1): the record count is kept as records
    /// arrive (the simulator polls this after every callback). Depends
    /// on logical content only.
    pub fn store_bytes(&self) -> usize {
        debug_assert_eq!(self.records, self.scan_records());
        (self.pre.len() + self.main.len()) * 64 + 40 * (self.records + self.hard_sigs.len())
    }

    /// Pre-votes, main-votes and coin shares across the round maps,
    /// summed: `records` recounted (at GC, and as its debug oracle).
    fn scan_records(&self) -> usize {
        let pre: usize = self.pre.values().map(Tally::total).sum();
        let main: usize = self.main.values().map(Tally::total).sum();
        let coins: usize = self.coin_shares.values().map(|shares| shares.len()).sum();
        pre + main + coins
    }

    /// Records `from`'s pre-vote in `round` (first value wins).
    fn record_pre(&mut self, round: u32, from: usize, value: bool, share: SigShare) {
        self.records += usize::from(self.pre.entry(round).or_default().insert(from, value, share));
    }

    /// Records `from`'s main-vote in `round` (first value wins).
    fn record_main(&mut self, round: u32, from: usize, value: MainVoteValue, share: SigShare) {
        self.records += usize::from(self.main.entry(round).or_default().insert(from, value, share));
    }

    /// Records `from`'s coin share for `round` (first share wins).
    fn record_coin(&mut self, round: u32, from: usize, share: CoinShare) {
        if let Entry::Vacant(slot) = self.coin_shares.entry(round).or_default().entry(from) {
            slot.insert(share);
            self.records += 1;
        }
    }

    /// Drops the evidence of every round below `floor`.
    fn gc_below(&mut self, floor: u32) {
        self.pre.retain(|&r, _| r >= floor);
        self.examples.retain(|&(r, _), _| r >= floor);
        self.main.retain(|&r, _| r >= floor);
        self.coin_shares.retain(|&r, _| r >= floor);
        self.hard_sigs.retain(|&(r, _), _| r >= floor);
        self.records = self.scan_records();
    }

    /// Starts the protocol: round-1 pre-vote for the proposal.
    pub fn on_start(&mut self) -> AbbaOutput {
        let mut out = AbbaOutput::default();
        let share = self.keys.sig_key.sign_share(&pv_statement(1, self.proposal));
        out.ops.share_signs += 1;
        let msg = AbbaMessage::PreVote {
            round: 1,
            value: self.proposal,
            share,
            just: PreVoteJust::Round1,
        };
        out.send.push(msg.encode());
        out
    }

    /// Processes a wire message from link-layer sender `from`.
    pub fn on_message(&mut self, from: usize, bytes: &[u8]) -> AbbaOutput {
        let mut out = AbbaOutput::default();
        let Some(msg) = AbbaMessage::decode(bytes) else {
            return out;
        };
        match msg {
            AbbaMessage::PreVote {
                round,
                value,
                share,
                just,
            } => {
                if share.party != from {
                    return out;
                }
                if !self.verify_prevote(round, value, &share, &just, &mut out.ops) {
                    return out;
                }
                self.record_pre(round, from, value, share);
                self.examples
                    .entry((round, value))
                    .or_insert_with(|| EmbeddedPreVote { value, share, just });
            }
            AbbaMessage::MainVote {
                round,
                value,
                share,
                coin_share,
                just,
            } => {
                if share.party != from || coin_share.party != from {
                    return out;
                }
                // Verify the main-vote share.
                out.ops.share_verifies += 1;
                if !self
                    .keys
                    .sig_public
                    .verify_share(&mv_statement(round, value), &share)
                {
                    return out;
                }
                // Verify the coin share (still record the main-vote if
                // only the coin share is bad — they are independent).
                out.ops.share_verifies += 1;
                let coin_ok = self
                    .keys
                    .coin_public
                    .verify_coin_share(&coin_tag(round), &coin_share);
                // Verify the justification.
                let just_ok = match &just {
                    MainVoteJust::ForValue(sig) => {
                        out.ops.sig_verifies += 1;
                        match value.as_bit() {
                            Some(bit) => {
                                let ok =
                                    self.keys.sig_public.verify(&pv_statement(round, bit), sig);
                                if ok {
                                    self.hard_sigs.entry((round, bit)).or_insert(*sig);
                                }
                                ok
                            }
                            None => false,
                        }
                    }
                    MainVoteJust::Abstain { zero, one } => {
                        value == MainVoteValue::Abstain
                            && !zero.value
                            && one.value
                            && self.verify_prevote(round, false, &zero.share, &zero.just, &mut out.ops)
                            && self.verify_prevote(round, true, &one.share, &one.just, &mut out.ops)
                    }
                };
                if !just_ok {
                    return out;
                }
                if coin_ok {
                    self.record_coin(round, from, coin_share);
                }
                self.record_main(round, from, value, share);
            }
        }
        self.try_progress(&mut out);
        out
    }

    fn verify_prevote(
        &mut self,
        round: u32,
        value: bool,
        share: &SigShare,
        just: &PreVoteJust,
        ops: &mut CryptoOps,
    ) -> bool {
        ops.share_verifies += 1;
        if !self
            .keys
            .sig_public
            .verify_share(&pv_statement(round, value), share)
        {
            return false;
        }
        match just {
            PreVoteJust::Round1 => round == 1,
            PreVoteJust::Hard(sig) => {
                if round < 2 {
                    return false;
                }
                ops.sig_verifies += 1;
                let ok = self
                    .keys
                    .sig_public
                    .verify(&pv_statement(round - 1, value), sig);
                if ok {
                    self.hard_sigs.entry((round - 1, value)).or_insert(*sig);
                }
                ok
            }
            PreVoteJust::Coin { abstain_sig, proof } => {
                if round < 2 {
                    return false;
                }
                ops.sig_verifies += 2;
                self.keys.sig_public.verify(
                    &mv_statement(round - 1, MainVoteValue::Abstain),
                    abstain_sig,
                ) && self
                    .keys
                    .coin_public
                    .verify_coin_proof(&coin_tag(round - 1), proof)
                    && proof.value == value
            }
        }
    }

    /// Fires any quorum transitions for the current round, to fixpoint.
    fn try_progress(&mut self, out: &mut AbbaOutput) {
        loop {
            if self.stop_round.is_some_and(|stop| self.round > stop) {
                return;
            }
            let round = self.round;

            // Pre-vote quorum → main-vote.
            let pre = self.pre.entry(round).or_default();
            if !self.main_voted && pre.total() >= self.q.wait() {
                self.main_voted = true;
                let (value, just) = if pre.count(false) == 0 || pre.count(true) == 0 {
                    // Unanimous: combine the pre-votes' shares.
                    let bit = pre.count(false) == 0;
                    let shares: Vec<SigShare> =
                        pre.iter().filter(|&(v, _)| v == bit).map(|(_, s)| *s).collect();
                    out.ops.shares_combined += shares.len() as u32;
                    let sig = self
                        .keys
                        .sig_public
                        .combine(&pv_statement(round, bit), &shares)
                        .expect("quorum of verified shares combines");
                    self.hard_sigs.entry((round, bit)).or_insert(sig);
                    (MainVoteValue::from_bit(bit), MainVoteJust::ForValue(sig))
                } else {
                    let example = |bit| {
                        self.examples.get(&(round, bit)).expect("mixed → a pre-vote for each").clone()
                    };
                    let (zero, one) = (example(false), example(true));
                    (MainVoteValue::Abstain, MainVoteJust::Abstain { zero, one })
                };
                let share = self.keys.sig_key.sign_share(&mv_statement(round, value));
                let coin_share = self.keys.coin_key.coin_share(&coin_tag(round));
                out.ops.share_signs += 2;
                let msg = AbbaMessage::MainVote {
                    round,
                    value,
                    share,
                    coin_share,
                    just,
                };
                out.send.push(msg.encode());
                continue;
            }

            // Main-vote quorum → decide / next round's pre-vote. Firing
            // moves to the next round, so it happens once per round.
            let main = self.main.entry(round).or_default();
            if main.total() < self.q.wait() {
                break;
            }
            let abstain = main.count(MainVoteValue::Abstain);
            // Zero checked before One.
            let binary = if main.count(MainVoteValue::Zero) > 0 {
                Some(false)
            } else if main.count(MainVoteValue::One) > 0 {
                Some(true)
            } else {
                None
            };
            let next_round = round + 1;
            let (next_value, next_just) = match binary {
                Some(bit) => {
                    if abstain == 0 && main.count(MainVoteValue::from_bit(!bit)) == 0 {
                        // Unanimous main-votes: decide.
                        if self.decision.is_none() {
                            self.decision = Some(bit);
                            self.stop_round = Some(next_round);
                            out.newly_decided = Some(bit);
                        }
                    }
                    let sig = *self
                        .hard_sigs
                        .get(&(round, bit))
                        .expect("a verified b-main-vote deposited its pre-vote signature");
                    (bit, PreVoteJust::Hard(sig))
                }
                None => {
                    // All abstain: combine the abstain signature and
                    // the shared coin.
                    let abstain_shares: Vec<SigShare> = main.iter().map(|(_, s)| *s).collect();
                    out.ops.shares_combined += abstain_shares.len() as u32;
                    let abstain_sig = self
                        .keys
                        .sig_public
                        .combine(
                            &mv_statement(round, MainVoteValue::Abstain),
                            &abstain_shares,
                        )
                        .expect("quorum of verified abstain shares");
                    let shares: Vec<CoinShare> = self
                        .coin_shares
                        .get(&round)
                        .map(|m| m.values().copied().collect())
                        .unwrap_or_default();
                    out.ops.shares_combined += shares.len() as u32;
                    let proof = self
                        .keys
                        .coin_public
                        .combine_coin_proof(&coin_tag(round), &shares)
                        .expect("n−f ≥ f+1 verified coin shares accompany main-votes");
                    (proof.value, PreVoteJust::Coin { abstain_sig, proof })
                }
            };
            self.round = next_round;
            self.main_voted = false;
            if self.stop_round.is_some_and(|stop| next_round > stop) {
                return; // decided and already helped one round
            }
            let share = self
                .keys
                .sig_key
                .sign_share(&pv_statement(next_round, next_value));
            out.ops.share_signs += 1;
            let msg = AbbaMessage::PreVote {
                round: next_round,
                value: next_value,
                share,
                just: next_just,
            };
            out.send.push(msg.encode());
            // GC old rounds.
            if next_round > 2 {
                self.gc_below(next_round - 2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(n: usize, f: usize, proposals: &[bool], seed: u64) -> Vec<Abba> {
        let keys = AbbaKeys::trusted_setup(n, f, seed);
        keys.into_iter()
            .enumerate()
            .map(|(me, k)| Abba::new(n, f, me, proposals[me % proposals.len()], k, seed))
            .collect()
    }

    /// Lossless full-information exchange (every message reaches all,
    /// including the sender).
    fn run_lossless(engines: &mut [Abba], max_iters: usize) -> Vec<Option<bool>> {
        let mut queue: Vec<(usize, Bytes)> = Vec::new();
        for e in engines.iter_mut() {
            let out = e.on_start();
            let me = e.id();
            queue.extend(out.send.into_iter().map(|b| (me, b)));
        }
        let mut iters = 0;
        while let Some((from, bytes)) = queue.pop() {
            iters += 1;
            assert!(iters < max_iters, "message budget exceeded");
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

    /// One message of every wire shape: each pre-vote justification,
    /// both main-vote justifications.
    fn codec_fixtures() -> Vec<AbbaMessage> {
        let share = SigShare {
            party: 3,
            tag: turquois_crypto::sha256::sha256(b"s"),
        };
        let coin_share = CoinShare {
            party: 3,
            tag: turquois_crypto::sha256::sha256(b"c"),
        };
        let sig = ThresholdSignature {
            tag: turquois_crypto::sha256::sha256(b"t"),
        };
        let proof = CoinProof {
            value: true,
            tag: turquois_crypto::sha256::sha256(b"p"),
        };
        vec![
            AbbaMessage::PreVote {
                round: 1,
                value: true,
                share,
                just: PreVoteJust::Round1,
            },
            AbbaMessage::PreVote {
                round: 2,
                value: false,
                share,
                just: PreVoteJust::Hard(sig),
            },
            AbbaMessage::PreVote {
                round: 3,
                value: true,
                share,
                just: PreVoteJust::Coin {
                    abstain_sig: sig,
                    proof,
                },
            },
            AbbaMessage::MainVote {
                round: 2,
                value: MainVoteValue::One,
                share,
                coin_share,
                just: MainVoteJust::ForValue(sig),
            },
            AbbaMessage::MainVote {
                round: 2,
                value: MainVoteValue::Abstain,
                share,
                coin_share,
                just: MainVoteJust::Abstain {
                    zero: EmbeddedPreVote {
                        value: false,
                        share,
                        just: PreVoteJust::Round1,
                    },
                    one: EmbeddedPreVote {
                        value: true,
                        share,
                        just: PreVoteJust::Hard(sig),
                    },
                },
            },
        ]
    }

    /// A signature share from party 65 536 would go out as party 0's.
    #[test]
    #[should_panic(expected = "party id exceeds the wire format's u16")]
    fn encode_rejects_a_sig_share_party_beyond_u16() {
        let mut m = codec_fixtures().swap_remove(0);
        if let AbbaMessage::PreVote { share, .. } = &mut m {
            share.party = 65_536;
        }
        let _ = m.encode();
    }

    /// So would a coin share.
    #[test]
    #[should_panic(expected = "party id exceeds the wire format's u16")]
    fn encode_rejects_a_coin_share_party_beyond_u16() {
        let mut m = codec_fixtures().swap_remove(3);
        if let AbbaMessage::MainVote { coin_share, .. } = &mut m {
            coin_share.party = 65_536;
        }
        let _ = m.encode();
    }

    #[test]
    fn codec_round_trip_all_variants() {
        for m in codec_fixtures() {
            let bytes = m.encode();
            assert_eq!(AbbaMessage::decode(&bytes), Some(m.clone()));
            // The arithmetic length matches what encode produced, so
            // `rsa_equivalent_size` needs no throwaway encode.
            assert_eq!(m.encoded_len(), bytes.len());
            // Truncations fail.
            for cut in 0..bytes.len() {
                assert_eq!(AbbaMessage::decode(&bytes[..cut]), None, "cut {cut}");
            }
        }
        assert_eq!(AbbaMessage::decode(b""), None);
    }

    /// Accepted ⇒ canonical: every single-byte mutation of every
    /// fixture, its one-byte truncation and a trailing byte either fail
    /// to decode or decode to a message that re-encodes to exactly the
    /// mutated input. Never a panic.
    #[test]
    fn decode_is_total_and_canonical_under_byte_mutations() {
        let check = |bytes: &[u8]| {
            if let Some(m) = AbbaMessage::decode(bytes) {
                assert_eq!(&m.encode()[..], bytes, "accepted a non-canonical frame");
                assert_eq!(m.encoded_len(), bytes.len());
            }
        };
        for m in codec_fixtures() {
            let wire = m.encode().to_vec();
            for at in 0..wire.len() {
                for val in [0, 1, 2, 3, 0x7f, 0xff] {
                    let mut mutated = wire.clone();
                    mutated[at] = val;
                    check(&mutated);
                }
            }
            check(&wire[..wire.len() - 1]);
            let mut trailing = wire.clone();
            trailing.push(0);
            assert_eq!(AbbaMessage::decode(&trailing), None);
        }
    }

    #[test]
    fn unanimous_decides_in_one_round() {
        for bit in [false, true] {
            let mut engines = group(4, 1, &[bit], 7);
            let decisions = run_lossless(&mut engines, 100_000);
            assert!(decisions.iter().all(|d| *d == Some(bit)), "{decisions:?}");
            assert!(engines.iter().all(|e| e.round() <= 2));
        }
    }

    #[test]
    fn divergent_decides_and_agrees() {
        for seed in 0..4u64 {
            let mut engines = group(4, 1, &[true, false], seed);
            let decisions = run_lossless(&mut engines, 500_000);
            let first = decisions[0].expect("decides");
            assert!(decisions.iter().all(|d| *d == Some(first)), "{decisions:?}");
        }
    }

    #[test]
    fn larger_group_divergent() {
        let mut engines = group(7, 2, &[true, false], 11);
        let decisions = run_lossless(&mut engines, 1_000_000);
        let first = decisions[0].expect("decides");
        assert!(decisions.iter().all(|d| *d == Some(first)));
    }

    #[test]
    fn crashed_minority_does_not_block() {
        let mut engines = group(4, 1, &[true], 13);
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
            assert!(iters < 100_000, "livelock");
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
    fn invalid_share_rejected_but_costs_verification() {
        let mut engines = group(4, 1, &[true], 17);
        let bogus = AbbaMessage::PreVote {
            round: 1,
            value: false,
            share: SigShare {
                party: 3,
                tag: turquois_crypto::sha256::sha256(b"garbage"),
            },
            just: PreVoteJust::Round1,
        };
        let out = engines[0].on_message(3, &bogus.encode());
        assert!(out.send.is_empty());
        assert_eq!(out.ops.share_verifies, 1, "the forgery still cost a verify");
    }

    #[test]
    fn share_replay_under_wrong_sender_rejected() {
        let mut engines = group(4, 1, &[true], 19);
        let out = engines[1].on_start();
        // Replay party 1's genuine pre-vote claiming link sender 2.
        let replayed = out.send[0].clone();
        let r = engines[0].on_message(2, &replayed);
        assert!(r.send.is_empty(), "share.party must match the channel");
    }

    /// The engine hands `combine_coin_proof` its round's coin shares in
    /// the coin map's iteration order, which no protocol rule fixes:
    /// any order of the same shares must give the same proof.
    #[test]
    fn coin_proof_is_independent_of_share_order() {
        use rand::Rng;
        let keys = AbbaKeys::trusted_setup(7, 2, 41);
        let public = &keys[0].coin_public;
        let tag = coin_tag(3);
        let mut shares: Vec<CoinShare> = keys.iter().map(|k| k.coin_key.coin_share(&tag)).collect();
        let proof = public.combine_coin_proof(&tag, &shares).expect("n shares");
        assert!(public.verify_coin_proof(&tag, &proof));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            for i in (1..shares.len()).rev() {
                shares.swap(i, rng.gen_range(0..=i));
            }
            assert_eq!(public.combine_coin_proof(&tag, &shares), Ok(proof));
            // A threshold-sized prefix of the shuffled shares too.
            assert_eq!(public.combine_coin_proof(&tag, &shares[..3]), Ok(proof));
        }
    }

    #[test]
    fn forged_hard_justification_rejected() {
        let mut engines = group(4, 1, &[true], 23);
        let keys = AbbaKeys::trusted_setup(4, 1, 23);
        let share = keys[3].sig_key.sign_share(&pv_statement(2, false));
        let msg = AbbaMessage::PreVote {
            round: 2,
            value: false,
            share,
            just: PreVoteJust::Hard(ThresholdSignature {
                tag: turquois_crypto::sha256::sha256(b"fake"),
            }),
        };
        let out = engines[0].on_message(3, &msg.encode());
        assert!(out.send.is_empty());
        assert!(out.ops.sig_verifies >= 1);
    }

    #[test]
    fn ops_accumulate() {
        let mut a = CryptoOps::default();
        a.add(CryptoOps {
            share_signs: 1,
            share_verifies: 2,
            sig_verifies: 3,
            shares_combined: 4,
        });
        a.add(CryptoOps {
            share_signs: 1,
            share_verifies: 1,
            sig_verifies: 1,
            shares_combined: 1,
        });
        assert_eq!(
            a,
            CryptoOps {
                share_signs: 2,
                share_verifies: 3,
                sig_verifies: 4,
                shares_combined: 5,
            }
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The engine's pre-vote and main-vote tallies vs. a naive
        /// model, a flat list of every record call scanned per query,
        /// under records and the engine's whole-round GC: each vote and
        /// its share land in their round's tallies, in ascending party
        /// order as share collection reads them, and the O(1) record
        /// count behind `store_bytes` matches the model's. What a tally
        /// does with a vote is `quorum::tests`' to check.
        #[test]
        fn vote_rounds_match_naive_model(
            ops in proptest::collection::vec(
                // (round, party, value sel 0..3, gc trigger)
                (1u32..6, 0usize..7, 0u8..3, 0u8..16),
                1..80,
            ),
        ) {
            const MAIN_VALUES: [MainVoteValue; 3] =
                [MainVoteValue::Zero, MainVoteValue::One, MainVoteValue::Abstain];
            let share = |party: usize| SigShare {
                party,
                tag: turquois_crypto::sha256::Digest([party as u8; turquois_crypto::sha256::DIGEST_LEN]),
            };
            let coin = |party: usize| CoinShare { party, tag: share(party).tag };
            let keys = AbbaKeys::trusted_setup(7, 2, 1).remove(0);
            let mut engine = Abba::new(7, 2, 0, true, keys, 1);
            // Every record call in order: (round, party, value sel).
            let mut model: Vec<(u32, usize, u8)> = Vec::new();
            for (round, party, v, gc) in ops {
                if gc == 0 {
                    engine.gc_below(round);
                    model.retain(|m| m.0 >= round);
                } else {
                    engine.record_pre(round, party, v % 2 == 1, share(party));
                    engine.record_main(round, party, MAIN_VALUES[v as usize], share(party));
                    engine.record_coin(round, party, coin(party));
                    model.push((round, party, v));
                }
                let mut live: Vec<u32> = engine.pre.keys().copied().collect();
                let mut want: Vec<u32> = model.iter().map(|m| m.0).collect();
                live.sort_unstable();
                want.sort_unstable();
                want.dedup();
                proptest::prop_assert_eq!(&live, &want);
                let mut all_votes = 0;
                for round in live {
                    // Ascending party; a party's vote is its first record.
                    let votes: Vec<(usize, u8)> = (0..7)
                        .filter_map(|party| {
                            model.iter().find(|m| (m.0, m.1) == (round, party)).map(|m| (party, m.2))
                        })
                        .collect();
                    all_votes += votes.len();
                    let want: Vec<_> = votes.iter().map(|&(p, v)| (v % 2 == 1, share(p))).collect();
                    let got: Vec<_> = engine.pre[&round].iter().map(|(v, &s)| (v, s)).collect();
                    proptest::prop_assert_eq!(got, want);
                    let want: Vec<_> = votes.iter().map(|&(p, v)| (MAIN_VALUES[v as usize], share(p))).collect();
                    let got: Vec<_> = engine.main[&round].iter().map(|(v, &s)| (v, s)).collect();
                    proptest::prop_assert_eq!(got, want);
                }
                // A first record is one pre-vote, one main-vote and one
                // coin share.
                proptest::prop_assert_eq!(engine.records, 3 * all_votes);
                let rounds = engine.pre.len() + engine.main.len();
                proptest::prop_assert_eq!(engine.store_bytes(), 64 * rounds + 40 * 3 * all_votes);
            }
        }
    }
}
