//! One-time hash-based message signatures (paper §6.1).
//!
//! Turquois authenticates the pair `(φ, v)` of every protocol message with
//! a scheme the paper claims is novel for agreement protocols: for each
//! phase `φ` and each possible proposal value `v ∈ {0, 1, ⊥}`, process
//! `p_i` pre-generates a random bit string `SK_i[φ][v]` (the secret key)
//! and publishes `VK_i[φ][v] = H(SK_i[φ][v])` (the verification key).
//! Broadcasting a message `⟨i, φ, v, status⟩` attaches `SK_i[φ][v]`;
//! receivers verify with a single hash. Because each secret authenticates
//! exactly one `(φ, v)` pair, revealing it cannot be abused to forge any
//! other message — and because the protocol never signs two different
//! values in the same phase, one-time use is inherent.
//!
//! Per the paper's footnote 3, `SK[φ][⊥]` is only generated when
//! `φ mod 3 = 0` (DECIDE phases), since `⊥` is a legal proposal value only
//! there.
//!
//! "Pre-generates" is the paper's wording: here a slot is a pure function
//! of `(seed, process, phase, value)`, derived with its block of 24 phases
//! when first touched (`DESIGN.md` §10) — phases never reached cost nothing.
//!
//! The verification-key arrays themselves must be distributed
//! authentically; the paper signs them with RSA over an out-of-band
//! channel. Here they are signed with the hash-based [`crate::hashsig`]
//! scheme (see `DESIGN.md` §4 for the substitution argument).

use crate::hashsig;
use crate::sha256::multilane::sha256_many;
use crate::sha256::{Digest, DIGEST_LEN};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Domain tag of a one-time secret-key derivation.
const SECRET_TAG: &[u8] = b"turquois-otss-v1";

/// Byte length of a derivation preimage:
/// `tag ‖ seed ‖ process ‖ phase ‖ value`.
const SECRET_PREIMAGE_LEN: usize = SECRET_TAG.len() + 8 + 8 + 4 + 1;

/// A proposal value as seen by the signature scheme: `0`, `1`, or `⊥`.
///
/// `⊥` ("bottom") expresses lack of preference and is a legal proposal
/// value only in DECIDE phases (`φ mod 3 = 0`).
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub enum Value {
    /// Binary zero.
    Zero,
    /// Binary one.
    One,
    /// No preference (`⊥`).
    Bot,
}

impl Value {
    /// All three values, in index order.
    pub const ALL: [Value; 3] = [Value::Zero, Value::One, Value::Bot];

    /// Index of this value in a 3-slot key row.
    pub fn index(self) -> usize {
        match self {
            Value::Zero => 0,
            Value::One => 1,
            Value::Bot => 2,
        }
    }

    /// Converts a binary `bool` proposal to a [`Value`].
    pub fn from_bit(bit: bool) -> Value {
        if bit {
            Value::One
        } else {
            Value::Zero
        }
    }

    /// Returns the binary value, or `None` for `⊥`.
    pub fn as_bit(self) -> Option<bool> {
        match self {
            Value::Zero => Some(false),
            Value::One => Some(true),
            Value::Bot => None,
        }
    }

    /// The opposite binary value; `⊥` maps to itself.
    ///
    /// Used by the Byzantine value-flipping adversary of paper §7.2.
    pub fn flipped(self) -> Value {
        match self {
            Value::Zero => Value::One,
            Value::One => Value::Zero,
            Value::Bot => Value::Bot,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Zero => f.write_str("0"),
            Value::One => f.write_str("1"),
            Value::Bot => f.write_str("⊥"),
        }
    }
}

/// Returns `true` when `⊥` is a legal proposal value at `phase`
/// (DECIDE phases, `φ mod 3 = 0`).
pub fn bot_legal_at(phase: u32) -> bool {
    phase.is_multiple_of(3)
}

/// A revealed one-time secret, attached to a message as its signature.
#[derive(Clone, Copy, Eq, PartialEq, Hash)]
pub struct OneTimeSignature(pub [u8; DIGEST_LEN]);

impl fmt::Debug for OneTimeSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OneTimeSignature({:02x}{:02x}…)", self.0[0], self.0[1])
    }
}

impl OneTimeSignature {
    /// The signature as raw bytes (wire form).
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }
}

/// Errors from one-time signing.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SignError {
    /// The phase lies outside the range this key array covers.
    PhaseOutOfRange {
        /// Requested phase.
        phase: u32,
        /// First covered phase (inclusive).
        first: u32,
        /// Last covered phase (inclusive).
        last: u32,
    },
    /// `⊥` was requested in a phase where it is not a legal proposal.
    BotNotLegal {
        /// Requested phase.
        phase: u32,
    },
}

impl fmt::Display for SignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignError::PhaseOutOfRange { phase, first, last } => {
                write!(f, "phase {phase} outside key range [{first}, {last}]")
            }
            SignError::BotNotLegal { phase } => {
                write!(f, "⊥ is not a legal proposal value at phase {phase}")
            }
        }
    }
}

impl std::error::Error for SignError {}

/// Phases per derivation block: one block covers the 3–10 phases a
/// typical run reaches, and any 24 consecutive phases hold 8 DECIDE
/// phases, so a full block is [`BLOCK_SLOTS`] = 56 legal slots — seven
/// full 8-lane steps per pass on the lane engines.
const BLOCK_PHASES: usize = 24;
const BLOCK_SLOTS: usize = BLOCK_PHASES * 2 + BLOCK_PHASES / 3;

/// The derived key material of [`BLOCK_PHASES`] consecutive phases, by
/// `[row in block][value index]`; the `⊥` slot of a non-DECIDE phase
/// holds zeros.
struct Block {
    secrets: [[[u8; DIGEST_LEN]; 3]; BLOCK_PHASES],
    keys: [[Digest; 3]; BLOCK_PHASES],
}

/// One epoch of one process's key material as the trusted dealer
/// derives it: the derivation inputs plus the blocks touched so far
/// (all filled, it is the paper's pre-generated array). The owner's
/// [`KeyPairArray`] and every copy of its [`VerificationKeyArray`] share
/// one, so each block is derived once.
struct Epoch {
    process: usize,
    first_phase: u32,
    num_phases: u32,
    seed: u64,
    blocks: Box<[OnceLock<Box<Block>>]>,
}

/// Header only: no seed, no key material.
impl fmt::Debug for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Epoch")
            .field("process", &self.process)
            .field("first_phase", &self.first_phase)
            .field("num_phases", &self.num_phases)
            .finish_non_exhaustive()
    }
}

impl Epoch {
    fn last_phase(&self) -> u32 {
        self.first_phase + (self.num_phases - 1) // `generate_epoch` checked the range
    }

    /// The block holding row `row` (phase `first_phase + row`), derived
    /// on first touch. Racing threads derive the same bytes; one wins.
    fn block_of(&self, row: usize) -> &Block {
        let b = row / BLOCK_PHASES;
        self.blocks[b].get_or_init(|| self.derive_block(b))
    }

    /// Every legal slot is an independent single-block derivation
    /// followed by an independent verification hash: two batches
    /// (paper footnote 3 still skips the ⊥ slot of non-DECIDE phases).
    fn derive_block(&self, b: usize) -> Box<Block> {
        let base = b * BLOCK_PHASES;
        let rows = (self.num_phases as usize - base).min(BLOCK_PHASES);
        let mut slots = [(0usize, 0usize); BLOCK_SLOTS];
        let mut preimages = [[0u8; SECRET_PREIMAGE_LEN]; BLOCK_SLOTS];
        let mut used = 0;
        for r in 0..rows {
            let phase = self.first_phase + (base + r) as u32;
            for value in Value::ALL {
                if value == Value::Bot && !bot_legal_at(phase) {
                    continue;
                }
                slots[used] = (r, value.index());
                preimages[used] = secret_preimage(self.seed, self.process, phase, value);
                used += 1;
            }
        }
        let mut refs: [&[u8]; BLOCK_SLOTS] = std::array::from_fn(|i| &preimages[i][..]);
        let sks = sha256_many(&refs[..used]);
        for (r, sk) in refs.iter_mut().zip(&sks) {
            *r = sk.as_bytes();
        }
        let vks = sha256_many(&refs[..used]);
        let mut block = Box::new(Block {
            secrets: [[[0u8; DIGEST_LEN]; 3]; BLOCK_PHASES],
            keys: [[Digest::ZERO; 3]; BLOCK_PHASES],
        });
        for ((&(r, v), sk), vk) in slots.iter().zip(&sks).zip(&vks) {
            block.secrets[r][v] = sk.0;
            block.keys[r][v] = *vk;
        }
        block
    }

    /// Every phase's verification keys in order: materialises the epoch.
    fn key_rows(&self) -> impl Iterator<Item = &[Digest; 3]> {
        (0..self.num_phases as usize).map(|row| &self.block_of(row).keys[row % BLOCK_PHASES])
    }
}

/// The verification-key array `VK_i` of one process for one key-exchange
/// epoch: `VK_i[φ][v] = H(SK_i[φ][v])`.
///
/// A cheap-to-clone handle on the dealer's derivation, restricted to its
/// public half: nothing reachable from this type yields a secret or the
/// seed. `==` and `canonical_bytes` materialise the whole epoch.
#[derive(Clone, Debug)]
pub struct VerificationKeyArray {
    epoch: Arc<Epoch>,
}

impl PartialEq for VerificationKeyArray {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.epoch, &*other.epoch);
        Arc::ptr_eq(&self.epoch, &other.epoch)
            || ((a.process, a.first_phase, a.num_phases)
                == (b.process, b.first_phase, b.num_phases)
                && a.key_rows().eq(b.key_rows()))
    }
}

impl Eq for VerificationKeyArray {}

impl VerificationKeyArray {
    /// The process this array belongs to.
    pub fn process(&self) -> usize {
        self.epoch.process
    }

    /// First phase (inclusive) covered by this array.
    pub fn first_phase(&self) -> u32 {
        self.epoch.first_phase
    }

    /// Last phase (inclusive) covered by this array.
    pub fn last_phase(&self) -> u32 {
        self.epoch.last_phase()
    }

    /// Number of phases covered.
    pub(crate) fn num_phases(&self) -> usize {
        self.epoch.num_phases as usize
    }

    /// Verifies that `sig` authenticates `(phase, value)` for this
    /// process, i.e. `H(sig) == VK[phase][value]`.
    ///
    /// Returns `false` for out-of-range phases and for `⊥` in phases where
    /// it is not legal.
    pub fn verify(&self, phase: u32, value: Value, sig: &OneTimeSignature) -> bool {
        let Some(expected) = self.key(phase, value) else {
            return false;
        };
        crate::sha256::sha256(&sig.0) == expected
    }

    /// Like [`VerificationKeyArray::verify`] with `H(sig)` already
    /// computed, so a multi-epoch scan (or a batched caller)
    /// hashes each signature exactly once instead of once per epoch.
    pub fn verify_hashed(&self, phase: u32, value: Value, sig_hash: &Digest) -> bool {
        self.key(phase, value)
            .is_some_and(|expected| *sig_hash == expected)
    }

    /// Looks up `VK[phase][value]`, if that slot exists (first touch
    /// derives the phase's block).
    pub(crate) fn key(&self, phase: u32, value: Value) -> Option<Digest> {
        let epoch = &*self.epoch;
        if phase < epoch.first_phase || phase > epoch.last_phase() {
            return None;
        }
        if value == Value::Bot && !bot_legal_at(phase) {
            return None;
        }
        let row = (phase - epoch.first_phase) as usize;
        Some(epoch.block_of(row).keys[row % BLOCK_PHASES][value.index()])
    }

    /// Canonical byte encoding of the array, used as the message that the
    /// key-exchange signature covers. Materialises the whole epoch.
    pub(crate) fn canonical_bytes(&self) -> Vec<u8> {
        let epoch = &*self.epoch;
        let mut out = Vec::with_capacity(16 + self.num_phases() * 3 * DIGEST_LEN);
        out.extend_from_slice(&(epoch.process as u64).to_be_bytes());
        out.extend_from_slice(&epoch.first_phase.to_be_bytes());
        out.extend_from_slice(&epoch.num_phases.to_be_bytes());
        for row in epoch.key_rows() {
            for key in row {
                out.extend_from_slice(key.as_bytes());
            }
        }
        out
    }
}

/// A process's secret keys plus the matching verification keys for one
/// key-exchange epoch.
///
/// # Example
///
/// ```
/// use turquois_crypto::otss::{KeyPairArray, Value};
/// let keys = KeyPairArray::generate(0, 12, 7);
/// let sig = keys.sign(6, Value::Bot)?; // phase 6 is a DECIDE phase
/// assert!(keys.verification_keys().verify(6, Value::Bot, &sig));
/// # Ok::<(), turquois_crypto::otss::SignError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KeyPairArray {
    /// The epoch the public half shares; only this type reads its secrets.
    verification: VerificationKeyArray,
}

impl KeyPairArray {
    /// Generates keys for `num_phases` phases starting at phase 1
    /// (epoch 1).
    ///
    /// Secret keys are derived deterministically from `seed` via a keyed
    /// hash chain, so tests and the simulator are reproducible; in a real
    /// deployment the seed would come from the OS entropy pool.
    pub fn generate(process: usize, num_phases: usize, seed: u64) -> Self {
        Self::generate_epoch(process, 1, num_phases, seed)
    }

    /// Generates keys for the epoch starting at `first_phase` and covering
    /// `num_phases` phases. Hashes nothing: each block of phases is
    /// derived when a `sign`, `key` or `verify` first touches it.
    ///
    /// # Panics
    ///
    /// Panics if `first_phase == 0` (phases are 1-based), `num_phases == 0`,
    /// or the last phase `first_phase − 1 + num_phases` exceeds `u32::MAX`.
    pub fn generate_epoch(process: usize, first_phase: u32, num_phases: usize, seed: u64) -> Self {
        assert!(first_phase >= 1, "phases are 1-based");
        assert!(num_phases >= 1, "a key array must cover at least one phase");
        assert!(
            num_phases as u64 <= u64::from(u32::MAX - (first_phase - 1)),
            "an epoch of {num_phases} phases starting at phase {first_phase} ends past u32::MAX"
        );
        let epoch = Arc::new(Epoch {
            process,
            first_phase,
            num_phases: num_phases as u32,
            seed,
            blocks: (0..num_phases.div_ceil(BLOCK_PHASES)).map(|_| OnceLock::new()).collect(),
        });
        KeyPairArray { verification: VerificationKeyArray { epoch } }
    }

    /// The public half of the key material.
    pub fn verification_keys(&self) -> &VerificationKeyArray {
        &self.verification
    }

    /// Signs `(phase, value)` by revealing the corresponding secret key
    /// (first touch derives the phase's block).
    ///
    /// # Errors
    ///
    /// Returns [`SignError::PhaseOutOfRange`] if `phase` is not covered by
    /// this epoch, or [`SignError::BotNotLegal`] when signing `⊥` in a
    /// non-DECIDE phase.
    pub fn sign(&self, phase: u32, value: Value) -> Result<OneTimeSignature, SignError> {
        let epoch = &*self.verification.epoch;
        let (first, last) = (epoch.first_phase, epoch.last_phase());
        if phase < first || phase > last {
            return Err(SignError::PhaseOutOfRange { phase, first, last });
        }
        if value == Value::Bot && !bot_legal_at(phase) {
            return Err(SignError::BotNotLegal { phase });
        }
        let row = (phase - first) as usize;
        Ok(OneTimeSignature(epoch.block_of(row).secrets[row % BLOCK_PHASES][value.index()]))
    }
}

/// Builds the derivation preimage of one one-time secret. The scalar
/// oracle ([`crate::sha256::sha256_domain`] over the same tag and
/// parts) and the batch hash exactly these bytes.
fn secret_preimage(seed: u64, process: usize, phase: u32, value: Value) -> [u8; SECRET_PREIMAGE_LEN] {
    let mut p = [0u8; SECRET_PREIMAGE_LEN];
    let t = SECRET_TAG.len();
    p[..t].copy_from_slice(SECRET_TAG);
    p[t..t + 8].copy_from_slice(&seed.to_be_bytes());
    p[t + 8..t + 16].copy_from_slice(&(process as u64).to_be_bytes());
    p[t + 16..t + 20].copy_from_slice(&phase.to_be_bytes());
    p[t + 20] = value.index() as u8;
    p
}

/// A verification-key array together with the key-exchange signature that
/// authenticates it (paper §6.1, "Key Exchange").
///
/// The paper signs `VK_i` with RSA; the reproduction uses the hash-based
/// [`crate::hashsig`] scheme (see `DESIGN.md` §4).
#[derive(Clone, Debug)]
pub struct SignedVerificationKeys {
    /// The verification keys being distributed.
    pub keys: VerificationKeyArray,
    /// Signature over `VerificationKeyArray::canonical_bytes`.
    pub signature: hashsig::Signature,
}

impl SignedVerificationKeys {
    /// Signs `keys` with the long-term identity key of the owning process.
    ///
    /// # Errors
    ///
    /// Propagates [`hashsig::SignError`] if the identity key has exhausted
    /// its one-time leaves.
    pub fn sign(
        keys: VerificationKeyArray,
        identity: &mut hashsig::Keypair,
    ) -> Result<Self, hashsig::SignError> {
        let signature = identity.sign(&keys.canonical_bytes())?;
        Ok(SignedVerificationKeys { keys, signature })
    }

    /// Verifies the bundle against the claimed owner's long-term public
    /// key.
    pub fn verify(&self, owner_public: &hashsig::PublicKey) -> bool {
        owner_public.verify(&self.keys.canonical_bytes(), &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip_all_slots() {
        let keys = KeyPairArray::generate(3, 9, 99);
        for phase in 1..=9u32 {
            for value in Value::ALL {
                if value == Value::Bot && !bot_legal_at(phase) {
                    assert_eq!(
                        keys.sign(phase, value),
                        Err(SignError::BotNotLegal { phase })
                    );
                    continue;
                }
                let sig = keys.sign(phase, value).expect("slot exists");
                assert!(keys.verification_keys().verify(phase, value, &sig));
            }
        }
    }

    #[test]
    fn signature_does_not_transfer_between_slots() {
        let keys = KeyPairArray::generate(0, 6, 1);
        let sig = keys.sign(2, Value::One).expect("in range");
        let vk = keys.verification_keys();
        assert!(vk.verify(2, Value::One, &sig));
        assert!(!vk.verify(2, Value::Zero, &sig));
        assert!(!vk.verify(1, Value::One, &sig));
        assert!(!vk.verify(5, Value::One, &sig));
    }

    #[test]
    fn signature_does_not_transfer_between_processes() {
        let a = KeyPairArray::generate(0, 6, 1);
        let b = KeyPairArray::generate(1, 6, 1);
        let sig = a.sign(4, Value::Zero).expect("in range");
        assert!(!b.verification_keys().verify(4, Value::Zero, &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let keys = KeyPairArray::generate(0, 3, 5);
        let mut sig = keys.sign(1, Value::Zero).expect("in range");
        sig.0[0] ^= 1;
        assert!(!keys.verification_keys().verify(1, Value::Zero, &sig));
    }

    #[test]
    fn phase_out_of_range_errors() {
        let keys = KeyPairArray::generate_epoch(0, 4, 3, 5); // phases 4..=6
        assert!(keys.sign(4, Value::Zero).is_ok());
        assert!(keys.sign(6, Value::Zero).is_ok());
        assert_eq!(
            keys.sign(3, Value::Zero),
            Err(SignError::PhaseOutOfRange {
                phase: 3,
                first: 4,
                last: 6
            })
        );
        assert_eq!(
            keys.sign(7, Value::Zero),
            Err(SignError::PhaseOutOfRange {
                phase: 7,
                first: 4,
                last: 6
            })
        );
    }

    #[test]
    fn bot_only_in_decide_phases() {
        let keys = KeyPairArray::generate(0, 9, 5);
        let vk = keys.verification_keys();
        for phase in 1..=9u32 {
            assert_eq!(vk.key(phase, Value::Bot).is_some(), phase % 3 == 0);
        }
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = KeyPairArray::generate(0, 3, 1);
        let b = KeyPairArray::generate(0, 3, 2);
        assert_ne!(
            a.verification_keys().key(1, Value::Zero),
            b.verification_keys().key(1, Value::Zero)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = KeyPairArray::generate(2, 5, 77);
        let b = KeyPairArray::generate(2, 5, 77);
        assert_eq!(a.verification_keys(), b.verification_keys());
    }

    /// The retired whole-epoch eager derivation, verbatim: the oracle
    /// every first-touch path must reproduce bit for bit.
    type Eager = (Vec<[[u8; DIGEST_LEN]; 3]>, Vec<[Digest; 3]>);
    fn eager_epoch(process: usize, first_phase: u32, num_phases: usize, seed: u64) -> Eager {
        let mut slots: Vec<(usize, Value)> = Vec::with_capacity(num_phases * 3);
        let mut preimages: Vec<[u8; SECRET_PREIMAGE_LEN]> = Vec::with_capacity(num_phases * 3);
        for r in 0..num_phases {
            let phase = first_phase + r as u32;
            for value in Value::ALL {
                if value == Value::Bot && !bot_legal_at(phase) {
                    continue;
                }
                slots.push((r, value));
                preimages.push(secret_preimage(seed, process, phase, value));
            }
        }
        let refs: Vec<&[u8]> = preimages.iter().map(|p| &p[..]).collect();
        let sks = sha256_many(&refs);
        let sk_refs: Vec<&[u8]> = sks.iter().map(Digest::as_bytes).collect();
        let vks = sha256_many(&sk_refs);
        let mut secrets = vec![[[0u8; DIGEST_LEN]; 3]; num_phases];
        let mut rows = vec![[Digest::ZERO; 3]; num_phases];
        for ((&(r, value), sk), vk) in slots.iter().zip(&sks).zip(&vks) {
            secrets[r][value.index()] = sk.0;
            rows[r][value.index()] = *vk;
        }
        (secrets, rows)
    }

    /// The oracle's `canonical_bytes`.
    fn eager_canonical(process: usize, first_phase: u32, rows: &[[Digest; 3]]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(process as u64).to_be_bytes());
        out.extend_from_slice(&first_phase.to_be_bytes());
        out.extend_from_slice(&(rows.len() as u32).to_be_bytes());
        for key in rows.iter().flatten() {
            out.extend_from_slice(key.as_bytes());
        }
        out
    }

    /// Both halves of every slot, read through the public surface
    /// (illegal `⊥` slots read as the oracle's zeros).
    fn materialised(keys: &KeyPairArray) -> Eager {
        let vk = keys.verification_keys();
        (vk.first_phase()..=vk.last_phase())
            .map(|phase| {
                let secret =
                    Value::ALL.map(|v| keys.sign(phase, v).map_or([0; DIGEST_LEN], |s| s.0));
                let key = Value::ALL.map(|v| vk.key(phase, v).unwrap_or(Digest::ZERO));
                (secret, key)
            })
            .unzip()
    }

    #[test]
    fn every_engine_derives_the_same_keys() {
        use crate::sha256::oracle::on_every_engine;
        let expected = eager_epoch(3, 4, 40, 123);
        for (engine, got) in
            on_every_engine(|| materialised(&KeyPairArray::generate_epoch(3, 4, 40, 123)))
        {
            assert_eq!(got, expected, "{engine:?}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any interleaving of first touches — through either half, on
        /// the original or on clones taken mid-way — leaves every slot
        /// and the canonical encoding equal to the eager oracle's.
        #[test]
        fn first_touch_derivation_matches_eager_oracle(
            process in 0usize..300,
            first_phase in 1u32..2000,
            num_phases in 1usize..100,
            seed in any::<u64>(),
            touches in prop::collection::vec((0u8..4, any::<u16>(), 0usize..3), 0..24),
        ) {
            let (secrets, rows) = eager_epoch(process, first_phase, num_phases, seed);
            let keys = KeyPairArray::generate_epoch(process, first_phase, num_phases, seed);
            let mut handles = vec![keys.verification_keys().clone()];
            for (op, at, v) in touches {
                let row = at as usize % num_phases;
                let (phase, value) = (first_phase + row as u32, Value::ALL[v]);
                let legal = value != Value::Bot || bot_legal_at(phase);
                let vk = &handles[at as usize % handles.len()];
                match op {
                    0 => prop_assert_eq!(
                        keys.sign(phase, value).ok().map(|s| s.0),
                        legal.then_some(secrets[row][v])
                    ),
                    1 => prop_assert_eq!(vk.key(phase, value), legal.then_some(rows[row][v])),
                    2 => prop_assert_eq!(
                        vk.verify(phase, value, &OneTimeSignature(secrets[row][v])),
                        legal
                    ),
                    _ => handles.push(keys.clone().verification_keys().clone()),
                }
            }
            prop_assert_eq!(materialised(&keys), (secrets, rows.clone()));
            for vk in &handles {
                prop_assert_eq!(vk.canonical_bytes(), eager_canonical(process, first_phase, &rows));
                prop_assert!(vk == keys.verification_keys());
            }
        }
    }

    /// The wire-visible key material, pinned at the last commit that
    /// pre-generated it (c650e35): SHA-256 of `canonical_bytes()`.
    #[test]
    fn canonical_bytes_are_pinned() {
        let keys = KeyPairArray::generate(3, 30, 42);
        assert_eq!(
            crate::sha256::sha256(&keys.verification_keys().canonical_bytes()).to_hex(),
            "cd290831211dfb15e4a839e242a2c2741335c0a26306d92e1eee736582f8b08a"
        );
    }

    #[test]
    fn racing_cold_verifiers_see_the_single_threaded_keys() {
        let (secrets, rows) = eager_epoch(2, 1, 60, 9);
        let shared = KeyPairArray::generate(2, 60, 9).verification_keys().clone();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    for (row, phase) in (1..=60u32).enumerate() {
                        let sig = OneTimeSignature(secrets[row][1]);
                        assert!(shared.verify(phase, Value::One, &sig));
                        assert!(!shared.verify(phase, Value::Zero, &sig));
                        assert_eq!(shared.key(phase, Value::Zero), Some(rows[row][0]));
                    }
                });
            }
        });
    }

    #[test]
    fn epoch_may_end_at_but_not_past_the_last_phase() {
        let keys = KeyPairArray::generate_epoch(0, u32::MAX - 3, 4, 1);
        let vk = keys.verification_keys();
        assert_eq!(
            (vk.first_phase(), vk.last_phase()),
            (u32::MAX - 3, u32::MAX)
        );
        let sig = keys
            .sign(u32::MAX, Value::Zero)
            .expect("last phase is covered");
        assert!(vk.verify(u32::MAX, Value::Zero, &sig));
        assert_eq!(vk.key(u32::MAX - 4, Value::Zero), None);
        assert!(matches!(
            keys.sign(u32::MAX - 4, Value::Zero),
            Err(SignError::PhaseOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(
        expected = "an epoch of 4 phases starting at phase 4294967294 ends past u32::MAX"
    )]
    fn epoch_past_the_last_phase_is_refused() {
        KeyPairArray::generate_epoch(0, u32::MAX - 1, 4, 1);
    }

    #[test]
    fn debug_prints_no_key_material() {
        let keys = KeyPairArray::generate(1, 6, 0x5eed_5eed_5eed);
        keys.sign(1, Value::One).expect("in range");
        for text in [
            format!("{keys:?}"),
            format!("{:?}", keys.verification_keys()),
        ] {
            assert!(!text.contains("seed") && !text.contains(&0x5eed_5eed_5eed_u64.to_string()));
        }
    }

    #[test]
    fn verify_hashed_matches_verify() {
        let keys = KeyPairArray::generate(0, 6, 8);
        let vk = keys.verification_keys();
        let sig = keys.sign(2, Value::One).expect("in range");
        let hash = crate::sha256::sha256(&sig.0);
        assert!(vk.verify_hashed(2, Value::One, &hash));
        assert!(!vk.verify_hashed(2, Value::Zero, &hash));
        assert!(!vk.verify_hashed(1, Value::Bot, &hash));
        assert!(!vk.verify_hashed(99, Value::One, &hash));
    }

    #[test]
    fn signed_bundle_round_trip() {
        let keys = KeyPairArray::generate(1, 6, 3);
        let mut identity = hashsig::Keypair::generate(4, 11);
        let bundle = SignedVerificationKeys::sign(keys.verification_keys().clone(), &mut identity)
            .expect("leaves available");
        assert!(bundle.verify(identity.public_key()));

        let other = hashsig::Keypair::generate(4, 12);
        assert!(!bundle.verify(other.public_key()));
    }

    #[test]
    fn signed_bundle_detects_key_substitution() {
        let keys = KeyPairArray::generate(1, 6, 3);
        let mut identity = hashsig::Keypair::generate(4, 11);
        let mut bundle =
            SignedVerificationKeys::sign(keys.verification_keys().clone(), &mut identity)
                .expect("leaves available");
        // Attacker swaps in their own verification keys.
        let evil = KeyPairArray::generate(1, 6, 666);
        bundle.keys = evil.verification_keys().clone();
        assert!(!bundle.verify(identity.public_key()));
    }

    #[test]
    fn value_helpers() {
        assert_eq!(Value::from_bit(true), Value::One);
        assert_eq!(Value::from_bit(false), Value::Zero);
        assert_eq!(Value::One.as_bit(), Some(true));
        assert_eq!(Value::Bot.as_bit(), None);
        assert_eq!(Value::Zero.flipped(), Value::One);
        assert_eq!(Value::Bot.flipped(), Value::Bot);
        assert_eq!(format!("{}", Value::Bot), "⊥");
    }

    #[test]
    fn canonical_bytes_distinguish_arrays() {
        let a = KeyPairArray::generate(0, 3, 1);
        let b = KeyPairArray::generate(1, 3, 1);
        assert_ne!(
            a.verification_keys().canonical_bytes(),
            b.verification_keys().canonical_bytes()
        );
    }
}
