//! Hash-based few-time signatures (Lamport one-time signatures under a
//! Merkle tree).
//!
//! The paper signs each verification-key array with RSA during key
//! exchange. The reproduction's dependency set has no bignum arithmetic,
//! and the evaluation only needs two properties from that signature:
//! (1) unforgeability, so a Byzantine process cannot distribute bogus
//! verification keys on behalf of a correct one, and (2) a *high
//! computational cost* relative to plain hashing, which is what makes
//! ABBA's per-message public-key cryptography expensive. Property (1) is
//! provided for real by this module; property (2) is charged explicitly by
//! [`crate::cost::CostModel`] wherever a nominally-RSA operation happens.
//!
//! The construction is textbook: a Lamport one-time signature signs the
//! 256 bits of `SHA-256(message)` by revealing one of two pre-committed
//! secrets per bit, and a Merkle tree over `2^height` one-time leaf keys
//! turns that into a few-time scheme with a single 32-byte public key (the
//! root).

use crate::sha256::multilane::sha256_many;
use crate::sha256::{sha256, sha256_domain, Digest, DIGEST_LEN};
use std::fmt;

/// Number of message bits a Lamport leaf signs (SHA-256 output).
const MSG_BITS: usize = 256;

/// Domain tag of a Lamport secret derivation.
const SECRET_TAG: &[u8] = b"turquois-hashsig-secret";
/// Domain tag of a leaf commitment.
const LEAF_TAG: &[u8] = b"turquois-hashsig-leaf";
/// Domain tag of an interior Merkle node.
const NODE_TAG: &[u8] = b"turquois-hashsig-node";

/// Byte length of a secret-derivation preimage:
/// `tag ‖ seed ‖ leaf ‖ bit_idx ‖ bit`.
const SECRET_PREIMAGE_LEN: usize = SECRET_TAG.len() + 8 + 8 + 4 + 1;
/// Byte length of a node preimage: `tag ‖ left ‖ right`.
const NODE_PREIMAGE_LEN: usize = NODE_TAG.len() + 2 * DIGEST_LEN;

/// A long-term hash-based public key: the Merkle root over the one-time
/// leaf keys.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub struct PublicKey {
    root: Digest,
    height: u32,
}

/// Errors from [`Keypair::sign`].
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SignError {
    /// All `2^height` one-time leaves have been used.
    LeavesExhausted {
        /// Total number of leaves the keypair was generated with.
        capacity: usize,
    },
}

impl fmt::Display for SignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignError::LeavesExhausted { capacity } => {
                write!(f, "all {capacity} one-time signature leaves used")
            }
        }
    }
}

impl std::error::Error for SignError {}

/// A Merkle–Lamport signature.
///
/// Contains the revealed secrets (one per message bit), the hashes of the
/// unrevealed secrets (needed to recompute the leaf hash), the leaf index,
/// and the Merkle authentication path to the root.
#[derive(Clone)]
pub struct Signature {
    leaf_index: usize,
    revealed: Vec<[u8; DIGEST_LEN]>,
    unrevealed_hashes: Vec<Digest>,
    auth_path: Vec<Digest>,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signature")
            .field("leaf_index", &self.leaf_index)
            .field("auth_path_len", &self.auth_path.len())
            .finish_non_exhaustive()
    }
}

/// A few-time hash-based signing key: `2^height` Lamport one-time keys
/// under a Merkle tree.
///
/// # Example
///
/// ```
/// use turquois_crypto::hashsig::Keypair;
/// let mut kp = Keypair::generate(2, 7); // 4 one-time leaves
/// let sig = kp.sign(b"verification keys for epoch 1")?;
/// assert!(kp.public_key().verify(b"verification keys for epoch 1", &sig));
/// assert!(!kp.public_key().verify(b"something else", &sig));
/// # Ok::<(), turquois_crypto::hashsig::SignError>(())
/// ```
pub struct Keypair {
    seed: u64,
    height: u32,
    /// Full Merkle tree, `tree[0]` = leaf hashes, `tree[height]` = [root].
    tree: Vec<Vec<Digest>>,
    next_leaf: usize,
    public: PublicKey,
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keypair")
            .field("height", &self.height)
            .field("next_leaf", &self.next_leaf)
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl Keypair {
    /// Generates a keypair with `2^height` one-time leaves, derived
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `height > 16` (65 536 leaves ≈ the practical ceiling for
    /// eager generation).
    pub fn generate(height: u32, seed: u64) -> Self {
        assert!(height <= 16, "height {height} too large for eager keygen");
        let leaves = 1usize << height;
        let mut level: Vec<Digest> = (0..leaves).map(|i| leaf_hash(seed, i)).collect();
        let mut tree = vec![level.clone()];
        for _ in 0..height {
            // The nodes of one level are independent: batch them.
            let preimages: Vec<[u8; NODE_PREIMAGE_LEN]> = level
                .chunks_exact(2)
                .map(|pair| node_preimage(&pair[0], &pair[1]))
                .collect();
            let refs: Vec<&[u8]> = preimages.iter().map(|p| &p[..]).collect();
            let next = sha256_many(&refs);
            tree.push(next.clone());
            level = next;
        }
        let root = level[0];
        Keypair {
            seed,
            height,
            tree,
            next_leaf: 0,
            public: PublicKey { root, height },
        }
    }

    /// The verifying half of this keypair.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Signs `message`, consuming the next one-time leaf.
    ///
    /// # Errors
    ///
    /// Returns [`SignError::LeavesExhausted`] once all `2^height` leaves
    /// are used; never reuses a leaf (reuse would leak both secrets of a
    /// bit position and break unforgeability).
    pub fn sign(&mut self, message: &[u8]) -> Result<Signature, SignError> {
        let capacity = 1usize << self.height;
        if self.next_leaf >= capacity {
            return Err(SignError::LeavesExhausted { capacity });
        }
        let leaf = self.next_leaf;
        self.next_leaf += 1;

        let msg_digest = sha256(message);
        // Re-derive both secrets of every bit position in one batch
        // (2·MSG_BITS independent single-block digests), then hash the
        // unrevealed half in a second batch.
        let secrets = leaf_secrets(self.seed, leaf);
        let mut revealed = Vec::with_capacity(MSG_BITS);
        let mut others = Vec::with_capacity(MSG_BITS);
        for bit_idx in 0..MSG_BITS {
            let bit = digest_bit(&msg_digest, bit_idx);
            revealed.push(secrets[2 * bit_idx + bit as usize].0);
            others.push(secrets[2 * bit_idx + !bit as usize]);
        }
        let other_refs: Vec<&[u8]> = others.iter().map(Digest::as_bytes).collect();
        let unrevealed_hashes = sha256_many(&other_refs);

        let mut auth_path = Vec::with_capacity(self.height as usize);
        let mut idx = leaf;
        for depth in 0..self.height as usize {
            auth_path.push(self.tree[depth][idx ^ 1]);
            idx >>= 1;
        }

        Ok(Signature {
            leaf_index: leaf,
            revealed,
            unrevealed_hashes,
            auth_path,
        })
    }
}

impl PublicKey {
    /// The Merkle root.
    pub fn root(&self) -> Digest {
        self.root
    }

    /// Structural checks that must pass before any hashing work is
    /// allocated: vector lengths and the leaf-index bound, so every
    /// engine rejects the same malformed signatures at the same point.
    fn well_formed(&self, sig: &Signature) -> bool {
        sig.revealed.len() == MSG_BITS
            && sig.unrevealed_hashes.len() == MSG_BITS
            && sig.auth_path.len() == self.height as usize
            && sig.leaf_index < (1usize << self.height)
    }

    /// Verifies `sig` over `message`.
    ///
    /// The MSG_BITS revealed secrets are independent single-block
    /// digests, so they run as one batch (bit-identical to hashing each
    /// in turn).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if !self.well_formed(sig) {
            return false;
        }
        let msg_digest = sha256(message);
        // Reconstruct the leaf's Lamport public key from revealed secrets
        // (hashed) and the provided unrevealed hashes, then hash to the
        // leaf commitment.
        let revealed_refs: Vec<&[u8]> = sig.revealed.iter().map(|r| &r[..]).collect();
        let revealed_hashes = sha256_many(&revealed_refs);
        let mut leaf_hasher = crate::sha256::Sha256::new();
        leaf_hasher.update(LEAF_TAG);
        for (bit_idx, revealed_hash) in revealed_hashes.iter().enumerate() {
            let bit = digest_bit(&msg_digest, bit_idx);
            let (h0, h1) = if bit {
                (sig.unrevealed_hashes[bit_idx], *revealed_hash)
            } else {
                (*revealed_hash, sig.unrevealed_hashes[bit_idx])
            };
            leaf_hasher.update(h0.as_bytes());
            leaf_hasher.update(h1.as_bytes());
        }
        let mut node = leaf_hasher.finalize();
        let mut idx = sig.leaf_index;
        for sibling in &sig.auth_path {
            node = if idx & 1 == 0 {
                node_hash(&node, sibling)
            } else {
                node_hash(sibling, &node)
            };
            idx >>= 1;
        }
        node == self.root
    }
}

fn digest_bit(d: &Digest, bit_idx: usize) -> bool {
    (d.0[bit_idx / 8] >> (7 - bit_idx % 8)) & 1 == 1
}

/// Builds the derivation preimage of one Lamport secret. Both engines
/// hash exactly these bytes — the scalar path via [`sha256`], the
/// batch path via [`sha256_many`] — so the digests agree by
/// construction.
fn secret_preimage(seed: u64, leaf: usize, bit_idx: usize, bit: bool) -> [u8; SECRET_PREIMAGE_LEN] {
    let mut p = [0u8; SECRET_PREIMAGE_LEN];
    let t = SECRET_TAG.len();
    p[..t].copy_from_slice(SECRET_TAG);
    p[t..t + 8].copy_from_slice(&seed.to_be_bytes());
    p[t + 8..t + 16].copy_from_slice(&(leaf as u64).to_be_bytes());
    p[t + 16..t + 20].copy_from_slice(&(bit_idx as u32).to_be_bytes());
    p[t + 20] = bit as u8;
    p
}

/// Derives both secrets of every bit position of one leaf
/// (`2·MSG_BITS` digests, ordered `[bit 0: false, true, bit 1: …]`) in
/// a single batch.
fn leaf_secrets(seed: u64, leaf: usize) -> Vec<Digest> {
    let preimages: Vec<[u8; SECRET_PREIMAGE_LEN]> = (0..MSG_BITS)
        .flat_map(|bit_idx| [false, true].map(|bit| secret_preimage(seed, leaf, bit_idx, bit)))
        .collect();
    let refs: Vec<&[u8]> = preimages.iter().map(|p| &p[..]).collect();
    sha256_many(&refs)
}

fn leaf_hash(seed: u64, leaf: usize) -> Digest {
    let secrets = leaf_secrets(seed, leaf);
    let secret_refs: Vec<&[u8]> = secrets.iter().map(Digest::as_bytes).collect();
    let secret_hashes = sha256_many(&secret_refs);
    let mut h = crate::sha256::Sha256::new();
    h.update(LEAF_TAG);
    for hash in &secret_hashes {
        h.update(hash.as_bytes());
    }
    h.finalize()
}

/// Builds the preimage of one interior Merkle node, for the batched
/// per-level keygen pass.
fn node_preimage(left: &Digest, right: &Digest) -> [u8; NODE_PREIMAGE_LEN] {
    let mut p = [0u8; NODE_PREIMAGE_LEN];
    let t = NODE_TAG.len();
    p[..t].copy_from_slice(NODE_TAG);
    p[t..t + DIGEST_LEN].copy_from_slice(left.as_bytes());
    p[t + DIGEST_LEN..].copy_from_slice(right.as_bytes());
    p
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_domain(NODE_TAG, &[left.as_bytes(), right.as_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let mut kp = Keypair::generate(2, 1);
        let sig = kp.sign(b"hello").expect("leaves available");
        assert!(kp.public_key().verify(b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = Keypair::generate(2, 1);
        let sig = kp.sign(b"hello").expect("leaves available");
        assert!(!kp.public_key().verify(b"hellp", &sig));
        assert!(!kp.public_key().verify(b"", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut kp = Keypair::generate(2, 1);
        let other = Keypair::generate(2, 2);
        let sig = kp.sign(b"hello").expect("leaves available");
        assert!(!other.public_key().verify(b"hello", &sig));
    }

    #[test]
    fn all_leaves_usable_then_exhausted() {
        let mut kp = Keypair::generate(2, 9);
        for i in 0..4 {
            let msg = format!("epoch {i}");
            let sig = kp.sign(msg.as_bytes()).expect("leaf available");
            assert_eq!(sig.leaf_index, i);
            assert!(kp.public_key().verify(msg.as_bytes(), &sig));
        }
        assert_eq!(kp.next_leaf, 1 << kp.height, "every leaf used");
        assert!(matches!(
            kp.sign(b"one too many"),
            Err(SignError::LeavesExhausted { capacity: 4 })
        ));
    }

    #[test]
    fn height_zero_single_use() {
        let mut kp = Keypair::generate(0, 5);
        let sig = kp.sign(b"only").expect("one leaf");
        assert!(kp.public_key().verify(b"only", &sig));
        assert!(kp.sign(b"again").is_err());
    }

    #[test]
    fn tampered_revealed_secret_rejected() {
        let mut kp = Keypair::generate(1, 3);
        let mut sig = kp.sign(b"msg").expect("leaves available");
        sig.revealed[17][0] ^= 1;
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_auth_path_rejected() {
        let mut kp = Keypair::generate(3, 3);
        let mut sig = kp.sign(b"msg").expect("leaves available");
        sig.auth_path[1].0[5] ^= 0x80;
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn wrong_leaf_index_rejected() {
        let mut kp = Keypair::generate(2, 3);
        let mut sig = kp.sign(b"msg").expect("leaves available");
        sig.leaf_index = 2;
        assert!(!kp.public_key().verify(b"msg", &sig));
        sig.leaf_index = 100;
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn truncated_signature_rejected() {
        let mut kp = Keypair::generate(2, 3);
        let mut sig = kp.sign(b"msg").expect("leaves available");
        sig.revealed.pop();
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn signature_reveals_one_lamport_key_and_its_auth_path() {
        let mut kp = Keypair::generate(4, 3);
        let sig = kp.sign(b"msg").expect("leaves available");
        // 256 revealed + 256 unrevealed hashes + 4 path nodes.
        let shape = (sig.revealed.len(), sig.unrevealed_hashes.len(), sig.auth_path.len());
        assert_eq!(shape, (256, 256, 4));
    }

    #[test]
    fn deterministic_public_key() {
        let a = Keypair::generate(3, 42);
        let b = Keypair::generate(3, 42);
        assert_eq!(a.public_key(), b.public_key());
    }

    #[test]
    fn every_engine_agrees_end_to_end() {
        use crate::sha256::oracle::on_every_engine;
        let mut kp = Keypair::generate(2, 42);
        let sig = kp.sign(b"cross-engine").expect("leaf");
        // Keys, signatures, and verdicts must not depend on the engine.
        for (engine, (other_kp, other_sig, verdict)) in on_every_engine(|| {
            let mut other_kp = Keypair::generate(2, 42);
            let other_sig = other_kp.sign(b"cross-engine").expect("leaf");
            let verdict = kp.public_key().verify(b"cross-engine", &sig);
            (other_kp, other_sig, verdict)
        }) {
            assert_eq!(other_kp.public_key(), kp.public_key(), "{engine:?}");
            assert_eq!(other_sig.revealed, sig.revealed, "{engine:?}");
            assert_eq!(other_sig.unrevealed_hashes, sig.unrevealed_hashes, "{engine:?}");
            assert_eq!(other_sig.auth_path, sig.auth_path, "{engine:?}");
            assert!(verdict, "{engine:?}");
        }
    }

    #[test]
    fn every_engine_rejects_the_same_malformed_signatures() {
        use crate::sha256::oracle::on_every_engine;
        let mut kp = Keypair::generate(2, 11);
        let good = kp.sign(b"msg").expect("leaf");
        let mut variants: Vec<(&str, Signature)> = Vec::new();
        let mut s = good.clone();
        s.leaf_index = 1 << 30;
        variants.push(("oversized leaf_index", s));
        let mut s = good.clone();
        s.revealed.pop();
        variants.push(("truncated revealed", s));
        let mut s = good.clone();
        s.unrevealed_hashes.push(Digest::ZERO);
        variants.push(("oversized unrevealed", s));
        let mut s = good.clone();
        s.auth_path.clear();
        variants.push(("missing auth path", s));
        let mut s = good.clone();
        s.revealed[3][0] ^= 1;
        variants.push(("tampered secret", s));
        let mut s = good.clone();
        s.auth_path[0].0[0] ^= 1;
        variants.push(("tampered path", s));
        for (engine, verdicts) in on_every_engine(|| {
            let good_ok = kp.public_key().verify(b"msg", &good);
            let bad_ok: Vec<bool> = variants
                .iter()
                .map(|(_, sig)| kp.public_key().verify(b"msg", sig))
                .collect();
            (good_ok, bad_ok)
        }) {
            assert!(verdicts.0, "{engine:?} accepts good");
            for ((label, _), accepted) in variants.iter().zip(verdicts.1) {
                assert!(!accepted, "{engine:?}: {label} must be rejected");
            }
        }
    }
}
