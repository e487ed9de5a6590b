//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The reproduction's allowed dependency set contains no cryptography
//! crate, so the hash function the paper builds on (it suggests SHA-256 or
//! RIPEMD-160) is implemented here and validated against the FIPS 180-4
//! test vectors in the unit tests.
//!
//! Every compression — streaming, HMAC, batch — runs on one engine,
//! chosen once per process by CPU detection (DESIGN.md §12; [`engine`]
//! names it): the SHA-NI kernel where the host has the SHA extensions,
//! else the lane kernel of [`multilane`], compiled for AVX2 where the
//! host has it. All engines compute bit-identical digests; the tests
//! hold each to a textbook specification compiled for tests only.

use std::fmt;
use std::sync::OnceLock;

pub mod multilane;
#[cfg(test)]
pub(crate) mod oracle;
#[cfg(target_arch = "x86_64")]
mod shani;

/// Length in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest produced by [`Sha256`].
///
/// Implements constant-time equality to avoid timing side channels when
/// comparing verification keys against hashed secret keys.
///
/// # Example
///
/// ```
/// use turquois_crypto::sha256::sha256;
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, Eq, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

// Manual, matching the constant-time `PartialEq` below (equal digests
// hash equally, which is all the `Hash`/`Eq` contract requires).
impl std::hash::Hash for Digest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Digest {
    /// The all-zero digest; useful as a placeholder sentinel.
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
        }
        s
    }

    /// Parses a digest from a 64-character hex string.
    ///
    /// Returns `None` if the string has the wrong length or contains
    /// non-hex characters.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != DIGEST_LEN * 2 || !s.is_ascii() {
            return None;
        }
        let bytes = s.as_bytes();
        let mut out = [0u8; DIGEST_LEN];
        for (i, out_byte) in out.iter_mut().enumerate() {
            let hi = (bytes[2 * i] as char).to_digit(16)?;
            let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
            *out_byte = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// The digest a finished compression state spells: its words,
    /// big-endian, in order.
    pub(crate) fn from_state(state: &[u32; 8]) -> Digest {
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

impl PartialEq for Digest {
    fn eq(&self, other: &Self) -> bool {
        // Constant-time comparison.
        let mut diff = 0u8;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 compression engine. Production runs the first of the
/// first three the host supports; the last exists only for the
/// differential tests (`oracle::with_engine`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Engine {
    /// The SHA-NI kernel; batches run one job at a time.
    ShaNi,
    /// The lane kernel compiled for AVX2.
    Avx2Lanes,
    /// The lane kernel at the baseline target.
    PortableLanes,
    /// The textbook scalar compression: the specification.
    #[cfg(test)]
    PortableScalar,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::ShaNi => "sha-ni",
            Engine::Avx2Lanes => "avx2-lanes",
            Engine::PortableLanes => "portable-lanes",
            #[cfg(test)]
            Engine::PortableScalar => "portable-scalar",
        }
    }

    /// Whether this host can run the engine.
    fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Engine::ShaNi => shani::detected(),
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2Lanes => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Engine::ShaNi | Engine::Avx2Lanes => false,
            _ => true,
        }
    }
}

/// The engine every compression on this thread runs on.
#[inline]
pub(crate) fn active() -> Engine {
    #[cfg(test)]
    if let Some(forced) = oracle::forced() {
        return forced;
    }
    static DETECTED: OnceLock<Engine> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        [Engine::ShaNi, Engine::Avx2Lanes]
            .into_iter()
            .find(|e| e.available())
            .unwrap_or(Engine::PortableLanes)
    })
}

/// The SHA-256 engine this process runs on, chosen by CPU detection:
/// `"sha-ni"` (the x86-64 SHA extensions), `"avx2-lanes"` (the lane
/// kernel compiled for AVX2) or `"portable-lanes"`. Read-only: there is
/// no way to choose another.
pub fn engine() -> &'static str {
    active().name()
}

/// Compresses whole 64-byte blocks into `state` on the active engine,
/// all of them in one kernel call.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    match active() {
        #[cfg(target_arch = "x86_64")]
        Engine::ShaNi if shani::detected() => {
            // SAFETY: the kernel's one requirement is that the host has
            // the features it is compiled for, which `detected` just
            // proved; its body is safe code.
            #[allow(unsafe_code)]
            unsafe {
                shani::compress_blocks(state, blocks)
            }
        }
        #[cfg(test)]
        Engine::PortableScalar => oracle::compress_blocks(state, blocks),
        _ => multilane::compress_stream(state, blocks),
    }
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use turquois_crypto::sha256::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (excluding what sits in `buf`).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Resumes hashing from a previously captured midstate.
    ///
    /// `state` must be the compression state after absorbing exactly
    /// `len` bytes, where `len` is a multiple of the 64-byte block
    /// size. Used by HMAC to cache the per-key ipad/opad block; the
    /// resumed hasher produces digests bit-identical to one that
    /// absorbed those bytes itself.
    pub(crate) fn from_midstate(state: [u32; 8], len: u64) -> Self {
        debug_assert_eq!(len % 64, 0, "midstate must sit on a block boundary");
        Sha256 {
            state,
            len,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Returns the current compression state, valid as a
    /// [`Sha256::from_midstate`] argument only when the bytes absorbed
    /// so far fall on a 64-byte block boundary.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "midstate capture mid-block loses data");
        self.state
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Full 64-byte blocks are compressed straight out of the caller's
    /// slice (by reference — no per-block staging copy), all in one
    /// kernel call; only the sub-block head and tail ever touch the
    /// internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.len += 64;
                self.buf_len = 0;
            }
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &data[..whole]);
            self.len += whole as u64;
        }
        let tail = &data[whole..];
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Consumes the hasher, producing the digest.
    pub fn finalize(self) -> Digest {
        digest_resumed(self.state, self.len, &self.buf[..self.buf_len])
    }
}

/// The digest of `msg` absorbed after the `prefix_len` bytes (a multiple
/// of 64) that left the compression state at `state`: its whole blocks
/// straight from the slice, then its padded tail — no hasher, no
/// staging buffer. Every finished digest ends here or in a batch.
pub(crate) fn digest_resumed(mut state: [u32; 8], prefix_len: u64, msg: &[u8]) -> Digest {
    let whole = msg.len() - msg.len() % 64;
    if whole > 0 {
        compress_blocks(&mut state, &msg[..whole]);
    }
    let mut pad = [0u8; 128];
    let pad_len = pad_tail(&msg[whole..], prefix_len + msg.len() as u64, &mut pad);
    compress_blocks(&mut state, &pad[..pad_len]);
    Digest::from_state(&state)
}

/// Writes into the zeroed `pad` the last one or two blocks of a
/// `total_len`-byte message whose final `tail.len() < 64` bytes are
/// `tail`: the tail, 0x80, zeros and the 64-bit big-endian bit length.
/// Returns their length. (Filled in place: a batch pads up to eight
/// tails a step, and returning each by value costs a copy.)
pub(crate) fn pad_tail(tail: &[u8], total_len: u64, pad: &mut [u8; 128]) -> usize {
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let pad_len = if tail.len() < 56 { 64 } else { 128 };
    pad[pad_len - 8..pad_len].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    pad_len
}

/// Hashes `data` in one shot.
///
/// # Example
///
/// ```
/// use turquois_crypto::sha256::sha256;
/// assert_eq!(
///     sha256(b"").to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    digest_resumed(H0, 0, data)
}

/// Hashes the concatenation of several byte slices without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// One-shot digest of `tag ‖ parts…` — the single helper behind every
/// domain-separated derivation (hash-chain secrets and tree nodes,
/// one-time-key derivations). Streaming and batched callers build
/// the same preimage bytes, so routing both through here keeps them
/// hashing identical input by construction.
#[inline]
pub(crate) fn sha256_domain(tag: &[u8], parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    h.update(tag);
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expected = sha256(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the padding edge cases around 55/56/63/64 bytes.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let one = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn from_hex_rejects_garbage() {
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        assert_eq!(Digest::from_hex(&"a".repeat(63)), None);
        assert_eq!(Digest::from_hex(&"a".repeat(65)), None);
    }

    #[test]
    fn sha256_concat_equals_contiguous() {
        let a = b"part one |";
        let b = b" part two";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(sha256_concat(&[a, b]), sha256(&joined));
    }

    #[test]
    fn digest_display_and_debug_nonempty() {
        let d = Digest::ZERO;
        assert!(!format!("{d}").is_empty());
        assert!(!format!("{d:?}").is_empty());
    }
}
