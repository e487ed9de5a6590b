//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The reproduction's allowed dependency set contains no cryptography
//! crate, so the hash function the paper builds on (it suggests SHA-256 or
//! RIPEMD-160) is implemented here and validated against the FIPS 180-4
//! test vectors in the unit tests.

use std::fmt;

pub mod multilane;

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

    /// Interprets the first 8 bytes of the digest as a big-endian `u64`.
    ///
    /// Used to derive unbiased pseudo-random values (e.g. the simulated
    /// shared coin) from digests.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has >= 8 bytes"))
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
    pub fn from_midstate(state: [u32; 8], len: u64) -> Self {
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
    pub fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "midstate capture mid-block loses data");
        self.state
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Full 64-byte blocks are compressed straight out of the caller's
    /// slice (by reference — no per-block staging copy); only the
    /// sub-block head and tail ever touch the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.len += 64;
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            let block: &[u8; 64] = block.try_into().expect("chunk of length 64");
            compress(&mut self.state, block);
            self.len += 64;
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Consumes the hasher, producing the digest.
    pub fn finalize(mut self) -> Digest {
        let total_bits = (self.len + self.buf_len as u64).wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        let mut pad = [0u8; 128];
        let buffered = self.buf_len;
        pad[..buffered].copy_from_slice(&self.buf[..buffered]);
        pad[buffered] = 0x80;
        let pad_len = if buffered < 56 { 64 } else { 128 };
        pad[pad_len - 8..pad_len].copy_from_slice(&total_bits.to_be_bytes());
        for chunk in pad[..pad_len].chunks_exact(64) {
            let block: &[u8; 64] = chunk.try_into().expect("chunk of length 64");
            compress(&mut self.state, block);
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

}

/// One FIPS 180-4 compression round over a borrowed block.
///
/// Free function (not a method) so `update` can compress
/// `self.buf` while mutating `self.state` — that split borrow is
/// what lets full blocks stream from the input slice by reference.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
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
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
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
/// one-time-key derivations). Streaming and lane-batched callers build
/// the same preimage bytes, so routing both through here keeps them
/// hashing identical input by construction.
#[inline]
pub fn sha256_domain(tag: &[u8], parts: &[&[u8]]) -> Digest {
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

    /// FIPS 180-4 / NIST CAVP known-answer vectors.
    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), *expected, "input {input:?}");
        }
    }

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
    fn prefix_u64_is_big_endian() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0x01;
        bytes[7] = 0xff;
        assert_eq!(Digest(bytes).prefix_u64(), 0x0100_0000_0000_00ff);
    }

    #[test]
    fn digest_display_and_debug_nonempty() {
        let d = Digest::ZERO;
        assert!(!format!("{d}").is_empty());
        assert!(!format!("{d:?}").is_empty());
    }
}
