//! SHA-256 compression on the x86-64 SHA extensions (DESIGN.md §12).
//!
//! Everything here is compiled with `#[target_feature(enable =
//! "sha,ssse3,sse4.1")]`, so code outside reaches [`compress_blocks`]
//! only through an `unsafe` call made after [`detected`] proved the
//! host has those features. The bodies are safe code: state and message
//! words enter the registers through `_mm_set_epi32` from big-endian
//! reads and leave through `_mm_extract_epi32`, never through a pointer.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

use super::K;

/// Whether this host has the SHA extensions and the SSE levels the
/// kernel is compiled for (`is_x86_feature_detected!` caches the CPUID
/// probe, so this is a few loads).
#[inline]
pub(super) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
}

/// Compresses the whole 64-byte blocks of `blocks` into `state`.
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // The working variables as `sha256rnds2` takes them: [a, b, e, f]
    // and [c, d, g, h], highest lane first.
    let s = state.map(|x| x as i32);
    let mut regs = [_mm_set_epi32(s[0], s[1], s[4], s[5]), _mm_set_epi32(s[2], s[3], s[6], s[7])];
    for block in blocks.chunks_exact(64) {
        let saved = regs;
        let mut words = [0i32; 16];
        for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
            *word = i32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        let mut w = [_mm_set_epi32(0, 0, 0, 0); 4];
        for (q, four) in w.iter_mut().zip(words.chunks_exact(4)) {
            *q = _mm_set_epi32(four[3], four[2], four[1], four[0]);
        }
        // Spelled out, so every schedule slot and round constant is static.
        macro_rules! groups {
            ($($i:literal)+) => { $( group::<$i>(&mut regs, &mut w); )+ };
        }
        groups!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        regs = [_mm_add_epi32(regs[0], saved[0]), _mm_add_epi32(regs[1], saved[1])];
    }
    let [abef, cdgh] = regs;
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|x| x as u32);
}

/// Rounds `4I..4I + 4`. From the fifth group on, the group's message
/// words `W[4I..4I + 4]` first replace `W[4I − 16..]` in `w[I % 4]`,
/// computed from the sixteen words before them.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn group<const I: usize>([abef, cdgh]: &mut [__m128i; 2], w: &mut [__m128i; 4]) {
    let k = _mm_set_epi32(K[4 * I + 3] as i32, K[4 * I + 2] as i32, K[4 * I + 1] as i32, K[4 * I] as i32);
    if I >= 4 {
        let (w0, w1, w2, w3) = (w[I % 4], w[(I + 1) % 4], w[(I + 2) % 4], w[(I + 3) % 4]);
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        w[I % 4] = _mm_sha256msg2_epu32(t, w3);
    }
    let wk = _mm_add_epi32(w[I % 4], k);
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
}
