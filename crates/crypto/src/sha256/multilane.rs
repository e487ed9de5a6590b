//! Portable multi-lane SHA-256 compression (DESIGN.md §12).
//!
//! The scalar kernel in [`super`] processes one 64-byte block at a
//! time. The hot paths, however, mostly hash *independent* short
//! messages: the 256 revealed Lamport secrets of a hash-chain
//! signature, the per-slot one-time-key derivations of an epoch, the
//! per-destination link-HMAC finishes of a broadcast. This module runs
//! up to eight such digests in lockstep through a struct-of-arrays
//! compressor — every round variable is a `[u32; LANES]` and every
//! operation an elementwise loop over the lanes, the shape rustc's
//! autovectorizer turns into SIMD on any target without `unsafe` or
//! intrinsics.
//!
//! Determinism contract: the lane kernel computes bit-identical digests
//! to the scalar kernel (same FIPS 180-4 rounds, same padding). The
//! scalar kernel is not a second production engine: every batch entry
//! point always runs the lanes, and the streaming hasher survives here
//! only as the `#[cfg(test)]` `oracle` the cross-engine tests hold them
//! to.
//! Batching is host-only restructuring: simulated CPU is charged per
//! logical operation by [`crate::cost::CostModel`] regardless.

use super::{Digest, DIGEST_LEN, H0, K};

/// One pending digest in a batch: a compression state plus the message
/// suffix still to absorb. `state`/`prefix_len` are [`H0`]/0 for a
/// fresh digest, or a cached HMAC pad midstate (`prefix_len` 64) for a
/// resumed finish.
#[derive(Clone, Copy)]
pub(crate) struct LaneJob<'a> {
    /// Compression state after absorbing exactly `prefix_len` bytes.
    pub state: [u32; 8],
    /// Bytes already absorbed into `state`; must be a multiple of 64.
    pub prefix_len: u64,
    /// Remaining message bytes (absorbed, then padded, then finished).
    pub msg: &'a [u8],
}

/// Padded blocks a job's suffix compresses into (its prefix is already
/// block-aligned, so only the suffix length matters).
#[inline]
fn padded_blocks(suffix_len: usize) -> usize {
    (suffix_len + 9).div_ceil(64)
}

/// Digests a batch of independent jobs, preserving input order.
///
/// Jobs are grouped by padded block count so grouped lanes stay in
/// lockstep; each group drains through 8-wide lanes, with the ragged
/// remainder taking 4-wide (1–4 jobs) or 8-wide (5–7 jobs) lanes
/// padded with dummy lanes.
pub(crate) fn digest_jobs(jobs: &[LaneJob<'_>]) -> Vec<Digest> {
    #[cfg(test)]
    if oracle::scalar_forced() {
        return jobs.iter().map(oracle::digest_scalar).collect();
    }
    let mut out = vec![Digest::ZERO; jobs.len()];
    let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
    order.sort_by_key(|&i| padded_blocks(jobs[i as usize].msg.len()));
    let mut start = 0;
    while start < order.len() {
        let nblocks = padded_blocks(jobs[order[start] as usize].msg.len());
        let mut end = start + 1;
        while end < order.len() && padded_blocks(jobs[order[end] as usize].msg.len()) == nblocks {
            end += 1;
        }
        run_group(jobs, &order[start..end], nblocks, &mut out);
        start = end;
    }
    out
}

/// Drains one equal-block-count group through the widest fitting lanes.
fn run_group(jobs: &[LaneJob<'_>], idxs: &[u32], nblocks: usize, out: &mut [Digest]) {
    let mut rest = idxs;
    while rest.len() >= 8 {
        run_lanes::<8>(jobs, &rest[..8], nblocks, out);
        rest = &rest[8..];
    }
    match rest.len() {
        0 => {}
        1..=4 => run_lanes::<4>(jobs, rest, nblocks, out),
        _ => run_lanes::<8>(jobs, rest, nblocks, out),
    }
}

static ZERO_BLOCK: [u8; 64] = [0u8; 64];

/// Returns block `blk` of a job's padded suffix: streamed by reference
/// from the message while full blocks last, then from the padded tail.
#[inline]
fn block_at<'b>(msg: &'b [u8], tail: &'b [u8; 128], blk: usize) -> &'b [u8; 64] {
    let pure = msg.len() / 64;
    if blk < pure {
        msg[blk * 64..(blk + 1) * 64]
            .try_into()
            .expect("64-byte block")
    } else {
        let off = (blk - pure) * 64;
        tail[off..off + 64].try_into().expect("64-byte block")
    }
}

/// Builds a job's padding tail (its final one or two blocks): leftover
/// message bytes, 0x80, zeros, 64-bit big-endian total bit length —
/// byte-identical to [`super::Sha256::finalize`]'s padding.
fn padded_tail(job: &LaneJob<'_>) -> [u8; 128] {
    let mut tail = [0u8; 128];
    let rem = job.msg.len() % 64;
    tail[..rem].copy_from_slice(&job.msg[job.msg.len() - rem..]);
    tail[rem] = 0x80;
    let tail_blocks = if rem < 56 { 1 } else { 2 };
    let total_bits = (job.prefix_len + job.msg.len() as u64).wrapping_mul(8);
    tail[tail_blocks * 64 - 8..tail_blocks * 64].copy_from_slice(&total_bits.to_be_bytes());
    tail
}

/// Runs up to `L` same-length jobs through the `L`-lane kernel.
/// Unused lanes replay the last real lane's blocks (their results are
/// discarded).
fn run_lanes<const L: usize>(jobs: &[LaneJob<'_>], idxs: &[u32], nblocks: usize, out: &mut [Digest]) {
    debug_assert!(!idxs.is_empty() && idxs.len() <= L);
    let real = idxs.len();
    let lane_job = |lane: usize| &jobs[idxs[lane.min(real - 1)] as usize];
    let mut tails = [[0u8; 128]; L];
    let mut states = [[0u32; L]; 8];
    for lane in 0..L {
        let job = lane_job(lane);
        tails[lane] = padded_tail(job);
        for (word, s) in states.iter_mut().zip(job.state) {
            word[lane] = s;
        }
    }
    for blk in 0..nblocks {
        let mut blocks: [&[u8; 64]; L] = [&ZERO_BLOCK; L];
        for (lane, slot) in blocks.iter_mut().enumerate() {
            *slot = block_at(lane_job(lane).msg, &tails[lane], blk);
        }
        compress_wide::<L>(&mut states, &blocks);
    }
    for (lane, &idx) in idxs.iter().enumerate() {
        let mut bytes = [0u8; DIGEST_LEN];
        for (word, chunk) in states.iter().zip(bytes.chunks_exact_mut(4)) {
            chunk.copy_from_slice(&word[lane].to_be_bytes());
        }
        out[idx as usize] = Digest(bytes);
    }
}

/// Dispatches one `L`-lane compression to the widest engine the host
/// supports: on x86-64 with AVX2 (runtime-detected once, cached by
/// `std::arch`), the AVX2-recompiled copy of the portable kernel —
/// LLVM's cost model declines to vectorize the elementwise loops at
/// the baseline x86-64 feature set, but lowers the *same source* to
/// 256-bit SIMD when AVX2 is statically enabled (measured ~4–6× per
/// block on the `sha_lanes` bench). Everywhere else, the portable
/// build. Both are the same safe Rust function, so digests are
/// bit-identical by construction.
#[inline]
fn compress_wide<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the only requirement of the `#[target_feature]` copy
        // is that the host actually supports AVX2, which the detection
        // above just proved; the function body itself is safe code.
        #[allow(unsafe_code)]
        unsafe {
            return compress_wide_avx2::<L>(state, blocks);
        }
    }
    compress_wide_portable::<L>(state, blocks)
}

/// The portable lane kernel recompiled with AVX2 code generation (see
/// [`compress_wide`]; x86-64 only, called after runtime detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn compress_wide_avx2<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    compress_wide_portable::<L>(state, blocks)
}

/// One FIPS 180-4 compression round over `L` lanes at once.
///
/// Struct-of-arrays: every round variable is a `[u32; L]` and every
/// operation an elementwise loop, so rustc lowers the body to SIMD on
/// targets with 128-bit (`L = 4`) or 256-bit (`L = 8`) vector units.
/// Always called through [`compress_wide`], which picks the widest
/// recompilation of this same function the host supports.
#[inline(always)]
fn compress_wide_portable<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    let mut w = [[0u32; L]; 64];
    for (t, word) in w.iter_mut().take(16).enumerate() {
        for (lane, slot) in word.iter_mut().enumerate() {
            *slot = u32::from_be_bytes(blocks[lane][4 * t..4 * t + 4].try_into().expect("4 bytes"));
        }
    }
    for t in 16..64 {
        let mut wt = [0u32; L];
        for (lane, slot) in wt.iter_mut().enumerate() {
            let w15 = w[t - 15][lane];
            let w2 = w[t - 2][lane];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            *slot = w[t - 16][lane]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7][lane])
                .wrapping_add(s1);
        }
        w[t] = wt;
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (kt, wt) in K.iter().zip(w.iter()) {
        let mut t1 = [0u32; L];
        let mut t2 = [0u32; L];
        for lane in 0..L {
            let s1 = e[lane].rotate_right(6) ^ e[lane].rotate_right(11) ^ e[lane].rotate_right(25);
            let ch = (e[lane] & f[lane]) ^ (!e[lane] & g[lane]);
            t1[lane] = h[lane]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(*kt)
                .wrapping_add(wt[lane]);
            let s0 = a[lane].rotate_right(2) ^ a[lane].rotate_right(13) ^ a[lane].rotate_right(22);
            let maj = (a[lane] & b[lane]) ^ (a[lane] & c[lane]) ^ (b[lane] & c[lane]);
            t2[lane] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        e = d;
        for lane in 0..L {
            e[lane] = e[lane].wrapping_add(t1[lane]);
        }
        d = c;
        c = b;
        b = a;
        a = t1;
        for lane in 0..L {
            a[lane] = a[lane].wrapping_add(t2[lane]);
        }
    }
    let sums = [a, b, c, d, e, f, g, h];
    for (word, sum) in state.iter_mut().zip(sums) {
        for lane in 0..L {
            word[lane] = word[lane].wrapping_add(sum[lane]);
        }
    }
}

/// Digests each input independently, lane-batched, preserving input
/// order. Bit-identical to mapping [`super::sha256`] over `inputs`.
pub fn sha256_many(inputs: &[&[u8]]) -> Vec<Digest> {
    let jobs: Vec<LaneJob<'_>> = inputs
        .iter()
        .map(|msg| LaneJob {
            state: H0,
            prefix_len: 0,
            msg,
        })
        .collect();
    digest_jobs(&jobs)
}

/// The scalar reference engine, compiled for tests only: one job
/// finished on the streaming hasher in [`super`], plus a scoped,
/// thread-local override that sends whole batches there so the
/// cross-engine tests (here and in `hmac`, `otss`, `hashsig`) can run
/// the same high-level operation on both kernels.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Digest, LaneJob};
    use crate::sha256::Sha256;
    use std::cell::Cell;

    thread_local! {
        static FORCE_SCALAR: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn scalar_forced() -> bool {
        FORCE_SCALAR.with(Cell::get)
    }

    /// Finishes one job on the scalar kernel — the differential oracle
    /// the lane kernel must match bit-for-bit.
    pub(super) fn digest_scalar(job: &LaneJob<'_>) -> Digest {
        let mut h = Sha256::from_midstate(job.state, job.prefix_len);
        h.update(job.msg);
        h.finalize()
    }

    /// Runs `f` with every batch digest on this thread computed by the
    /// scalar kernel instead of the lanes.
    pub(crate) fn with_scalar_sha<R>(f: impl FnOnce() -> R) -> R {
        let outer = FORCE_SCALAR.with(|c| c.replace(true));
        let out = f();
        FORCE_SCALAR.with(|c| c.set(outer));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{sha256, Sha256};
    use super::oracle::with_scalar_sha;
    use super::*;

    /// Deterministic filler so tests don't need an RNG.
    fn patterned(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn matches_scalar_across_lengths_and_batch_sizes() {
        // Lengths straddle every padding boundary; batch sizes cover
        // exact 4- and 8-lane fits and every ragged remainder.
        let lengths = [0usize, 1, 31, 32, 55, 56, 63, 64, 65, 119, 120, 128, 200, 1000];
        for batch in 1..=19usize {
            let msgs: Vec<Vec<u8>> = (0..batch)
                .map(|i| patterned(lengths[i % lengths.len()], i as u8))
                .collect();
            let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
            let got = sha256_many(&refs);
            assert_eq!(got, with_scalar_sha(|| sha256_many(&refs)), "batch {batch}");
            for (msg, digest) in msgs.iter().zip(&got) {
                assert_eq!(*digest, sha256(msg), "batch {batch} len {}", msg.len());
            }
        }
    }

    #[test]
    fn midstate_jobs_match_resumed_scalar() {
        let prefix = patterned(128, 7);
        let mut pre = Sha256::new();
        pre.update(&prefix);
        let mid = pre.midstate();
        let suffixes: Vec<Vec<u8>> = (0..5).map(|i| patterned(40 + i, i as u8)).collect();
        let jobs: Vec<LaneJob<'_>> = suffixes
            .iter()
            .map(|s| LaneJob {
                state: mid,
                prefix_len: 128,
                msg: s,
            })
            .collect();
        let got = digest_jobs(&jobs);
        for (suffix, digest) in suffixes.iter().zip(&got) {
            let mut h = Sha256::from_midstate(mid, 128);
            h.update(suffix);
            assert_eq!(*digest, h.finalize());
        }
    }

    #[test]
    fn scalar_override_is_scoped_to_its_closure() {
        assert!(!oracle::scalar_forced());
        with_scalar_sha(|| {
            assert!(oracle::scalar_forced());
            with_scalar_sha(|| ());
            assert!(oracle::scalar_forced(), "nesting restores the outer scope");
        });
        assert!(!oracle::scalar_forced());
    }

    #[test]
    fn mixed_block_counts_group_correctly() {
        // 3 one-block + 9 two-block jobs interleaved: grouping must
        // keep outputs in input order.
        let msgs: Vec<Vec<u8>> = (0..12)
            .map(|i| patterned(if i % 4 == 0 { 16 } else { 90 }, i as u8))
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
        let got = sha256_many(&refs);
        for (msg, digest) in msgs.iter().zip(&got) {
            assert_eq!(*digest, sha256(msg));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(sha256_many(&[]).is_empty());
    }
}
