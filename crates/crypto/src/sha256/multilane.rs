//! Batch SHA-256 and the lane kernel (DESIGN.md §12).
//!
//! The hot paths mostly hash *independent* short messages: the 256
//! revealed Lamport secrets of a hash-chain signature, the per-slot
//! one-time-key derivations of an epoch, the per-destination link-HMAC
//! finishes of a broadcast. `digest_jobs` finishes such a batch on the
//! active engine ([`super::engine`]):
//!
//! * with the SHA extensions, one job at a time through the SHA-NI
//!   kernel;
//! * without them, up to eight jobs in lockstep through the lane kernel
//!   here — a struct-of-arrays compressor whose every round variable is
//!   a `[u32; LANES]` and every operation an elementwise loop, the shape
//!   rustc vectorizes when it compiles the kernel for AVX2. At one lane
//!   it is also the streaming hasher's compression on such hosts.
//!
//! Determinism contract: every engine computes bit-identical digests
//! (same FIPS 180-4 rounds, same padding); the test-only `oracle` holds
//! each to the textbook specification. Batching is host-only
//! restructuring: simulated CPU is charged per logical operation by
//! [`crate::cost::CostModel`] regardless.

use super::{active, Digest, Engine, H0, K};

/// One pending digest in a batch: a compression state plus the message
/// suffix still to absorb. `state`/`prefix_len` are [`H0`]/0 for a
/// fresh digest, or a cached HMAC pad midstate (`prefix_len` 64) for a
/// resumed finish.
#[derive(Clone, Copy)]
pub(crate) struct LaneJob<'a> {
    /// Compression state after absorbing exactly `prefix_len` bytes.
    pub state: [u32; 8],
    /// Bytes already absorbed into `state`; must be a multiple of 64.
    pub(crate) prefix_len: u64,
    /// Remaining message bytes (absorbed, then padded, then finished).
    pub msg: &'a [u8],
}

/// Padded blocks a job's suffix compresses into (its prefix is already
/// block-aligned, so only the suffix length matters).
#[inline]
fn padded_blocks(suffix_len: usize) -> usize {
    (suffix_len + 9).div_ceil(64)
}

/// Digests a batch of independent jobs into `out`, one slot per job in
/// job order, on the active engine.
pub(crate) fn digest_jobs(jobs: &[LaneJob<'_>], out: &mut [Digest]) {
    assert_eq!(jobs.len(), out.len(), "one output slot per job");
    match active() {
        engine @ (Engine::Avx2Lanes | Engine::PortableLanes) => digest_lanes(engine, jobs, out),
        // SHA-NI (and the test-only scalar specification).
        _ => {
            for (job, slot) in jobs.iter().zip(out) {
                *slot = super::digest_resumed(job.state, job.prefix_len, job.msg);
            }
        }
    }
}

/// The lane engines' batch: jobs grouped by padded block count so
/// grouped lanes stay in lockstep, each group drained eight lanes at a
/// time, a ragged last step padded with dummy lanes. On the portable
/// lanes a last step of 1–4 jobs takes four lanes: unvectorized there,
/// every dummy lane costs a full compression.
fn digest_lanes(engine: Engine, jobs: &[LaneJob<'_>], out: &mut [Digest]) {
    let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
    order.sort_by_key(|&i| padded_blocks(jobs[i as usize].msg.len()));
    for group in order.chunk_by(|&a, &b| {
        padded_blocks(jobs[a as usize].msg.len()) == padded_blocks(jobs[b as usize].msg.len())
    }) {
        let nblocks = padded_blocks(jobs[group[0] as usize].msg.len());
        for step in group.chunks(8) {
            if engine == Engine::PortableLanes && step.len() <= 4 {
                run_lanes::<4>(engine, jobs, step, nblocks, out);
            } else {
                run_lanes::<8>(engine, jobs, step, nblocks, out);
            }
        }
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

/// Writes into the zeroed `tail` a job's final one or two blocks: its
/// leftover message bytes, padded by [`super::pad_tail`] as every other
/// digest is.
fn padded_tail(job: &LaneJob<'_>, tail: &mut [u8; 128]) {
    let whole = job.msg.len() - job.msg.len() % 64;
    super::pad_tail(&job.msg[whole..], job.prefix_len + job.msg.len() as u64, tail);
}

/// Runs up to `L` same-length jobs through the `L`-lane kernel.
/// Unused lanes replay the last real lane's blocks (their results are
/// discarded).
fn run_lanes<const L: usize>(engine: Engine, jobs: &[LaneJob<'_>], idxs: &[u32], nblocks: usize, out: &mut [Digest]) {
    debug_assert!(!idxs.is_empty() && idxs.len() <= L);
    let real = idxs.len();
    let lane_job = |lane: usize| &jobs[idxs[lane.min(real - 1)] as usize];
    let mut tails = [[0u8; 128]; L];
    let mut states = [[0u32; L]; 8];
    for lane in 0..L {
        let job = lane_job(lane);
        padded_tail(job, &mut tails[lane]);
        for (word, s) in states.iter_mut().zip(job.state) {
            word[lane] = s;
        }
    }
    for blk in 0..nblocks {
        let mut blocks: [&[u8; 64]; L] = [&ZERO_BLOCK; L];
        for (lane, slot) in blocks.iter_mut().enumerate() {
            *slot = block_at(lane_job(lane).msg, &tails[lane], blk);
        }
        compress_wide::<L>(engine, &mut states, &blocks);
    }
    for (lane, &idx) in idxs.iter().enumerate() {
        out[idx as usize] = Digest::from_state(&states.map(|word| word[lane]));
    }
}

/// The streaming hasher's compression on the lane engines: whole
/// 64-byte blocks through the portable kernel at one lane (the AVX2
/// build of the kernel is slower than the baseline one at one lane).
pub(super) fn compress_stream(state: &mut [u32; 8], blocks: &[u8]) {
    let mut lane = state.map(|word| [word]);
    for block in blocks.chunks_exact(64) {
        compress_wide_portable::<1>(&mut lane, &[block.try_into().expect("64-byte block")]);
    }
    *state = lane.map(|[word]| word);
}

/// Dispatches one `L`-lane compression: on the AVX2 engine (x86-64,
/// runtime-detected), the AVX2-recompiled copy of the portable kernel —
/// LLVM's cost model declines to vectorize the elementwise loops at the
/// baseline x86-64 feature set, but lowers the *same source* to 256-bit
/// SIMD when AVX2 is statically enabled. Otherwise, the portable build.
/// Both are the same safe Rust function, so digests are bit-identical
/// by construction.
#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn compress_wide<const L: usize>(engine: Engine, state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    #[cfg(target_arch = "x86_64")]
    if engine == Engine::Avx2Lanes && std::arch::is_x86_feature_detected!("avx2") {
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
fn compress_wide_avx2<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8; 64]; L]) {
    compress_wide_portable::<L>(state, blocks)
}

/// One FIPS 180-4 compression round over `L` lanes at once.
///
/// Struct-of-arrays: every round variable is a `[u32; L]` and every
/// operation an elementwise loop, so rustc lowers the body to 256-bit
/// SIMD at `L = 8` on AVX2. Always called through [`compress_wide`],
/// which picks the recompilation of this same function the engine runs.
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

/// Digests each input independently as one batch, preserving input
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
    let mut out = vec![Digest::ZERO; jobs.len()];
    digest_jobs(&jobs, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_fine() {
        for (engine, got) in crate::sha256::oracle::on_every_engine(|| sha256_many(&[])) {
            assert!(got.is_empty(), "{engine:?}");
        }
    }
}
