//! The SHA-256 specification and the engine override, compiled for
//! tests only.
//!
//! [`digest`] is textbook FIPS 180-4 — padding by `Vec` pushes, the
//! scalar compression verbatim — and shares no code with any production
//! engine, so it is the reference every engine is held to (the
//! streaming hasher cannot be: it runs the kernel under test).
//! [`with_engine`] runs a closure with every SHA-256 on this thread —
//! streaming, HMAC, batch — computed by one engine; the override is
//! thread-local and restored on exit, so tests need no lock.

use super::{Digest, Engine, K};
use std::cell::Cell;

thread_local! {
    static FORCED: Cell<Option<Engine>> = const { Cell::new(None) };
}

/// The engine this thread is forced onto, if any.
pub(super) fn forced() -> Option<Engine> {
    FORCED.with(Cell::get)
}

/// Every engine, production ones first.
pub(crate) const ENGINES: [Engine; 4] = [
    Engine::ShaNi,
    Engine::Avx2Lanes,
    Engine::PortableLanes,
    Engine::PortableScalar,
];

/// Runs `f` with every SHA-256 on this thread computed by `engine`, or
/// returns `None` without running it when the host lacks the engine.
pub(crate) fn with_engine<R>(engine: Engine, f: impl FnOnce() -> R) -> Option<R> {
    if !engine.available() {
        return None;
    }
    let outer = FORCED.with(|c| c.replace(Some(engine)));
    let out = f();
    FORCED.with(|c| c.set(outer));
    Some(out)
}

/// Runs `f` once on every engine the host has, returning each engine's
/// result. The two portable engines run on every host.
pub(crate) fn on_every_engine<R>(mut f: impl FnMut() -> R) -> Vec<(Engine, R)> {
    let ran: Vec<(Engine, R)> = ENGINES
        .into_iter()
        .filter_map(|engine| with_engine(engine, &mut f).map(|r| (engine, r)))
        .collect();
    for portable in [Engine::PortableLanes, Engine::PortableScalar] {
        assert!(ran.iter().any(|(e, _)| *e == portable), "{portable:?} did not run");
    }
    ran
}

/// The specification's digest of a job: `msg` absorbed after the
/// `prefix_len` bytes (a multiple of 64) that left the compression
/// state at `state`, then padded and finished.
pub(crate) fn digest(state: [u32; 8], prefix_len: u64, msg: &[u8]) -> Digest {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&((prefix_len + msg.len() as u64) * 8).to_be_bytes());
    let mut state = state;
    compress_blocks(&mut state, &padded);
    Digest::from_state(&state)
}

/// The specification's compression of whole 64-byte blocks (also the
/// `PortableScalar` engine's).
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("64-byte block"));
    }
}

/// One FIPS 180-4 compression of one block.
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
    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The engine differential: every engine the host has against the
/// specification.
mod tests {
    use super::super::multilane::{digest_jobs, sha256_many, LaneJob};
    use super::super::{active, engine, sha256, Sha256, H0};
    use super::*;

    /// Deterministic filler so tests don't need an RNG.
    fn patterned(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    fn spec(msg: &[u8]) -> Digest {
        digest(H0, 0, msg)
    }

    /// FIPS 180-4 / NIST CAVP vectors, one-shot, streamed byte by byte
    /// and batched, on every engine — and on the specification itself.
    #[test]
    fn every_engine_passes_the_fips_vectors() {
        let cases: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        let inputs: Vec<&[u8]> = cases.iter().map(|(input, _)| *input).collect();
        for (input, hex) in &cases {
            assert_eq!(spec(input).to_hex(), *hex, "specification, input {input:?}");
        }
        for (engine, (oneshot, bytewise, batch)) in on_every_engine(|| {
            let oneshot: Vec<Digest> = inputs.iter().map(|input| sha256(input)).collect();
            let bytewise: Vec<Digest> = inputs
                .iter()
                .map(|input| {
                    let mut h = Sha256::new();
                    input.iter().for_each(|b| h.update(std::slice::from_ref(b)));
                    h.finalize()
                })
                .collect();
            (oneshot, bytewise, sha256_many(&inputs))
        }) {
            for (i, (_, hex)) in cases.iter().enumerate() {
                assert_eq!(oneshot[i].to_hex(), *hex, "{engine:?} one-shot, case {i}");
                assert_eq!(bytewise[i].to_hex(), *hex, "{engine:?} byte by byte, case {i}");
                assert_eq!(batch[i].to_hex(), *hex, "{engine:?} batch, case {i}");
            }
        }
    }

    /// Every length 0..=300 — one-shot, split in two and as one batch
    /// (which the lane engines group by block count) — equals the
    /// specification on every engine.
    #[test]
    fn every_engine_matches_the_specification_at_every_length() {
        let data = patterned(300, 5);
        let inputs: Vec<&[u8]> = (0..=300).map(|len| &data[..len]).collect();
        let expected: Vec<Digest> = inputs.iter().map(|input| spec(input)).collect();
        for (engine, (oneshot, split, batch)) in on_every_engine(|| {
            let oneshot: Vec<Digest> = inputs.iter().map(|input| sha256(input)).collect();
            let split: Vec<Digest> = inputs
                .iter()
                .map(|input| {
                    let mut h = Sha256::new();
                    let (head, tail) = input.split_at(input.len() / 3);
                    h.update(head);
                    h.update(tail);
                    h.finalize()
                })
                .collect();
            (oneshot, split, sha256_many(&inputs))
        }) {
            for len in 0..=300 {
                assert_eq!(oneshot[len], expected[len], "{engine:?} one-shot, len {len}");
                assert_eq!(split[len], expected[len], "{engine:?} split, len {len}");
                assert_eq!(batch[len], expected[len], "{engine:?} batch, len {len}");
            }
        }
    }

    /// Jobs resumed from a midstate, in batches of every size 1..=19
    /// with mixed block counts (ragged steps of four and eight lanes
    /// with dummy lanes), and a fresh job beside them.
    #[test]
    fn every_engine_matches_the_specification_on_ragged_midstate_batches() {
        let mut mid = H0;
        compress_blocks(&mut mid, &patterned(128, 7));
        let lengths = [0usize, 1, 31, 55, 56, 63, 64, 65, 119, 120, 128, 200, 1000];
        let msgs: Vec<Vec<u8>> = (0..19)
            .map(|i| patterned(lengths[i % lengths.len()], i as u8))
            .collect();
        let job = |i: usize| match i % 3 {
            0 => LaneJob {
                state: H0,
                prefix_len: 0,
                msg: &msgs[i],
            },
            _ => LaneJob {
                state: mid,
                prefix_len: 128,
                msg: &msgs[i],
            },
        };
        for batch in 1..=19 {
            let jobs: Vec<LaneJob<'_>> = (0..batch).map(job).collect();
            let expected: Vec<Digest> = jobs
                .iter()
                .map(|j| digest(j.state, j.prefix_len, j.msg))
                .collect();
            for (engine, got) in on_every_engine(|| {
                let mut out = vec![Digest::ZERO; jobs.len()];
                digest_jobs(&jobs, &mut out);
                out
            }) {
                assert_eq!(got, expected, "{engine:?}, batch {batch}");
            }
        }
    }

    #[test]
    fn engine_override_is_scoped_to_its_closure() {
        assert_eq!(forced(), None);
        with_engine(Engine::PortableScalar, || {
            assert_eq!(active(), Engine::PortableScalar);
            with_engine(Engine::PortableLanes, || assert_eq!(active(), Engine::PortableLanes));
            assert_eq!(active(), Engine::PortableScalar, "nesting restores the outer scope");
        });
        assert_eq!(forced(), None);
    }

    /// Production runs the first production engine the host supports,
    /// and `engine()` names it.
    #[test]
    fn detection_picks_the_fastest_engine_the_host_has() {
        let first = ENGINES[..3]
            .iter()
            .copied()
            .find(|e| e.available())
            .expect("portable lanes run everywhere");
        assert_eq!(active(), first);
        assert_eq!(engine(), first.name());
    }
}
