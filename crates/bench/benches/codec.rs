//! Codec micro-benchmarks (host wall-clock): the borrowed-view decode
//! and arena encode the engines use against the owned
//! [`Message::decode`] / [`Message::encode`] pair kept for tests,
//! adversaries and the explorer (DESIGN.md §13).
//!
//! * **decode_owned** — [`Message::decode`], materializing the
//!   justification entries into a fresh `Vec` per message.
//! * **decode_view** — [`MessageView::parse`], leaving the entries as
//!   offset ranges into the received buffer and re-reading every
//!   signature slice, the steady-state receive path.
//! * **encode_cold** — [`Message::encode`], one `BytesMut` builder and
//!   one `freeze` allocation per message.
//! * **encode_arena_warm** — [`Message::encode_into`] staged into a
//!   recycled [`EncodeArena`] chunk, the steady-state send path (one
//!   `Arc` per seal, no buffer allocation).
//!
//! Measured on a justified rebroadcast bundle at n = 16, the largest
//! group of the paper's grid — the allocation-dominated case.

use bytes::arena::EncodeArena;
use criterion::{criterion_group, criterion_main, Criterion};
use turquois_core::config::Config;
use turquois_core::instance::Turquois;
use turquois_core::message::{Message, MessageView};
use turquois_core::KeyRing;

const PHASES: usize = 60;
const N: usize = 16;

/// Builds a justified phase-2 rebroadcast from process 0 of an
/// `N`-process group (same fixture as the receive-path bench).
fn justified_message() -> (Config, bytes::Bytes) {
    let cfg = Config::evaluation(N).expect("valid n");
    let rings = KeyRing::trusted_setup(N, PHASES, 0xbe9c);
    let mut procs: Vec<Turquois> = rings
        .into_iter()
        .enumerate()
        .map(|(i, r)| Turquois::new(cfg, i, true, r, 7 + i as u64))
        .collect();
    let msgs: Vec<bytes::Bytes> = procs
        .iter_mut()
        .map(|p| p.on_tick().expect("keys cover phase").bytes)
        .collect();
    let p0 = &mut procs[0];
    for m in &msgs {
        p0.on_message(m);
    }
    let _ = p0.on_tick().expect("keys cover phase");
    let justified = p0.on_tick().expect("keys cover phase").bytes;
    (cfg, justified)
}

fn bench_codec(c: &mut Criterion) {
    let (cfg, justified) = justified_message();
    let msg = Message::decode(&justified, &cfg).expect("fixture decodes");
    assert!(
        msg.justification.len() >= N / 2,
        "fixture should carry a quorum-sized justification"
    );

    let mut group = c.benchmark_group(format!("codec_n{N}"));
    group.bench_function("decode_owned", |b| {
        b.iter(|| Message::decode(std::hint::black_box(&justified), &cfg).expect("decodes"))
    });
    group.bench_function("decode_view", |b| {
        b.iter(|| {
            let view =
                MessageView::parse(std::hint::black_box(&justified), &cfg).expect("parses");
            // Touch every entry so the comparison includes the
            // on-demand re-reads the receive path performs.
            for i in 0..view.justification_len() {
                std::hint::black_box(view.entry(i));
            }
        })
    });

    group.bench_function("encode_cold", |b| {
        b.iter(|| std::hint::black_box(&msg).encode())
    });
    let mut arena = EncodeArena::new();
    // Prime the free list so the measured steady state reuses buffers.
    drop(arena.encode_with(|buf| msg.encode_into(buf)));
    group.bench_function("encode_arena_warm", |b| {
        b.iter(|| arena.encode_with(|buf| std::hint::black_box(&msg).encode_into(buf)))
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
