//! Receive-path micro-benchmarks (host wall-clock): what a frame costs
//! `Turquois::on_message` the first time its facts are seen versus
//! every later time.
//!
//! * **first sight** — a receiver that holds none of the frame's facts:
//!   every signature is hashed, every attachment validated and stored.
//! * **repeat** — the same frame again (every neighbour re-broadcasts
//!   its justified state each tick, so this is the common case): each
//!   signature is a 32-byte compare against the evidence store and
//!   nothing is validated twice.
//!
//! Measured for a bare broadcast (one signature) and for a justified
//! re-broadcast bundle (one more per quorum member) at n = 16, the
//! largest group of the paper's grid, and n = 64, the scale grid's
//! middle size.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use turquois_core::config::Config;
use turquois_core::instance::Turquois;
use turquois_core::KeyRing;

const PHASES: usize = 60;

/// A bare phase-1 broadcast and a justified phase-2 re-broadcast from
/// process 0 of an `n`-process group, plus what builds a receiver that
/// has seen neither.
fn make_messages(n: usize) -> (impl Fn() -> Turquois, bytes::Bytes, bytes::Bytes) {
    let cfg = Config::evaluation(n).expect("valid n");
    let rings = KeyRing::trusted_setup(n, PHASES, 0xbe9c);
    let receiver_ring = rings[1].clone();
    let mut procs: Vec<Turquois> = rings
        .into_iter()
        .enumerate()
        .map(|(i, r)| Turquois::new(cfg, i, true, r, 7 + i as u64))
        .collect();
    // First ticks are bare; delivering the group's phase-1 broadcasts
    // advances process 0 to phase 2, whose *second* tick re-broadcasts
    // with an explicit justification bundle.
    let msgs: Vec<bytes::Bytes> = procs
        .iter_mut()
        .map(|p| p.on_tick().expect("keys cover phase").bytes)
        .collect();
    let bare = msgs[0].clone();
    let p0 = &mut procs[0];
    for m in &msgs {
        p0.on_message(m);
    }
    let _ = p0.on_tick().expect("keys cover phase");
    let justified = p0.on_tick().expect("keys cover phase").bytes;
    let fresh = move || Turquois::new(cfg, 1, true, receiver_ring.clone(), 99);
    (fresh, bare, justified)
}

fn bench_receive_path(c: &mut Criterion) {
    for n in [16usize, 64] {
        let (fresh, bare, justified) = make_messages(n);
        let mut group = c.benchmark_group(format!("receive_path_n{n}"));
        for (name, bytes) in [("bare", &bare), ("justified", &justified)] {
            group.bench_function(format!("{name}_first_sight"), |b| {
                b.iter_batched(
                    &fresh,
                    |mut receiver| receiver.on_message(std::hint::black_box(bytes)),
                    BatchSize::SmallInput,
                )
            });
            let mut receiver = fresh();
            receiver.on_message(bytes);
            group.bench_function(format!("{name}_repeat"), |b| {
                b.iter(|| receiver.on_message(std::hint::black_box(bytes)))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_receive_path);
criterion_main!(benches);
