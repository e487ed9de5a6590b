//! Event-engine micro-benchmark: events/second through the simulator
//! core on the `simstress` timer-storm workload. The storm is
//! deterministic, so every iteration processes exactly the same events.

use criterion::{criterion_group, criterion_main, Criterion};
use turquois_harness::simstress;

/// Simulated storm horizon per iteration.
const STORM_MS: u64 = 50;

fn bench_sim_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_core");
    for n in [4usize, 8, 16] {
        group.bench_function(format!("storm_n{n}"), |b| {
            b.iter(|| std::hint::black_box(simstress::run_storm(n, 42, STORM_MS)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_core);
criterion_main!(benches);
