//! Scale grid: Turquois far past the paper's n ≤ 16.
//!
//! The paper stops at n = 16 (Table 1); this experiment pushes the same
//! protocol — divergent proposals, baseline 2 % i.i.d. loss — to
//! n ∈ {16, 64, 256} under every fault load, and reports the telemetry
//! that matters at scale: end-to-end simulated latency, final simulated
//! time, the per-node message-store high-water mark
//! ([`turquois_harness::RunOutcome::peak_store_bytes`]), and broadcast-channel queue
//! drops. Every run still asserts agreement + validity.
//!
//! Two scenario knobs scale with the group (the protocol itself is
//! untouched): the clock tick ([`scale_tick`], keeping per-tick offered
//! load constant) and the MAC contention window ([`scale_phy`], keeping
//! collision rates sane with 16× the contenders). At n = 16 both equal
//! the paper's values exactly.
//!
//! Runs are supervised by the grid driver
//! ([`turquois_harness::grid`]): a stalled `(cell, rep)` job is retried
//! once at a [`RETRY_BUDGET_SCALE`]× simulated-time budget, panics are
//! isolated to their cell, and a cell that still fails renders
//! `FAILED(<reason>)` while its siblings keep their healthy bytes; the
//! process then exits nonzero.
//!
//! Stdout is **deterministic** — byte-identical across thread counts
//! and host speed — so `results/table_scale.txt` can be diffed. Host
//! wall-clock telemetry (per-cell wall seconds, runner utilisation)
//! goes to stderr and, on request, to `$TURQUOIS_BENCH_JSON` — never to
//! stdout.
//!
//! Usage: `table_scale [reps]` (default 3; `TURQUOIS_SIZES`,
//! `TURQUOIS_THREADS`, `TURQUOIS_TIME_LIMIT` respected — sizes default
//! to 16,64,256 here, not the paper's list).

use std::time::Duration;
use turquois_harness::grid::{Plan, Stall, RETRY_BUDGET_SCALE};
use turquois_harness::{FaultLoad, Protocol, ProposalDistribution, RunOutcome, Scenario};

/// Group sizes when `TURQUOIS_SIZES` is unset: the paper's largest
/// size, then 4× and 16× past it.
const SCALE_SIZES: [usize; 3] = [16, 64, 256];

/// Fault-load rows, in render order.
const LOADS: [FaultLoad; 3] = [
    FaultLoad::FailureFree,
    FaultLoad::FailStop,
    FaultLoad::Byzantine,
];

/// Clock tick scaled to the group size: the paper's 10 ms tick at
/// n = 16 gives each node ~0.6 ms of 2 Mb/s airtime per tick; keeping
/// that ratio constant (40 ms at n = 64, 160 ms at n = 256) is what
/// lets every tick's traffic fit the channel. At n = 256 the paper's
/// fixed 10 ms tick congestion-collapses — every TX queue pins at its
/// cap and no node ever leaves phase 2 — so the per-tick offered load,
/// not the protocol, is what must scale.
fn scale_tick(n: usize) -> Duration {
    Duration::from_millis((10 * n.max(16) as u64).div_ceil(16))
}

/// MAC contention window scaled to the group size: `cw_min = 2n − 1`
/// (31 at n = 16 — exactly the paper's 802.11b PHY — 127 at n = 64,
/// 511 at n = 256). Broadcast frames get no retransmission, so a
/// collision is an outright loss, and with 256 saturated contenders in
/// a 32-slot window nearly every contention resolution ties at the
/// minimum backoff: at n = 256 under the paper's `cw_min = 31` the
/// delivered rate collapses to ~7 frames/s and no node ever leaves
/// phase 1. Sizing the window to the population — which is how real
/// 802.11 EDCA deployments are tuned — restores a ~75 %+ success rate
/// per resolution. `cw_max` only matters for unicast retries and keeps
/// its default unless `cw_min` outgrows it.
fn scale_phy(n: usize) -> wireless_net::PhyConfig {
    let base = wireless_net::PhyConfig::default();
    let cw_min = base.cw_min.max(2 * n as u32 - 1);
    wireless_net::PhyConfig {
        cw_min,
        cw_max: base.cw_max.max(cw_min),
        ..base
    }
}

/// Simulated-time budget per group size: the default 120 s covers
/// n ≤ 64 with room to spare, but an n = 256 divergent run decides
/// around simulated t ≈ 300 s (ten phases at ~30 s each — the price of
/// the scaled tick), so cells past n = 64 get a 600 s budget. An
/// explicit `TURQUOIS_TIME_LIMIT` overrides both uniformly.
fn scale_limit(n: usize) -> Duration {
    if n <= 64 {
        Scenario::DEFAULT_TIME_LIMIT
    } else {
        Duration::from_secs(600)
    }
}

fn scenario(load: FaultLoad, n: usize, rep: usize) -> Scenario {
    Scenario::new(Protocol::Turquois, n)
        .proposals(ProposalDistribution::Divergent)
        .fault_load(load)
        .phy(scale_phy(n))
        .tick_interval(scale_tick(n))
        .time_limit(scale_limit(n))
        .seed(0x5CA1E_u64
            .wrapping_mul(rep as u64 + 1)
            .wrapping_add(n as u64))
}

/// What one repetition contributes to a grid cell.
struct ScaleSample {
    decided: bool,
    mean_ms: Option<f64>,
    worst_ms: Option<f64>,
    /// Simulated time when the run stopped (seconds).
    end_s: f64,
    /// Largest per-node store high-water mark (bytes).
    peak_store: usize,
    queue_drops: u64,
}

fn sample(outcome: &RunOutcome) -> ScaleSample {
    ScaleSample {
        decided: outcome.k_reached(),
        mean_ms: outcome.mean_latency_ms(),
        worst_ms: outcome.latencies_ms().into_iter().reduce(f64::max),
        end_s: outcome.end.as_secs_f64(),
        peak_store: outcome.peak_store_bytes,
        queue_drops: outcome.stats.queue_drops,
    }
}

fn main() {
    let plan = Plan::from_env("table_scale", 3, &SCALE_SIZES, Stall::Retry);
    let reps = plan.reps;
    let budget_text = match plan.time_limit {
        Some(limit) => format!("{}s budget", limit.as_secs_f64()),
        None => format!(
            "{}s budget, 600s past n = 64",
            Scenario::DEFAULT_TIME_LIMIT.as_secs_f64()
        ),
    };

    println!(
        "Scale grid — Turquois, divergent proposals, baseline loss \
         ({reps} reps, supervised: {budget_text}, stalls retried once at ×{})\n",
        RETRY_BUDGET_SCALE,
    );
    println!(
        "{:>13} {:>4} | {:>8} | {:>9} {:>9} | {:>7} | {:>11} | {:>8} {:>7}",
        "fault load", "n", "decided", "mean ms", "worst ms", "end s", "peak-store", "q-drops", "retried"
    );
    println!("{}", "-".repeat(94));

    let cells: Vec<(FaultLoad, usize)> = LOADS
        .iter()
        .flat_map(|&load| plan.sizes.iter().map(move |&n| (load, n)))
        .collect();
    let run = plan.run(
        &cells,
        |&(load, n)| format!("{} n={n}", load.name()),
        |&(load, n), rep, budget| budget.apply(scenario(load, n, rep)).run_once(),
        |_, outcome| Ok(sample(outcome)),
    );

    for (&(load, n), cell) in cells.iter().zip(&run.cells) {
        let samples = match &cell.samples {
            Ok(samples) => samples,
            Err(failure) => {
                println!(
                    "{:>13} {:>4} | {:>8} | {:>9} {:>9} | {:>7} | {:>11} | {:>8} {:>7}",
                    load.name(),
                    n,
                    failure,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-"
                );
                continue;
            }
        };
        let decided = samples.iter().filter(|s| s.decided).count();
        let means: Vec<f64> = samples.iter().filter_map(|s| s.mean_ms).collect();
        let mean = means.iter().sum::<f64>() / means.len().max(1) as f64;
        let worst = samples
            .iter()
            .filter_map(|s| s.worst_ms)
            .fold(0.0f64, f64::max);
        let end = samples.iter().map(|s| s.end_s).fold(0.0f64, f64::max);
        let peak = samples.iter().map(|s| s.peak_store).max().unwrap_or(0);
        let q_drops: u64 = samples.iter().map(|s| s.queue_drops).sum();
        println!(
            "{:>13} {:>4} | {:>5}/{:<2} | {:>9.1} {:>9.1} | {:>7.3} | {:>10}B | {:>8} {:>7}",
            load.name(),
            n,
            decided,
            reps,
            mean,
            worst,
            end,
            peak,
            q_drops,
            cell.retried
        );
    }
    println!();
    println!(
        "peak-store = worst per-node message-store high-water mark; \
         end s = latest simulated stop time."
    );
    println!("Safety (agreement + validity) was asserted on every run.");
    run.finish();
}
