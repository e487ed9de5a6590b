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
//! Runs are supervised ([`runner::run_supervised_timed`]): a stalled
//! `(cell, rep)` job is retried once at a
//! [`runner::RETRY_BUDGET_SCALE`]× simulated-time budget, panics are
//! isolated to their cell, and a cell that still fails renders
//! `FAILED(<reason>)` while its siblings keep their healthy bytes; the
//! process then exits nonzero.
//!
//! Stdout is **deterministic** — byte-identical across thread counts
//! and host speed — so `results/table_scale.txt` can be
//! diffed. Host wall-clock telemetry (per-cell wall seconds, runner
//! utilisation) goes to stderr and to `results/BENCH_scale.json`
//! (`$TURQUOIS_BENCH_JSON` overrides the path), never to stdout.
//!
//! Usage: `table_scale [reps]` (default 3; `TURQUOIS_REPS`,
//! `TURQUOIS_SIZES`, `TURQUOIS_THREADS`, `TURQUOIS_TIME_LIMIT`
//! respected — sizes default to 16,64,256 here, not the paper's list).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use turquois_harness::experiment::{reps_from_env, sizes_from_env_or, time_limit_from_env};
use turquois_harness::runner::{self, Attempt, JobOutcome};
use turquois_harness::{FaultLoad, Protocol, ProposalDistribution, Scenario};
use wireless_net::supervise::StallReport;

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
fn scale_limit(n: usize, base: Duration, env_override: bool) -> Duration {
    if env_override || n <= 64 {
        base
    } else {
        Duration::from_secs(600)
    }
}

/// What one repetition contributes to a grid cell.
#[derive(Clone)]
struct ScaleSample {
    decided: bool,
    mean_ms: Option<f64>,
    worst_ms: Option<f64>,
    /// Simulated time when the run stopped (seconds).
    end_s: f64,
    /// Largest per-node store high-water mark (bytes).
    peak_store: usize,
    queue_drops: u64,
    retried: bool,
    /// Host wall-clock seconds for this repetition. Reported only on
    /// stderr / in the bench JSON — stdout stays deterministic.
    wall_s: f64,
}

/// Runs one supervised `(fault load, n, rep)` job. Outer `Err` = stall
/// (retryable with a bigger budget); inner `Err` = completed with a
/// fatal finding (safety/config — never retried, never downgraded).
fn run_cell_rep(
    load: FaultLoad,
    n: usize,
    rep: usize,
    base_limit: Duration,
    attempt: Attempt,
) -> Result<Result<ScaleSample, String>, Box<StallReport>> {
    let started = Instant::now();
    let outcome = match Scenario::new(Protocol::Turquois, n)
        .proposals(ProposalDistribution::Divergent)
        .fault_load(load)
        .phy(scale_phy(n))
        .tick_interval(scale_tick(n))
        .time_limit(base_limit * attempt.budget_scale)
        .seed(0x5CA1E_u64
            .wrapping_mul(rep as u64 + 1)
            .wrapping_add(n as u64))
        .run_once()
    {
        Ok(o) => o,
        Err(e) => return Ok(Err(format!("config: {e}"))),
    };
    if !outcome.agreement_holds() || !outcome.validity_holds() {
        return Ok(Err(format!(
            "SAFETY VIOLATION: {} n={n} rep={rep}",
            load.name()
        )));
    }
    if !outcome.k_reached() {
        if let Some(stall) = outcome.stall {
            return Err(Box::new(stall));
        }
    }
    let latencies = outcome.latencies_ms();
    Ok(Ok(ScaleSample {
        decided: outcome.k_reached(),
        mean_ms: outcome.mean_latency_ms(),
        worst_ms: latencies.iter().copied().fold(None, |acc: Option<f64>, l| {
            Some(acc.map_or(l, |a| a.max(l)))
        }),
        end_s: outcome.end.as_secs_f64(),
        peak_store: outcome.peak_store_bytes,
        queue_drops: outcome.stats.queue_drops,
        retried: attempt.index > 0,
        wall_s: started.elapsed().as_secs_f64(),
    }))
}

/// One rendered (aggregated) cell, kept for the bench JSON.
struct CellRow {
    load: &'static str,
    n: usize,
    reps: usize,
    decided: usize,
    mean_ms: f64,
    worst_end_s: f64,
    peak_store: usize,
    wall_s: f64,
    failed: Option<&'static str>,
}

fn main() {
    turquois_harness::env_guard::warn_unknown_env_vars();
    let reps = reps_from_env(3);
    let sizes = sizes_from_env_or(&SCALE_SIZES);
    let threads = runner::threads_from_env();
    let env_override = std::env::var_os("TURQUOIS_TIME_LIMIT").is_some();
    let base_limit = time_limit_from_env(turquois_harness::experiment::DEFAULT_TIME_LIMIT);
    let budget_text = if env_override {
        format!("{}s budget", base_limit.as_secs_f64())
    } else {
        format!(
            "{}s budget, 600s past n = 64",
            base_limit.as_secs_f64()
        )
    };

    println!(
        "Scale grid — Turquois, divergent proposals, baseline loss \
         ({reps} reps, supervised: {budget_text}, stalls retried once at ×{})\n",
        runner::RETRY_BUDGET_SCALE,
    );
    println!(
        "{:>13} {:>4} | {:>8} | {:>9} {:>9} | {:>7} | {:>11} | {:>8} {:>7}",
        "fault load", "n", "decided", "mean ms", "worst ms", "end s", "peak-store", "q-drops", "retried"
    );
    println!("{}", "-".repeat(94));

    // Cell grid in render order; every (cell, rep) fans out as one job.
    let grid: Vec<(usize, usize)> = LOADS
        .iter()
        .enumerate()
        .flat_map(|(l, _)| sizes.iter().map(move |&n| (l, n)))
        .collect();
    let jobs: Vec<(usize, usize)> = (0..grid.len())
        .flat_map(|cell| (0..reps).map(move |rep| (cell, rep)))
        .collect();
    let (outcomes, report) =
        runner::run_supervised_timed(threads, &jobs, |_, &(cell, rep), attempt| {
            let (load_idx, n) = grid[cell];
            let limit = scale_limit(n, base_limit, env_override);
            run_cell_rep(LOADS[load_idx], n, rep, limit, attempt)
        });

    // Aggregate per cell; the first failing repetition decides a
    // failed cell's label, siblings keep their healthy bytes.
    let mut outcomes = outcomes.into_iter();
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut rows: Vec<CellRow> = Vec::new();
    for &(load_idx, n) in &grid {
        let load = LOADS[load_idx];
        let chunk: Vec<_> = outcomes.by_ref().take(reps).collect();
        let mut samples: Vec<ScaleSample> = Vec::with_capacity(reps);
        let mut failed: Option<(&'static str, String)> = None;
        for outcome in chunk {
            if failed.is_some() {
                continue; // drain the chunk; verdict already fixed
            }
            match outcome {
                JobOutcome::Ok(Ok(s)) => samples.push(s),
                JobOutcome::Ok(Err(detail)) => {
                    let reason = if detail.starts_with("SAFETY") {
                        "safety"
                    } else {
                        "config"
                    };
                    failed = Some((reason, detail));
                }
                JobOutcome::Stalled(report) => failed = Some(("stalled", report.to_string())),
                JobOutcome::Panicked(msg) => failed = Some(("panic", msg)),
            }
        }
        if let Some((reason, detail)) = failed {
            println!(
                "{:>13} {:>4} | {:>8} | {:>9} {:>9} | {:>7} | {:>11} | {:>8} {:>7}",
                load.name(),
                n,
                format!("FAILED({reason})"),
                "-",
                "-",
                "-",
                "-",
                "-",
                "-"
            );
            failures.push((format!("{} n={n} FAILED({reason})", load.name()), detail));
            rows.push(CellRow {
                load: load.name(),
                n,
                reps,
                decided: 0,
                mean_ms: 0.0,
                worst_end_s: 0.0,
                peak_store: 0,
                wall_s: 0.0,
                failed: Some(reason),
            });
            continue;
        }
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
        let retried = samples.iter().filter(|s| s.retried).count();
        let wall: f64 = samples.iter().map(|s| s.wall_s).sum();
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
            retried
        );
        eprintln!(
            "[scale] {} n={n}: wall {:.2}s over {} reps",
            load.name(),
            wall,
            samples.len()
        );
        rows.push(CellRow {
            load: load.name(),
            n,
            reps,
            decided,
            mean_ms: mean,
            worst_end_s: end,
            peak_store: peak,
            wall_s: wall,
            failed: None,
        });
    }
    println!();
    println!(
        "peak-store = worst per-node message-store high-water mark; \
         end s = latest simulated stop time."
    );
    println!("Safety (agreement + validity) was asserted on every run.");

    report.log("table_scale");
    write_scale_json(&rows, &report);
    if !failures.is_empty() {
        for (head, detail) in &failures {
            eprintln!("[supervisor] {head}:");
            for line in detail.lines() {
                eprintln!("[supervisor]   {line}");
            }
        }
        std::process::exit(1);
    }
}

/// Writes `results/BENCH_scale.json` (or `$TURQUOIS_BENCH_JSON`): the
/// per-cell host wall-clock telemetry that must stay out of the
/// deterministic stdout table, plus the runner fan-out summary. I/O
/// failures warn on stderr instead of aborting.
fn write_scale_json(rows: &[CellRow], report: &runner::RunnerReport) {
    let path = std::env::var_os("TURQUOIS_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("results").join("BENCH_scale.json"));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return;
            }
        }
    }
    let mut json = String::new();
    json.push_str("{\n  \"bin\": \"table_scale\",\n");
    json.push_str(&format!(
        "  \"runner\": {{\"jobs\": {}, \"threads\": {}, \"wall_s\": {:.3}, \"speedup\": {:.2}}},\n",
        report.jobs,
        report.threads,
        report.elapsed.as_secs_f64(),
        report.speedup()
    ));
    json.push_str("  \"cells\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"load\": \"{}\", \"n\": {}, \"reps\": {}, \"decided\": {}, \
             \"mean_ms\": {:.1}, \"worst_end_s\": {:.3}, \"peak_store_bytes\": {}, \
             \"wall_s\": {:.3}, \"failed\": {}}}{}\n",
            row.load,
            row.n,
            row.reps,
            row.decided,
            row.mean_ms,
            row.worst_end_s,
            row.peak_store,
            row.wall_s,
            row.failed
                .map(|r| format!("\"{r}\""))
                .unwrap_or_else(|| "null".into()),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[scale] wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
