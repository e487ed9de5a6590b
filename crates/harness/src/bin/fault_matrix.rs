//! Fault-matrix experiment: Turquois under *composed* faults.
//!
//! The paper evaluates fault loads one at a time; this matrix stacks
//! them into a severity ladder S0–S4 (Gilbert–Elliott burst loss ×
//! jamming window × crash-then-rejoin of a correct node × the §7.2
//! value-flipping adversary) and measures how decision rate and latency
//! degrade as the composition deepens. Every run still asserts
//! agreement + validity — graceful degradation is only interesting if
//! safety never bends.
//!
//! Runs are supervised by the grid driver
//! ([`turquois_harness::grid`]): a job that exhausts its simulated-time
//! budget is retried once with a [`RETRY_BUDGET_SCALE`]× budget
//! (distinguishing *slow* from *stuck*), panics are isolated to their
//! cell, and any cell that still fails renders `FAILED(<reason>)` while
//! its siblings keep their exact healthy-run bytes. The process exits
//! nonzero if anything failed — `TURQUOIS_TIME_LIMIT=0.002` shows the
//! whole stall path: five `FAILED(stalled)` rows, each `StallReport` on
//! stderr, exit status 1.
//!
//! Usage: `fault_matrix [reps]` (default 20; `TURQUOIS_SIZES`,
//! `TURQUOIS_THREADS`, `TURQUOIS_TIME_LIMIT` respected).

use std::time::Duration;
use turquois_harness::experiment::PAPER_SIZES;
use turquois_harness::grid::{Plan, Stall, RETRY_BUDGET_SCALE};
use turquois_harness::{FaultLoad, LossSpec, Protocol, ProposalDistribution, RunOutcome, Scenario};
use wireless_net::CrashSchedule;

/// One rung of the severity ladder.
struct Severity {
    label: &'static str,
    desc: &'static str,
    fault_load: FaultLoad,
    loss: LossSpec,
    /// `(phase, rejoin_ms)`: crash node 0 (always correct — faulty
    /// nodes are the last `f`) when it reaches `phase`, rejoin after
    /// `rejoin_ms` of downtime with reset engine state.
    crash: Option<(u32, u64)>,
}

/// Burst loss shared by S1–S4: enter the bad state with p=0.02 per
/// delivery, leave with p=0.25, drop 60 % while bad.
const BURST: (f64, f64, f64) = (0.02, 0.25, 0.6);

fn severities() -> Vec<Severity> {
    let burst = LossSpec::Burst(BURST.0, BURST.1, BURST.2);
    let jammed = LossSpec::Composed(vec![
        burst.clone(),
        LossSpec::Jam {
            start_ms: 30,
            len_ms: 60,
        },
    ]);
    vec![
        Severity {
            label: "S0",
            desc: "baseline: no injected faults",
            fault_load: FaultLoad::FailureFree,
            loss: LossSpec::None,
            crash: None,
        },
        Severity {
            label: "S1",
            desc: "burst loss: Gilbert–Elliott p_gb=0.02 p_bg=0.25 loss_bad=0.60",
            fault_load: FaultLoad::FailureFree,
            loss: burst,
            crash: None,
        },
        Severity {
            label: "S2",
            desc: "S1 + jamming window [30 ms, 90 ms)",
            fault_load: FaultLoad::FailureFree,
            loss: jammed.clone(),
            crash: None,
        },
        Severity {
            label: "S3",
            desc: "S2 + node 0 crashes at phase 3, rejoins after 250 ms (engine reset)",
            fault_load: FaultLoad::FailureFree,
            loss: jammed.clone(),
            crash: Some((3, 250)),
        },
        Severity {
            label: "S4",
            // The label predates the role it names: S4 runs the flip
            // (`Role::Attack`). It prints into `results/fault_matrix.txt`,
            // so it changes with that file's next regeneration.
            desc: "S3 + Byzantine split-brain adversary (f faulty)",
            fault_load: FaultLoad::Byzantine,
            loss: jammed,
            crash: Some((3, 250)),
        },
    ]
}

/// What one repetition contributes to a matrix cell.
struct FmSample {
    decided: bool,
    mean_ms: Option<f64>,
    worst_ms: Option<f64>,
    queue_drops: u64,
    crash_drops: u64,
}

fn scenario(sev: &Severity, n: usize, rep: usize) -> Scenario {
    let scenario = Scenario::new(Protocol::Turquois, n)
        .proposals(ProposalDistribution::Divergent)
        .fault_load(sev.fault_load)
        .loss(sev.loss.clone())
        .seed(0xFA_u64
            .wrapping_mul(rep as u64 + 1)
            .wrapping_add(n as u64));
    match sev.crash {
        Some((phase, rejoin_ms)) => scenario.crashes(
            CrashSchedule::new()
                .crash_at_phase(0, phase)
                .rejoin_after(Duration::from_millis(rejoin_ms)),
        ),
        None => scenario,
    }
}

fn sample(outcome: &RunOutcome) -> FmSample {
    FmSample {
        decided: outcome.k_reached(),
        mean_ms: outcome.mean_latency_ms(),
        worst_ms: outcome.latencies_ms().into_iter().reduce(f64::max),
        queue_drops: outcome.stats.queue_drops,
        crash_drops: outcome.stats.crash_drops,
    }
}

fn main() {
    let plan = Plan::from_env("fault_matrix", 20, &PAPER_SIZES, Stall::Retry);
    let reps = plan.reps;
    let severities = severities();
    println!(
        "Fault matrix — Turquois, divergent proposals, composed faults \
         ({reps} reps, supervised: {}s budget, stalls retried once at ×{})\n",
        plan.time_limit.unwrap_or(Scenario::DEFAULT_TIME_LIMIT).as_secs_f64(),
        RETRY_BUDGET_SCALE,
    );
    for sev in &severities {
        println!("  {} = {}", sev.label, sev.desc);
    }
    println!();
    println!(
        "{:>4} {:>4} | {:>8} | {:>9} {:>9} | {:>8} {:>8} | {:>7}",
        "sev", "n", "decided", "mean ms", "worst ms", "q-drops", "c-drops", "retried"
    );
    println!("{}", "-".repeat(76));

    let cells: Vec<(&Severity, usize)> = severities
        .iter()
        .flat_map(|sev| plan.sizes.iter().map(move |&n| (sev, n)))
        .collect();
    let run = plan.run(
        &cells,
        |&(sev, n)| format!("{} n={n}", sev.label),
        |&(sev, n), rep, budget| budget.apply(scenario(sev, n, rep)).run_once(),
        |_, outcome| Ok(sample(outcome)),
    );

    let mut totals = (0u64, 0u64, 0usize); // q-drops, c-drops, retried
    for (&(sev, n), cell) in cells.iter().zip(&run.cells) {
        let samples = match &cell.samples {
            Ok(samples) => samples,
            Err(failure) => {
                println!(
                    "{:>4} {:>4} | {:>8} | {:>9} {:>9} | {:>8} {:>8} | {:>7}",
                    sev.label, n, failure, "-", "-", "-", "-", "-"
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
        let q_drops: u64 = samples.iter().map(|s| s.queue_drops).sum();
        let c_drops: u64 = samples.iter().map(|s| s.crash_drops).sum();
        totals.0 += q_drops;
        totals.1 += c_drops;
        totals.2 += cell.retried;
        println!(
            "{:>4} {:>4} | {:>5}/{:<2} | {:>9.1} {:>9.1} | {:>8} {:>8} | {:>7}",
            sev.label, n, decided, reps, mean, worst, q_drops, c_drops, cell.retried
        );
    }
    println!();
    println!(
        "stats: tx-queue drops={} crashed-source drops={} retried reps={}",
        totals.0, totals.1, totals.2
    );
    println!("Safety (agreement + validity) was asserted on every run.");
    run.finish();
}
