//! Ablation A5: message complexity in practice.
//!
//! The paper attributes the latency ordering to message complexity:
//! Turquois broadcasts O(n) frames per round, ABBA sends O(n²) unicasts,
//! Bracha O(n³) through reliable broadcast. This experiment counts data
//! frames actually transmitted (including MAC retransmissions) per
//! consensus, per group size.
//!
//! Usage: `msgcount [reps]` (default 10). The knobs, supervision and
//! exit status are the grid driver's ([`turquois_harness::grid`]).

use turquois_harness::experiment::PAPER_SIZES;
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{Protocol, Scenario};

fn main() {
    let plan = Plan::from_env("msgcount", 10, &PAPER_SIZES, Stall::Retry);
    println!(
        "A5 — data frames per consensus, failure-free unanimous ({} reps)\n",
        plan.reps
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>16}",
        "n", "Turquois", "ABBA", "Bracha", "Bracha/Turquois"
    );

    let mut cells = Vec::new();
    for &n in &plan.sizes {
        for proto in Protocol::ALL {
            cells.push((n, proto));
        }
    }
    let run = plan.run(
        &cells,
        |&(n, proto)| format!("{} n={n}", proto.name()),
        |&(n, proto), rep, budget| {
            let scenario = Scenario::new(proto, n).seed(0xA5u64.wrapping_mul(rep as u64 + 1));
            budget.apply(scenario).run_once()
        },
        |_, outcome| Ok(outcome.stats.frames_sent()),
    );

    for (n, row) in plan.sizes.iter().zip(run.cells.chunks(3)) {
        let means: Vec<Result<f64, String>> = row
            .iter()
            .map(|cell| match &cell.samples {
                Ok(frames) => Ok(frames.iter().sum::<u64>() as f64 / plan.reps as f64),
                Err(failure) => Err(failure.to_string()),
            })
            .collect();
        let text = |mean: &Result<f64, String>| match mean {
            Ok(mean) => format!("{mean:.0}"),
            Err(failed) => failed.clone(),
        };
        let ratio = match (&means[0], &means[2]) {
            (Ok(turquois), Ok(bracha)) => format!("{:.1}x", bracha / turquois),
            _ => "-".to_string(),
        };
        println!(
            "{n:>6} {:>12} {:>12} {:>12} {ratio:>16}",
            text(&means[0]),
            text(&means[1]),
            text(&means[2])
        );
    }
    run.finish();
}
