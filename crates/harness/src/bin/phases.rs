//! Ablation A1: distribution of the Turquois phase at decision time.
//!
//! The paper (§7.3) explains the ≈2× unanimous→divergent latency gap by
//! phase counts: with unanimous proposals processes decide by the end
//! of phase 3; with divergent proposals they typically need phase 6.
//! This experiment prints the observed histogram.
//!
//! Usage: `phases [reps]` (default 50). The knobs, supervision and exit
//! status are the grid driver's ([`turquois_harness::grid`]).

use std::collections::BTreeMap;
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{ProposalDistribution, Protocol, Scenario};

fn main() {
    let plan = Plan::from_env("phases", 50, &[], Stall::Retry);
    println!(
        "A1 — Turquois phase at decision ({} repetitions per cell)\n",
        plan.reps
    );

    let mut cells = Vec::new();
    for n in [4usize, 7, 10, 16] {
        for dist in [
            ProposalDistribution::Unanimous,
            ProposalDistribution::Divergent,
        ] {
            cells.push((n, dist));
        }
    }
    let run = plan.run(
        &cells,
        |&(n, dist)| format!("n={n} {}", dist.name()),
        |&(n, dist), rep, budget| {
            let scenario = Scenario::new(Protocol::Turquois, n)
                .proposals(dist)
                .seed(0xA1u64.wrapping_mul(rep as u64 + 1).wrapping_add(n as u64));
            budget.apply(scenario).run_once()
        },
        |_, outcome| {
            let phases = outcome.probe.phase_at_decision.iter().flatten();
            Ok(phases.copied().collect::<Vec<u32>>())
        },
    );

    for (&(n, dist), cell) in cells.iter().zip(&run.cells) {
        let line = match &cell.samples {
            Ok(samples) => {
                let mut histogram: BTreeMap<u32, usize> = BTreeMap::new();
                for &phase in samples.iter().flatten() {
                    *histogram.entry(phase).or_default() += 1;
                }
                let total: usize = histogram.values().sum();
                let shares: Vec<String> = histogram
                    .iter()
                    .map(|(phase, count)| {
                        format!("φ{phase}: {:.0}%", 100.0 * *count as f64 / total as f64)
                    })
                    .collect();
                shares.join("  ")
            }
            Err(failure) => failure.to_string(),
        };
        println!("n={n:<3} {:<10} {line}", dist.name());
    }
    println!("\nExpected shape: unanimous decisions cluster at phase 4 (decide at the");
    println!("end of phase 3); divergent decisions cluster at phase 7 (end of 6).");
    run.finish();
}
