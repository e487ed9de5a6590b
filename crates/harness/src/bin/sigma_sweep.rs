//! Ablation A2: the σ omission bound.
//!
//! Turquois guarantees progress in rounds where omissions stay within
//! σ = ⌈(n−t)/2⌉(n−k−t) + k − 2 (paper §1/§5), and guarantees safety no
//! matter how many omissions occur. This sweep runs an omission
//! adversary with a per-10 ms kill budget from 0 to well past σ and
//! reports decision latency / completion — demonstrating graceful
//! degradation, not a cliff, plus unconditional safety.
//!
//! Usage: `sigma_sweep [reps]` (default 20). A run that stalls is this
//! sweep's measurement ([`Stall::Data`]), not a failure; the knobs,
//! safety check and exit status are the grid driver's
//! ([`turquois_harness::grid`]).

use std::time::Duration;
use turquois_core::Config;
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{LossSpec, Protocol, Scenario};

fn main() {
    let plan = Plan::from_env("sigma_sweep", 20, &[], Stall::Data);
    let reps = plan.reps;
    let n = 10;
    let cfg = Config::evaluation(n).expect("valid n");
    let sigma = cfg.sigma(0);
    println!(
        "A2 — omission-budget sweep, n={n}, k={}, σ(t=0)={sigma} ({reps} reps)\n",
        cfg.k()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "budget", "mean ms", "worst ms", "complete"
    );

    let budgets = [0usize, sigma / 2, sigma, sigma * 2, sigma * 4, sigma * 8];
    let run = plan.run(
        &budgets,
        |kills| format!("budget={kills}"),
        |&kills, rep, budget| {
            let scenario = Scenario::new(Protocol::Turquois, n)
                .loss(LossSpec::Budget {
                    budget: kills,
                    window_ms: 10,
                })
                .time_limit(Duration::from_secs(30))
                .seed(0xA2u64.wrapping_mul(rep as u64 + 1));
            budget.apply(scenario).run_once()
        },
        // The mean latency, if k processes decided.
        |_, outcome| Ok(outcome.mean_latency_ms().filter(|_| outcome.k_reached())),
    );

    for (kills, cell) in budgets.iter().zip(&run.cells) {
        let samples = match &cell.samples {
            Ok(samples) => samples,
            Err(failure) => {
                println!("{kills:>8} {failure:>12} {:>12} {:>10}", "-", "-");
                continue;
            }
        };
        let means: Vec<f64> = samples.iter().flatten().copied().collect();
        let complete = means.len();
        if means.is_empty() {
            println!(
                "{kills:>8} {:>12} {:>12} {:>7}/{reps}",
                "stalled", "stalled", complete
            );
        } else {
            let mean = means.iter().sum::<f64>() / means.len() as f64;
            let worst = means.iter().cloned().fold(0.0f64, f64::max);
            println!(
                "{kills:>8} {mean:>12.1} {worst:>12.1} {:>7}/{reps}",
                complete
            );
        }
    }
    println!("\nSafety (agreement + validity) was asserted on every run.");
    run.finish();
}
