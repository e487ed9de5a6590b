//! Ablation A6: does Turquois's advantage survive modern CPUs?
//!
//! The paper attributes ABBA's cost to RSA-class cryptography on a
//! 600 MHz Pentium III. This ablation re-runs the failure-free cell
//! under three CPU cost models — the paper's hardware, modern commodity
//! hardware, and free (zero-cost) cryptography — separating the
//! *computation* share of each protocol's latency from the *network*
//! share. The punchline: even with free cryptography, ABBA and Bracha
//! stay an order of magnitude behind, because the broadcast medium, not
//! the CPU, is the dominant resource — which is the deeper half of the
//! paper's argument.
//!
//! Usage: `cost_ablation [reps]` (default 15). The knobs, supervision
//! and exit status are the grid driver's ([`turquois_harness::grid`]).

use turquois_crypto::cost::CostModel;
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{Protocol, Scenario};

fn main() {
    let plan = Plan::from_env("cost_ablation", 15, &[], Stall::Retry);
    let n = 10;
    println!(
        "A6 — CPU cost-model ablation, n={n}, failure-free unanimous ({} reps)\n",
        plan.reps
    );
    println!(
        "{:>16} {:>12} {:>12} {:>12}",
        "cost model", "Turquois", "ABBA", "Bracha"
    );

    let models = [
        ("pentium3-600", CostModel::pentium3_600()),
        ("modern", CostModel::modern()),
        ("free", CostModel::free()),
    ];
    let mut cells = Vec::new();
    for &(name, model) in &models {
        for proto in Protocol::ALL {
            cells.push((name, model, proto));
        }
    }
    let run = plan.run(
        &cells,
        |&(name, _, proto)| format!("{} {name}", proto.name()),
        |&(_, model, proto), rep, budget| {
            let scenario = Scenario::new(proto, n)
                .cost_model(model)
                .seed(0xA6u64.wrapping_mul(rep as u64 + 1));
            budget.apply(scenario).run_once()
        },
        |_, outcome| Ok(outcome.mean_latency_ms()),
    );

    for (&(name, _), row) in models.iter().zip(run.cells.chunks(3)) {
        let text: Vec<String> = row
            .iter()
            .map(|cell| match &cell.samples {
                Ok(samples) => {
                    let means: Vec<f64> = samples.iter().flatten().copied().collect();
                    format!(
                        "{:.1}",
                        means.iter().sum::<f64>() / means.len().max(1) as f64
                    )
                }
                Err(failure) => failure.to_string(),
            })
            .collect();
        println!("{name:>16} {:>12} {:>12} {:>12}", text[0], text[1], text[2]);
    }
    println!("\nIf the ABBA gap persists under `free`, the medium — not RSA — dominates.");
    run.finish();
}
