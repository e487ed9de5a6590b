//! Ablation A3: sensitivity to frame loss, failure-free vs fail-stop.
//!
//! §7.3 explains why fail-stop runs can be *slower* than failure-free
//! ones: with exactly n − f live processes every message matters, and a
//! lost broadcast must wait for the next 10 ms clock tick. This sweep
//! raises i.i.d. frame loss and shows the fail-stop curve climbing away
//! from the failure-free one — Turquois's single-collision-hurts-many
//! effect — and the same comparison for the TCP-based baselines where
//! MAC/transport retransmission absorbs the loss.
//!
//! Usage: `loss_sweep [reps]` (default 15). A run that stalls is this
//! sweep's measurement ([`Stall::Data`]), not a failure; the knobs,
//! safety check and exit status are the grid driver's
//! ([`turquois_harness::grid`]).

use std::time::Duration;
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{FaultLoad, LossSpec, Protocol, Scenario};

fn main() {
    let plan = Plan::from_env("loss_sweep", 15, &[], Stall::Data);
    let n = 7;
    println!(
        "A3 — loss sweep, n={n} ({} reps, latency ms mean)\n",
        plan.reps
    );
    println!(
        "{:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12}",
        "loss%", "Turq ff", "Turq fs", "ABBA ff", "ABBA fs", "Bracha ff", "Bracha fs"
    );

    let loss_rates = [0.0f64, 0.02, 0.05, 0.10, 0.20];
    let mut cells = Vec::new();
    for &loss in &loss_rates {
        for proto in Protocol::ALL {
            for fl in [FaultLoad::FailureFree, FaultLoad::FailStop] {
                cells.push((loss, proto, fl));
            }
        }
    }
    let run = plan.run(
        &cells,
        |&(loss, proto, fl)| format!("{} {} loss={loss}", proto.name(), fl.name()),
        |&(loss, proto, fl), rep, budget| {
            let scenario = Scenario::new(proto, n)
                .fault_load(fl)
                .loss(LossSpec::Iid(loss))
                .time_limit(Duration::from_secs(60))
                .seed(0xA3u64.wrapping_mul(rep as u64 + 1));
            budget.apply(scenario).run_once()
        },
        |_, outcome| Ok(outcome.mean_latency_ms()),
    );

    for (loss, row) in loss_rates.iter().zip(run.cells.chunks(6)) {
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
        println!(
            "{:>6.0} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12}",
            loss * 100.0,
            text[0],
            text[1],
            text[2],
            text[3],
            text[4],
            text[5]
        );
    }
    run.finish();
}
