//! Ablation A7: the clock-tick interval.
//!
//! §7.3 blames part of Turquois's fail-stop sensitivity on its "crude"
//! fixed 10 ms retransmission timeout. This sweep varies the tick
//! interval and shows the trade-off: short ticks burn airtime
//! (collisions) for marginal latency; long ticks stretch loss recovery.
//!
//! Usage: `tick_ablation [reps]` (default 15). The processes come from a
//! [`Group`] with engine seeds `seed + i` (they predate [`Scenario`]'s
//! and the checked-in numbers depend on them) and are handed to
//! [`Scenario::run_built`]; a run that stalls is data ([`Stall::Data`]);
//! the knobs, safety check and exit status are the grid driver's
//! ([`turquois_harness::grid`]).

use std::time::Duration;
use turquois_core::config::Config;
use turquois_harness::adapters::RunProbe;
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{Group, ProposalDistribution, Protocol, Role, Scenario};
use wireless_net::fault::IidLoss;
use wireless_net::sim::{SimConfig, Simulator};

fn main() {
    let plan = Plan::from_env("tick_ablation", 15, &[], Stall::Data);
    let reps = plan.reps;
    let n = 7;
    let cfg = Config::evaluation(n).expect("valid");
    println!("A7 — clock-tick sweep, n={n}, 10% loss, divergent ({reps} reps)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "tick ms", "mean ms", "frames", "collisions"
    );

    let ticks = [2u64, 5, 10, 20, 50];
    let dist = ProposalDistribution::Divergent;
    let run = plan.run(
        &ticks,
        |tick_ms| format!("tick={tick_ms}ms"),
        |&tick_ms, rep, budget| {
            let seed = 0xA7u64.wrapping_mul(rep as u64 + 1);
            let group = Group::new(Protocol::Turquois, cfg, 600, seed)
                .tick_interval(Duration::from_millis(tick_ms));
            let probe = RunProbe::new(n);
            let apps = (0..n)
                .map(|i| group.node(i, dist.proposal(i), Role::Correct, seed + i as u64, &probe))
                .collect();
            let sim_cfg = SimConfig { seed, ..SimConfig::default() };
            let sim = Simulator::new(sim_cfg, Box::new(IidLoss::new(0.10, seed)), apps);
            let scenario = Scenario::new(Protocol::Turquois, n)
                .proposals(dist)
                .time_limit(Duration::from_secs(60));
            budget.apply(scenario).run_built(sim, probe)
        },
        |_, outcome| {
            Ok((
                outcome.stats.frames_sent(),
                outcome.stats.collisions,
                outcome.mean_latency_ms(),
            ))
        },
    );

    for (tick_ms, cell) in ticks.iter().zip(&run.cells) {
        let samples = match &cell.samples {
            Ok(samples) => samples,
            Err(failure) => {
                println!("{tick_ms:>10} {failure:>12} {:>12} {:>12}", "-", "-");
                continue;
            }
        };
        let means: Vec<f64> = samples.iter().filter_map(|&(_, _, mean)| mean).collect();
        let frames: u64 = samples.iter().map(|&(frames, _, _)| frames).sum();
        let collisions: u64 = samples.iter().map(|&(_, collisions, _)| collisions).sum();
        println!(
            "{tick_ms:>10} {:>12.1} {:>12.0} {:>12.1}",
            means.iter().sum::<f64>() / means.len().max(1) as f64,
            frames as f64 / reps as f64,
            collisions as f64 / reps as f64,
        );
    }
    run.finish();
}
