//! Regenerates Table 1 of the paper: average latency (ms) ± 95 % CI in
//! a failure-free 802.11b network, for n ∈ {4, 7, 10, 13, 16},
//! unanimous and divergent proposals, Turquois vs ABBA vs Bracha.
//!
//! Usage: `table1 [reps]` (default 50; env `TURQUOIS_REPS`,
//! `TURQUOIS_SIZES`, `TURQUOIS_THREADS` also respected). The table is
//! byte-identical at any thread count; wall-clock timing goes to stderr
//! and, when set, to the file `TURQUOIS_BENCH_JSON` names.
//!
//! Runs are supervised: jobs are panic-isolated, a run that exhausts
//! its simulated-time budget (`TURQUOIS_TIME_LIMIT`, seconds) is
//! retried once at an escalated budget, and a cell that still fails
//! renders `FAILED(<reason>)` while its siblings keep their exact
//! healthy-run bytes; the process then exits nonzero.

use turquois_harness::experiment::{
    paper_table_supervised_on, render_table, reps_from_env, sabotage_from_env,
    sizes_from_env, table_stats_line, time_limit_from_env, DEFAULT_TIME_LIMIT,
};
use turquois_harness::runner::{self, BenchRecord};
use turquois_harness::FaultLoad;

fn main() {
    turquois_harness::env_guard::warn_unknown_env_vars();
    let reps = reps_from_env(50);
    let sizes = sizes_from_env();
    let threads = runner::threads_from_env();
    let limit = time_limit_from_env(DEFAULT_TIME_LIMIT);
    let (rows, health, report) = paper_table_supervised_on(
        FaultLoad::FailureFree,
        &sizes,
        reps,
        threads,
        limit,
        sabotage_from_env(),
    );
    println!(
        "{}",
        render_table(
            &format!("Table 1 — failure-free fault load ({reps} repetitions, latency ms ± 95% CI)"),
            &rows
        )
    );
    println!("{}", table_stats_line(&rows));
    report.log("table1");
    runner::write_bench_json(
        "table1",
        &[BenchRecord {
            label: "table1".into(),
            report,
        }],
    );
    if !health.ok() {
        health.log();
        std::process::exit(1);
    }
}
