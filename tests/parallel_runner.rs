//! Tier-1 guardrail for the parallel experiment runner: a grid's
//! results and rendered bytes must be identical at any
//! `TURQUOIS_THREADS` count, and a panic raised on a worker thread of
//! `runner::run_indexed`, outside `runner::isolated`, must stay exactly
//! as loud as on the serial path.

use std::time::Duration;
use turquois_harness::experiment::{paper_table, render_table};
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::runner;
use turquois_harness::{FaultLoad, LossSpec, ProposalDistribution, Protocol, Scenario};
use wireless_net::CrashSchedule;

fn plan(reps: usize, threads: usize) -> Plan {
    Plan {
        bin: "parallel_runner",
        reps,
        sizes: vec![4],
        threads,
        time_limit: None,
        stall: Stall::Retry,
    }
}

/// The whole paper-table pipeline — (cell, rep) fan-out, per-cell
/// aggregation (stats, incomplete counts, frame means), rendering — is
/// byte-identical at 1, 2, and 4 threads.
#[test]
fn paper_table_bytes_identical_across_thread_counts() {
    let reps = 2;
    let (serial_rows, _) = paper_table(FaultLoad::FailureFree, &plan(reps, 1));
    let serial = render_table("determinism probe", &serial_rows);
    for threads in [2usize, 4] {
        let (rows, run) = paper_table(FaultLoad::FailureFree, &plan(reps, threads));
        assert_eq!(run.report.jobs, 6 * reps);
        let rendered = render_table("determinism probe", &rows);
        assert_eq!(
            serial, rendered,
            "rendered bytes diverged at threads={threads}"
        );
        for (a, b) in serial_rows.iter().zip(&rows) {
            assert_eq!(a.n, b.n);
            assert_eq!(a.cells, b.cells, "threads={threads}");
        }
    }
}

/// The same for a grid that is not the paper's: two `fault_matrix`-shaped
/// cells (burst loss; burst loss + jamming + a crash-then-rejoin), every
/// sample and the driver's retry count identical at 1, 2, and 4 threads.
#[test]
fn fault_grid_identical_across_thread_counts() {
    let burst = LossSpec::Burst(0.02, 0.25, 0.6);
    let jammed = LossSpec::Composed(vec![
        burst.clone(),
        LossSpec::Jam {
            start_ms: 30,
            len_ms: 60,
        },
    ]);
    let cells = [(burst, None), (jammed, Some((3u32, 250u64)))];
    let run = |threads| {
        let run = plan(3, threads).run(
            &cells,
            |(_, crash)| format!("crash={crash:?}"),
            |(loss, crash), rep, budget| {
                let mut scenario = Scenario::new(Protocol::Turquois, 4)
                    .proposals(ProposalDistribution::Divergent)
                    .loss(loss.clone())
                    .seed(0xFA_u64.wrapping_mul(rep as u64 + 1));
                if let Some((phase, rejoin_ms)) = *crash {
                    scenario = scenario.crashes(
                        CrashSchedule::new()
                            .crash_at_phase(0, phase)
                            .rejoin_after(Duration::from_millis(rejoin_ms)),
                    );
                }
                budget.apply(scenario).run_once()
            },
            |_, outcome| {
                Ok((
                    outcome.k_reached(),
                    outcome.latencies_ms(),
                    outcome.stats.frames_sent(),
                    outcome.stats.crash_drops,
                ))
            },
        );
        assert_eq!(run.failures().count(), 0, "threads={threads}");
        let cells: Vec<_> = run
            .cells
            .into_iter()
            .map(|c| (c.label, c.samples, c.retried))
            .collect();
        format!("{cells:#?}")
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        assert_eq!(serial, run(threads), "threads={threads}");
    }
}

/// `turquois-check`'s explorer asserts inside `run_indexed` jobs. Seed
/// a violation into one job of a 4-worker pool and check the panic
/// reaches the caller — it must never be swallowed by a worker thread.
#[test]
fn safety_violation_on_worker_thread_fails_loudly() {
    let jobs: Vec<usize> = (0..24).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runner::run_indexed(4, &jobs, |_, &rep| {
            let agreement_holds = rep != 13;
            assert!(agreement_holds, "agreement violated in repetition {rep}");
            rep
        })
    }));
    assert!(
        result.is_err(),
        "worker-thread safety violation must panic the driver"
    );
}
