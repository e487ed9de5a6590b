//! Tier-1 guardrail for the run supervisor: graceful degradation must
//! be deterministic (a failing cell renders `FAILED(<reason>)` while
//! every sibling keeps its exact healthy-run bytes at any
//! `TURQUOIS_THREADS`), a stalled run must surface a populated
//! [`StallReport`], and a crash-then-rejoin schedule must not stop the
//! rest of the group from deciding.

use std::time::Duration;
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{FaultLoad, LossSpec, Protocol, ProposalDistribution, Scenario};
use wireless_net::CrashSchedule;

/// A job whose run panics degrades exactly one cell of a paper-table
/// shaped grid to `FAILED(panic)`; every other cell keeps the exact
/// samples of the clean serial run, at 1 and 4 threads alike.
#[test]
fn sabotaged_supervised_table_degrades_gracefully_and_deterministically() {
    let cells: Vec<(Protocol, ProposalDistribution)> = Protocol::ALL
        .into_iter()
        .flat_map(|p| {
            [
                ProposalDistribution::Unanimous,
                ProposalDistribution::Divergent,
            ]
            .map(|d| (p, d))
        })
        .collect();
    let faulty = (Protocol::Abba, ProposalDistribution::Unanimous);
    let table = |threads, panics: bool| {
        let plan = Plan {
            bin: "run_supervisor",
            reps: 2,
            sizes: vec![4],
            threads,
            time_limit: None,
            stall: Stall::Retry,
        };
        plan.run(
            &cells,
            |&(protocol, dist)| format!("{} {} n=4", protocol.name(), dist.name()),
            |&cell, rep, budget| {
                if panics && (cell, rep) == (faulty, 1) {
                    panic!("planted panic in rep {rep}");
                }
                let scenario = Scenario::new(cell.0, 4)
                    .proposals(cell.1)
                    .fault_load(FaultLoad::FailureFree)
                    .seed(rep as u64);
                budget.apply(scenario).run_once()
            },
            |_, outcome| Ok((outcome.stats.frames_sent(), outcome.mean_latency_ms())),
        )
    };
    let clean = table(1, false);
    assert_eq!(clean.failures().count(), 0, "clean run must be healthy");

    for threads in [1usize, 4] {
        let run = table(threads, true);
        let failures: Vec<_> = run.failures().collect();
        assert_eq!(
            failures.len(),
            1,
            "the panic must be reported (threads={threads})"
        );
        let (label, failure) = failures[0];
        assert_eq!(
            (label, failure.to_string().as_str()),
            ("ABBA unanimous n=4", "FAILED(panic)")
        );
        assert!(
            failure.detail.contains("planted panic in rep 1"),
            "{:?}",
            failure.detail
        );
        for (i, (cell, clean)) in run.cells.iter().zip(&clean.cells).enumerate() {
            if cells[i] != faulty {
                assert_eq!(
                    cell.samples, clean.samples,
                    "sibling cell {i} diverged at threads={threads}"
                );
            }
        }
    }
}

/// A run that exhausts its simulated-time budget yields a
/// [`wireless_net::StallReport`] naming each node's protocol phase and
/// its transmit-queue drop count — the first diagnostic stop when runs
/// start timing out.
#[test]
fn forced_stall_produces_populated_stall_report() {
    // Omission budget 80 per 10 ms at n=10, the σ-sweep's always-stall
    // configuration: enough broadcasts get through for every node to
    // reach phase 2, and none advances past it within 800 ms.
    let outcome = Scenario::new(Protocol::Turquois, 10)
        .proposals(ProposalDistribution::Divergent)
        .loss(LossSpec::Budget {
            budget: 80,
            window_ms: 10,
        })
        .time_limit(Duration::from_millis(800))
        .seed(42)
        .run_once()
        .expect("valid scenario");
    assert!(outcome.agreement_holds() && outcome.validity_holds());
    assert!(!outcome.k_reached(), "the omission budget must stall the run");

    let stall = outcome.stall.expect("stalled run carries a report");
    assert_eq!(stall.nodes.len(), 10);
    assert_eq!(stall.decided, 0);
    assert!(
        stall.nodes.iter().all(|n| n.progress.is_some()),
        "every node reports its protocol phase"
    );
    assert!(!stall.zero_progress(), "phase advances are progress: {stall}");
    assert!(
        stall.queue_drops > 0 && stall.nodes.iter().any(|n| n.queue_drops > 0),
        "queue-drop counters are populated: {stall}"
    );
    let text = stall.to_string();
    assert!(text.contains("phase"), "per-node phases rendered: {text}");
    assert!(text.contains("qdrops"), "per-node queue drops rendered: {text}");
    assert!(text.contains("budgeted omission"), "fault state rendered: {text}");
}

/// A run in which no frame ever arrives makes no progress at all: every
/// node starts at phase 1 and stays there, so the report says zero
/// progress — a node's (jittered) start is where it begins, not an
/// advance.
#[test]
fn a_run_that_never_advances_reports_zero_progress() {
    let outcome = Scenario::new(Protocol::Turquois, 10)
        .proposals(ProposalDistribution::Divergent)
        .loss(LossSpec::Iid(1.0))
        .time_limit(Duration::from_millis(800))
        .seed(42)
        .run_once()
        .expect("valid scenario");
    let stall = outcome.stall.expect("a run that loses every frame stalls");
    assert_eq!(stall.decided, 0);
    assert!(
        stall.nodes.iter().all(|n| n.progress.map(|p| p.phase) == Some(1)),
        "nobody leaves phase 1: {stall}"
    );
    assert!(stall.zero_progress(), "{stall}");
    assert!(stall.to_string().contains("last progress 0.000000s"), "{stall}");
}

/// Crash a correct node mid-protocol at n=7 and let it rejoin with
/// reset engine state: the rest of the group must keep deciding, and
/// the rejoined node must catch up — all within the default budget.
#[test]
fn crash_then_rejoin_does_not_stop_the_group() {
    let outcome = Scenario::new(Protocol::Turquois, 7)
        .proposals(ProposalDistribution::Divergent)
        .crashes(
            CrashSchedule::new()
                .crash_at_phase(0, 3)
                .rejoin_after(Duration::from_millis(250)),
        )
        .seed(7)
        .run_once()
        .expect("valid scenario");
    assert!(outcome.agreement_holds(), "agreement across the crash");
    assert!(outcome.validity_holds(), "validity across the crash");
    assert!(
        outcome.stats.crash_drops > 0,
        "the crash visibly dropped traffic from the downed node"
    );
    assert!(
        outcome.k_reached(),
        "all correct nodes (incl. the rejoined one) decide: {}/{} decided, stall: {:?}",
        outcome.decided_correct(),
        outcome.k,
        outcome.stall.map(|s| s.to_string())
    );
}
