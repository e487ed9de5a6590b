//! Tier-1 guardrail for the run supervisor: graceful degradation must
//! be deterministic (a failing cell renders `FAILED(<reason>)` while
//! every sibling keeps its exact healthy-run bytes at any
//! `TURQUOIS_THREADS`), a stalled run must surface a populated
//! [`StallReport`], and a crash-then-rejoin schedule must not stop the
//! rest of the group from deciding.

use std::time::Duration;
use turquois_harness::experiment::{paper_table, render_table};
use turquois_harness::grid::{Plan, Stall};
use turquois_harness::{FaultLoad, LossSpec, Protocol, ProposalDistribution, Scenario};
use wireless_net::CrashSchedule;

/// A sabotaged (deterministically panicking) job degrades exactly one
/// cell to `FAILED(panic)`; every other cell — and the rendered bytes —
/// are identical to the clean run, at 1 and 4 threads alike.
#[test]
fn sabotaged_supervised_table_degrades_gracefully_and_deterministically() {
    let plan = |threads, sabotage| Plan {
        bin: "run_supervisor",
        reps: 2,
        sizes: vec![4],
        threads,
        time_limit: None,
        sabotage,
        stall: Stall::Retry,
    };
    let (clean_rows, clean) = paper_table(FaultLoad::FailureFree, &plan(1, None));
    assert_eq!(clean.failures().count(), 0, "clean run must be healthy");

    let mut renders = Vec::new();
    for threads in [1usize, 4] {
        let (rows, run) = paper_table(FaultLoad::FailureFree, &plan(threads, Some((2, 1))));
        let failures: Vec<_> = run.failures().collect();
        assert_eq!(failures.len(), 1, "sabotage must be reported (threads={threads})");
        let (label, failure) = failures[0];
        assert_eq!((label, failure.reason), ("ABBA unanimous n=4", "panic"));
        assert!(failure.detail.contains("sabotage"), "{:?}", failure.detail);
        assert_eq!(rows[0].cells[2], Err("FAILED(panic)".to_string()));
        for (i, (cell, clean)) in rows[0].cells.iter().zip(&clean_rows[0].cells).enumerate() {
            if i == 2 {
                continue;
            }
            assert_eq!(cell, clean, "sibling cell {i} diverged at threads={threads}");
        }
        renders.push(render_table("degradation probe", &rows));
    }
    assert_eq!(renders[0], renders[1], "rendered bytes diverged across thread counts");
    assert!(renders[0].contains("FAILED(panic)"));
}

/// A run that exhausts its simulated-time budget yields a
/// [`wireless_net::StallReport`] naming each node's protocol phase and
/// its transmit-queue drop count — the first diagnostic stop when runs
/// start timing out.
#[test]
fn forced_stall_produces_populated_stall_report() {
    // Omission budget 80 per 10 ms at n=10 kills every broadcast: the
    // σ-sweep's proven always-stall configuration.
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
    assert!(
        stall.queue_drops > 0 && stall.nodes.iter().any(|n| n.queue_drops > 0),
        "queue-drop counters are populated: {stall}"
    );
    let text = stall.to_string();
    assert!(text.contains("phase"), "per-node phases rendered: {text}");
    assert!(text.contains("qdrops"), "per-node queue drops rendered: {text}");
    assert!(text.contains("budgeted omission"), "fault state rendered: {text}");
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
