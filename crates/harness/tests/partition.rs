//! Partition robustness at the simulator level: scheduled splits and
//! heals must never cost safety, a component below its engine's
//! decision quorum must never decide while split, and once healed the
//! whole group must decide (the justified-rebroadcast / echo-catch-up
//! recovery paths). A deterministic example per claim plus a proptest
//! over random schedules across all three engines.

use proptest::prelude::*;
use std::time::Duration;
use turquois_harness::{Protocol, ProposalDistribution, Scenario};
use wireless_net::time::SimTime;
use wireless_net::topology::{PartitionSchedule, TopologySpec};

const ENGINES: [Protocol; 3] = [Protocol::Turquois, Protocol::Abba, Protocol::Bracha];

/// Runs `engine` at size `n` under a two-group split at `split` healed
/// at `heal`, then asserts the three partition invariants.
fn check_partitioned_run(engine: Protocol, n: usize, cut: usize, split: SimTime, heal: SimTime, seed: u64) {
    let groups: Vec<Vec<usize>> = vec![(0..cut).collect(), (cut..n).collect()];
    let schedule = PartitionSchedule::new().split_at(split, groups.clone()).heal_at(heal);
    let outcome = Scenario::new(engine, n)
        .proposals(ProposalDistribution::Divergent)
        .topology(TopologySpec::Partition(schedule))
        .time_limit(Duration::from_secs(120))
        .seed(seed)
        .run_once()
        .expect("partitioned scenario runs");
    assert!(outcome.agreement_holds(), "{engine:?} n={n} cut={cut} seed={seed}: agreement violated");
    assert!(outcome.validity_holds(), "{engine:?} n={n} cut={cut} seed={seed}: validity violated");
    let q = engine.decision_quorum(n);
    for group in &groups {
        if group.len() >= q {
            continue;
        }
        for &node in group {
            if let Some(d) = outcome.decisions[node] {
                assert!(
                    d.time < split || d.time >= heal,
                    "{engine:?} n={n} cut={cut} seed={seed}: node {node} decided at {} inside \
                     a {}-node component below quorum {q}",
                    d.time,
                    group.len(),
                );
            }
        }
    }
    assert!(
        outcome.k_reached(),
        "{engine:?} n={n} cut={cut} seed={seed}: not every node decided after the heal"
    );
}

/// Quorum-breaking even split: nobody decides while split, everybody
/// decides after the heal — for every engine.
#[test]
fn even_split_delays_everyone_until_heal_then_all_decide() {
    let split = SimTime::from_millis(5);
    let heal = SimTime::from_millis(800);
    for engine in ENGINES {
        check_partitioned_run(engine, 7, 4, split, heal, 0xBEEF);
    }
}

/// Quorum-keeping split (majority n−f, minority f): the majority
/// decides while split, the stranded minority only after the heal —
/// healing-time recovery in one deterministic run.
#[test]
fn majority_decides_while_split_minority_recovers_after_heal() {
    let n = 7;
    let f = (n - 1) / 3;
    let split = SimTime::from_millis(5);
    let heal = SimTime::from_millis(1_500);
    let groups: Vec<Vec<usize>> = vec![(0..n - f).collect(), (n - f..n).collect()];
    let schedule = PartitionSchedule::new().split_at(split, groups).heal_at(heal);
    let outcome = Scenario::new(Protocol::Turquois, n)
        .proposals(ProposalDistribution::Divergent)
        .topology(TopologySpec::Partition(schedule))
        .time_limit(Duration::from_secs(120))
        .seed(0xCAFE)
        .run_once()
        .expect("partitioned scenario runs");
    assert!(outcome.agreement_holds() && outcome.validity_holds());
    assert!(outcome.k_reached());
    for node in 0..n - f {
        let d = outcome.decisions[node].expect("majority node decided");
        assert!(d.time < heal, "majority node {node} decided only at {} — expected pre-heal", d.time);
    }
    for node in n - f..n {
        let d = outcome.decisions[node].expect("minority node decided");
        assert!(
            d.time >= heal,
            "minority node {node} decided at {} inside a {f}-node sub-quorum component",
            d.time
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random two-group schedules across all engines: agreement +
    /// validity always, no sub-quorum component decides while split,
    /// every node decides after the heal.
    #[test]
    fn random_partition_schedules_preserve_safety(
        engine_ix in 0usize..3,
        n in 4usize..=7,
        cut_seed in 0usize..64,
        split_ms in 2u64..10,
        heal_ms in 100u64..1_200,
        seed in 0u64..1_000,
    ) {
        let cut = 1 + cut_seed % (n - 1);
        check_partitioned_run(
            ENGINES[engine_ix],
            n,
            cut,
            SimTime::from_millis(split_ms),
            SimTime::from_millis(heal_ms),
            seed,
        );
    }
}
