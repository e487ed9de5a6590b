//! Partition-action coverage beyond the generic fixture replay
//! (`tests/schedule_replay.rs` in the root package): a healed minority
//! catches up because of the heal, and truncating a run before the heal
//! leaves every sub-quorum side undecided — across all three engines.

use turquois_check::drive::run_schedule;
use turquois_check::replay::parse;
use turquois_check::schedule::{Partition, Schedule};
use turquois_harness::Protocol;

/// The healed-minority fixture proves recovery, not mere survival: the
/// full replay decides everywhere, while the same schedule truncated to
/// `heal_round - 1` leaves the stranded process undecided (and the
/// quorum-keeping majority decided) — the decision the minority reaches
/// is the majority's, carried over by post-heal justified rebroadcasts.
#[test]
fn healed_minority_catches_up_because_of_the_heal() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/healed_minority_catches_up.schedule"
    );
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let (schedule, _) = parse(&text).expect("fixture parses");
    let p = schedule.partition.expect("fixture carries a partition");

    let full = run_schedule(&schedule);
    assert_eq!(full.violation, None, "{:?}", full.violation);
    assert!(
        full.decisions.iter().all(|d| d.is_some()),
        "healed run must decide everywhere: {:?}",
        full.decisions
    );

    let mut truncated = schedule.clone();
    truncated.max_rounds = p.heal_round - 1;
    let pre_heal = run_schedule(&truncated);
    assert_eq!(pre_heal.violation, None, "{:?}", pre_heal.violation);
    assert_eq!(
        pre_heal.decisions[4], None,
        "stranded minority decided before the heal"
    );
    let majority_decision = pre_heal.decisions[0].expect("majority side decided while split");
    assert_eq!(
        full.decisions[4],
        Some(majority_decision),
        "minority must adopt the majority's split-time decision"
    );
}

/// Partition actions across every engine: a (n−f)|f split heals inside
/// the run and every correct process decides with no violation, while
/// the run truncated to `heal_round - 1` leaves the sub-quorum side
/// undecided. Deterministic loop (the check crate has no proptest
/// dependency); the harness-level proptest covers random schedules.
#[test]
fn sub_quorum_sides_never_decide_before_the_heal() {
    for engine in Protocol::ALL {
        for n in [5usize, 7] {
            let f = (n - 1) / 3;
            let cut = n - f; // majority keeps every engine's quorum
            let mask = (1u64 << cut) - 1;
            let schedule = Schedule {
                engine,
                n,
                seed: 0x5117 + n as u64,
                proposals: (0..n).map(|i| i % 2 == 0).collect(),
                byz: Vec::new(),
                window: 16,
                max_rounds: 94,
                faults: Vec::new(),
                partition: Some(Partition {
                    mask,
                    split_round: 1,
                    heal_round: 13,
                }),
            };
            assert!(!schedule.within_sigma_budget(), "partitioned => ineligible");

            let full = run_schedule(&schedule);
            assert_eq!(full.violation, None, "{} n={n}: {:?}", engine.name(), full.violation);
            assert!(
                full.decisions.iter().all(|d| d.is_some()),
                "{} n={n}: healed run must decide everywhere: {:?}",
                engine.name(),
                full.decisions
            );

            let mut truncated = schedule.clone();
            truncated.max_rounds = 12;
            let pre_heal = run_schedule(&truncated);
            assert_eq!(pre_heal.violation, None, "{} n={n}", engine.name());
            for id in cut..n {
                assert_eq!(
                    pre_heal.decisions[id], None,
                    "{} n={n}: sub-quorum p{id} decided before the heal",
                    engine.name()
                );
            }
        }
    }
}
