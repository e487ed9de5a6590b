//! Greedy minimisation of failing schedules.
//!
//! Once the explorer finds a violating schedule it is usually bloated:
//! hundreds of faults, several Byzantine processes, a long adversarial
//! window. The shrinker reduces it to a minimal counterexample by
//! repeatedly deleting parts and keeping any deletion that still
//! violates the property:
//!
//! 1. **Fault removal** (ddmin-lite): try deleting chunks of the fault
//!    list, halving the chunk size down to single faults, to a fixpoint.
//! 2. **Byzantine demotion**: try turning each Byzantine process back
//!    into a correct one.
//! 3. **Partition removal**: try running the schedule with its
//!    split/heal action deleted.
//! 4. **Window reduction**: try halving the adversarial window (which
//!    disables the faults — and the partition — beyond it), then
//!    trimming it to the last fault round.
//!
//! The whole pass is deterministic — same input, same checker, same
//! minimal schedule — so shrunk counterexamples can be checked into
//! `tests/fixtures/` and replayed byte-for-byte.

use crate::drive::Violation;
use crate::schedule::Schedule;

/// Result of shrinking one failing schedule.
#[derive(Clone, Debug)]
pub(crate) struct ShrinkResult {
    /// The minimal schedule (still failing).
    pub schedule: Schedule,
    /// The violation the minimal schedule produces.
    pub violation: Violation,
    /// Human-readable log of each accepted reduction step.
    pub trace: Vec<String>,
    /// Number of candidate schedules executed while shrinking.
    pub attempts: usize,
}

/// Shrinks `failing` to a locally-minimal schedule for which `check`
/// still reports a violation.
///
/// `check` runs the schedule and returns `Some(violation)` if the
/// property of interest is still violated (callers usually match on the
/// violation kind so shrinking cannot drift from, say, an agreement
/// break to an unrelated liveness stall).
///
/// # Panics
///
/// Panics if `check(failing)` returns `None` — shrinking a passing
/// schedule is a caller bug.
pub(crate) fn shrink(
    failing: &Schedule,
    check: impl Fn(&Schedule) -> Option<Violation>,
) -> ShrinkResult {
    let mut attempts = 1;
    let mut violation = check(failing).expect("shrink() requires a failing schedule");
    let mut best = failing.clone();
    let mut trace = vec![format!(
        "start: {} faults, {} byz, window {} ({})",
        best.faults.len(),
        best.byz.len(),
        best.window,
        violation
    )];

    // Phase 1: ddmin-lite over the fault list, to a fixpoint.
    loop {
        let before = best.faults.len();
        let mut chunk = (best.faults.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.faults.len() {
                let end = (start + chunk).min(best.faults.len());
                let mut candidate = best.clone();
                candidate.faults.drain(start..end);
                attempts += 1;
                if let Some(v) = check(&candidate) {
                    trace.push(format!(
                        "drop faults [{start}..{end}) -> {} remain",
                        candidate.faults.len()
                    ));
                    best = candidate;
                    violation = v;
                    // Re-test the same position: the list shifted left.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        if best.faults.len() == before {
            break;
        }
    }

    // Phase 2: demote Byzantine processes to correct ones.
    let mut i = 0;
    while i < best.byz.len() {
        let mut candidate = best.clone();
        let removed = candidate.byz.remove(i);
        attempts += 1;
        if let Some(v) = check(&candidate) {
            trace.push(format!("demote byz p{} -> correct", removed.id));
            best = candidate;
            violation = v;
        } else {
            i += 1;
        }
    }

    // Phase 3: try healing the network entirely (drop the partition).
    if best.partition.is_some() {
        let mut candidate = best.clone();
        candidate.partition = None;
        attempts += 1;
        if let Some(v) = check(&candidate) {
            trace.push("drop partition".into());
            best = candidate;
            violation = v;
        }
    }

    // Phase 4: tighten the adversarial window.
    loop {
        let last_fault = best.faults.iter().map(|f| f.round).max().unwrap_or(0);
        let target = if best.window / 2 >= last_fault {
            best.window / 2
        } else {
            last_fault
        };
        if target >= best.window {
            break;
        }
        let mut candidate = best.clone();
        candidate.window = target;
        attempts += 1;
        match check(&candidate) {
            Some(v) => {
                trace.push(format!("shrink window -> {target}"));
                best = candidate;
                violation = v;
            }
            None => break,
        }
    }

    trace.push(format!(
        "minimal: {} faults, {} byz, window {} ({})",
        best.faults.len(),
        best.byz.len(),
        best.window,
        violation
    ));
    ShrinkResult {
        schedule: best,
        violation,
        trace,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ByzSpec, ByzStrategy, Fault, FaultKind, Partition};
    use turquois_harness::Protocol;

    /// Synthetic checker: fails iff the schedule still contains the one
    /// load-bearing fault (round 3, 0 -> 1 drop) AND a Byzantine p2.
    fn synthetic_check(s: &Schedule) -> Option<Violation> {
        let has_fault = s.faults.iter().any(|f| {
            f.round == 3 && f.from == 0 && f.to == 1 && f.kind == FaultKind::Drop && f.round <= s.window
        });
        let has_byz = s.byz.iter().any(|b| b.id == 2);
        (has_fault && has_byz).then(|| Violation::Liveness {
            undecided: vec![1],
            detail: "synthetic".into(),
        })
    }

    fn bloated() -> Schedule {
        let mut faults = Vec::new();
        for round in 1..=8 {
            for from in 0..4 {
                for to in 0..4 {
                    if from != to {
                        faults.push(Fault {
                            round,
                            from,
                            to,
                            kind: if (from + to) % 2 == 1 {
                                FaultKind::Drop
                            } else {
                                FaultKind::Delay(2)
                            },
                        });
                    }
                }
            }
        }
        Schedule {
            engine: Protocol::Turquois,
            n: 4,
            seed: 7,
            proposals: vec![true; 4],
            byz: vec![
                ByzSpec { id: 2, mask: 0b0011, strategy: ByzStrategy::SplitBrain },
                ByzSpec { id: 3, mask: 0, strategy: ByzStrategy::Flip },
            ],
            window: 8,
            max_rounds: 40,
            faults,
            partition: Some(Partition {
                mask: 0b0011,
                split_round: 1,
                heal_round: 9,
            }),
        }
    }

    #[test]
    fn shrinks_to_the_load_bearing_core() {
        let result = shrink(&bloated(), synthetic_check);
        assert_eq!(result.schedule.faults.len(), 1, "{:?}", result.schedule.faults);
        assert_eq!(result.schedule.faults[0].round, 3);
        assert_eq!(result.schedule.faults[0].from, 0);
        assert_eq!(result.schedule.faults[0].to, 1);
        assert_eq!(result.schedule.byz.len(), 1);
        assert_eq!(result.schedule.byz[0].id, 2);
        assert_eq!(result.schedule.window, 3);
        assert_eq!(result.schedule.partition, None, "idle partition not removed");
        assert!(synthetic_check(&result.schedule).is_some());
    }

    #[test]
    fn load_bearing_partition_survives_shrinking() {
        // Checker fails iff the partition is still present — everything
        // else must be stripped, the split/heal action must stay.
        let check = |s: &Schedule| {
            s.partition.map(|_| Violation::Liveness {
                undecided: vec![1],
                detail: "synthetic".into(),
            })
        };
        let result = shrink(&bloated(), check);
        assert!(result.schedule.faults.is_empty());
        assert!(result.schedule.byz.is_empty());
        assert_eq!(result.schedule.partition, bloated().partition);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let a = shrink(&bloated(), synthetic_check);
        let b = shrink(&bloated(), synthetic_check);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    #[should_panic(expected = "requires a failing schedule")]
    fn refuses_passing_schedules() {
        let mut s = bloated();
        s.byz.clear();
        shrink(&s, synthetic_check);
    }
}
