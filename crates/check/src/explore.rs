//! Seeded exploration: generate schedules, fan them across the harness
//! worker pool, shrink whatever fails, and render a deterministic
//! report.
//!
//! Exploration reuses `turquois_harness::runner::run_indexed` — the
//! same deterministic fan-out that drives the experiment binaries — so
//! per-schedule results are merged in job order and the rendered report
//! is byte-identical at any `TURQUOIS_THREADS`; each schedule runs under
//! `runner::isolated`, the grid's panic guard. Shrinking runs serially
//! after the merge (only failures shrink, and failures are the rare
//! path).

use crate::drive::{run_schedule, RunReport, Violation};
use crate::replay::{engine_word, to_text, Expectation};
use crate::schedule::{generate, GenParams, Schedule};
use crate::shrink::shrink;
use std::fmt::Write as _;
use turquois_harness::runner::{isolated, run_indexed};
use turquois_harness::Protocol;

/// Parameters for one exploration sweep.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Engine under test.
    pub engine: Protocol,
    /// Group size.
    pub n: usize,
    /// Number of schedules to generate and run.
    pub schedules: usize,
    /// Base seed; schedule `i` derives its randomness from
    /// `(base_seed, i)`, so sweeps are reproducible and extendable.
    pub base_seed: u64,
}

/// A violating schedule together with its shrunk counterexample.
#[derive(Clone, Debug)]
pub struct ViolationRecord {
    /// Index of the generated schedule that failed.
    pub index: usize,
    /// The violation the original schedule produced.
    pub violation: Violation,
    /// The violation the shrunk schedule produces.
    pub(crate) shrunk_violation: Violation,
    /// Replay fixture text for the shrunk schedule.
    pub(crate) fixture: String,
    /// The shrinker's step-by-step log.
    pub trace: Vec<String>,
    /// Schedules executed while shrinking.
    pub(crate) shrink_attempts: usize,
}

/// A schedule whose execution panicked the engine — a counterexample
/// candidate in its own right (an engine crash on adversarial input is
/// a bug even when no safety property gets the chance to trip).
#[derive(Clone, Debug)]
pub struct PanicRecord {
    /// Index of the generated schedule that panicked.
    pub index: usize,
    /// The panic message.
    pub message: String,
    /// Replay fixture text regenerating the panicking schedule.
    pub(crate) fixture: String,
}

/// Aggregate outcome of one exploration sweep.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Schedules executed.
    pub explored: usize,
    /// Schedules within the σ omission budget (liveness-checked).
    pub eligible: usize,
    /// Schedules on which every correct process decided.
    pub decided: usize,
    /// Failures, shrunk to minimal counterexamples.
    pub violations: Vec<ViolationRecord>,
    /// Schedules that panicked the engine, isolated by
    /// `runner::isolated` so the rest of the sweep still completes.
    pub panics: Vec<PanicRecord>,
    /// Deterministic rendered report (byte-identical at any thread
    /// count).
    pub text: String,
}

/// Runs one sweep: generate, execute in parallel, shrink failures,
/// render.
pub fn explore(cfg: ExploreConfig, threads: usize) -> ExploreReport {
    explore_with(cfg, threads, |_, s| run_schedule(s))
}

/// [`explore`] with an injectable per-schedule runner — the seam the
/// panic-isolation test uses to make a chosen schedule panic.
fn explore_with(
    cfg: ExploreConfig,
    threads: usize,
    run: impl Fn(usize, &Schedule) -> RunReport + Sync,
) -> ExploreReport {
    let params = GenParams {
        engine: cfg.engine,
        n: cfg.n,
        base_seed: cfg.base_seed,
    };
    let indices: Vec<usize> = (0..cfg.schedules).collect();
    // A schedule that panics the engine is isolated to its own job and
    // recorded as a counterexample candidate instead of killing the
    // sweep.
    let outcomes = run_indexed(threads, &indices, |_, &i| {
        isolated(|| {
            let s = generate(&params, i as u64);
            let r = run(i, &s);
            (s, r)
        })
    });

    let explored = outcomes.len();
    let mut runs: Vec<(usize, Schedule, RunReport)> = Vec::new();
    let mut panics: Vec<PanicRecord> = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let message = match outcome {
            Ok((s, r)) => {
                runs.push((i, s, r));
                continue;
            }
            Err(message) => message,
        };
        let s = generate(&params, i as u64);
        let fixture = to_text(
            &s,
            Expectation::Clean,
            &[
                &format!("schedule #{i} PANICKED during exploration: {message}"),
                &format!(
                    "sweep: engine={}, n={}, base_seed={}",
                    engine_word(cfg.engine),
                    cfg.n,
                    cfg.base_seed
                ),
            ],
        );
        panics.push(PanicRecord {
            index: i,
            message,
            fixture,
        });
    }

    let eligible = runs.iter().filter(|(_, _, r)| r.eligible).count();
    let decided = runs
        .iter()
        .filter(|(_, s, r)| {
            (0..s.n).filter(|&id| !s.is_byz(id)).all(|id| r.decisions[id].is_some())
        })
        .count();

    let mut violations = Vec::new();
    for (i, s, r) in runs.iter().map(|(i, s, r)| (*i, s, r)) {
        let Some(v) = &r.violation else { continue };
        // Shrink against the same violation *kind* so the minimal
        // schedule demonstrates the original failure, not an easier one
        // introduced along the way.
        let kind = v.kind();
        let result = shrink(s, |candidate| {
            run_schedule(candidate)
                .violation
                .filter(|cv| cv.kind() == kind)
        });
        let fixture = to_text(
            &result.schedule,
            Expectation::Violation(kind),
            &[&format!(
                "shrunk from schedule #{i} of sweep (engine={}, n={}, base_seed={})",
                engine_word(cfg.engine),
                cfg.n,
                cfg.base_seed
            )],
        );
        violations.push(ViolationRecord {
            index: i,
            violation: v.clone(),
            shrunk_violation: result.violation,
            fixture,
            trace: result.trace,
            shrink_attempts: result.attempts,
        });
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "schedule sweep: engine={} n={} schedules={} base_seed={}",
        engine_word(cfg.engine),
        cfg.n,
        cfg.schedules,
        cfg.base_seed
    );
    let _ = writeln!(
        text,
        "explored={explored} eligible={eligible} decided={decided} violations={} panics={}",
        violations.len(),
        panics.len()
    );
    for p in &panics {
        let _ = writeln!(text, "-- panic at schedule #{}: {}", p.index, p.message);
        for line in p.fixture.lines() {
            let _ = writeln!(text, "   > {line}");
        }
    }
    for v in &violations {
        let _ = writeln!(text, "-- violation at schedule #{}: {}", v.index, v.violation);
        let _ = writeln!(
            text,
            "   shrunk ({} attempts) to: {}",
            v.shrink_attempts, v.shrunk_violation
        );
        for line in &v.trace {
            let _ = writeln!(text, "   | {line}");
        }
        for line in v.fixture.lines() {
            let _ = writeln!(text, "   > {line}");
        }
    }

    ExploreReport {
        explored,
        eligible,
        decided,
        violations,
        panics,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_schedule_is_a_candidate_not_a_sweep_killer() {
        let cfg = ExploreConfig {
            engine: Protocol::Turquois,
            n: 4,
            schedules: 12,
            base_seed: 7,
        };
        let clean = explore(cfg, 2);

        // Quiet the default panic hook while panics are intentional.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut reports = Vec::new();
        for threads in [1, 4] {
            reports.push(explore_with(cfg, threads, |i, s| {
                if i == 3 {
                    panic!("engine blew up on schedule {i}");
                }
                run_schedule(s)
            }));
        }
        std::panic::set_hook(hook);

        assert_eq!(reports[0].text, reports[1].text, "byte-identical with a panic");
        for report in &reports {
            assert_eq!(report.explored, 12, "sweep completes despite the panic");
            assert_eq!(report.panics.len(), 1);
            assert_eq!(report.panics[0].index, 3);
            assert!(report.panics[0].message.contains("blew up"));
            assert!(report.panics[0].fixture.contains("PANICKED"));
            assert!(report.text.contains("panics=1"));
            assert!(report.text.contains("-- panic at schedule #3"));
            // Every other schedule's verdict is unaffected.
            assert_eq!(report.violations.len(), clean.violations.len());
            assert!(report.decided + 1 >= clean.decided);
        }
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        for engine in Protocol::ALL {
            let cfg = ExploreConfig {
                engine,
                n: 4,
                schedules: 24,
                base_seed: 99,
            };
            let serial = explore(cfg, 1);
            let parallel = explore(cfg, 8);
            assert_eq!(serial.text, parallel.text, "{}", engine.name());
            assert_eq!(serial.explored, 24);
        }
    }
}
