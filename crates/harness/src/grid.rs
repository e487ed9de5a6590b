//! The grid driver: the paper's methodology (§7.2) as one procedure.
//!
//! Every experiment is a list of cells, each run for a number of seeded
//! repetitions, with safety checked on every run and one aggregate per
//! cell. A binary supplies what is its own — the cell list, how a
//! `(cell, rep)` becomes a [`Scenario`], what a finished run
//! contributes, and how a cell renders — and [`Plan::run`] does the
//! rest, identically for all twelve:
//!
//! * reads the repetition count (the first argument) and
//!   `TURQUOIS_SIZES` / `_THREADS` / `_TIME_LIMIT` once
//!   ([`Plan::from_env`]);
//! * fans the cell-major `(cell, rep)` jobs across the [`runner`] pool
//!   (`run_indexed`, each job under `isolated`), merged by job index so
//!   output is byte-identical at any thread count, and times each job;
//! * **asserts agreement + validity on every run** — a violation fails
//!   the cell as `FAILED(safety)` and is never retried or downgraded;
//! * treats a run that stops short of its decision target per the
//!   plan's [`Stall`] policy: a retryable stall (one retry at
//!   [`RETRY_BUDGET_SCALE`]× the budget, then `FAILED(stalled)`) or a
//!   sample like any other. The retry is the grid's own: the runner
//!   knows nothing of stalls;
//! * drains each cell's whole chunk of outcomes, so a failed cell never
//!   shifts a later cell's samples, and lets the first failing
//!   repetition decide the cell's verdict;
//! * finishes ([`GridRun::finish`]) with the `[runner]` timing line,
//!   the JSON report when `TURQUOIS_BENCH_JSON` asks for one, each
//!   failure's detail as `[supervisor]` lines, and a nonzero exit if any
//!   cell failed — all on stderr, never stdout.

use crate::env_guard::{self, knob};
use crate::runner;
use crate::scenario::{RunOutcome, Scenario, ScenarioError};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Budget multiplier for the single stall retry: generous enough that a
/// merely *slow* run (an unlucky divergent tail) completes, small enough
/// that a genuinely *stuck* run fails the whole sweep promptly.
pub const RETRY_BUDGET_SCALE: u32 = 4;

/// What a run that stops short of its decision target means.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Stall {
    /// An anomaly: retry once at an escalated budget, fail the cell as
    /// `FAILED(stalled)` if the retry stalls too.
    Retry,
    /// The measurement itself (the σ, loss and tick sweeps chart where
    /// progress stops): the incomplete run is sampled like any other.
    Data,
}

/// How one experiment runs: the knobs, resolved against the binary's
/// defaults.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Binary name, for the `[runner]` line and the JSON report.
    pub bin: &'static str,
    /// Repetitions per cell.
    pub reps: usize,
    /// Group sizes, for the experiments whose grid has a size axis.
    pub sizes: Vec<usize>,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// `TURQUOIS_TIME_LIMIT`: replaces every scenario's own
    /// simulated-time limit when set.
    pub time_limit: Option<Duration>,
    /// What an incomplete run means to this experiment.
    pub stall: Stall,
}

impl Plan {
    /// Reads the knobs (warning about misspelled names and malformed
    /// values), falling back to the binary's `reps` and `sizes`. The
    /// repetition count is the first CLI argument if there is one.
    pub fn from_env(bin: &'static str, reps: usize, sizes: &[usize], stall: Stall) -> Plan {
        env_guard::warn_unknown_env_vars();
        Plan {
            bin,
            reps: reps_from(std::env::args().nth(1), reps),
            sizes: knob("TURQUOIS_SIZES", "comma-separated group sizes", parse_sizes)
                .unwrap_or_else(|| sizes.to_vec()),
            threads: runner::threads_from_env(),
            time_limit: knob(
                "TURQUOIS_TIME_LIMIT",
                "a positive number of simulated seconds",
                parse_time_limit,
            ),
            stall,
        }
    }

    /// Runs `reps` repetitions of every cell and returns the per-cell
    /// results in cell order.
    ///
    /// `run` produces the outcome of one `(cell, rep)` under the
    /// attempt's [`Budget`] — `budget.apply(scenario).run_once()`, or
    /// `run_built` for a simulator built outside the scenario
    /// (`tick_ablation`'s). `sample` extracts what the run
    /// contributes; an `Err` from it is an experiment-specific safety
    /// verdict (the partition matrix's sub-quorum rule) and fails the
    /// cell like an agreement violation. `label` names a cell on stderr
    /// and in the JSON report.
    pub fn run<C, S>(
        &self,
        cells: &[C],
        label: impl Fn(&C) -> String,
        run: impl Fn(&C, usize, Budget) -> Result<RunOutcome, ScenarioError> + Sync,
        sample: impl Fn(&C, &RunOutcome) -> Result<S, String> + Sync,
    ) -> GridRun<S>
    where
        C: Sync,
        S: Send,
    {
        let labels: Vec<String> = cells.iter().map(label).collect();
        // Cell-major, so results come back as contiguous per-cell chunks.
        let jobs: Vec<(usize, usize)> = (0..cells.len())
            .flat_map(|cell| (0..self.reps).map(move |rep| (cell, rep)))
            .collect();
        // One job is one run, retried once at an escalated budget if it
        // stalls under `Stall::Retry`; a panic anywhere in it, the retry
        // included, fails the job alone.
        let job = |cell: usize, rep: usize| -> Result<(S, bool), Failure> {
            let fatal = |reason, detail| Err(Failure { reason, detail });
            let mut stall = None;
            for scale in [1, RETRY_BUDGET_SCALE] {
                let budget = Budget {
                    limit: self.time_limit,
                    scale,
                };
                let outcome = match run(&cells[cell], rep, budget) {
                    Ok(outcome) => outcome,
                    Err(e) => return fatal("config", e.to_string()),
                };
                // Safety comes before anything else is read off the run,
                // the stall policy included: a violation must never be
                // retried into a pass or hidden behind `FAILED(stalled)`.
                let (agreement, validity) = (outcome.agreement_holds(), outcome.validity_holds());
                if !(agreement && validity) {
                    let word = |holds| if holds { "holds" } else { "violated" };
                    return fatal(
                        "safety",
                        format!(
                            "SAFETY VIOLATION: {} rep={rep}: agreement {}, validity {}",
                            labels[cell],
                            word(agreement),
                            word(validity),
                        ),
                    );
                }
                let sample = match sample(&cells[cell], &outcome) {
                    Ok(sample) => sample,
                    Err(detail) => return fatal("safety", detail),
                };
                let stalled = self.stall == Stall::Retry && !outcome.k_reached();
                match outcome.stall {
                    Some(report) if stalled => stall = Some(report),
                    _ => return Ok((sample, scale > 1)),
                }
            }
            let report = stall.expect("only a stall is retried");
            fatal("stalled", report.to_string())
        };
        let started = Instant::now();
        let outcomes = runner::run_indexed(self.threads, &jobs, |_, &(cell, rep)| {
            let t0 = Instant::now();
            let verdict = runner::isolated(|| job(cell, rep))
                .unwrap_or_else(|detail| Err(Failure { reason: "panic", detail }));
            (verdict, t0.elapsed())
        });
        let report = RunnerReport {
            threads: self.threads.clamp(1, jobs.len().max(1)),
            jobs: jobs.len(),
            elapsed: started.elapsed(),
            busy: outcomes.iter().map(|(_, wall)| *wall).sum(),
        };

        let mut outcomes = outcomes.into_iter();
        let cells = labels
            .into_iter()
            .map(|label| {
                let mut cell = Cell {
                    label,
                    samples: Ok(Vec::with_capacity(self.reps)),
                    retried: 0,
                    wall: Duration::ZERO,
                };
                // The whole chunk is consumed even once the verdict is
                // fixed: stopping at the first failure would leave the
                // rest of it to be read as the next cell's samples.
                for (verdict, wall) in outcomes.by_ref().take(self.reps) {
                    cell.wall += wall;
                    if let Ok(samples) = &mut cell.samples {
                        match verdict {
                            Ok((sample, retried)) => {
                                samples.push(sample);
                                cell.retried += usize::from(retried);
                            }
                            Err(failure) => cell.samples = Err(failure),
                        }
                    }
                }
                cell
            })
            .collect();
        GridRun {
            bin: self.bin,
            reps: self.reps,
            cells,
            report,
        }
    }
}

/// The simulated-time budget of one attempt at one run.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    limit: Option<Duration>,
    scale: u32,
}

impl Budget {
    /// Sets `scenario`'s time limit for this attempt: the plan's
    /// `TURQUOIS_TIME_LIMIT` if given, else the limit the scenario came
    /// with, times the attempt's escalation factor.
    pub fn apply(self, scenario: Scenario) -> Scenario {
        let base = self.limit.unwrap_or(scenario.time_budget());
        scenario.time_limit(base * self.scale)
    }
}

/// Why a cell has no samples. Displays as the `FAILED(<reason>)` every
/// table prints in the cell's place.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// `panic`, `stalled`, `safety`, or `config`.
    pub reason: &'static str,
    /// The panic message, the rendered `StallReport`, or the error text.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(&format!("FAILED({})", self.reason))
    }
}

/// One cell of a finished grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell<S> {
    /// The cell's name on stderr and in the JSON report.
    pub label: String,
    /// Every repetition's sample, in repetition order — or, if any
    /// repetition failed, the first failure.
    pub samples: Result<Vec<S>, Failure>,
    /// Repetitions that only completed on the escalated-budget retry.
    pub retried: usize,
    /// Host time spent on the cell's jobs. Never printed to stdout.
    pub wall: Duration,
}

/// A finished grid: per-cell results in cell order plus the fan-out's
/// timing.
#[derive(Clone, Debug)]
pub struct GridRun<S> {
    bin: &'static str,
    reps: usize,
    /// One entry per cell passed to [`Plan::run`], in that order.
    pub cells: Vec<Cell<S>>,
    /// Wall-clock accounting of the fan-out.
    pub report: RunnerReport,
}

/// Wall-clock accounting for one grid's fan-out.
///
/// `busy` is the serial-equivalent cost of the jobs: the summed host
/// time of each job, retry included. `elapsed` is the wall time of the
/// whole fan-out; `busy / elapsed` is the achieved speedup (≈ 1.0 on
/// the serial path or a single-core host).
#[derive(Clone, Copy, Debug)]
pub struct RunnerReport {
    /// Worker threads actually used (`min(threads, jobs)`, at least 1).
    pub threads: usize,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Wall-clock time of the whole fan-out.
    pub elapsed: Duration,
    /// Summed wall-clock time spent inside jobs (serial-equivalent).
    pub busy: Duration,
}

impl RunnerReport {
    /// Achieved speedup: serial-equivalent time over elapsed time.
    pub(crate) fn speedup(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / elapsed
        }
    }

    /// One human-readable stderr line (never stdout — experiment stdout
    /// must stay byte-identical across thread counts).
    pub fn log(&self, label: &str) {
        eprintln!(
            "[runner] {label}: {} jobs on {} thread{} in {:.2}s \
             (serial-equivalent {:.2}s, speedup {:.2}x)",
            self.jobs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.elapsed.as_secs_f64(),
            self.busy.as_secs_f64(),
            self.speedup()
        );
    }
}

impl<S> GridRun<S> {
    /// The failed cells, in cell order.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &Failure)> {
        self.cells
            .iter()
            .filter_map(|cell| Some((cell.label.as_str(), cell.samples.as_ref().err()?)))
    }

    /// Ends an experiment binary, after it has printed its table: the
    /// `[runner]` line, the JSON report if asked for, each failure's
    /// detail — all on stderr, so stdout stays comparable across runs —
    /// and exit status 1 if any cell failed.
    pub fn finish(&self) {
        self.report.log(self.bin);
        self.write_json();
        for (label, failure) in self.failures() {
            eprintln!("[supervisor] {label} {failure}:");
            for line in failure.detail.lines() {
                eprintln!("[supervisor]   {line}");
            }
        }
        if self.failures().next().is_some() {
            std::process::exit(1);
        }
    }

    /// Writes the run's host-side record — fan-out timing and per-cell
    /// wall clock, verdict and retry count — to `$TURQUOIS_BENCH_JSON`,
    /// and nothing when that is unset or empty: a default path would be
    /// overwritten by whichever binary ran last. I/O failures warn
    /// instead of aborting; telemetry must never kill an experiment.
    fn write_json(&self) {
        let Some(path) = std::env::var_os("TURQUOIS_BENCH_JSON").filter(|p| !p.is_empty()) else {
            return;
        };
        let path = PathBuf::from(path);
        let r = &self.report;
        let mut json = format!(
            "{{\n  \"bin\": \"{}\",\n  \"available_parallelism\": {},\n  \"reps\": {},\n  \
             \"runner\": {{\"jobs\": {}, \"threads\": {}, \"wall_s\": {:.3}, \
             \"serial_equivalent_s\": {:.3}, \"speedup\": {:.2}}},\n  \"cells\": [\n",
            escape_json(self.bin),
            runner::default_threads(),
            self.reps,
            r.jobs,
            r.threads,
            r.elapsed.as_secs_f64(),
            r.busy.as_secs_f64(),
            r.speedup(),
        );
        for (i, cell) in self.cells.iter().enumerate() {
            let failed = match &cell.samples {
                Ok(_) => "null".to_string(),
                Err(failure) => format!("\"{}\"", failure.reason),
            };
            json.push_str(&format!(
                "    {{\"label\": \"{}\", \"failed\": {failed}, \"retried\": {}, \
                 \"wall_s\": {:.3}}}{}\n",
                escape_json(&cell.label),
                cell.retried,
                cell.wall.as_secs_f64(),
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        let written = match path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
            Some(dir) => std::fs::create_dir_all(dir),
            None => Ok(()),
        }
        .and_then(|()| std::fs::write(&path, json));
        if let Err(e) = written {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The repetition count: the first CLI argument, `arg`, when it
/// parses, else `default`.
fn reps_from(arg: Option<String>, default: usize) -> usize {
    let Some(arg) = arg else { return default };
    arg.parse().unwrap_or_else(|_| {
        eprintln!(
            "warning: ignoring malformed repetition argument {arg:?}: \
             expected a non-negative integer"
        );
        default
    })
}

/// `TURQUOIS_SIZES`: the entries that parse, each other one warned
/// about; `None` if none does.
fn parse_sizes(raw: &str) -> Option<Vec<usize>> {
    let mut sizes = Vec::new();
    for token in raw.split(',') {
        match token.trim().parse() {
            Ok(n) => sizes.push(n),
            Err(_) => eprintln!("warning: ignoring malformed TURQUOIS_SIZES entry {token:?}"),
        }
    }
    (!sizes.is_empty()).then_some(sizes)
}

/// `TURQUOIS_TIME_LIMIT`: positive, possibly fractional, seconds, small
/// enough that the retry's [`RETRY_BUDGET_SCALE`]-fold still
/// fits the `u64` nanoseconds of a `SimTime`.
fn parse_time_limit(raw: &str) -> Option<Duration> {
    let limit = Duration::try_from_secs_f64(raw.trim().parse().ok()?).ok()?;
    let escalated = limit.checked_mul(RETRY_BUDGET_SCALE)?;
    (!limit.is_zero() && u64::try_from(escalated.as_nanos()).is_ok()).then_some(limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Protocol;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wireless_net::SimTime;

    fn plan(threads: usize) -> Plan {
        Plan {
            bin: "test",
            reps: 3,
            sizes: Vec::new(),
            threads,
            time_limit: None,
            stall: Stall::Retry,
        }
    }

    /// A run source whose cell 1 reports a validity failure in its
    /// second repetition (unanimous proposals of 1, every decision
    /// flipped to 0: agreement holds, validity does not). The cell must
    /// fail as `FAILED(safety)` without a retry, and cells 0 and 2 must
    /// see exactly their own samples — the failed cell's third outcome
    /// is drained, not handed on.
    #[test]
    fn validity_failure_fails_its_cell_once_and_keeps_siblings_aligned() {
        let cells = [0usize, 1, 2];
        for threads in [1, 4] {
            let attempts: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
            let run = plan(threads).run(
                &cells,
                |cell| format!("cell {cell}"),
                |&cell, rep, budget| {
                    attempts[cell * 3 + rep].fetch_add(1, Ordering::Relaxed);
                    let scenario =
                        Scenario::new(Protocol::Turquois, 4).seed((cell * 3 + rep) as u64);
                    let mut outcome = budget.apply(scenario).run_once()?;
                    if (cell, rep) == (1, 1) {
                        for decision in outcome.decisions.iter_mut().flatten() {
                            decision.value = !decision.value;
                        }
                        assert!(outcome.agreement_holds() && !outcome.validity_holds());
                    }
                    Ok(outcome)
                },
                |&cell, outcome| Ok((cell, outcome.stats.frames_sent())),
            );
            let failure = run.cells[1].samples.as_ref().expect_err("cell 1 fails");
            assert_eq!(failure.to_string(), "FAILED(safety)");
            assert!(
                failure.detail.contains("cell 1 rep=1"),
                "{}",
                failure.detail
            );
            assert!(
                failure.detail.contains("validity violated"),
                "{}",
                failure.detail
            );
            assert_eq!(run.failures().count(), 1, "threads={threads}");
            for sibling in [0, 2] {
                let samples = run.cells[sibling]
                    .samples
                    .as_ref()
                    .expect("sibling is clean");
                assert_eq!(samples.len(), 3);
                assert!(
                    samples
                        .iter()
                        .all(|&(cell, frames)| cell == sibling && frames > 0),
                    "cell {sibling} aggregates its own repetitions: {samples:?}"
                );
            }
            assert!(
                attempts.iter().all(|a| a.load(Ordering::Relaxed) == 1),
                "a safety violation is never retried (threads={threads})"
            );
        }
    }

    /// An incomplete run is a retried stall under [`Stall::Retry`] and
    /// a plain sample under [`Stall::Data`]; the retry gets the
    /// escalated budget, and `TURQUOIS_TIME_LIMIT` replaces the
    /// scenario's own limit.
    #[test]
    fn stall_policy_decides_what_an_incomplete_run_is() {
        let short = Plan {
            reps: 1,
            time_limit: Some(Duration::from_millis(2)),
            ..plan(1)
        };
        let go = |plan: &Plan| {
            plan.run(
                &[()],
                |_| "cell".into(),
                |_, _, budget| {
                    budget
                        .apply(Scenario::new(Protocol::Turquois, 4))
                        .run_once()
                },
                |_, outcome| Ok(outcome.k_reached()),
            )
        };
        let retried = go(&short);
        let failure = retried.cells[0]
            .samples
            .as_ref()
            .expect_err("2 ms is too short");
        assert_eq!(failure.reason, "stalled");
        assert!(
            failure.detail.contains("budget 0.008000s"),
            "{}",
            failure.detail
        );

        let sampled = go(&Plan {
            stall: Stall::Data,
            ..short
        });
        let samples = sampled.cells[0]
            .samples
            .as_ref()
            .expect("the stall is the sample");
        assert_eq!(samples.len(), 1);
        assert!(!samples[0], "the run did not reach k");
        assert_eq!(sampled.cells[0].retried, 0);
    }

    /// A run that stalls at 1× and decides at [`RETRY_BUDGET_SCALE`]×
    /// is a sample of its cell, counted as retried.
    #[test]
    fn a_slow_run_decides_on_the_retry() {
        let scenario = || Scenario::new(Protocol::Turquois, 4).seed(5);
        let took = scenario().run_once().expect("runs").end.saturating_since(SimTime::ZERO);
        let run = Plan {
            reps: 1,
            time_limit: Some(took / 2),
            ..plan(1)
        }
        .run(
            &[()],
            |_| "slow".into(),
            |_, _, budget| budget.apply(scenario()).run_once(),
            |_, outcome| Ok(outcome.k_reached()),
        );
        assert_eq!(run.cells[0].samples, Ok(vec![true]), "the retry decides");
        assert_eq!(run.cells[0].retried, 1);
    }

    /// The run closure is called once for a clean run and exactly twice
    /// for a stuck one: one retry, never a second.
    #[test]
    fn a_stuck_run_is_tried_exactly_twice() {
        let calls = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let run = Plan { reps: 1, ..plan(2) }.run(
            &[Duration::from_secs(60), Duration::from_millis(2)],
            |limit| format!("{limit:?}"),
            |&limit, _, budget| {
                calls[usize::from(limit.as_secs() == 0)].fetch_add(1, Ordering::Relaxed);
                budget
                    .apply(Scenario::new(Protocol::Turquois, 4).time_limit(limit))
                    .run_once()
            },
            |_, _| Ok(()),
        );
        assert!(run.cells[0].samples.is_ok());
        assert_eq!(run.cells[1].samples.as_ref().map_err(|f| f.reason), Err("stalled"));
        assert_eq!(calls.map(|c| c.into_inner()), [1, 2]);
    }

    /// The `[runner]` accounting: every job counted, the pool clamped
    /// to the jobs, and the serial-equivalent time the summed walls of
    /// the cells' jobs.
    #[test]
    fn timed_report_is_sane() {
        let run = Plan { reps: 5, ..plan(3) }.run(
            &[0u64, 1],
            |cell| format!("cell {cell}"),
            |&cell, rep, budget| {
                budget
                    .apply(Scenario::new(Protocol::Turquois, 4).seed(cell * 5 + rep as u64))
                    .run_once()
            },
            |_, _| Ok(()),
        );
        let report = run.report;
        assert_eq!((report.jobs, report.threads), (10, 3));
        assert_eq!(report.busy, run.cells.iter().map(|cell| cell.wall).sum());
        assert!(report.speedup().is_finite() && report.speedup() >= 0.0);
        let one = Plan { reps: 1, ..plan(8) }.run(
            &[()],
            |_| "one".into(),
            |_, _, budget| budget.apply(Scenario::new(Protocol::Turquois, 4)).run_once(),
            |_, _| Ok(()),
        );
        assert_eq!(one.report.threads, 1, "never more workers than jobs");
    }

    #[test]
    fn a_sample_verdict_fails_the_cell_as_safety() {
        let run = plan(1).run(
            &[false, true],
            |bad| format!("bad={bad}"),
            |_, rep, budget| {
                budget
                    .apply(Scenario::new(Protocol::Turquois, 4).seed(rep as u64))
                    .run_once()
            },
            |&bad, _| {
                if bad {
                    Err("sub-quorum decision".to_string())
                } else {
                    Ok(())
                }
            },
        );
        assert!(run.cells[0].samples.is_ok());
        let failure = run.cells[1]
            .samples
            .as_ref()
            .expect_err("verdict fails the cell");
        assert_eq!(
            (failure.reason, failure.detail.as_str()),
            ("safety", "sub-quorum decision")
        );
    }

    #[test]
    fn knob_value_parsing() {
        assert_eq!(parse_time_limit("2.5"), Some(Duration::from_secs_f64(2.5)));
        assert_eq!(parse_time_limit(" 30 "), Some(Duration::from_secs(30)));
        for bad in ["0", "-1", "inf", "nan", "abc", "1e30", "1e11"] {
            assert_eq!(parse_time_limit(bad), None, "{bad}");
        }
        assert_eq!(parse_sizes("4, 7"), Some(vec![4, 7]));
        assert_eq!(parse_sizes("4,banana"), Some(vec![4]));
        assert_eq!(parse_sizes("banana"), None);
    }

    #[test]
    fn the_first_argument_sets_the_repetitions() {
        assert_eq!(reps_from(Some("7".into()), 3), 7);
        assert_eq!(reps_from(Some("0".into()), 3), 0);
        assert_eq!(reps_from(None, 3), 3, "no argument: the binary's default");
        assert_eq!(reps_from(Some("ten".into()), 3), 3, "malformed: warned, default");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
