//! Repetition driving and table generation — the paper's methodology
//! (§7.2): 50 repetitions per cell, average latency over all processes,
//! 95 % confidence interval; safety (agreement + validity) asserted on
//! every single run.
//!
//! Measurement fans `(cell, rep)` jobs across the [`crate::runner`]
//! worker pool. Each job owns its simulator for the duration of one
//! run; aggregation consumes the results in job order, so every number,
//! table byte, and error message is identical to the serial path
//! regardless of `TURQUOIS_THREADS`.

use crate::runner::{self, Attempt, JobOutcome, RunnerReport};
use crate::scenario::{FaultLoad, Protocol, ProposalDistribution, Scenario};
use crate::stats::LatencyStats;
use std::time::Duration;
use wireless_net::supervise::StallReport;

/// Group sizes used throughout the paper's evaluation.
pub const PAPER_SIZES: [usize; 5] = [4, 7, 10, 13, 16];

/// Default repetition count (§7.2).
pub const PAPER_REPS: usize = 50;

/// Result of measuring one experiment cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Latency statistics over the repetitions.
    pub latency: LatencyStats,
    /// Runs where fewer than `k` correct processes decided in time.
    pub incomplete_runs: usize,
    /// Mean data frames transmitted per run (message-complexity view).
    pub mean_frames: f64,
    /// Mean collisions per run.
    pub mean_collisions: f64,
    /// Total transmit-queue tail drops across all repetitions (the
    /// congestion sharp edge, surfaced instead of silently eaten).
    pub total_queue_drops: u64,
    /// Repetitions that only completed on the escalated-budget retry
    /// (supervised tables only; always 0 on the unsupervised path).
    pub retried_runs: usize,
}

/// Errors from measurement.
#[derive(Debug)]
pub enum MeasureError {
    /// The scenario was invalid.
    Scenario(crate::scenario::ScenarioError),
    /// A run violated agreement or validity — a protocol bug; never
    /// acceptable.
    SafetyViolation {
        /// Repetition index.
        rep: usize,
    },
    /// No run produced any decision.
    NoData,
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Scenario(e) => write!(f, "{e}"),
            MeasureError::SafetyViolation { rep } => {
                write!(f, "agreement/validity violated in repetition {rep}")
            }
            MeasureError::NoData => write!(f, "no repetition produced a decision"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// What one repetition contributes to a cell aggregate — plain data,
/// the only thing that crosses a worker-thread boundary.
#[derive(Clone, Debug)]
struct RepSample {
    frames: u64,
    collisions: u64,
    complete: bool,
    mean_ms: Option<f64>,
    queue_drops: u64,
    retried: bool,
}

/// Runs one `(scenario, rep)` job: seed, simulate, check safety.
fn run_rep(scenario: &Scenario, rep: usize) -> Result<RepSample, MeasureError> {
    let outcome = scenario
        .clone()
        .seed(scenario_rep_seed(scenario, rep))
        .run_once()
        .map_err(MeasureError::Scenario)?;
    if !outcome.agreement_holds() || !outcome.validity_holds() {
        return Err(MeasureError::SafetyViolation { rep });
    }
    Ok(RepSample {
        frames: outcome.stats.frames_sent(),
        collisions: outcome.stats.collisions,
        complete: outcome.k_reached(),
        mean_ms: outcome.mean_latency_ms(),
        queue_drops: outcome.stats.queue_drops,
        retried: false,
    })
}

/// One `(scenario, rep)` job under supervision: the simulated-time
/// budget scales with the attempt, a stall surfaces as the outer `Err`
/// (retryable; boxed — the report dwarfs the happy path), and a safety
/// violation stays in the inner `Err` (completed — **never** retried or
/// downgraded).
fn run_rep_supervised(
    scenario: &Scenario,
    base_limit: Duration,
    rep: usize,
    attempt: Attempt,
) -> Result<Result<RepSample, MeasureError>, Box<StallReport>> {
    let outcome = scenario
        .clone()
        .seed(scenario_rep_seed(scenario, rep))
        .time_limit(base_limit * attempt.budget_scale)
        .run_once();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return Ok(Err(MeasureError::Scenario(e))),
    };
    if !outcome.agreement_holds() || !outcome.validity_holds() {
        return Ok(Err(MeasureError::SafetyViolation { rep }));
    }
    if !outcome.k_reached() {
        if let Some(stall) = outcome.stall {
            return Err(Box::new(stall));
        }
    }
    Ok(Ok(RepSample {
        frames: outcome.stats.frames_sent(),
        collisions: outcome.stats.collisions,
        complete: outcome.k_reached(),
        mean_ms: outcome.mean_latency_ms(),
        queue_drops: outcome.stats.queue_drops,
        retried: attempt.index > 0,
    }))
}

/// Folds per-rep samples **in repetition order** into a cell result,
/// reproducing the serial loop exactly: the first failing repetition's
/// error wins, incomplete runs contribute no latency sample.
fn aggregate(
    reps: usize,
    samples: impl Iterator<Item = Result<RepSample, MeasureError>>,
) -> Result<CellResult, MeasureError> {
    let mut rep_means = Vec::with_capacity(reps);
    let mut incomplete = 0usize;
    let mut frames = 0u64;
    let mut collisions = 0u64;
    let mut queue_drops = 0u64;
    let mut retried = 0usize;
    for sample in samples {
        let sample = sample?;
        frames += sample.frames;
        collisions += sample.collisions;
        queue_drops += sample.queue_drops;
        retried += sample.retried as usize;
        if !sample.complete {
            incomplete += 1;
            continue;
        }
        if let Some(mean) = sample.mean_ms {
            rep_means.push(mean);
        }
    }
    if rep_means.is_empty() {
        return Err(MeasureError::NoData);
    }
    Ok(CellResult {
        latency: LatencyStats::from_samples(&rep_means),
        incomplete_runs: incomplete,
        mean_frames: frames as f64 / reps as f64,
        mean_collisions: collisions as f64 / reps as f64,
        total_queue_drops: queue_drops,
        retried_runs: retried,
    })
}

/// Runs `reps` repetitions of `scenario` (varying the seed per
/// repetition, like the paper's 50 signaled executions) and aggregates
/// latency. Repetitions fan out across `TURQUOIS_THREADS` workers; the
/// result is byte-identical to the serial path.
///
/// # Errors
///
/// Safety violations and configuration errors; see [`MeasureError`].
pub fn measure(scenario: &Scenario, reps: usize) -> Result<CellResult, MeasureError> {
    measure_on(scenario, reps, runner::threads_from_env())
}

/// [`measure`] with an explicit worker-thread count (1 = serial path).
pub fn measure_on(
    scenario: &Scenario,
    reps: usize,
    threads: usize,
) -> Result<CellResult, MeasureError> {
    let jobs: Vec<usize> = (0..reps).collect();
    let samples = runner::run_indexed(threads, &jobs, |_, &rep| run_rep(scenario, rep));
    aggregate(reps, samples.into_iter())
}

fn scenario_rep_seed(scenario: &Scenario, rep: usize) -> u64 {
    // Spread repetitions across the seed space deterministically.
    0x9e37_79b9_7f4a_7c15u64
        .wrapping_mul(rep as u64 + 1)
        .wrapping_add(scenario.n() as u64)
}

/// One row of a paper-style table: a group size with per-protocol,
/// per-distribution cells.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Group size `n`.
    pub n: usize,
    /// Cells in `(protocol, distribution)` order: Turquois
    /// unanimous/divergent, ABBA u/d, Bracha u/d.
    pub cells: Vec<Result<CellResult, String>>,
}

/// Generates a full paper-style table for one fault load, fanning every
/// `(cell, rep)` job of the whole grid across `TURQUOIS_THREADS`
/// workers.
///
/// Cells that fail to measure carry their error text instead of
/// aborting the table.
pub fn paper_table(fault_load: FaultLoad, sizes: &[usize], reps: usize) -> Vec<TableRow> {
    paper_table_on(fault_load, sizes, reps, runner::threads_from_env()).0
}

/// [`paper_table`] with an explicit worker-thread count, returning the
/// wall-clock report of the fan-out alongside the rows.
pub fn paper_table_on(
    fault_load: FaultLoad,
    sizes: &[usize],
    reps: usize,
    threads: usize,
) -> (Vec<TableRow>, RunnerReport) {
    // Enumerate cells in render order, then every (cell, rep) job
    // cell-major, so results come back as contiguous per-cell chunks.
    let mut scenarios = Vec::new();
    for &n in sizes {
        for protocol in Protocol::ALL {
            for dist in [
                ProposalDistribution::Unanimous,
                ProposalDistribution::Divergent,
            ] {
                scenarios.push(
                    Scenario::new(protocol, n)
                        .proposals(dist)
                        .fault_load(fault_load),
                );
            }
        }
    }
    let jobs: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|cell| (0..reps).map(move |rep| (cell, rep)))
        .collect();
    let (samples, report) = runner::run_indexed_timed(threads, &jobs, |_, &(cell, rep)| {
        run_rep(&scenarios[cell], rep)
    });

    let cells_per_row = scenarios.len() / sizes.len().max(1);
    let mut samples = samples.into_iter();
    let mut rows = Vec::new();
    for &n in sizes {
        let mut cells = Vec::new();
        for _ in 0..cells_per_row {
            cells.push(aggregate_cell(reps, &mut samples).map_err(|e| e.to_string()));
        }
        rows.push(TableRow { n, cells });
    }
    (rows, report)
}

/// One failed cell of a supervised table, with enough context to
/// diagnose it from stderr.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Group size of the failing cell's row.
    pub n: usize,
    /// Cell label, e.g. `"Turquois divergent"`.
    pub label: String,
    /// Short machine-greppable reason: `panic`, `stalled`, `safety`, or
    /// `config`.
    pub reason: &'static str,
    /// Full detail: the panic message, the rendered [`StallReport`], or
    /// the error text.
    pub detail: String,
}

/// Health summary of a supervised table run: which cells failed and
/// why. An experiment binary renders the table first (completed cells
/// stay byte-identical), then logs this to stderr and exits nonzero if
/// anything failed.
#[derive(Clone, Debug, Default)]
pub struct TableHealth {
    /// Failures in render order (row-major, cell order within a row).
    pub failures: Vec<CellFailure>,
}

impl TableHealth {
    /// `true` when every cell completed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Logs every failure to stderr (never stdout — the table bytes on
    /// stdout must stay comparable across runs).
    pub fn log(&self) {
        for f in &self.failures {
            eprintln!("[supervisor] {} n={} FAILED({}):", f.label, f.n, f.reason);
            for line in f.detail.lines() {
                eprintln!("[supervisor]   {line}");
            }
        }
    }
}

/// [`paper_table_on`] with run supervision: each `(cell, rep)` job is
/// panic-isolated, stalls are retried once with a
/// [`runner::RETRY_BUDGET_SCALE`]× simulated-time budget, and failures
/// degrade gracefully — the failing cell renders `FAILED(<reason>)`
/// while every completed cell keeps the exact bytes it would have
/// produced in a fully healthy run.
///
/// `sabotage` deterministically panics the given `(cell, rep)` job —
/// the fault-injection hook the degradation tests and CI smoke use
/// (see [`sabotage_from_env`]). Pass `None` for real runs.
pub fn paper_table_supervised_on(
    fault_load: FaultLoad,
    sizes: &[usize],
    reps: usize,
    threads: usize,
    time_limit: Duration,
    sabotage: Option<(usize, usize)>,
) -> (Vec<TableRow>, TableHealth, RunnerReport) {
    paper_table_supervised_with(fault_load, sizes, reps, threads, time_limit, sabotage, |s| s)
}

/// [`paper_table_supervised_on`] with a per-cell scenario tweak applied
/// after the standard grid construction — the hook the hot-path bench
/// uses to shorten the key horizon (`Scenario::key_phases`) without
/// perturbing the paper tables' scenarios.
pub fn paper_table_supervised_with(
    fault_load: FaultLoad,
    sizes: &[usize],
    reps: usize,
    threads: usize,
    time_limit: Duration,
    sabotage: Option<(usize, usize)>,
    tweak: impl Fn(Scenario) -> Scenario,
) -> (Vec<TableRow>, TableHealth, RunnerReport) {
    let mut scenarios = Vec::new();
    let mut labels = Vec::new();
    for &n in sizes {
        for protocol in Protocol::ALL {
            for dist in [
                ProposalDistribution::Unanimous,
                ProposalDistribution::Divergent,
            ] {
                scenarios.push(tweak(
                    Scenario::new(protocol, n)
                        .proposals(dist)
                        .fault_load(fault_load)
                        .time_limit(time_limit),
                ));
                labels.push((n, format!("{} {}", protocol.name(), dist.name())));
            }
        }
    }
    let jobs: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|cell| (0..reps).map(move |rep| (cell, rep)))
        .collect();
    let (outcomes, report) = runner::run_supervised_timed(threads, &jobs, |_, &(cell, rep), attempt| {
        if sabotage == Some((cell, rep)) {
            panic!("sabotage: injected panic in cell {cell} rep {rep}");
        }
        run_rep_supervised(&scenarios[cell], time_limit, rep, attempt)
    });

    let cells_per_row = scenarios.len() / sizes.len().max(1);
    let mut outcomes = outcomes.into_iter();
    let mut health = TableHealth::default();
    let mut rows = Vec::new();
    for (row_idx, &n) in sizes.iter().enumerate() {
        let mut cells = Vec::new();
        for c in 0..cells_per_row {
            let chunk: Vec<_> = outcomes.by_ref().take(reps).collect();
            let label = &labels[row_idx * cells_per_row + c].1;
            cells.push(aggregate_supervised_cell(reps, chunk, n, label, &mut health));
        }
        rows.push(TableRow { n, cells });
    }
    (rows, health, report)
}

/// Folds one cell's supervised outcomes. The first failing repetition
/// (in repetition order) decides the cell's fate; a fully-completed
/// chunk aggregates exactly like the unsupervised path.
fn aggregate_supervised_cell(
    reps: usize,
    chunk: Vec<JobOutcome<Result<RepSample, MeasureError>>>,
    n: usize,
    label: &str,
    health: &mut TableHealth,
) -> Result<CellResult, String> {
    let mut samples = Vec::with_capacity(reps);
    for outcome in chunk {
        let (reason, detail) = match outcome {
            JobOutcome::Ok(Ok(sample)) => {
                samples.push(Ok(sample));
                continue;
            }
            JobOutcome::Ok(Err(e @ MeasureError::SafetyViolation { .. })) => {
                ("safety", e.to_string())
            }
            JobOutcome::Ok(Err(e)) => ("config", e.to_string()),
            JobOutcome::Stalled(report) => ("stalled", report.to_string()),
            JobOutcome::Panicked(msg) => ("panic", msg),
        };
        health.failures.push(CellFailure {
            n,
            label: label.to_string(),
            reason,
            detail,
        });
        return Err(format!("FAILED({reason})"));
    }
    aggregate(reps, samples.into_iter()).map_err(|e| e.to_string())
}

/// Aggregates the next cell's `reps`-sample chunk from the shared
/// sample stream. The chunk is drained in full *before* aggregation:
/// [`aggregate`] short-circuits on the first error, and handing it a
/// live `take(reps)` adapter would leave the rest of a failed cell's
/// chunk behind, silently feeding every later cell samples from the
/// wrong scenario.
fn aggregate_cell<I>(reps: usize, samples: &mut I) -> Result<CellResult, MeasureError>
where
    I: Iterator<Item = Result<RepSample, MeasureError>>,
{
    let chunk: Vec<_> = samples.by_ref().take(reps).collect();
    aggregate(reps, chunk.into_iter())
}

/// Renders the per-experiment stats line printed under each table:
/// total transmit-queue tail drops (the congestion sharp edge) and how
/// many repetitions only completed on the escalated-budget retry. The
/// checked-in `results/*.txt` transcribe this line byte-for-byte.
pub fn table_stats_line(rows: &[TableRow]) -> String {
    let mut queue_drops = 0u64;
    let mut retried = 0usize;
    for row in rows {
        for cell in row.cells.iter().flatten() {
            queue_drops += cell.total_queue_drops;
            retried += cell.retried_runs;
        }
    }
    format!("stats: tx-queue drops={queue_drops} retried reps={retried}")
}

/// Renders rows in the paper's layout.
pub fn render_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:>6} | {:>19} {:>19} | {:>19} {:>19} | {:>19} {:>19}\n",
        "n",
        "Turquois unan.",
        "Turquois div.",
        "ABBA unan.",
        "ABBA div.",
        "Bracha unan.",
        "Bracha div."
    ));
    out.push_str(&"-".repeat(132));
    out.push('\n');
    for row in rows {
        let mut line = format!("{:>6}", row.n);
        for (i, cell) in row.cells.iter().enumerate() {
            let text = match cell {
                Ok(c) => c.latency.display(),
                // Supervisor verdicts are already terse and fixed-form;
                // prefixing/truncating them would hide the reason.
                Err(e) if e.starts_with("FAILED") => e.clone(),
                Err(e) => format!("error: {}", truncate(e, 12)),
            };
            if i % 2 == 0 {
                line.push_str(" | ");
            } else {
                line.push(' ');
            }
            line.push_str(&format!("{text:>19}"));
        }
        line.push('\n');
        out.push_str(&line);
    }
    out
}

/// Truncates to at most `max` characters (not bytes — slicing at a
/// byte offset would panic mid-way through a multi-byte character).
fn truncate(s: &str, max: usize) -> String {
    match s.char_indices().nth(max) {
        None => s.to_string(),
        Some((cut, _)) => format!("{}…", &s[..cut]),
    }
}

/// Default simulated-time budget per run, matching the
/// [`Scenario`] builder's own default.
pub const DEFAULT_TIME_LIMIT: Duration = Duration::from_secs(120);

/// Parses a `TURQUOIS_TIME_LIMIT` value: positive (possibly
/// fractional) simulated seconds.
fn parse_time_limit(raw: &str) -> Option<Duration> {
    let secs: f64 = raw.trim().parse().ok()?;
    if secs.is_finite() && secs > 0.0 {
        Some(Duration::from_secs_f64(secs))
    } else {
        None
    }
}

/// Reads the per-run simulated-time budget from `TURQUOIS_TIME_LIMIT`
/// (seconds, fractions allowed), defaulting to `default`. Malformed
/// values warn on stderr and fall through, matching
/// [`reps_from_env`] / [`sizes_from_env`].
pub fn time_limit_from_env(default: Duration) -> Duration {
    match std::env::var("TURQUOIS_TIME_LIMIT") {
        Ok(raw) => match parse_time_limit(&raw) {
            Some(limit) => limit,
            None => {
                eprintln!(
                    "warning: ignoring malformed TURQUOIS_TIME_LIMIT={raw:?}: \
                     expected a positive number of simulated seconds; using {}s",
                    default.as_secs_f64()
                );
                default
            }
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!(
                "warning: ignoring non-UTF-8 TURQUOIS_TIME_LIMIT; using {}s",
                default.as_secs_f64()
            );
            default
        }
    }
}

/// Parses a `TURQUOIS_SABOTAGE` value: `"cell,rep"` indices.
fn parse_sabotage(raw: &str) -> Option<(usize, usize)> {
    let (cell, rep) = raw.split_once(',')?;
    Some((cell.trim().parse().ok()?, rep.trim().parse().ok()?))
}

/// Reads a deterministic panic-injection target from
/// `TURQUOIS_SABOTAGE` (`"cell,rep"`). Used by CI to prove the
/// supervisor degrades gracefully and exits nonzero; absent or
/// malformed (with a stderr warning) means no sabotage.
pub fn sabotage_from_env() -> Option<(usize, usize)> {
    match std::env::var("TURQUOIS_SABOTAGE") {
        Ok(raw) => {
            let parsed = parse_sabotage(&raw);
            if parsed.is_none() {
                eprintln!(
                    "warning: ignoring malformed TURQUOIS_SABOTAGE={raw:?}: \
                     expected \"cell,rep\""
                );
            }
            parsed
        }
        Err(_) => None,
    }
}

/// Reads the repetition count from `TURQUOIS_REPS` (or the first CLI
/// argument), defaulting to `default`. Lets the full paper grid
/// (50 reps) coexist with quick smoke runs. Malformed values warn on
/// stderr and fall through instead of being silently ignored.
pub fn reps_from_env(default: usize) -> usize {
    if let Some(arg) = std::env::args().nth(1) {
        match arg.parse() {
            Ok(v) => return v,
            Err(_) => eprintln!(
                "warning: ignoring malformed repetition argument {arg:?}: \
                 expected a non-negative integer"
            ),
        }
    }
    match std::env::var("TURQUOIS_REPS") {
        Ok(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!(
                    "warning: ignoring malformed TURQUOIS_REPS={raw:?}: \
                     expected a non-negative integer; using {default}"
                );
                default
            }
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!("warning: ignoring non-UTF-8 TURQUOIS_REPS; using {default}");
            default
        }
    }
}

/// Reads the group sizes from `TURQUOIS_SIZES` (comma-separated),
/// defaulting to the paper's grid. Malformed entries warn on stderr;
/// if nothing valid remains, the paper grid is used.
pub fn sizes_from_env() -> Vec<usize> {
    sizes_from_env_or(&PAPER_SIZES)
}

/// [`sizes_from_env`] with a caller-chosen default grid — the scale
/// experiment (`table_scale`) defaults to n ∈ {16, 64, 256} instead of
/// the paper's n ≤ 16 grid.
pub fn sizes_from_env_or(default: &[usize]) -> Vec<usize> {
    let raw = match std::env::var("TURQUOIS_SIZES") {
        Ok(raw) => raw,
        Err(std::env::VarError::NotPresent) => return default.to_vec(),
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!(
                "warning: ignoring non-UTF-8 TURQUOIS_SIZES; using the default grid {default:?}"
            );
            return default.to_vec();
        }
    };
    let mut sizes = Vec::new();
    for token in raw.split(',') {
        match token.trim().parse() {
            Ok(n) => sizes.push(n),
            Err(_) => eprintln!(
                "warning: ignoring malformed TURQUOIS_SIZES entry {token:?}: \
                 expected a group size"
            ),
        }
    }
    if sizes.is_empty() {
        eprintln!(
            "warning: TURQUOIS_SIZES={raw:?} contains no valid sizes; \
             using the default grid {default:?}"
        );
        return default.to_vec();
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_turquois_small() {
        let scenario = Scenario::new(Protocol::Turquois, 4);
        let cell = measure(&scenario, 3).expect("measurement succeeds");
        assert_eq!(cell.latency.samples, 3);
        assert!(cell.latency.mean_ms > 0.0);
        assert_eq!(cell.incomplete_runs, 0);
        assert!(cell.mean_frames > 0.0);
    }

    #[test]
    fn measure_identical_across_thread_counts() {
        let scenario = Scenario::new(Protocol::Turquois, 4)
            .proposals(ProposalDistribution::Divergent);
        let serial = measure_on(&scenario, 4, 1).expect("serial succeeds");
        for threads in [2, 4] {
            let parallel = measure_on(&scenario, 4, threads).expect("parallel succeeds");
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    fn sample(mean_ms: f64) -> Result<RepSample, MeasureError> {
        Ok(RepSample {
            frames: 10,
            collisions: 1,
            complete: true,
            mean_ms: Some(mean_ms),
            queue_drops: 0,
            retried: false,
        })
    }

    #[test]
    fn failed_cell_does_not_misalign_later_cells() {
        // Cell 0 fails at its second repetition; its third sample must
        // still be drained so cell 1 aggregates its own chunk, not a
        // shifted window of leftovers.
        let reps = 3;
        let expected = aggregate(reps, [sample(5.0), sample(6.0), sample(7.0)].into_iter())
            .expect("clean cell aggregates");
        let stream: Vec<Result<RepSample, MeasureError>> = vec![
            sample(1.0),
            Err(MeasureError::SafetyViolation { rep: 1 }),
            sample(3.0),
            sample(5.0),
            sample(6.0),
            sample(7.0),
        ];
        let mut stream = stream.into_iter();
        let cell0 = aggregate_cell(reps, &mut stream);
        assert!(
            matches!(cell0, Err(MeasureError::SafetyViolation { rep: 1 })),
            "cell 0 reports its own failure"
        );
        let cell1 = aggregate_cell(reps, &mut stream).expect("cell 1 unaffected");
        assert_eq!(cell1, expected, "cell 1 sees exactly its own samples");
        assert!(stream.next().is_none(), "both chunks fully consumed");
    }

    #[test]
    fn rep_seeds_differ() {
        let s = Scenario::new(Protocol::Turquois, 4);
        assert_ne!(scenario_rep_seed(&s, 0), scenario_rep_seed(&s, 1));
    }

    #[test]
    fn render_table_contains_rows() {
        let rows = vec![TableRow {
            n: 4,
            cells: vec![
                Ok(CellResult {
                    latency: LatencyStats {
                        mean_ms: 14.9,
                        ci_ms: 4.7,
                        samples: 50,
                    },
                    incomplete_runs: 0,
                    mean_frames: 100.0,
                    mean_collisions: 2.0,
                    total_queue_drops: 0,
                    retried_runs: 0,
                }),
                Err("boom".into()),
                Ok(CellResult {
                    latency: LatencyStats {
                        mean_ms: 74.7,
                        ci_ms: 7.9,
                        samples: 50,
                    },
                    incomplete_runs: 1,
                    mean_frames: 500.0,
                    mean_collisions: 5.0,
                    total_queue_drops: 0,
                    retried_runs: 0,
                }),
                Err("x".into()),
                Err("y".into()),
                Err("z".into()),
            ],
        }];
        let rendered = render_table("Table 1", &rows);
        assert!(rendered.contains("Table 1"));
        assert!(rendered.contains("14.90 ± 4.70"));
        assert!(rendered.contains("error: boom"));
    }

    #[test]
    fn supervised_clean_table_matches_unsupervised() {
        let sizes = [4];
        let reps = 2;
        let (plain, _) = paper_table_on(FaultLoad::FailureFree, &sizes, reps, 2);
        let (sup, health, _) = paper_table_supervised_on(
            FaultLoad::FailureFree,
            &sizes,
            reps,
            2,
            DEFAULT_TIME_LIMIT,
            None,
        );
        assert!(health.ok(), "clean run reports no failures");
        assert_eq!(plain.len(), sup.len());
        for (a, b) in plain.iter().zip(&sup) {
            assert_eq!(a.n, b.n);
            for (i, (ca, cb)) in a.cells.iter().zip(&b.cells).enumerate() {
                assert_eq!(
                    ca.as_ref().ok(),
                    cb.as_ref().ok(),
                    "cell {i} identical under supervision"
                );
            }
        }
    }

    #[test]
    fn sabotaged_cell_fails_without_touching_siblings() {
        let sizes = [4];
        let reps = 2;
        let (clean, _, _) = paper_table_supervised_on(
            FaultLoad::FailureFree,
            &sizes,
            reps,
            1,
            DEFAULT_TIME_LIMIT,
            None,
        );
        for threads in [1, 4] {
            let (rows, health, _) = paper_table_supervised_on(
                FaultLoad::FailureFree,
                &sizes,
                reps,
                threads,
                DEFAULT_TIME_LIMIT,
                Some((1, 0)),
            );
            assert_eq!(health.failures.len(), 1, "threads={threads}");
            let failure = &health.failures[0];
            assert_eq!(failure.reason, "panic");
            assert_eq!(failure.n, 4);
            assert!(failure.detail.contains("sabotage"), "{:?}", failure.detail);
            assert_eq!(rows[0].cells[1], Err("FAILED(panic)".to_string()));
            for (i, cell) in rows[0].cells.iter().enumerate() {
                if i == 1 {
                    continue;
                }
                assert_eq!(cell, &clean[0].cells[i], "threads={threads} cell {i}");
            }
        }
    }

    #[test]
    fn render_failed_cells_pass_through() {
        let rows = vec![TableRow {
            n: 4,
            cells: vec![
                Err("FAILED(stalled)".into()),
                Err("FAILED(panic)".into()),
                Err("plain failure".into()),
                Err("x".into()),
                Err("y".into()),
                Err("z".into()),
            ],
        }];
        let rendered = render_table("T", &rows);
        assert!(rendered.contains("FAILED(stalled)"));
        assert!(rendered.contains("FAILED(panic)"));
        assert!(!rendered.contains("error: FAILED"), "no prefix/truncation");
        assert!(rendered.contains("error: plain failur"));
    }

    #[test]
    fn time_limit_parsing() {
        assert_eq!(parse_time_limit("2.5"), Some(Duration::from_secs_f64(2.5)));
        assert_eq!(parse_time_limit(" 30 "), Some(Duration::from_secs(30)));
        assert_eq!(parse_time_limit("0"), None);
        assert_eq!(parse_time_limit("-1"), None);
        assert_eq!(parse_time_limit("inf"), None);
        assert_eq!(parse_time_limit("abc"), None);
    }

    #[test]
    fn sabotage_parsing() {
        assert_eq!(parse_sabotage("3,1"), Some((3, 1)));
        assert_eq!(parse_sabotage(" 3 , 1 "), Some((3, 1)));
        assert_eq!(parse_sabotage("3"), None);
        assert_eq!(parse_sabotage("3,x"), None);
        assert_eq!(parse_sabotage(""), None);
    }

    #[test]
    fn truncate_behaviour() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("a very long message", 6), "a very…");
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        // The 12-char prefix of this message ends inside the multi-byte
        // "σ" if sliced by bytes — exactly the render_table error path.
        assert_eq!(truncate("latência σσσ excedida", 12), "latência σσσ…");
        assert_eq!(truncate("ééééé", 3), "ééé…");
        assert_eq!(truncate("ééé", 3), "ééé");
        assert_eq!(truncate("", 5), "");
    }
}
