//! The paper's three latency tables (§7.3) as one grid shape: group
//! size × protocol × proposal distribution under one fault load, 50
//! repetitions per cell, average latency over all processes with a 95 %
//! confidence interval. [`paper_table`] describes the cells to the grid
//! driver ([`crate::grid`]), which runs them and asserts safety on
//! every run; this module aggregates and renders.

use crate::grid::{Cell, GridRun, Plan, Stall};
use crate::scenario::{FaultLoad, ProposalDistribution, Protocol, Scenario};
use crate::stats::LatencyStats;

/// Group sizes used throughout the paper's evaluation.
pub const PAPER_SIZES: [usize; 5] = [4, 7, 10, 13, 16];

/// Default repetition count (§7.2).
pub(crate) const PAPER_REPS: usize = 50;

/// Result of measuring one experiment cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Latency statistics over the repetitions.
    pub latency: LatencyStats,
    /// Runs where fewer than `k` correct processes decided in time
    /// (only a [`Stall::Data`] plan lets such a run through).
    pub(crate) incomplete_runs: usize,
    /// Mean data frames transmitted per run (message-complexity view).
    pub(crate) mean_frames: f64,
    /// Mean collisions per run.
    pub(crate) mean_collisions: f64,
    /// Total transmit-queue tail drops across all repetitions (the
    /// congestion sharp edge, surfaced instead of silently eaten).
    pub(crate) total_queue_drops: u64,
    /// Repetitions that only completed on the escalated-budget retry.
    pub(crate) retried_runs: usize,
}

/// What one repetition contributes to a cell aggregate — plain data,
/// the only thing that crosses a worker-thread boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct RepSample {
    /// Data frames transmitted.
    pub frames: u64,
    /// Collisions on the medium.
    pub collisions: u64,
    /// Whether `k` correct processes decided.
    pub(crate) complete: bool,
    /// Mean decision latency over the deciders, ms.
    pub mean_ms: Option<f64>,
    /// Transmit-queue tail drops.
    pub queue_drops: u64,
}

/// Folds a cell's samples **in repetition order** into its result: a
/// failed cell carries its `FAILED(<reason>)`, incomplete runs
/// contribute no latency sample.
fn aggregate(cell: &Cell<RepSample>) -> Result<CellResult, String> {
    let samples = cell
        .samples
        .as_ref()
        .map_err(|failure| failure.to_string())?;
    let rep_means: Vec<f64> = samples
        .iter()
        .filter(|s| s.complete)
        .filter_map(|s| s.mean_ms)
        .collect();
    if rep_means.is_empty() {
        return Err("no repetition produced a decision".to_string());
    }
    let reps = samples.len() as f64;
    Ok(CellResult {
        latency: LatencyStats::from_samples(&rep_means),
        incomplete_runs: samples.iter().filter(|s| !s.complete).count(),
        mean_frames: samples.iter().map(|s| s.frames).sum::<u64>() as f64 / reps,
        mean_collisions: samples.iter().map(|s| s.collisions).sum::<u64>() as f64 / reps,
        total_queue_drops: samples.iter().map(|s| s.queue_drops).sum(),
        retried_runs: cell.retried,
    })
}

/// Spreads a cell's repetitions across the seed space.
fn rep_seed(n: usize, rep: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15u64
        .wrapping_mul(rep as u64 + 1)
        .wrapping_add(n as u64)
}

/// One row of a paper-style table: a group size with per-protocol,
/// per-distribution cells.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Group size `n`.
    pub n: usize,
    /// Cells in `(protocol, distribution)` order: Turquois
    /// unanimous/divergent, ABBA u/d, Bracha u/d. A cell that failed
    /// carries `FAILED(<reason>)` or its error text instead.
    pub cells: Vec<Result<CellResult, String>>,
}

/// Measures a paper-style table for one fault load over `plan.sizes`:
/// the rows to render, and the grid run to [`GridRun::finish`] with. A
/// failing cell degrades to `FAILED(<reason>)` while every other cell
/// keeps the exact bytes of a fully healthy run.
pub fn paper_table(fault_load: FaultLoad, plan: &Plan) -> (Vec<TableRow>, GridRun<RepSample>) {
    const DISTRIBUTIONS: [ProposalDistribution; 2] = [
        ProposalDistribution::Unanimous,
        ProposalDistribution::Divergent,
    ];
    let mut cells = Vec::new();
    for &n in &plan.sizes {
        for protocol in Protocol::ALL {
            for dist in DISTRIBUTIONS {
                cells.push((n, protocol, dist));
            }
        }
    }
    let run = plan.run(
        &cells,
        |&(n, protocol, dist)| format!("{} {} n={n}", protocol.name(), dist.name()),
        |&(n, protocol, dist), rep, budget| {
            let scenario = Scenario::new(protocol, n)
                .proposals(dist)
                .fault_load(fault_load)
                .seed(rep_seed(n, rep));
            budget.apply(scenario).run_once()
        },
        |_, outcome| {
            Ok(RepSample {
                frames: outcome.stats.frames_sent(),
                collisions: outcome.stats.collisions,
                complete: outcome.k_reached(),
                mean_ms: outcome.mean_latency_ms(),
                queue_drops: outcome.stats.queue_drops,
            })
        },
    );
    let rows = plan
        .sizes
        .iter()
        .zip(run.cells.chunks(Protocol::ALL.len() * DISTRIBUTIONS.len()))
        .map(|(&n, row)| TableRow {
            n,
            cells: row.iter().map(aggregate).collect(),
        })
        .collect();
    (rows, run)
}

/// The whole of a `table1`/`table2`/`table3` binary: measure, print the
/// table and its stats line, finish the run.
pub fn paper_table_main(bin: &'static str, title: &str, fault_load: FaultLoad) {
    let plan = Plan::from_env(bin, PAPER_REPS, &PAPER_SIZES, Stall::Retry);
    let (rows, run) = paper_table(fault_load, &plan);
    let title = format!(
        "{title} — {} fault load ({} repetitions, latency ms ± 95% CI)",
        fault_load.name(),
        plan.reps
    );
    println!("{}", render_table(&title, &rows));
    println!("{}", table_stats_line(&rows));
    run.finish();
}

/// Renders the per-experiment stats line printed under each table:
/// total transmit-queue tail drops (the congestion sharp edge) and how
/// many repetitions only completed on the escalated-budget retry. The
/// checked-in `results/*.txt` transcribe this line byte-for-byte.
pub(crate) fn table_stats_line(rows: &[TableRow]) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(reps: usize, threads: usize) -> Plan {
        Plan {
            bin: "test",
            reps,
            sizes: vec![4],
            threads,
            time_limit: None,
            stall: Stall::Retry,
        }
    }

    #[test]
    fn paper_table_aggregates_every_repetition() {
        let (rows, run) = paper_table(FaultLoad::FailureFree, &plan(3, 2));
        assert_eq!(run.failures().count(), 0);
        assert_eq!(run.report.jobs, 6 * 3);
        assert_eq!((rows.len(), rows[0].n, rows[0].cells.len()), (1, 4, 6));
        for cell in &rows[0].cells {
            let cell = cell.as_ref().expect("measurement succeeds");
            assert_eq!(cell.latency.samples, 3);
            assert!(cell.latency.mean_ms > 0.0);
            assert_eq!(cell.incomplete_runs, 0);
            assert!(cell.mean_frames > 0.0);
        }
    }

    #[test]
    fn incomplete_and_undecided_repetitions_add_no_latency_sample() {
        let sample = |complete, mean_ms| RepSample {
            frames: 10,
            collisions: 1,
            complete,
            mean_ms,
            queue_drops: 2,
        };
        let cell = |samples| Cell {
            label: "cell".to_string(),
            samples: Ok(samples),
            retried: 1,
            wall: std::time::Duration::ZERO,
        };
        let result = aggregate(&cell(vec![
            sample(true, Some(5.0)),
            sample(false, Some(900.0)),
            sample(true, Some(7.0)),
        ]))
        .expect("two repetitions decided");
        assert_eq!((result.latency.samples, result.latency.mean_ms), (2, 6.0));
        assert_eq!((result.incomplete_runs, result.retried_runs), (1, 1));
        assert_eq!((result.mean_frames, result.total_queue_drops), (10.0, 6));
        assert_eq!(
            aggregate(&cell(vec![sample(false, None)])),
            Err("no repetition produced a decision".to_string())
        );
    }

    #[test]
    fn rep_seeds_differ() {
        assert_ne!(rep_seed(4, 0), rep_seed(4, 1));
        assert_ne!(rep_seed(4, 0), rep_seed(7, 0));
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
