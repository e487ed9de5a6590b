//! Partition-matrix experiment: consensus across network splits and
//! heals.
//!
//! The paper's evaluation lives in one broadcast domain; this matrix
//! puts all three engines through scheduled partitions
//! ([`wireless_net::topology::PartitionSchedule`]) and measures the
//! robustness claim directly: a **quorum-keeping** split (majority
//! `n − f` / minority `f`) must keep the majority deciding while the
//! minority waits, a **quorum-breaking** split (even halves) must stop
//! *everyone* from deciding — safety over liveness — and after the
//! heal every node must decide, with the post-heal recovery latency
//! (heal simtime → last node's decision) as the headline number.
//!
//! Three facts are asserted on every run, not sampled:
//! agreement + validity; that no node whose partition component is
//! below its engine's decision quorum decides while split; and that
//! the full group eventually decides. Any violation renders
//! `FAILED(<reason>)` and the process exits nonzero.
//!
//! Runs are supervised by the grid driver
//! ([`turquois_harness::grid`]): a stalled job retries once at a
//! [`RETRY_BUDGET_SCALE`]× budget, and a stall that survives prints its
//! `StallReport` — whose per-node reachable/component columns are
//! exactly the diagnostic a partition stall needs.
//!
//! Usage: `partition_matrix [reps]` (default 10; `TURQUOIS_SIZES`,
//! `TURQUOIS_THREADS`, `TURQUOIS_TIME_LIMIT` respected).

use turquois_core::Config;
use turquois_harness::experiment::PAPER_SIZES;
use turquois_harness::grid::{Plan, Stall, RETRY_BUDGET_SCALE};
use turquois_harness::{Protocol, ProposalDistribution, RunOutcome, Scenario};
use wireless_net::time::SimTime;
use wireless_net::topology::{PartitionSchedule, TopologySpec};

/// The network splits this early, well before any engine's first
/// decision at the sizes under test.
const SPLIT_AT_MS: u64 = 5;

/// Split shapes under test.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Split {
    /// Majority `n − f` / minority `f`: the majority retains every
    /// engine's decision quorum.
    Keep,
    /// Even halves `⌈n/2⌉ | ⌊n/2⌋`: with `n > 3f ≥ 3` neither half
    /// reaches any engine's quorum — nobody may decide until the heal.
    Break,
}

impl Split {
    fn label(self) -> &'static str {
        match self {
            Split::Keep => "keep",
            Split::Break => "break",
        }
    }

    /// The two groups for a population of `n` (f = ⌊(n−1)/3⌋).
    fn groups(self, n: usize) -> Vec<Vec<usize>> {
        let f = Config::evaluation(n).expect("n ≥ 1").f();
        let cut = match self {
            Split::Keep => n - f,
            Split::Break => n.div_ceil(2),
        };
        vec![(0..cut).collect(), (cut..n).collect()]
    }
}

/// One matrix cell.
#[derive(Clone, Copy)]
struct PmCell {
    engine: Protocol,
    split: Split,
    heal_ms: u64,
    n: usize,
}

impl PmCell {
    fn label(&self) -> String {
        format!(
            "{:?} {} heal={}ms n={}",
            self.engine,
            self.split.label(),
            self.heal_ms,
            self.n
        )
    }

    fn heal_at(&self) -> SimTime {
        SimTime::from_millis(self.heal_ms)
    }

    fn scenario(&self, rep: usize) -> Scenario {
        let schedule = PartitionSchedule::new()
            .split_at(SimTime::from_millis(SPLIT_AT_MS), self.split.groups(self.n))
            .heal_at(self.heal_at());
        Scenario::new(self.engine, self.n)
            .proposals(ProposalDistribution::Divergent)
            .topology(TopologySpec::Partition(schedule))
            .seed(0x9A_u64.wrapping_mul(rep as u64 + 1).wrapping_add(self.n as u64))
    }

    /// The robustness claim proper — while split, a component below
    /// the engine's quorum must not decide; every node is checked
    /// against its group size — and then what the run contributes.
    fn sample(&self, outcome: &RunOutcome) -> Result<PmSample, String> {
        let (split_at, heal_at) = (SimTime::from_millis(SPLIT_AT_MS), self.heal_at());
        let q = self.engine.decision_quorum(self.n);
        for group in self.split.groups(self.n) {
            if group.len() >= q {
                continue;
            }
            for &node in &group {
                if let Some(d) = outcome.decisions[node] {
                    if d.time >= split_at && d.time < heal_at {
                        return Err(format!(
                            "SAFETY VIOLATION: {}: node {node} decided at {} inside a \
                             {}-node sub-quorum component (quorum {q})",
                            self.label(),
                            d.time,
                            group.len(),
                        ));
                    }
                }
            }
        }
        let decided = outcome.decisions.iter().flatten();
        Ok(PmSample {
            pre_heal: decided.clone().filter(|d| d.time < heal_at).count(),
            recovery_ms: decided
                .map(|d| d.time)
                .filter(|&t| t >= heal_at)
                .max()
                .map(|t| t.saturating_since(heal_at).as_secs_f64() * 1e3),
            queue_drops: outcome.stats.queue_drops,
        })
    }
}

/// What one repetition contributes to a matrix cell.
struct PmSample {
    /// Correct nodes decided before the split healed (the surviving
    /// majority under a quorum-keeping split; 0 under quorum-breaking).
    pre_heal: usize,
    /// Heal simtime → last node's decision, ms (`None` when every node
    /// had already decided at heal time).
    recovery_ms: Option<f64>,
    queue_drops: u64,
}

fn main() {
    let plan = Plan::from_env("partition_matrix", 10, &PAPER_SIZES, Stall::Retry);
    let reps = plan.reps;

    const SPLITS: [Split; 2] = [Split::Keep, Split::Break];
    const HEALS_MS: [u64; 2] = [1_000, 3_000];

    println!(
        "Partition matrix — divergent proposals, split at {SPLIT_AT_MS} ms \
         ({reps} reps, supervised: {}s budget, stalls retried once at ×{})\n",
        plan.time_limit.unwrap_or(Scenario::DEFAULT_TIME_LIMIT).as_secs_f64(),
        RETRY_BUDGET_SCALE,
    );
    println!("  keep  = majority n−f | minority f   (majority retains quorum)");
    println!("  break = halves ⌈n/2⌉ | ⌊n/2⌋        (no component reaches quorum)");
    println!();
    println!("  asserted on every run: agreement + validity; no sub-quorum component");
    println!("  decides while split; every node decides by the end of the budget.");
    println!("  recovery = heal simtime → last node's decision.");
    println!();
    println!(
        "{:>9} {:>6} {:>8} {:>4} | {:>8} {:>9} | {:>9} {:>9} | {:>8} {:>7}",
        "engine", "split", "heal ms", "n", "decided", "pre-heal", "rec-mean", "rec-worst", "q-drops", "retried"
    );
    println!("{}", "-".repeat(102));

    let mut cells = Vec::new();
    for engine in Protocol::ALL {
        for split in SPLITS {
            for heal_ms in HEALS_MS {
                for &n in &plan.sizes {
                    cells.push(PmCell {
                        engine,
                        split,
                        heal_ms,
                        n,
                    });
                }
            }
        }
    }
    let run = plan.run(
        &cells,
        PmCell::label,
        |cell, rep, budget| budget.apply(cell.scenario(rep)).run_once(),
        PmCell::sample,
    );

    let mut totals = (0u64, 0usize); // q-drops, retried
    for (c, cell) in cells.iter().zip(&run.cells) {
        let engine = format!("{:?}", c.engine);
        let samples = match &cell.samples {
            Ok(samples) => samples,
            Err(failure) => {
                println!(
                    "{:>9} {:>6} {:>8} {:>4} | {:>8} {:>9} | {:>9} {:>9} | {:>8} {:>7}",
                    engine,
                    c.split.label(),
                    c.heal_ms,
                    c.n,
                    failure,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-"
                );
                continue;
            }
        };
        let pre_heal_mean =
            samples.iter().map(|s| s.pre_heal).sum::<usize>() as f64 / samples.len().max(1) as f64;
        let recoveries: Vec<f64> = samples.iter().filter_map(|s| s.recovery_ms).collect();
        let recovery_mean_ms = (!recoveries.is_empty())
            .then(|| recoveries.iter().sum::<f64>() / recoveries.len() as f64);
        let recovery_worst_ms = recoveries.iter().copied().reduce(f64::max);
        let q_drops: u64 = samples.iter().map(|s| s.queue_drops).sum();
        totals.0 += q_drops;
        totals.1 += cell.retried;
        let fmt_ms = |v: Option<f64>| v.map_or("-".to_string(), |m| format!("{m:.1}"));
        println!(
            "{:>9} {:>6} {:>8} {:>4} | {:>8} {:>9.1} | {:>9} {:>9} | {:>8} {:>7}",
            engine,
            c.split.label(),
            c.heal_ms,
            c.n,
            format!("{}/{}", samples.len(), reps),
            pre_heal_mean,
            fmt_ms(recovery_mean_ms),
            fmt_ms(recovery_worst_ms),
            q_drops,
            cell.retried
        );
    }
    println!();
    println!("stats: tx-queue drops={} retried reps={}", totals.0, totals.1);
    println!(
        "Safety (agreement + validity) and the sub-quorum no-decision rule \
         were asserted on every run."
    );
    run.finish();
}
