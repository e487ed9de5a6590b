//! The four workloads: what each one runs and why it exists.
//!
//! A workload is a fixed grid of cells (engine × size × fault load …).
//! One **pass** runs every cell once under fresh seeds; a measurement
//! is a number of passes fixed by `--seconds`, so the work done depends
//! on `(seed, seconds)` only and never on how fast the host is. The
//! grid never depends on the seed; only the per-job seeds do, so two
//! seeds run the same *shape* of work on different random streams. The
//! program under test only ever sees the generated [`Job`]s.

use crate::surface::{
    FaultLoad, LossSpec, PartitionSchedule, PhyConfig, ProposalDistribution, Protocol, Scenario,
    SimTime, TopologySpec,
};
use std::time::Duration;

/// The benchmark's workloads, in report order.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Workload {
    /// Tables 1–3 shape: all three engines over the paper's sizes.
    PaperTables,
    /// `table_scale` shape: Turquois at n = 64 under every fault load.
    ScaleFanout,
    /// `partition_matrix` shape: split at 5 ms, heal at 1 s / 3 s.
    PartitionHeal,
    /// Engine-free traffic on the real simulator up to n = 256.
    RadioNull,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::ScaleFanout,
        Workload::PartitionHeal,
        Workload::RadioNull,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::ScaleFanout => "scale_fanout",
            Workload::PartitionHeal => "partition_heal",
            Workload::RadioNull => "radio_null",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperTables => "Tables 1-3 shape, 3 engines x n 4..16 x proposals x fault loads: the repo's primary product; wall is mostly the baselines over reliable links, and set-up dominates the Turquois cells",
            Workload::ScaleFanout => "table_scale shape, Turquois n=64 divergent under 3 fault loads: callbacks are ~90% of wall and grow with n, the affordable proxy for the n=256 grid; a simulator-core change shows nothing here",
            Workload::PartitionHeal => "partition_matrix shape, 3 engines x keep/break split at 5 ms x heal 1 s/3 s: topology-aware arbitration, far-horizon timers, MAC retry and failure paths, long quiet stretches",
            Workload::RadioNull => "engine-free 300-byte broadcast+unicast load at n 16/64/256, 2% loss: all wall is wireless-net (queue, medium, fault, fan-out); an engine change shows nothing, a simulator change shows in full",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one pass took on the reference box (2 × Xeon
    /// 2.1 GHz) at the commit that defined the benchmark. Only used to
    /// turn `--seconds` into a pass count; a faster or slower host runs
    /// the same passes in less or more time.
    fn pass_seconds(self) -> f64 {
        match self {
            Workload::PaperTables => 1.3,
            Workload::ScaleFanout => 2.0,
            Workload::PartitionHeal => 1.4,
            Workload::RadioNull => 0.75,
        }
    }

    /// Passes measured in a run of `seconds`.
    pub fn passes(self, seconds: u64) -> usize {
        ((seconds as f64 / self.pass_seconds()).round() as usize).max(1)
    }
}

/// A network split applied to a consensus job (`partition_heal`).
#[derive(Clone, Debug)]
pub struct Split {
    /// The two sides of the split; together they cover `0..n`.
    pub groups: Vec<Vec<usize>>,
    /// Smallest component that may decide while split.
    pub quorum: usize,
    /// When the network heals.
    pub heal_at: SimTime,
}

/// The network splits this early (ms), before any engine's first
/// decision.
pub const SPLIT_AT_MS: u64 = 5;

/// One consensus run: everything `Scenario` needs except the seed.
#[derive(Clone, Debug)]
pub struct ConsensusJob {
    /// Protocol engine.
    pub engine: Protocol,
    /// Group size.
    pub n: usize,
    /// Initial proposals.
    pub proposals: ProposalDistribution,
    /// Injected process faults.
    pub load: FaultLoad,
    /// Turquois clock tick.
    pub tick: Duration,
    /// PHY/MAC parameters.
    pub phy: PhyConfig,
    /// Scheduled partition, if any.
    pub split: Option<Split>,
}

/// Residual frame loss on every job (the harness default).
pub const LOSS: f64 = 0.02;

/// Simulated-time budget of one consensus run. Five times the
/// harness default: a run that needs its supervised retry there still
/// fits here, so no job fails for want of budget.
pub const SIM_BUDGET: Duration = Duration::from_secs(600);

impl ConsensusJob {
    /// A single-domain job with `table_scale`'s population-scaled tick
    /// and contention window (the paper's values at n ≤ 16).
    pub fn new(
        engine: Protocol,
        n: usize,
        proposals: ProposalDistribution,
        load: FaultLoad,
    ) -> Self {
        ConsensusJob {
            engine,
            n,
            proposals,
            load,
            tick: scale_tick(n),
            phy: scale_phy(n),
            split: None,
        }
    }

    /// One-time key phases pre-distributed per Turquois run. The
    /// harness default is 600; a split majority at n = 4 can advance
    /// ~330 phases per simulated second (one 0.9 ms broadcast per node
    /// per phase), so under a 3 s split it would run out of keys before
    /// the heal and strand the minority. Split jobs get twice the keys.
    pub fn key_phases(&self) -> usize {
        if self.split.is_some() {
            1200
        } else {
            600
        }
    }

    /// The radio topology this job runs on.
    pub fn topology(&self) -> TopologySpec {
        match &self.split {
            None => TopologySpec::SingleDomain,
            Some(split) => TopologySpec::Partition(
                PartitionSchedule::new()
                    .split_at(SimTime::from_millis(SPLIT_AT_MS), split.groups.clone())
                    .heal_at(split.heal_at),
            ),
        }
    }

    /// The harness scenario for this job — what the untraced pass runs.
    pub fn scenario(&self, seed: u64) -> Scenario {
        Scenario::new(self.engine, self.n)
            .proposals(self.proposals)
            .fault_load(self.load)
            .loss(LossSpec::Iid(LOSS))
            .phy(self.phy)
            .tick_interval(self.tick)
            .topology(self.topology())
            .time_limit(SIM_BUDGET)
            .key_phases(self.key_phases())
            .seed(seed)
    }

    /// Short cell label for reports and trace run ids.
    pub fn label(&self) -> String {
        let split = match &self.split {
            None => String::new(),
            Some(s) => format!(
                " split {}|{} heal {}ms",
                s.groups[0].len(),
                s.groups[1].len(),
                s.heal_at.as_millis()
            ),
        };
        format!(
            "{} n={} {} {}{split}",
            self.engine.name(),
            self.n,
            self.proposals.name(),
            self.load.name()
        )
    }
}

/// What a job runs.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// A consensus run to `k` decisions.
    Consensus(ConsensusJob),
    /// The engine-free radio load for a fixed simulated horizon.
    Radio {
        /// Group size.
        n: usize,
        /// Simulated horizon.
        horizon: Duration,
    },
}

/// One unit of work: a cell of the workload's grid under one seed.
#[derive(Clone, Debug)]
pub struct Job {
    /// Seed handed to the program under test.
    pub seed: u64,
    /// What to run.
    pub kind: JobKind,
}

impl Job {
    /// Short label for reports and trace run ids.
    pub fn label(&self) -> String {
        match &self.kind {
            JobKind::Consensus(c) => c.label(),
            JobKind::Radio { n, horizon } => {
                format!("radio n={n} horizon {}ms", horizon.as_millis())
            }
        }
    }
}

/// Clock tick scaled to the group size, as `table_scale` does: the
/// paper's 10 ms at n ≤ 16, then `10 ms · n/16` so each tick's offered
/// load fits the 2 Mb/s channel.
pub fn scale_tick(n: usize) -> Duration {
    Duration::from_millis((10 * n.max(16) as u64).div_ceil(16))
}

/// MAC contention window scaled to the group size, as `table_scale`
/// does: `cw_min = max(31, 2n − 1)`.
pub fn scale_phy(n: usize) -> PhyConfig {
    let base = PhyConfig::default();
    let cw_min = base.cw_min.max(2 * n as u32 - 1);
    PhyConfig {
        cw_min,
        cw_max: base.cw_max.max(cw_min),
        ..base
    }
}

/// SplitMix64: derives the per-job seeds from the benchmark seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const PAPER_SIZES: [usize; 5] = [4, 7, 10, 13, 16];
const LOADS: [FaultLoad; 3] = [
    FaultLoad::FailureFree,
    FaultLoad::FailStop,
    FaultLoad::Byzantine,
];
const DISTRIBUTIONS: [ProposalDistribution; 2] = [
    ProposalDistribution::Unanimous,
    ProposalDistribution::Divergent,
];

/// Group size of `scale_fanout`'s measured cells.
pub const SCALE_N: usize = 64;

/// The cells of a workload's grid, in run order. `smoke` shrinks the
/// grid to a second or so for the schema test.
pub fn grid(workload: Workload, smoke: bool) -> Vec<JobKind> {
    let mut cells = Vec::new();
    match workload {
        Workload::PaperTables => {
            let sizes: &[usize] = if smoke { &[4, 7] } else { &PAPER_SIZES };
            for engine in Protocol::ALL {
                for &n in sizes {
                    for proposals in DISTRIBUTIONS {
                        for load in LOADS {
                            cells.push(JobKind::Consensus(ConsensusJob::new(
                                engine, n, proposals, load,
                            )));
                        }
                    }
                }
            }
        }
        Workload::ScaleFanout => {
            let n = if smoke { 24 } else { SCALE_N };
            for load in LOADS {
                cells.push(JobKind::Consensus(ConsensusJob::new(
                    Protocol::Turquois,
                    n,
                    ProposalDistribution::Divergent,
                    load,
                )));
            }
        }
        Workload::PartitionHeal => {
            let sizes: &[usize] = if smoke { &[4, 7] } else { &PAPER_SIZES };
            let heals: &[u64] = if smoke { &[1_000] } else { &[1_000, 3_000] };
            for engine in Protocol::ALL {
                for keep in [true, false] {
                    for &heal_ms in heals {
                        for &n in sizes {
                            let f = (n - 1) / 3;
                            // keep: majority n−f | minority f; break: even halves.
                            let cut = if keep { n - f } else { n.div_ceil(2) };
                            let quorum = match engine {
                                Protocol::Turquois => (n + f) / 2 + 1,
                                Protocol::Abba | Protocol::Bracha => n - f,
                            };
                            let mut job = ConsensusJob::new(
                                engine,
                                n,
                                ProposalDistribution::Divergent,
                                FaultLoad::FailureFree,
                            );
                            job.split = Some(Split {
                                groups: vec![(0..cut).collect(), (cut..n).collect()],
                                quorum,
                                heal_at: SimTime::from_millis(heal_ms),
                            });
                            cells.push(JobKind::Consensus(job));
                        }
                    }
                }
            }
        }
        Workload::RadioNull => {
            // Horizons shrink with n (offered load per simulated second
            // grows ∝ n) and give n = 256 the largest share of the pass:
            // it is the size nothing else in the repository measures.
            let sizes: &[(usize, u64)] = if smoke {
                &[(16, 2_000), (64, 1_000), (256, 250)]
            } else {
                &[(16, 100_000), (64, 50_000), (256, 20_000)]
            };
            for &(n, horizon_ms) in sizes {
                cells.push(JobKind::Radio {
                    n,
                    horizon: Duration::from_millis(horizon_ms),
                });
            }
        }
    }
    cells
}

/// Generates `passes` passes over `workload`'s grid for `seed`. The
/// same arguments always give the same jobs.
pub fn job_list(workload: Workload, seed: u64, passes: usize, smoke: bool) -> Vec<Vec<Job>> {
    // Salt by workload so two workloads never share a random stream.
    let mut state = seed ^ (workload as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
    let grid = grid(workload, smoke);
    (0..passes)
        .map(|_| {
            grid.iter()
                .map(|kind| Job {
                    // 48 bits: the harness derives per-node seeds as
                    // `seed + 31·i` in plain u64 arithmetic.
                    seed: splitmix(&mut state) >> 16,
                    kind: kind.clone(),
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_and_seeds_differ() {
        for w in Workload::ALL {
            let a = job_list(w, 7, 2, false);
            let b = job_list(w, 7, 2, false);
            let c = job_list(w, 8, 2, false);
            let seeds = |l: &[Vec<Job>]| l.iter().flatten().map(|j| j.seed).collect::<Vec<_>>();
            assert_eq!(seeds(&a), seeds(&b));
            assert_eq!(seeds(&a).len(), seeds(&c).len(), "grid is seed-independent");
            assert!(seeds(&a).iter().zip(seeds(&c)).all(|(x, y)| *x != y));
            assert_ne!(seeds(&a[..1]), seeds(&a[1..]), "each pass gets fresh seeds");
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn scaled_knobs_equal_the_paper_at_n16() {
        assert_eq!(scale_tick(4), Duration::from_millis(10));
        assert_eq!(scale_tick(16), Duration::from_millis(10));
        assert_eq!(scale_tick(64), Duration::from_millis(40));
        assert_eq!(scale_phy(16), PhyConfig::default());
        assert_eq!(scale_phy(64).cw_min, 127);
    }

    #[test]
    fn seconds_fix_the_pass_count() {
        assert_eq!(Workload::ScaleFanout.passes(20), 10);
        assert_eq!(Workload::PaperTables.passes(20), 15);
        assert_eq!(Workload::PaperTables.passes(0), 1);
    }
}
