//! Scenario construction and single-run execution — the programmatic
//! form of the paper's experimental grid (§7.2): protocol × group size ×
//! proposal distribution × fault load, plus the reproduction's loss
//! models and cost-model ablations.

use crate::adapters::{AbbaApp, BrachaApp, RunProbe, SharedLinkTags, SharedProbe, TurquoisApp};
use std::time::Duration;
use turquois_baselines::abba::{Abba, AbbaKeys};
use turquois_baselines::bracha::Bracha;
use turquois_baselines::Quorums;
use turquois_core::config::{Config, ConfigError};
use turquois_core::instance::Turquois;
use turquois_core::KeyRing;
use turquois_crypto::cost::CostModel;
use wireless_net::fault::{
    BudgetedOmission, Compose, CrashSchedule, FaultModel, GilbertElliott, IidLoss, JammingWindows,
    NoFaults,
};
use wireless_net::frame::NodeId;
use wireless_net::supervise::StallReport;
use wireless_net::sim::{Application, CrashedApp, Decision, Node, RunStatus, SimConfig, Simulator};
use wireless_net::stats::NetStats;
use wireless_net::time::SimTime;
use wireless_net::topology::TopologySpec;

/// The protocol under test.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum Protocol {
    /// The paper's contribution (UDP broadcast).
    Turquois,
    /// Cachin–Kursawe–Shoup (TCP + threshold crypto).
    Abba,
    /// Bracha 1984 (TCP + reliable broadcast).
    Bracha,
}

impl Protocol {
    /// All three protocols, in the paper's table order.
    pub const ALL: [Protocol; 3] = [Protocol::Turquois, Protocol::Abba, Protocol::Bracha];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Turquois => "Turquois",
            Protocol::Abba => "ABBA",
            Protocol::Bracha => "Bracha",
        }
    }

    /// Fewest distinct senders that let this protocol decide in a
    /// component of an `n`-node group (`f = ⌊(n−1)/3⌋`): a Turquois
    /// quorum exceeds `(n + f)/2`, and the reliable-broadcast baselines
    /// wait for `n − f` peers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn decision_quorum(&self, n: usize) -> usize {
        let cfg = Config::evaluation(n).expect("a group has a process");
        match self {
            Protocol::Turquois => cfg.quorum_min(),
            Protocol::Abba | Protocol::Bracha => Quorums::new(n, cfg.f()).wait(),
        }
    }
}

/// Initial proposal pattern (§7.2).
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum ProposalDistribution {
    /// Every process proposes 1.
    Unanimous,
    /// Odd process identifiers propose 1, even propose 0.
    Divergent,
}

impl ProposalDistribution {
    /// The proposal of process `id`.
    pub fn proposal(&self, id: usize) -> bool {
        match self {
            ProposalDistribution::Unanimous => true,
            ProposalDistribution::Divergent => id % 2 == 1,
        }
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ProposalDistribution::Unanimous => "unanimous",
            ProposalDistribution::Divergent => "divergent",
        }
    }
}

/// Fault load (§7.2): which failures are injected.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum FaultLoad {
    /// All processes behave correctly.
    FailureFree,
    /// `f = ⌊(n−1)/3⌋` processes crash before the run starts.
    FailStop,
    /// `f` processes follow the malicious strategy of §7.2.
    Byzantine,
}

impl FaultLoad {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            FaultLoad::FailureFree => "failure-free",
            FaultLoad::FailStop => "fail-stop",
            FaultLoad::Byzantine => "Byzantine",
        }
    }
}

/// Injected network-loss model (on top of MAC collisions).
#[derive(Clone, Debug, PartialEq)]
pub enum LossSpec {
    /// No injected loss.
    None,
    /// Independent loss with the given probability.
    Iid(f64),
    /// Gilbert–Elliott bursts: `(p_gb, p_bg, loss_bad)`, good state
    /// lossless.
    Burst(f64, f64, f64),
    /// One jamming window `[start_ms, start_ms + len_ms)`.
    Jam {
        /// Window start, ms.
        start_ms: u64,
        /// Window length, ms.
        len_ms: u64,
    },
    /// Omission adversary: kill up to `budget` broadcast deliveries per
    /// `window_ms` window (σ-bound experiments).
    Budget {
        /// Deliveries killed per window.
        budget: usize,
        /// Window length, ms.
        window_ms: u64,
    },
    /// Several loss models stacked: a delivery is dropped if **any**
    /// part drops it (the fault-matrix experiment composes burst loss
    /// with jamming this way). Parts get distinct derived seeds.
    Composed(Vec<LossSpec>),
}

impl LossSpec {
    fn build(&self, seed: u64) -> Box<dyn FaultModel> {
        match self {
            LossSpec::None => Box::new(NoFaults),
            LossSpec::Iid(p) => Box::new(IidLoss::new(*p, seed)),
            LossSpec::Burst(p_gb, p_bg, loss_bad) => {
                Box::new(GilbertElliott::new(*p_gb, *p_bg, 0.0, *loss_bad, seed))
            }
            LossSpec::Jam { start_ms, len_ms } => Box::new(JammingWindows::burst(
                SimTime::from_millis(*start_ms),
                Duration::from_millis(*len_ms),
            )),
            LossSpec::Budget { budget, window_ms } => Box::new(
                BudgetedOmission::new(*budget, Duration::from_millis(*window_ms)).broadcast_only(),
            ),
            LossSpec::Composed(parts) => Box::new(Compose::new(
                parts
                    .iter()
                    .enumerate()
                    // Golden-ratio stride decorrelates the parts' RNG
                    // streams while staying a pure function of `seed`.
                    .map(|(i, p)| p.build(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1))))
                    .collect(),
            )),
        }
    }
}

/// Errors configuring or running a scenario.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum ScenarioError {
    /// The group size admits no valid `(f, k)` per the paper's rules.
    InvalidConfig(ConfigError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A fully-specified experiment cell.
#[derive(Clone, Debug)]
pub struct Scenario {
    protocol: Protocol,
    n: usize,
    proposals: ProposalDistribution,
    fault_load: FaultLoad,
    loss: LossSpec,
    crashes: CrashSchedule,
    seed: u64,
    cost: CostModel,
    time_limit: Duration,
    key_phases: usize,
    phy: wireless_net::PhyConfig,
    tick: Duration,
    topology: TopologySpec,
}

impl Scenario {
    /// Residual 802.11b frame-loss probability applied by default: any
    /// real deployment sees interference/fading loss on top of
    /// collisions; 2 % is a conservative figure for co-located nodes and
    /// is what lets the paper's loss-sensitivity effects (fail-stop
    /// slower than failure-free, divergent ≈ 2× unanimous) materialize.
    /// Override with [`Scenario::loss`] (e.g. `LossSpec::None` for a
    /// perfectly clean channel).
    pub const BASELINE_LOSS: LossSpec = LossSpec::Iid(0.02);

    /// Simulated-time limit of one run unless [`Scenario::time_limit`]
    /// sets another.
    pub const DEFAULT_TIME_LIMIT: Duration = Duration::from_secs(120);

    /// Creates a failure-free, unanimous scenario for `protocol` with
    /// `n` processes (`f = ⌊(n−1)/3⌋`, `k = n − f`) over a channel with
    /// [`Scenario::BASELINE_LOSS`].
    pub fn new(protocol: Protocol, n: usize) -> Scenario {
        Scenario {
            protocol,
            n,
            proposals: ProposalDistribution::Unanimous,
            fault_load: FaultLoad::FailureFree,
            loss: Scenario::BASELINE_LOSS,
            crashes: CrashSchedule::default(),
            seed: 0,
            cost: CostModel::pentium3_600(),
            time_limit: Scenario::DEFAULT_TIME_LIMIT,
            key_phases: 600,
            phy: wireless_net::PhyConfig::default(),
            tick: crate::adapters::TICK_INTERVAL,
            topology: TopologySpec::SingleDomain,
        }
    }

    /// Sets the proposal distribution.
    pub fn proposals(mut self, p: ProposalDistribution) -> Scenario {
        self.proposals = p;
        self
    }

    /// Sets the fault load.
    pub fn fault_load(mut self, fl: FaultLoad) -> Scenario {
        self.fault_load = fl;
        self
    }

    /// Sets the injected loss model.
    pub fn loss(mut self, loss: LossSpec) -> Scenario {
        self.loss = loss;
        self
    }

    /// Installs a crash/recovery schedule ([`CrashSchedule`]): fail-stop
    /// faults at chosen simtimes or protocol phases, with optional
    /// rejoin. Independent of [`Scenario::fault_load`] — the fault
    /// matrix composes both.
    pub fn crashes(mut self, crashes: CrashSchedule) -> Scenario {
        self.crashes = crashes;
        self
    }

    /// Sets the RNG seed (vary per repetition).
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Sets the CPU cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Scenario {
        self.cost = cost;
        self
    }

    /// Sets the simulated-time limit for one run.
    pub fn time_limit(mut self, limit: Duration) -> Scenario {
        self.time_limit = limit;
        self
    }

    /// Sets how many phases of one-time keys are pre-distributed
    /// (Turquois).
    pub fn key_phases(mut self, phases: usize) -> Scenario {
        self.key_phases = phases;
        self
    }

    /// Overrides the PHY/MAC parameters (rates, timing, queue depth).
    pub fn phy(mut self, phy: wireless_net::PhyConfig) -> Scenario {
        self.phy = phy;
        self
    }

    /// Overrides the Turquois clock-tick interval (paper default:
    /// 10 ms), applied to correct and Byzantine processes alike. The
    /// scale grid uses this to keep each tick's offered load within the
    /// 2 Mb/s channel at n ≫ 16; no effect on the message-driven
    /// baselines.
    pub fn tick_interval(mut self, tick: Duration) -> Scenario {
        self.tick = tick;
        self
    }

    /// Sets the radio topology (default: the paper's single one-hop
    /// broadcast domain). A partition schedule composes freely with
    /// [`Scenario::loss`], [`Scenario::crashes`], and the fault load —
    /// the topology decides who *can* hear a frame, the loss model then
    /// drops among those who would.
    pub fn topology(mut self, topology: TopologySpec) -> Scenario {
        self.topology = topology;
        self
    }

    /// The protocol under test.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The simulated-time limit one run gets.
    pub fn time_budget(&self) -> Duration {
        self.time_limit
    }

    /// Builds the simulator and probe for this scenario without running
    /// it — for step-by-step drivers, debugging, and tests that need
    /// mid-run access.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidConfig`] when `n` admits no valid
    /// configuration.
    pub fn build_sim(&self) -> Result<(Simulator, SharedProbe), ScenarioError> {
        let cfg = Config::evaluation(self.n).map_err(ScenarioError::InvalidConfig)?;
        let probe = RunProbe::new(self.n);
        let apps = self
            .group_keys(cfg)
            .into_iter()
            .enumerate()
            .map(|(i, keys)| self.node_app(cfg, i, keys, &probe))
            .collect();
        let sim_cfg = SimConfig {
            seed: self.seed,
            phy: self.phy,
            topology: self.topology.clone(),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(sim_cfg, self.loss.build(self.seed), apps);
        if !self.crashes.is_empty() {
            sim.set_crash_schedule(self.crashes.clone());
        }
        Ok((sim, probe))
    }

    /// Number of processes that behave correctly under this fault load.
    pub fn correct_count(&self) -> usize {
        let f = Config::evaluation(self.n).map_or(0, |cfg| cfg.f());
        if self.fault_load == FaultLoad::FailureFree {
            self.n
        } else {
            self.n - f
        }
    }

    /// Runs the scenario once.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidConfig`] when `n` admits no valid
    /// configuration.
    pub fn run_once(&self) -> Result<RunOutcome, ScenarioError> {
        let (sim, probe) = self.build_sim()?;
        self.run_built(sim, probe)
    }

    /// Runs an already-built simulator to this scenario's decision
    /// target and time limit and records the outcome against this
    /// scenario's proposals and fault load. [`Scenario::run_once`] is
    /// this after [`Scenario::build_sim`]; an experiment that wires its
    /// own applications (`tick_ablation`) must build them to match.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidConfig`] when `n` admits no valid
    /// configuration.
    pub fn run_built(
        &self,
        mut sim: Simulator,
        probe: SharedProbe,
    ) -> Result<RunOutcome, ScenarioError> {
        let cfg = Config::evaluation(self.n).map_err(ScenarioError::InvalidConfig)?;
        let n = self.n;
        let f = cfg.f();
        let fault_load = self.fault_load;
        let faulty_flags: Vec<bool> = (0..n)
            .map(|i| fault_load != FaultLoad::FailureFree && i >= n - f)
            .collect();
        let proposals: Vec<bool> = (0..n).map(|i| self.proposals.proposal(i)).collect();
        let limit = SimTime::ZERO + self.time_limit;
        let (status, stall) = sim.run_until_k_decided_supervised(self.correct_count(), limit);
        let probe_snapshot = probe.borrow().clone();

        Ok(RunOutcome {
            stall,
            n,
            f,
            k: cfg.k(),
            fault_load,
            faulty: faulty_flags,
            proposals,
            status,
            decisions: sim.decisions().to_vec(),
            start_times: sim.start_times().to_vec(),
            stats: sim.stats().clone(),
            probe: probe_snapshot,
            end: sim.now(),
            peak_store_bytes: sim.peak_store_bytes().iter().copied().max().unwrap_or(0),
        })
    }

    /// Node `id` of this scenario for a live host: its application,
    /// built from this group's set-up exactly as [`Scenario::build_sim`]
    /// builds it, and its own instance of the scenario's loss model
    /// (receiver-side, seeded per node).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidConfig`] when `n` admits no valid
    /// configuration.
    pub fn live_node(&self, id: NodeId) -> Result<Node, ScenarioError> {
        let cfg = Config::evaluation(self.n).map_err(ScenarioError::InvalidConfig)?;
        let keys = self.group_keys(cfg).swap_remove(id);
        let app = self.node_app(cfg, id, keys, &RunProbe::new(self.n));
        Ok((app, self.loss.build(self.seed.wrapping_add(id as u64))))
    }

    /// The group's trusted set-up, dealt once: one share per node.
    fn group_keys(&self, cfg: Config) -> Vec<NodeKeys> {
        match self.protocol {
            Protocol::Turquois => KeyRing::trusted_setup(self.n, self.key_phases, self.seed)
                .into_iter()
                .map(NodeKeys::Turquois)
                .collect(),
            // One link-tag pool per group: a frame's sender-side wrap and
            // receiver-side checks share one host-side HMAC computation
            // (simulated cost is still charged on both ends).
            Protocol::Bracha => {
                let link_tags = crate::adapters::new_link_tags();
                (0..self.n).map(|_| NodeKeys::Bracha(link_tags.clone())).collect()
            }
            Protocol::Abba => AbbaKeys::trusted_setup(self.n, cfg.f(), self.seed)
                .into_iter()
                .map(NodeKeys::Abba)
                .collect(),
        }
    }

    /// Node `i`'s application from its share of the group set-up. The
    /// last f processes are the faulty ones under faulty loads.
    fn node_app(
        &self,
        cfg: Config,
        i: NodeId,
        keys: NodeKeys,
        probe: &SharedProbe,
    ) -> Box<dyn Application> {
        let (n, f) = (self.n, cfg.f());
        let faulty = i >= n - f;
        if faulty && self.fault_load == FaultLoad::FailStop {
            return Box::new(CrashedApp);
        }
        let byzantine = faulty && self.fault_load == FaultLoad::Byzantine;
        let proposal = self.proposals.proposal(i);
        let seed = |stride: u64| self.seed.wrapping_add(stride.wrapping_mul(i as u64));
        match keys {
            NodeKeys::Turquois(ring) => {
                let inst = Turquois::new(cfg, i, proposal, ring.clone(), seed(7));
                if byzantine {
                    return Box::new(TurquoisApp::flipping(inst, ring).tick_interval(self.tick));
                }
                Box::new(
                    TurquoisApp::new(inst, self.cost, probe.clone())
                        .tick_interval(self.tick)
                        .resettable(cfg, proposal, ring, seed(7)),
                )
            }
            NodeKeys::Bracha(link_tags) => {
                let engine = Bracha::new(n, f, i, proposal, seed(31));
                let (probe, cost) = (probe.clone(), self.cost);
                let app = BrachaApp::new(engine, n, self.seed, cost, probe, link_tags);
                Box::new(if byzantine { app.lying_to(u64::MAX) } else { app })
            }
            NodeKeys::Abba(_) if byzantine => Box::new(AbbaApp::flooding(i, n)),
            NodeKeys::Abba(k) => {
                let engine = Abba::new(n, f, i, proposal, k, seed(17));
                Box::new(AbbaApp::new(engine, n, self.cost, probe.clone()))
            }
        }
    }
}

/// One node's share of a group's trusted set-up.
enum NodeKeys {
    Turquois(KeyRing),
    Bracha(SharedLinkTags),
    Abba(AbbaKeys),
}

/// The observable results of one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Group size.
    pub n: usize,
    /// Byzantine bound used.
    pub f: usize,
    /// Decision threshold used.
    pub k: usize,
    /// The fault load that was applied.
    pub fault_load: FaultLoad,
    /// Which processes were faulty (crashed or Byzantine).
    pub faulty: Vec<bool>,
    /// Initial proposals.
    pub proposals: Vec<bool>,
    /// How the run ended.
    pub status: RunStatus,
    /// Per-node decisions (faulty nodes never decide).
    pub decisions: Vec<Option<Decision>>,
    /// Per-node start instants.
    pub start_times: Vec<SimTime>,
    /// Network statistics.
    pub stats: NetStats,
    /// Adapter observations.
    pub probe: RunProbe,
    /// Simulated time when the run stopped.
    pub end: SimTime,
    /// Largest per-node message-store high-water mark over the run
    /// (bytes, per the engines' deterministic store-bytes probe;
    /// see [`wireless_net::supervise::AppProgress::store_bytes`]).
    pub peak_store_bytes: usize,
    /// Stall diagnostics, present whenever the run stopped without
    /// reaching its decision target.
    pub stall: Option<StallReport>,
}

impl RunOutcome {
    /// Indices of correct processes.
    pub fn correct(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&i| !self.faulty[i])
    }

    /// Number of correct processes that decided.
    pub fn decided_correct(&self) -> usize {
        self.correct()
            .filter(|&i| self.decisions[i].is_some())
            .count()
    }

    /// Whether at least `k` correct processes decided.
    pub fn k_reached(&self) -> bool {
        self.decided_correct() >= self.k
    }

    /// Agreement: no two correct processes decided differently.
    pub fn agreement_holds(&self) -> bool {
        let mut seen: Option<bool> = None;
        for i in self.correct() {
            if let Some(d) = self.decisions[i] {
                match seen {
                    None => seen = Some(d.value),
                    Some(v) if v != d.value => return false,
                    _ => {}
                }
            }
        }
        true
    }

    /// Validity: if all correct processes proposed `v`, every correct
    /// decision is `v`. (Vacuously true for divergent proposals.)
    pub fn validity_holds(&self) -> bool {
        let props: Vec<bool> = self.correct().map(|i| self.proposals[i]).collect();
        let Some(&first) = props.first() else {
            return true;
        };
        if !props.iter().all(|&p| p == first) {
            return true;
        }
        self.correct()
            .filter_map(|i| self.decisions[i])
            .all(|d| d.value == first)
    }

    /// Per-process decision latencies in milliseconds (correct deciders
    /// only), per the paper's latency metric.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.correct()
            .filter_map(|i| {
                self.decisions[i].map(|d| {
                    d.time.saturating_since(self.start_times[i]).as_secs_f64() * 1e3
                })
            })
            .collect()
    }

    /// Mean latency over deciders, if any decided.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        let l = self.latencies_ms();
        if l.is_empty() {
            None
        } else {
            Some(l.iter().sum::<f64>() / l.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_spec_builds_all_variants() {
        for spec in [
            LossSpec::None,
            LossSpec::Iid(0.1),
            LossSpec::Burst(0.05, 0.2, 0.8),
            LossSpec::Jam {
                start_ms: 5,
                len_ms: 10,
            },
            LossSpec::Budget {
                budget: 3,
                window_ms: 10,
            },
        ] {
            let model = spec.build(1);
            assert!(!model.describe().is_empty());
        }
    }

    #[test]
    fn proposal_distributions() {
        assert!(ProposalDistribution::Unanimous.proposal(0));
        assert!(ProposalDistribution::Unanimous.proposal(7));
        assert!(!ProposalDistribution::Divergent.proposal(0));
        assert!(ProposalDistribution::Divergent.proposal(1));
    }

    #[test]
    fn invalid_n_is_reported() {
        let s = Scenario::new(Protocol::Turquois, 0);
        assert!(matches!(
            s.run_once(),
            Err(ScenarioError::InvalidConfig(_))
        ));
    }

    #[test]
    fn turquois_failure_free_unanimous_smoke() {
        let outcome = Scenario::new(Protocol::Turquois, 4)
            .seed(42)
            .run_once()
            .expect("valid scenario");
        assert_eq!(outcome.status, RunStatus::Satisfied, "{outcome:?}");
        assert_eq!(outcome.decided_correct(), 4);
        assert!(outcome.agreement_holds());
        assert!(outcome.validity_holds());
        assert!(outcome.k_reached());
        let lat = outcome.latencies_ms();
        assert_eq!(lat.len(), 4);
        assert!(lat.iter().all(|&ms| ms > 0.0 && ms < 1_000.0), "{lat:?}");
    }

    #[test]
    fn per_node_seeds_wrap_at_the_top_of_the_seed_range() {
        for protocol in Protocol::ALL {
            let outcome = Scenario::new(protocol, 4)
                .seed(u64::MAX)
                .run_once()
                .expect("valid scenario");
            assert!(outcome.k_reached(), "{protocol:?}: {outcome:?}");
            assert!(outcome.agreement_holds() && outcome.validity_holds(), "{protocol:?}");
        }
    }

    #[test]
    fn names_for_display() {
        assert_eq!(Protocol::Turquois.name(), "Turquois");
        assert_eq!(ProposalDistribution::Divergent.name(), "divergent");
        assert_eq!(FaultLoad::FailStop.name(), "fail-stop");
    }
}
