//! Running one job and checking what it produced.
//!
//! The untraced pass builds through `Scenario::build_sim` and drives
//! with the harness's own `run_until_k_decided` — the path the
//! experiment binaries take. The traced pass ([`crate::traced`]) builds
//! and drives differently but lands in the same [`finish`], so both are
//! held to the same checks and hash to the same digest.

use crate::jobs::{ConsensusJob, Job, JobKind, LOSS, SIM_BUDGET, SPLIT_AT_MS};
use crate::radio::{radio_apps, RadioTally, SharedTally};
use crate::surface::{
    Decision, FaultLoad, IidLoss, NetStats, RunOutcome, RunStatus, SharedProbe, SimConfig, SimTime,
    Simulator,
};

/// A simulator ready to run, plus the handle its results are read from.
pub struct Built {
    /// The simulator, not yet stepped.
    pub sim: Simulator,
    /// Where the run's observations accumulate.
    pub watch: Watch,
}

/// The per-run observation handle.
pub enum Watch {
    /// Adapter probe of a consensus run.
    Consensus(SharedProbe),
    /// Receiver tally of a radio run.
    Radio(SharedTally),
}

/// How a run ended.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Stop {
    /// Every correct process decided (consensus) — the only good ending
    /// of a consensus run.
    Decided,
    /// The simulated budget ran out first.
    Budget,
    /// The event queue drained — the only good ending of a radio run.
    Drained,
}

/// What one job produced.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
    /// Simulated time when the run stopped, ns.
    pub end_nanos: u64,
    /// Network counters at the end of the run.
    pub stats: NetStats,
    /// Per-node decisions (empty for a radio run).
    pub decisions: Vec<Option<Decision>>,
    /// Consensus: decision − start per correct decider, simulated ms.
    pub latencies_ms: Vec<f64>,
    /// Consensus: protocol phase (round) at each decision.
    pub phases: Vec<u32>,
    /// Radio: what the receivers saw.
    pub radio: RadioTally,
    /// Hash of the run's simulated outcome.
    pub digest: u64,
}

impl JobResult {
    /// The result of a job that produced nothing but a failure.
    pub fn failed(reason: String) -> JobResult {
        JobResult {
            failure: Some(reason),
            end_nanos: 0,
            stats: NetStats::default(),
            decisions: Vec::new(),
            latencies_ms: Vec::new(),
            phases: Vec::new(),
            radio: RadioTally::default(),
            digest: 0,
        }
    }
}

/// The simulator configuration both construction paths use for a
/// radio run.
pub fn radio_sim_config(n: usize, seed: u64) -> SimConfig {
    SimConfig {
        seed,
        phy: crate::jobs::scale_phy(n),
        ..SimConfig::default()
    }
}

/// Builds a job the way the experiment binaries do.
pub fn build_plain(job: &Job) -> Built {
    match &job.kind {
        JobKind::Consensus(c) => {
            let (sim, probe) = c
                .scenario(job.seed)
                .build_sim()
                .expect("every grid size admits a configuration");
            Built {
                sim,
                watch: Watch::Consensus(probe),
            }
        }
        JobKind::Radio { n, horizon } => {
            let (apps, tally) = radio_apps(*n, *horizon);
            let fault = Box::new(IidLoss::new(LOSS, job.seed));
            Built {
                sim: Simulator::new(radio_sim_config(*n, job.seed), fault, apps),
                watch: Watch::Radio(tally),
            }
        }
    }
}

/// Decisions a consensus job waits for: every correct process.
pub fn decision_target(c: &ConsensusJob) -> usize {
    let f = (c.n - 1) / 3;
    match c.load {
        FaultLoad::FailureFree => c.n,
        FaultLoad::FailStop | FaultLoad::Byzantine => c.n - f,
    }
}

/// Simulated stop time of a consensus run.
pub fn sim_limit() -> SimTime {
    SimTime::ZERO + SIM_BUDGET
}

/// Drives a built job with the harness's own run loops.
pub fn drive_plain(job: &Job, built: &mut Built) -> Stop {
    let status = match &job.kind {
        JobKind::Consensus(c) => built
            .sim
            .run_until_k_decided(decision_target(c), sim_limit()),
        JobKind::Radio { .. } => built
            .sim
            .run_until(SimTime::from_nanos(u64::MAX), |_| false),
    };
    match status {
        RunStatus::Satisfied => Stop::Decided,
        RunStatus::TimeLimit => Stop::Budget,
        RunStatus::Quiescent => Stop::Drained,
    }
}

/// FNV-1a over a stream of words: the outcome digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Hash of a sequence of runs' outcome digests, in run order.
pub fn digest_of<'a>(results: impl Iterator<Item = &'a JobResult>) -> u64 {
    let mut digest = Digest::default();
    for r in results {
        digest.word(r.digest);
    }
    digest.value()
}

/// Checks a finished run and summarises it.
pub fn finish(job: &Job, built: &Built, stop: Stop) -> JobResult {
    let sim = &built.sim;
    let stats = sim.stats().clone();
    let mut digest = Digest::default();
    digest.word(sim.now().as_nanos());
    digest.word(stats.events_processed);
    digest.word(stats.frames_sent());
    let mut result = JobResult {
        failure: None,
        end_nanos: sim.now().as_nanos(),
        stats,
        decisions: Vec::new(),
        latencies_ms: Vec::new(),
        phases: Vec::new(),
        radio: RadioTally::default(),
        digest: 0,
    };
    match (&job.kind, &built.watch) {
        (JobKind::Consensus(c), Watch::Consensus(probe)) => {
            for (node, d) in sim.decisions().iter().enumerate() {
                if let Some(d) = d {
                    digest.word(node as u64);
                    digest.word(d.time.as_nanos());
                    digest.word(d.value as u64);
                }
            }
            result.decisions = sim.decisions().to_vec();
            let outcome = consensus_outcome(c, sim, probe, stop);
            result.failure = consensus_failure(c, &outcome, stop);
            result.latencies_ms = outcome.latencies_ms();
            result.phases = outcome
                .probe
                .phase_at_decision
                .iter()
                .flatten()
                .copied()
                .collect();
        }
        (JobKind::Radio { .. }, Watch::Radio(tally)) => {
            let tally = *tally.borrow();
            digest.word(tally.heard);
            digest.word(tally.delay_ns);
            if stop != Stop::Drained {
                result.failure = Some(format!("radio run ended {stop:?}, not drained"));
            } else if tally.heard == 0 {
                result.failure = Some("radio run delivered nothing".into());
            }
            result.radio = tally;
        }
        _ => unreachable!("a job is built with its own kind of watch"),
    }
    result.digest = digest.value();
    result
}

/// The harness's view of a finished consensus run, so its own
/// agreement / validity / latency definitions judge it.
fn consensus_outcome(
    c: &ConsensusJob,
    sim: &Simulator,
    probe: &SharedProbe,
    stop: Stop,
) -> RunOutcome {
    let n = c.n;
    let f = (n - 1) / 3;
    RunOutcome {
        n,
        f,
        k: n - f,
        fault_load: c.load,
        faulty: (0..n)
            .map(|i| c.load != FaultLoad::FailureFree && i >= n - f)
            .collect(),
        proposals: (0..n).map(|i| c.proposals.proposal(i)).collect(),
        status: match stop {
            Stop::Decided => RunStatus::Satisfied,
            Stop::Budget => RunStatus::TimeLimit,
            Stop::Drained => RunStatus::Quiescent,
        },
        decisions: sim.decisions().to_vec(),
        start_times: sim.start_times().to_vec(),
        stats: sim.stats().clone(),
        probe: probe.borrow().clone(),
        end: sim.now(),
        peak_store_bytes: sim.peak_store_bytes().iter().copied().max().unwrap_or(0),
        stall: None,
    }
}

fn consensus_failure(c: &ConsensusJob, outcome: &RunOutcome, stop: Stop) -> Option<String> {
    if !outcome.agreement_holds() {
        return Some("agreement violated".into());
    }
    if !outcome.validity_holds() {
        return Some("validity violated".into());
    }
    if let Some(split) = &c.split {
        // No component below the engine's quorum may decide while split.
        let split_at = SimTime::from_millis(SPLIT_AT_MS);
        for group in split.groups.iter().filter(|g| g.len() < split.quorum) {
            for &node in group {
                if let Some(d) = outcome.decisions[node] {
                    if d.time >= split_at && d.time < split.heal_at {
                        return Some(format!(
                            "node {node} decided at {} inside a {}-node sub-quorum component",
                            d.time,
                            group.len()
                        ));
                    }
                }
            }
        }
    }
    if stop != Stop::Decided {
        return Some(format!(
            "{} of {} correct processes decided ({stop:?}); final phases {:?}, keys exhausted {:?}",
            outcome.decided_correct(),
            decision_target(c),
            outcome.probe.final_phase,
            outcome.probe.keys_exhausted
        ));
    }
    None
}
