//! Stall diagnostics: the structured report a supervised run emits when
//! it exhausts its simulated-time budget.
//!
//! The paper's liveness claim (§5's σ bound) makes *stalls* the
//! interesting failure mode: a run that neither decides nor crashes.
//! [`StallReport`] captures everything needed to tell a slow divergent
//! run from a genuinely stuck one without ad hoc printf: per-node
//! protocol progress (via [`crate::sim::Application::progress`]),
//! per-node transmit-queue depth and cumulative tail-drop counts (the
//! known congestion sharp edge), the injected fault state, and the
//! simulated time of the last global progress (phase advance or
//! decision).
//!
//! Reports are plain data — `Clone + Send` — so the harness's worker
//! pool can carry them across threads like any other job result.

use crate::frame::NodeId;
use crate::sim::RunStatus;
use crate::time::SimTime;
use std::fmt;

/// A progress snapshot reported by an application, for stall
/// diagnostics.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct AppProgress {
    /// Protocol phase (Turquois) or round (the baselines).
    pub phase: u32,
    /// Approximate resident bytes of the engine's message stores right
    /// now. Must be O(1) to compute (the simulator polls the probe
    /// after every callback) and a function of store *contents* only —
    /// never of the storage layout, because supervised tables print
    /// its high-water mark.
    pub store_bytes: usize,
}

/// One node's diagnostic row in a [`StallReport`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct NodeProgress {
    /// The node.
    pub node: NodeId,
    /// The application's progress probe (`None` when the application
    /// does not implement [`crate::sim::Application::progress`]).
    pub progress: Option<AppProgress>,
    /// Whether the simulator recorded a decision for this node.
    pub decided: bool,
    /// Whether the node is currently crashed (see
    /// [`crate::fault::CrashSchedule`]).
    pub crashed: bool,
    /// Frames sitting in the node's transmit queue right now.
    pub(crate) tx_queue_depth: usize,
    /// Cumulative transmit-queue tail drops at this node.
    pub queue_drops: u64,
    /// Frames delivered to this node's application.
    pub deliveries: u64,
    /// High-water mark of [`AppProgress::store_bytes`] over the run
    /// (0 for applications without a probe).
    pub peak_store_bytes: usize,
    /// Direct neighbors this node hears at the snapshot instant
    /// (`n − 1` in a single broadcast domain).
    pub(crate) reachable_peers: usize,
    /// Connected-component id of this node in the reachability graph
    /// (the smallest node index in the component; everyone is 0 when
    /// the network is whole).
    pub(crate) component: usize,
}

/// A structured diagnosis of a run that stopped without satisfying its
/// goal — emitted by
/// [`crate::sim::Simulator::run_until_k_decided_supervised`] beside the
/// bare [`RunStatus`].
#[derive(Clone, Debug, PartialEq)]
pub struct StallReport {
    /// How the run ended ([`RunStatus::TimeLimit`] or
    /// [`RunStatus::Quiescent`]).
    pub status: RunStatus,
    /// Simulated time when the run stopped.
    pub now: SimTime,
    /// The simulated-time budget the run was given.
    pub limit: SimTime,
    /// Nodes that decided before the stall.
    pub decided: usize,
    /// The decision target `k`, when the run had one.
    pub target: Option<usize>,
    /// Simulated time of the last global progress (a phase advance or
    /// a decision anywhere in the group).
    pub(crate) last_progress: SimTime,
    /// The injected delivery fault model, per
    /// [`crate::fault::FaultModel::describe`].
    pub fault: String,
    /// The installed crash schedule, per
    /// [`crate::fault::CrashSchedule::describe`].
    pub crashes: String,
    /// The active radio topology, per
    /// [`crate::topology::Topology::describe`].
    pub topology: String,
    /// Total transmit-queue tail drops across the group.
    pub queue_drops: u64,
    /// Per-node diagnostics.
    pub nodes: Vec<NodeProgress>,
}

impl StallReport {
    /// `true` when nothing made progress at all: no node ever advanced
    /// past its initial phase and nobody decided.
    pub fn zero_progress(&self) -> bool {
        self.decided == 0 && self.last_progress == SimTime::ZERO
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = match self.status {
            RunStatus::Satisfied => "satisfied",
            RunStatus::TimeLimit => "time-limit",
            RunStatus::Quiescent => "quiescent",
        };
        let target = match self.target {
            Some(k) => format!("{}/{k}", self.decided),
            None => format!("{}", self.decided),
        };
        writeln!(
            f,
            "stall[{status}] at {} (budget {}): {target} decided, \
             last progress {}, {} queue drops",
            self.now, self.limit, self.last_progress, self.queue_drops
        )?;
        writeln!(f, "  faults: {}; crashes: {}", self.fault, self.crashes)?;
        writeln!(f, "  topology: {}", self.topology)?;
        for np in &self.nodes {
            let phase = match np.progress {
                Some(p) => format!("phase {:>4}", p.phase),
                None => "phase    ?".to_string(),
            };
            writeln!(
                f,
                "  n{:<3} {phase}  {}  {}  txq {:>2}  qdrops {:>4}  rx {:>6}  \
                 peak-store {:>8}B  reach {:>3}  comp {:>3}",
                np.node,
                if np.decided { "decided " } else { "undecided" },
                if np.crashed { "CRASHED" } else { "up     " },
                np.tx_queue_depth,
                np.queue_drops,
                np.deliveries,
                np.peak_store_bytes,
                np.reachable_peers,
                np.component,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StallReport {
        StallReport {
            status: RunStatus::TimeLimit,
            now: SimTime::from_millis(30_000),
            limit: SimTime::from_millis(30_000),
            decided: 1,
            target: Some(7),
            last_progress: SimTime::from_millis(1_204),
            fault: "budgeted omission 160 per 10ms".into(),
            crashes: "no crashes".into(),
            topology: "split@5ms 4|3, heal@1s".into(),
            queue_drops: 12,
            nodes: vec![
                NodeProgress {
                    node: 0,
                    progress: Some(AppProgress {
                        phase: 41,
                        store_bytes: 1_024,
                    }),
                    decided: true,
                    crashed: false,
                    tx_queue_depth: 0,
                    queue_drops: 0,
                    deliveries: 1293,
                    peak_store_bytes: 2_208,
                    reachable_peers: 3,
                    component: 0,
                },
                NodeProgress {
                    node: 1,
                    progress: None,
                    decided: false,
                    crashed: true,
                    tx_queue_depth: 4,
                    queue_drops: 12,
                    deliveries: 1101,
                    peak_store_bytes: 0,
                    reachable_peers: 2,
                    component: 4,
                },
            ],
        }
    }

    #[test]
    fn display_names_phases_and_drops() {
        let text = report().to_string();
        assert!(text.contains("stall[time-limit]"), "{text}");
        assert!(text.contains("1/7 decided"), "{text}");
        assert!(text.contains("phase   41"), "{text}");
        assert!(text.contains("CRASHED"), "{text}");
        assert!(text.contains("12 queue drops"), "{text}");
        assert!(text.contains("budgeted omission"), "{text}");
        assert!(text.contains("peak-store     2208B"), "{text}");
        assert!(text.contains("topology: split@5ms 4|3, heal@1s"), "{text}");
        assert!(text.contains("reach   3  comp   0"), "{text}");
        assert!(text.contains("reach   2  comp   4"), "{text}");
    }

    #[test]
    fn zero_progress_detection() {
        let mut r = report();
        assert!(!r.zero_progress(), "progress was made");
        r.decided = 0;
        r.last_progress = SimTime::ZERO;
        assert!(r.zero_progress());
    }
}
