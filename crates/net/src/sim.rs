//! The discrete-event simulator: nodes, applications, event loop.
//!
//! A [`Simulator`] owns `n` nodes, each running one [`Application`]
//! (a protocol adapter), a shared [`Medium`], and an injected
//! [`FaultModel`]. Everything is deterministic given the seed.
//!
//! Applications are *sans-io callbacks*: they react to `on_start`,
//! `on_timer`, and `on_frame`, and issue commands through [`NodeCtx`]
//! (broadcast, unicast, timers, CPU charging, decisions). CPU charges
//! accumulate into a per-node virtual clock — a node whose CPU is busy
//! (e.g. verifying an RSA signature) receives later deliveries later,
//! exactly the effect the paper's cost argument rests on.

use crate::fault::{CrashSchedule, CrashSpec, CrashTrigger, DeliveryCtx, FaultModel, NoFaults};
use crate::frame::{Addressing, Frame, NodeId, ReceivedFrame};
use crate::medium::{CompletedTx, Medium};
use crate::queue::EventQueue;
use crate::stats::NetStats;
use crate::supervise::{AppProgress, NodeProgress, StallReport};
use crate::time::SimTime;
use crate::topology::TopologySpec;
use crate::trace::{Trace, TraceEvent};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Duration;

/// One node as a host runs it: its application, and the loss model its
/// receiver applies.
pub type Node = (Box<dyn Application>, Box<dyn FaultModel>);

/// A protocol running on one simulated node.
///
/// Callbacks receive a [`NodeCtx`] for issuing commands. All methods are
/// invoked with the node's CPU considered free; any CPU charged via
/// [`NodeCtx::charge_cpu`] delays the node's subsequent events.
pub trait Application {
    /// Invoked once when the node starts (at its start-jitter offset).
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>);

    /// Invoked when a frame is delivered to this node.
    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame);

    /// Invoked when a timer set via [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64);

    /// Invoked when the MAC gives up on a unicast frame after exhausting
    /// its retry limit. Default: ignore (UDP semantics).
    fn on_unicast_failed(&mut self, _ctx: &mut NodeCtx<'_>, _dst: NodeId, _payload: Bytes) {}

    /// Downcast hook for post-run inspection (`Simulator::app`). Return
    /// `self` to allow tests and experiment drivers to reach protocol
    /// internals.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Progress probe for stall diagnostics: the protocol phase/round
    /// and the message-store footprint. Applications that implement this
    /// show up with real numbers in [`StallReport`]s and drive the
    /// simulator's last-global-progress clock; the default (`None`)
    /// renders as unknown. Must be cheap — the simulator polls it after
    /// every callback.
    fn progress(&self) -> Option<AppProgress> {
        None
    }

    /// Resets the application to its initial state — invoked when a
    /// [`CrashSchedule`] rejoins the node, modelling a process restart
    /// with fresh in-memory state (`on_start` follows immediately).
    /// The default keeps the old state, i.e. a rejoin behaves like a
    /// long partition rather than a restart.
    fn reset(&mut self) {}
}

/// A no-op application: never sends, never reacts. Used for crashed
/// nodes (the fail-stop fault load) and as an internal placeholder.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashedApp;

impl Application for CrashedApp {
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
    fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
}

/// One effect an application issued through its [`NodeCtx`]: each
/// variant records one call of the [`NodeCtx`] method of the same name
/// (`SetTimer` is [`NodeCtx::set_timer`]) with that call's arguments.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum Command {
    Broadcast { payload: Bytes, overhead: usize },
    Unicast { dst: NodeId, payload: Bytes, overhead: usize },
    SetTimer { delay: Duration, id: u64 },
    Decide { value: bool },
}

/// Command interface handed to application callbacks. The simulator
/// and the live runtime both open one per callback with
/// [`NodeCtx::new`] and apply what [`NodeCtx::finish`] drains.
pub struct NodeCtx<'a> {
    node: NodeId,
    now: SimTime,
    charged: Duration,
    commands: Vec<Command>,
    rng: &'a mut StdRng,
}

impl<'a> NodeCtx<'a> {
    /// Opens the context of one callback of `node` at `now`, drawing
    /// from `rng` and issuing into `commands` (a reusable buffer,
    /// expected empty).
    pub fn new(node: NodeId, now: SimTime, rng: &'a mut StdRng, commands: Vec<Command>) -> Self {
        NodeCtx { node, now, charged: Duration::ZERO, commands, rng }
    }

    /// Closes the callback: the CPU it charged and its commands in
    /// issue order.
    pub fn finish(self) -> (Duration, Vec<Command>) {
        (self.charged, self.commands)
    }

    /// This node's identifier.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulated time (when this callback logically runs).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-node random source.
    pub fn rng(&mut self) -> &mut impl RngCore {
        &mut *self.rng
    }

    /// Charges `cost` of CPU time to this node; effects of this callback
    /// (sends, timers, decisions) take place after the charge.
    pub fn charge_cpu(&mut self, cost: Duration) {
        self.charged += cost;
    }

    /// Broadcasts `payload` as a single link-layer broadcast frame with
    /// `overhead` bytes of transport headers (UDP broadcast: one frame
    /// reaches every node in range — the paper's key efficiency lever).
    ///
    /// The sender also receives its own broadcast via OS loopback,
    /// matching `broadcast(m)` delivering to every process *including
    /// itself* (paper §3).
    pub fn broadcast(&mut self, payload: Bytes, overhead: usize) {
        self.commands.push(Command::Broadcast { payload, overhead });
    }

    /// Sends `payload` to `dst` as a unicast frame (ACKed, retried by the
    /// MAC). Sends to self are looped back without touching the radio.
    pub fn unicast(&mut self, dst: NodeId, payload: Bytes, overhead: usize) {
        self.commands.push(Command::Unicast {
            dst,
            payload,
            overhead,
        });
    }

    /// Arms a one-shot timer that fires `delay` after this callback's
    /// effects apply, delivering `id` to [`Application::on_timer`].
    pub fn set_timer(&mut self, delay: Duration, id: u64) {
        self.commands.push(Command::SetTimer { delay, id });
    }

    /// Records this node's consensus decision. Only the first call per
    /// node is recorded (further decisions in the protocol are no-ops,
    /// per Algorithm 1's write-once `decision_i`).
    pub fn decide(&mut self, value: bool) {
        self.commands.push(Command::Decide { value });
    }
}

/// A recorded consensus decision.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Decision {
    /// When the node decided.
    pub time: SimTime,
    /// The decided binary value.
    pub value: bool,
}

/// One broadcast transmission's deliveries, as one queue entry:
/// `src`'s `payload` to the receivers, ascending, that decoded it and
/// that the fault model let through. [`Simulator::step`] serves one
/// receiver per call, where the fan-out sits.
#[derive(Debug)]
struct Fanout {
    src: NodeId,
    payload: Bytes,
    receivers: std::vec::IntoIter<NodeId>,
}

#[derive(Debug)]
enum EventKind {
    Start(NodeId),
    /// `epoch` is the node's crash epoch at arming time: timers armed
    /// before a crash must never fire after it (or after a rejoin).
    Timer { node: NodeId, id: u64, epoch: u64 },
    EnqueueTx(Frame),
    Deliver { node: NodeId, frame: ReceivedFrame },
    Fanout(Fanout),
    ContentionResolve { epoch: u64 },
    TxEnd,
    MacFailure { node: NodeId, dst: NodeId, payload: Bytes },
    Crash(NodeId),
    Rejoin(NodeId),
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// PHY/MAC parameters.
    pub phy: crate::config::PhyConfig,
    /// Master seed; all node RNGs and the MAC backoff RNG derive from it.
    pub seed: u64,
    /// Each node's `on_start` fires at a uniform offset in
    /// `[0, start_jitter]`, modelling the arrival spread of the signaling
    /// machine's trigger broadcast (paper §7.2).
    pub start_jitter: Duration,
    /// Number of events retained by the network trace (0 = tracing off,
    /// the default; see [`crate::trace`]).
    pub trace_capacity: usize,
    /// Radio topology (which nodes share a broadcast domain, and from
    /// when); the default is the paper's single one-hop broadcast
    /// domain. Compiled by [`crate::topology::TopologySpec::build`];
    /// it draws no randomness, so `seed` does not reach it.
    pub topology: TopologySpec,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            phy: crate::config::PhyConfig::default(),
            seed: 0,
            start_jitter: Duration::from_micros(500),
            trace_capacity: 0,
            topology: TopologySpec::SingleDomain,
        }
    }
}

/// Outcome of a bounded simulator run.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum RunStatus {
    /// The stop predicate was satisfied.
    Satisfied,
    /// The time limit was reached first.
    TimeLimit,
    /// The event queue drained (deadlock or natural quiescence).
    Quiescent,
}

/// The discrete-event simulator. See the module docs.
pub struct Simulator {
    cfg: SimConfig,
    time: SimTime,
    /// Pending events, ordered by `(at, seq)`; sequence numbers are
    /// assigned by the queue in push order (see [`crate::queue`]).
    queue: EventQueue<EventKind>,
    /// The popped [`Fanout`] with receivers still to serve, and its
    /// firing time. Nothing in `queue` may overtake it: its receivers
    /// stand for deliveries scheduled back to back at that instant.
    fanout: Option<(u64, Fanout)>,
    /// Test-only: push each fan-out as one `Deliver` per receiver.
    #[cfg(test)]
    expand_fanouts: bool,
    /// Recycled command buffer handed to each [`NodeCtx`], so steady-state
    /// dispatch allocates nothing.
    cmd_pool: Vec<Command>,
    /// Recycled buffer for [`Medium::finish_tx_into`].
    tx_buf: Vec<CompletedTx>,
    apps: Vec<Box<dyn Application>>,
    node_rngs: Vec<StdRng>,
    busy_until: Vec<SimTime>,
    start_times: Vec<SimTime>,
    decisions: Vec<Option<Decision>>,
    medium: Medium,
    mac_rng: StdRng,
    fault: Box<dyn FaultModel>,
    stats: NetStats,
    trace: Trace,
    loopback_latency: Duration,
    /// Crash/recovery state (all vectors are per-node).
    crash_down: Vec<bool>,
    crash_epoch: Vec<u64>,
    /// Specs not yet fired (phase triggers wait here; time triggers are
    /// parked here between scheduling and their `Crash` event).
    crash_pending: Vec<Option<CrashSpec>>,
    crash_describe: String,
    /// Simtime of the last global progress: any node's phase advance
    /// (per [`Application::progress`]) or any decision.
    last_progress: SimTime,
    last_phase: Vec<Option<u32>>,
    /// Count of `Some` entries in `decisions`, maintained incrementally
    /// so the `run_until_k_decided` predicate — evaluated before every
    /// event — is O(1) instead of an O(n) re-scan. Decisions are
    /// write-once and survive rejoins, so the counter only grows.
    decided: usize,
    /// Per-node high-water mark of [`AppProgress::store_bytes`],
    /// sampled in `poll_progress` after every callback.
    peak_store: Vec<usize>,
}

impl Simulator {
    /// Creates a simulator over `apps` (one application per node) with
    /// the given fault model.
    pub fn new(cfg: SimConfig, fault: Box<dyn FaultModel>, apps: Vec<Box<dyn Application>>) -> Self {
        let n = apps.len();
        assert!(n > 0, "at least one node required");
        let mut boot_rng = StdRng::seed_from_u64(cfg.seed ^ 0x0b00_7a11);
        let node_rngs = (0..n)
            .map(|_| StdRng::seed_from_u64(boot_rng.gen()))
            .collect();
        let mac_rng = StdRng::seed_from_u64(boot_rng.gen());
        let mut sim = Simulator {
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            fanout: None,
            #[cfg(test)]
            expand_fanouts: false,
            cmd_pool: Vec::new(),
            tx_buf: Vec::new(),
            node_rngs,
            busy_until: vec![SimTime::ZERO; n],
            start_times: vec![SimTime::ZERO; n],
            decisions: vec![None; n],
            medium: Medium::with_topology(n, cfg.phy, &cfg.topology, cfg.seed),
            mac_rng,
            fault,
            stats: NetStats::new(n),
            trace: Trace::new(cfg.trace_capacity),
            loopback_latency: Duration::from_micros(5),
            crash_down: vec![false; n],
            crash_epoch: vec![0; n],
            crash_pending: vec![None; n],
            crash_describe: "no crashes".into(),
            last_progress: SimTime::ZERO,
            last_phase: vec![None; n],
            decided: 0,
            peak_store: vec![0; n],
            apps,
            cfg,
        };
        let jitter_ns = sim.cfg.start_jitter.as_nanos() as u64;
        for node in 0..n {
            let offset = if jitter_ns == 0 {
                0
            } else {
                boot_rng.gen_range(0..=jitter_ns)
            };
            let at = SimTime::from_nanos(offset);
            sim.start_times[node] = at;
            sim.push(at, EventKind::Start(node));
        }
        sim
    }

    /// Convenience constructor with no injected faults.
    pub fn without_faults(cfg: SimConfig, apps: Vec<Box<dyn Application>>) -> Self {
        Self::new(cfg, Box::new(NoFaults), apps)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.apps.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Per-node start instants (after jitter).
    pub fn start_times(&self) -> &[SimTime] {
        &self.start_times
    }

    /// Per-node recorded decisions.
    pub fn decisions(&self) -> &[Option<Decision>] {
        &self.decisions
    }

    /// Network statistics accumulated so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The network trace (empty unless `SimConfig::trace_capacity > 0`).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Immutable access to an application, for post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn app(&self, node: NodeId) -> &dyn Application {
        self.apps[node].as_ref()
    }

    /// Number of nodes that have decided. O(1): the `Decide` command
    /// maintains the count, and debug builds check it against a scan of
    /// `decisions`.
    pub fn decided_count(&self) -> usize {
        debug_assert_eq!(
            self.decided,
            self.decisions.iter().flatten().count(),
            "incremental decided counter diverged from the decisions vector"
        );
        self.decided
    }

    /// Per-node high-water marks of the applications' store-bytes
    /// probe ([`AppProgress::store_bytes`]); 0 for applications
    /// without a probe.
    pub fn peak_store_bytes(&self) -> &[usize] {
        &self.peak_store
    }

    /// Firing time of the next event [`Simulator::step`] would process.
    fn next_at(&self) -> Option<u64> {
        self.fanout.as_ref().map(|(at, _)| *at).or_else(|| self.queue.peek_at())
    }

    /// Processes a single event — a delivery to one receiver of a
    /// broadcast is one event. Returns `false` if none is pending.
    pub fn step(&mut self) -> bool {
        // A pending fan-out's next receiver comes before anything queued.
        let next = self.fanout.as_ref().map(|&(at, _)| (at, None));
        let Some((at_nanos, kind)) = next.or_else(|| self.queue.pop().map(|(at, k)| (at, Some(k)))) else {
            return false;
        };
        let at = SimTime::from_nanos(at_nanos);
        debug_assert!(at >= self.time, "time must be monotonic");
        self.time = at;
        self.stats.events_processed += 1;
        let Some(kind) = kind else {
            self.serve_fanout(at);
            return true;
        };
        match kind {
            EventKind::Start(node) => {
                if self.crash_down[node] {
                    // Crashed before its jittered start; a rejoin will
                    // run `on_start`.
                    return true;
                }
                self.dispatch(node, |app, ctx| app.on_start(ctx));
            }
            EventKind::Timer { node, id, epoch } => {
                if epoch != self.crash_epoch[node] {
                    // Armed before a crash: the restarted process never
                    // sees it.
                    return true;
                }
                self.dispatch_gated(
                    node,
                    at,
                    EventKind::Timer { node, id, epoch },
                    |app, ctx| app.on_timer(ctx, id),
                );
            }
            EventKind::Deliver { node, frame } => self.deliver(at, node, frame),
            EventKind::Fanout(fanout) => {
                self.fanout = Some((at_nanos, fanout));
                self.serve_fanout(at);
            }
            EventKind::EnqueueTx(frame) => {
                let node = frame.src;
                if self.crash_down[node] {
                    // Effects computed before the crash committed after
                    // it: the dead NIC sends nothing, so the medium is
                    // untouched and there is nothing to reschedule.
                    self.stats.crash_drops += 1;
                } else {
                    if !self.medium.enqueue(frame, &mut self.mac_rng) {
                        self.stats.queue_drops += 1;
                        self.stats.per_node_queue_drops[node] += 1;
                        self.trace.record(self.time, TraceEvent::QueueDrop { node });
                    }
                    self.reschedule_contention();
                }
            }
            EventKind::ContentionResolve { epoch } => {
                if let Some(end) = self.medium.resolve(at, epoch) {
                    if !self.trace.is_disabled() {
                        for (node, frame) in self.medium.last_started() {
                            let (broadcast, bytes) = (frame.is_broadcast(), frame.mac_payload_len());
                            self.trace.record(at, TraceEvent::TxStart { node, broadcast, bytes });
                        }
                    }
                    self.push(end, EventKind::TxEnd);
                    // Under a partition, contenders outside the
                    // winners' group keep contending while the new
                    // group is on the air. In a single domain everyone
                    // is blocked and this is a no-op.
                    self.reschedule_contention();
                }
                // Stale events need no rescheduling: whatever bumped the
                // epoch also rescheduled.
            }
            EventKind::TxEnd => {
                self.handle_tx_end(at);
            }
            EventKind::MacFailure { node, dst, payload } => {
                if !self.crash_down[node] {
                    self.dispatch(node, move |app, ctx| {
                        app.on_unicast_failed(ctx, dst, payload)
                    });
                }
            }
            EventKind::Crash(node) => {
                self.crash_node(node);
            }
            EventKind::Rejoin(node) => {
                self.rejoin_node(node);
            }
        }
        true
    }

    /// Runs until `pred(self)` holds, the time limit passes, or the event
    /// queue drains.
    pub fn run_until(
        &mut self,
        limit: SimTime,
        mut pred: impl FnMut(&Simulator) -> bool,
    ) -> RunStatus {
        loop {
            if pred(self) {
                return RunStatus::Satisfied;
            }
            match self.next_at() {
                None => return RunStatus::Quiescent,
                Some(at) if SimTime::from_nanos(at) > limit => return RunStatus::TimeLimit,
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Runs until at least `k` nodes have decided (or limit/quiescence).
    pub fn run_until_k_decided(&mut self, k: usize, limit: SimTime) -> RunStatus {
        self.run_until(limit, |sim| sim.decided_count() >= k)
    }

    /// [`Simulator::run_until_k_decided`] with stall diagnostics: when
    /// the run stops short of `k` decisions, the returned
    /// [`StallReport`] captures per-node progress, queue pressure, and
    /// fault-injector state at the moment the budget ran out.
    pub fn run_until_k_decided_supervised(
        &mut self,
        k: usize,
        limit: SimTime,
    ) -> (RunStatus, Option<StallReport>) {
        let status = self.run_until_k_decided(k, limit);
        let report =
            (status != RunStatus::Satisfied).then(|| self.stall_report(limit, status, Some(k)));
        (status, report)
    }

    /// Snapshots the diagnostic state of the run — what a supervised
    /// run attaches to a stall. Callable at any time.
    pub(crate) fn stall_report(
        &self,
        limit: SimTime,
        status: RunStatus,
        target: Option<usize>,
    ) -> StallReport {
        let connectivity = self.medium.connectivity(self.time);
        let nodes = (0..self.n())
            .map(|node| NodeProgress {
                node,
                progress: self.apps[node].progress(),
                decided: self.decisions[node].is_some(),
                crashed: self.crash_down[node],
                tx_queue_depth: self.medium.queue_len(node),
                queue_drops: self.stats.per_node_queue_drops[node],
                deliveries: self.stats.per_node_rx[node],
                peak_store_bytes: self.peak_store[node],
                reachable_peers: connectivity.reachable[node],
                component: connectivity.component[node],
            })
            .collect();
        StallReport {
            status,
            now: self.time,
            limit,
            decided: self.decided_count(),
            target,
            last_progress: self.last_progress,
            fault: self.fault.describe(),
            crashes: self.crash_describe.clone(),
            topology: self.medium.topology_describe(),
            queue_drops: self.stats.queue_drops,
            nodes,
        }
    }

    /// Installs a crash/recovery schedule. Call before running.
    ///
    /// Time-triggered crashes are scheduled as events; phase-triggered
    /// crashes fire as soon as the node's [`Application::progress`]
    /// probe reports the phase (a node without a probe never reaches a
    /// phase trigger). A crashing node stops transmitting, receiving,
    /// and ticking; its transmit-queue backlog and any frame it has on
    /// the air are lost, and effects its application computed but had
    /// not yet committed (CPU-charge in flight) are discarded. On
    /// rejoin the application is [`Application::reset`] and restarted
    /// through `on_start` with a clear CPU.
    ///
    /// # Panics
    ///
    /// Panics if a time trigger lies in the simulated past or a node id
    /// is out of range.
    pub fn set_crash_schedule(&mut self, schedule: CrashSchedule) {
        self.crash_describe = schedule.describe();
        for spec in schedule.specs() {
            assert!(spec.node < self.n(), "crash node {} out of range", spec.node);
            assert!(
                self.crash_pending[spec.node].is_none(),
                "node {} already has a crash scheduled",
                spec.node
            );
            self.crash_pending[spec.node] = Some(*spec);
            if let CrashTrigger::At(at) = spec.trigger {
                assert!(at >= self.time, "crash at {at} lies in the past");
                self.push(at, EventKind::Crash(spec.node));
            }
        }
    }

    fn crash_node(&mut self, node: NodeId) {
        if self.crash_down[node] {
            return;
        }
        let spec = self.crash_pending[node].take();
        self.crash_down[node] = true;
        // Timers armed up to now must never fire again.
        self.crash_epoch[node] += 1;
        // The dead NIC loses its backlog; contention restarts without
        // this node (the epoch bump staled any scheduled resolution).
        self.medium.clear_queue(node);
        self.reschedule_contention();
        self.trace.record(self.time, TraceEvent::Crash { node });
        if let Some(delay) = spec.and_then(|s| s.rejoin_after) {
            self.push(self.time + delay, EventKind::Rejoin(node));
        }
    }

    fn rejoin_node(&mut self, node: NodeId) {
        debug_assert!(self.crash_down[node], "rejoin of a live node");
        self.crash_down[node] = false;
        // A reboot clears the CPU backlog and the restarted process
        // starts from scratch.
        self.busy_until[node] = self.time;
        self.last_phase[node] = None;
        self.apps[node].reset();
        self.trace.record(self.time, TraceEvent::Rejoin { node });
        self.dispatch(node, |app, ctx| app.on_start(ctx));
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        #[cfg(test)]
        let kind = match kind {
            EventKind::Fanout(fanout) if self.expand_fanouts => return self.push_expanded(at, fanout),
            kind => kind,
        };
        self.queue.push(at.as_nanos(), kind);
    }

    /// Serves the pending fan-out's next receiver at `at` where the
    /// fan-out sits; the last receiver takes the payload by move.
    fn serve_fanout(&mut self, at: SimTime) {
        let (_, fanout) = self.fanout.as_mut().expect("a fan-out is pending");
        let src = fanout.src;
        let node = fanout.receivers.next().expect("a fan-out is pushed with a receiver");
        let payload = if fanout.receivers.len() > 0 {
            fanout.payload.clone()
        } else {
            self.fanout.take().expect("served above").1.payload
        };
        self.deliver(at, node, ReceivedFrame { src, addressing: Addressing::Broadcast, payload });
    }

    /// Hands `frame` to `node`'s application at `at`, unless the node
    /// is down (dropped) or its CPU is busy (re-queued for when it is
    /// free).
    fn deliver(&mut self, at: SimTime, node: NodeId, frame: ReceivedFrame) {
        if self.crash_down[node] {
            self.stats.crash_drops += 1;
        } else if self.busy_until[node] > at {
            let at = self.busy_until[node];
            self.push(at, EventKind::Deliver { node, frame });
        } else {
            self.stats.deliveries += 1;
            self.stats.per_node_rx[node] += 1;
            self.dispatch(node, move |app, ctx| app.on_frame(ctx, frame));
        }
    }

    /// Asks the fault model whether `src`'s frame, decodable at `dst`,
    /// gets through; a drop is counted and traced.
    fn survives(&mut self, now: SimTime, src: NodeId, dst: NodeId, broadcast: bool) -> bool {
        let dropped = self.fault.drops(&DeliveryCtx { now, src, dst, broadcast });
        if dropped {
            self.stats.fault_drops += 1;
            self.trace.record(now, TraceEvent::FaultDrop { src, dst });
        }
        !dropped
    }

    /// Dispatches a callback, deferring the whole event if the node's CPU
    /// is still busy (used for timers, whose `EventKind` can be cheaply
    /// re-queued).
    fn dispatch_gated(
        &mut self,
        node: NodeId,
        at: SimTime,
        requeue: EventKind,
        run: impl FnOnce(&mut dyn Application, &mut NodeCtx<'_>),
    ) {
        if self.busy_until[node] > at {
            let t = self.busy_until[node];
            self.push(t, requeue);
        } else {
            self.dispatch(node, run);
        }
    }

    fn dispatch(
        &mut self,
        node: NodeId,
        run: impl FnOnce(&mut dyn Application, &mut NodeCtx<'_>),
    ) {
        let start = self.time.max(self.busy_until[node]);
        let pool = std::mem::take(&mut self.cmd_pool);
        let mut ctx = NodeCtx::new(node, start, &mut self.node_rngs[node], pool);
        let mut app: Box<dyn Application> =
            std::mem::replace(&mut self.apps[node], Box::new(CrashedApp));
        run(app.as_mut(), &mut ctx);
        self.apps[node] = app;
        let (charged, mut commands) = ctx.finish();
        let done = start + charged;
        self.busy_until[node] = done;
        for cmd in commands.drain(..) {
            self.apply_command(node, done, cmd);
        }
        // Return the (now empty) buffer so the next dispatch reuses its
        // capacity. `apply_command` never dispatches recursively, so the
        // pool is always free here.
        self.cmd_pool = commands;
        self.poll_progress(node);
    }

    /// Polls the node's progress probe after a callback: advances the
    /// last-global-progress clock on phase changes and fires any
    /// phase-triggered crash. A node's first observed phase, at its
    /// start or its restart after a rejoin, is where it begins, not an
    /// advance.
    fn poll_progress(&mut self, node: NodeId) {
        let Some(p) = self.apps[node].progress() else {
            return;
        };
        if self.last_phase[node]
            .replace(p.phase)
            .is_some_and(|was| was != p.phase)
        {
            self.last_progress = self.last_progress.max(self.time);
        }
        if p.store_bytes > self.peak_store[node] {
            self.peak_store[node] = p.store_bytes;
        }
        if let Some(spec) = self.crash_pending[node] {
            if let CrashTrigger::AtPhase(phase) = spec.trigger {
                if p.phase >= phase {
                    self.crash_node(node);
                }
            }
        }
    }

    fn apply_command(&mut self, node: NodeId, at: SimTime, cmd: Command) {
        if self.crash_down[node] {
            // A crashed node's effects never commit (defensive: the
            // event-level guards normally catch these first).
            return;
        }
        match cmd {
            Command::Broadcast { payload, overhead } => {
                self.stats.broadcast_sends += 1;
                self.stats.payload_bytes_sent += payload.len() as u64;
                // OS loopback: the sender hears its own broadcast without
                // using the radio.
                let loopback = ReceivedFrame {
                    src: node,
                    addressing: Addressing::Broadcast,
                    payload: payload.clone(),
                };
                self.stats.loopback_deliveries += 1;
                self.push(
                    at + self.loopback_latency,
                    EventKind::Deliver {
                        node,
                        frame: loopback,
                    },
                );
                let frame = Frame {
                    src: node,
                    addressing: Addressing::Broadcast,
                    payload,
                    transport_overhead: overhead,
                };
                self.push(at, EventKind::EnqueueTx(frame));
            }
            Command::Unicast {
                dst,
                payload,
                overhead,
            } => {
                self.stats.unicast_sends += 1;
                self.stats.payload_bytes_sent += payload.len() as u64;
                if dst == node {
                    let frame = ReceivedFrame {
                        src: node,
                        addressing: Addressing::Unicast(node),
                        payload,
                    };
                    self.stats.loopback_deliveries += 1;
                    self.push(
                        at + self.loopback_latency,
                        EventKind::Deliver { node, frame },
                    );
                } else {
                    let frame = Frame {
                        src: node,
                        addressing: Addressing::Unicast(dst),
                        payload,
                        transport_overhead: overhead,
                    };
                    self.push(at, EventKind::EnqueueTx(frame));
                }
            }
            Command::SetTimer { delay, id } => {
                let epoch = self.crash_epoch[node];
                self.push(at + delay, EventKind::Timer { node, id, epoch });
            }
            Command::Decide { value } => {
                if self.decisions[node].is_none() {
                    self.decisions[node] = Some(Decision { time: at, value });
                    self.decided += 1;
                    self.last_progress = self.last_progress.max(at);
                    self.trace.record(at, TraceEvent::Decide { node, value });
                }
            }
        }
    }

    fn handle_tx_end(&mut self, now: SimTime) {
        // Reuse the completed-transmission buffer across TxEnd events;
        // `finish_tx_into` clears it before filling.
        let mut completed = std::mem::take(&mut self.tx_buf);
        self.medium.finish_tx_into(now, &mut completed);
        self.stats.channel_busy += self.medium.last_busy();
        if !self.trace.is_disabled() && completed.len() > 1 {
            let nodes = completed.iter().map(|t| t.node).collect();
            self.trace.record(now, TraceEvent::Collision { nodes });
        }
        let (n, prop) = (self.n(), self.cfg.phy.propagation);
        for tx in completed.drain(..) {
            if self.crash_down[tx.node] {
                // The transmitter died mid-frame: nothing intelligible
                // reaches any receiver (its queue is already empty, so
                // no `after_head_done` either).
                self.stats.crash_drops += 1;
                continue;
            }
            self.stats.per_node_tx[tx.node] += 1;
            match tx.frame.addressing {
                Addressing::Broadcast => {
                    self.stats.broadcast_frames_sent += 1;
                    if tx.collision {
                        self.stats.collisions += 1;
                    }
                    // Group-addressed frames are never retried; whoever
                    // the reception excludes (collision victims,
                    // out-of-range or partitioned receivers) simply
                    // misses the frame, and the radio does not hear
                    // itself (loopback was handled at send). The fault
                    // model is asked here, in receiver order; the
                    // survivors travel as one queue entry.
                    let (src, payload) = (tx.node, tx.frame.payload);
                    let traced = !self.trace.is_disabled();
                    let receivers = tx.reception.into_receivers(n, src, |dst| {
                        let survives = self.survives(now, src, dst, true);
                        if survives && traced {
                            let bytes = payload.len();
                            self.trace.record(now, TraceEvent::Deliver { src, dst, bytes });
                        }
                        survives
                    });
                    if !receivers.is_empty() {
                        let receivers = receivers.into_iter();
                        self.push(now + prop, EventKind::Fanout(Fanout { src, payload, receivers }));
                    }
                    self.medium.after_head_done(src, &mut self.mac_rng);
                }
                Addressing::Unicast(dst) => {
                    self.stats.unicast_frames_sent += 1;
                    if tx.collision {
                        self.stats.collisions += 1;
                    }
                    if tx.reception.hears(dst) && self.survives(now, tx.node, dst, false) {
                        let frame = ReceivedFrame {
                            src: tx.node,
                            addressing: Addressing::Unicast(dst),
                            payload: tx.frame.payload.clone(),
                        };
                        self.push(now + prop, EventKind::Deliver { node: dst, frame });
                        self.medium.after_head_done(tx.node, &mut self.mac_rng);
                    } else {
                        // No ACK: MAC retransmits with a doubled window,
                        // or gives up.
                        let payload = tx.frame.payload.clone();
                        if !self.medium.retry_unicast(
                            tx.node,
                            tx.frame,
                            tx.attempt,
                            &mut self.mac_rng,
                        ) {
                            self.stats.mac_failures += 1;
                            self.push(
                                now,
                                EventKind::MacFailure {
                                    node: tx.node,
                                    dst,
                                    payload,
                                },
                            );
                        }
                    }
                }
            }
        }
        self.tx_buf = completed;
        self.reschedule_contention();
    }

    fn reschedule_contention(&mut self) {
        if let Some((at, epoch)) = self.medium.next_resolution(self.time) {
            self.push(at, EventKind::ContentionResolve { epoch });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::tests::TargetedLoss;
    use crate::fault::IidLoss;
    use parking_lot_free_cell::Shared;

    /// Minimal shared-state helper so tests can observe app internals
    /// after the run without `parking_lot` (keeps this crate's dep set
    /// small).
    mod parking_lot_free_cell {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        pub struct Shared<T>(pub Rc<RefCell<T>>);

        impl<T: Default> Shared<T> {
            pub fn new() -> Self {
                Shared(Rc::new(RefCell::new(T::default())))
            }
        }
    }

    /// Broadcasts one message at start; records everything it receives.
    struct Chatter {
        sent: bool,
        received: Shared<Vec<(NodeId, Bytes)>>,
    }

    impl Application for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if !self.sent {
                self.sent = true;
                let msg = format!("hello from {}", ctx.node());
                ctx.broadcast(Bytes::from(msg.into_bytes()), 36);
            }
        }
        fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
            self.received
                .0
                .borrow_mut()
                .push((frame.src, frame.payload.clone()));
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
    }

    /// What a [`Chatter`] heard: `(src, payload)` in arrival order.
    type Heard = Shared<Vec<(NodeId, Bytes)>>;

    fn chatter_sim(n: usize, seed: u64) -> (Simulator, Vec<Heard>) {
        let cells: Vec<_> = (0..n).map(|_| Heard::new()).collect();
        let apps: Vec<Box<dyn Application>> = cells
            .iter()
            .map(|c| {
                Box::new(Chatter {
                    sent: false,
                    received: c.clone(),
                }) as Box<dyn Application>
            })
            .collect();
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        (Simulator::without_faults(cfg, apps), cells)
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        // Seed chosen so CSMA backoffs separate the four simultaneous
        // broadcasts; colliding broadcasts are (correctly) lost.
        let (mut sim, cells) = chatter_sim(4, 2);
        let status = sim.run_until(SimTime::from_millis(100), |_| false);
        assert_eq!(status, RunStatus::Quiescent);
        for (i, cell) in cells.iter().enumerate() {
            let got = cell.0.borrow();
            assert_eq!(got.len(), 4, "node {i} should hear all 4 broadcasts");
            let mut sources: Vec<_> = got.iter().map(|(s, _)| *s).collect();
            sources.sort_unstable();
            assert_eq!(sources, vec![0, 1, 2, 3]);
        }
        assert_eq!(sim.stats().broadcast_frames_sent, 4);
        assert_eq!(sim.stats().loopback_deliveries, 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (mut sim, cells) = chatter_sim(5, seed);
            sim.run_until(SimTime::from_millis(100), |_| false);
            let out: Vec<_> = cells.iter().map(|c| c.0.borrow().clone()).collect();
            (out, sim.now())
        };
        assert_eq!(run(7), run(7));
    }

    /// Sends a unicast to node 1 at start.
    struct UniSender;
    impl Application for UniSender {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.node() == 0 {
                ctx.unicast(1, Bytes::from_static(b"direct"), 48);
            }
        }
        fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
    }

    #[test]
    fn unicast_retries_through_loss_then_delivers() {
        // 60% loss: MAC ARQ (7 retries) almost surely gets it through.
        let cfg = SimConfig {
            seed: 3,
            ..SimConfig::default()
        };
        let apps: Vec<Box<dyn Application>> =
            vec![Box::new(UniSender), Box::new(UniSender), Box::new(UniSender)];
        let mut sim = Simulator::new(cfg, Box::new(IidLoss::new(0.6, 5)), apps);
        sim.run_until(SimTime::from_millis(500), |_| false);
        assert!(sim.stats().unicast_frames_sent >= 1);
        assert_eq!(sim.stats().deliveries, 1, "exactly one app delivery");
        assert!(
            sim.stats().unicast_frames_sent > 1 || sim.stats().fault_drops == 0,
            "with drops there must be retransmissions"
        );
    }

    /// Counts MAC failures reported to the app.
    struct FailureCounter {
        failures: Shared<Vec<NodeId>>,
    }
    impl Application for FailureCounter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.node() == 0 {
                ctx.unicast(1, Bytes::from_static(b"doomed"), 48);
            }
        }
        fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
        fn on_unicast_failed(&mut self, _ctx: &mut NodeCtx<'_>, dst: NodeId, _payload: Bytes) {
            self.failures.0.borrow_mut().push(dst);
        }
    }

    #[test]
    fn unicast_to_black_hole_reports_mac_failure() {
        let cell = Shared::<Vec<NodeId>>::new();
        let apps: Vec<Box<dyn Application>> = vec![
            Box::new(FailureCounter {
                failures: cell.clone(),
            }),
            Box::new(CrashedApp),
        ];
        let cfg = SimConfig {
            seed: 9,
            ..SimConfig::default()
        };
        // All deliveries to node 1 dropped.
        let fault = TargetedLoss::new(vec![], vec![1], 1.0, 2);
        let mut sim = Simulator::new(cfg, Box::new(fault), apps);
        sim.run_until(SimTime::from_millis(500), |_| false);
        assert_eq!(sim.stats().mac_failures, 1);
        assert_eq!(cell.0.borrow().as_slice(), &[1]);
        // 1 initial + retry_limit retransmissions.
        assert_eq!(sim.stats().unicast_frames_sent as u32, 1 + sim_retry_limit());
    }

    fn sim_retry_limit() -> u32 {
        crate::config::PhyConfig::default().retry_limit
    }

    /// Charges heavy CPU on its first frame; records delivery times.
    struct SlowCpu {
        times: Shared<Vec<u64>>,
    }
    impl Application for SlowCpu {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.node() == 1 {
                // Two back-to-back broadcasts arrive close together.
                ctx.broadcast(Bytes::from_static(b"one"), 36);
                ctx.broadcast(Bytes::from_static(b"two"), 36);
            }
        }
        fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {
            self.times.0.borrow_mut().push(ctx.now().as_nanos());
            ctx.charge_cpu(Duration::from_millis(10));
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
    }

    #[test]
    fn cpu_charge_delays_subsequent_deliveries() {
        let cell = Shared::<Vec<u64>>::new();
        let apps: Vec<Box<dyn Application>> = vec![
            Box::new(SlowCpu {
                times: cell.clone(),
            }),
            Box::new(SlowCpu {
                times: Shared::<Vec<u64>>::new(),
            }),
        ];
        let cfg = SimConfig {
            seed: 4,
            start_jitter: Duration::ZERO,
            ..SimConfig::default()
        };
        let mut sim = Simulator::without_faults(cfg, apps);
        sim.run_until(SimTime::from_millis(200), |_| false);
        let times = cell.0.borrow();
        assert_eq!(times.len(), 2, "node 0 hears both broadcasts");
        // Second delivery waits out the 10 ms CPU charge.
        assert!(
            times[1] >= times[0] + 10_000_000,
            "second delivery at {} must be ≥ first {} + 10ms",
            times[1],
            times[0]
        );
    }

    /// Decides at start.
    struct Decider(bool);
    impl Application for Decider {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.decide(self.0);
            ctx.decide(!self.0); // write-once: must be ignored
        }
        fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
    }

    #[test]
    fn decisions_recorded_write_once() {
        let apps: Vec<Box<dyn Application>> = vec![Box::new(Decider(true)), Box::new(Decider(false))];
        let mut sim = Simulator::without_faults(SimConfig::default(), apps);
        let status = sim.run_until_k_decided(2, SimTime::from_millis(10));
        assert_eq!(status, RunStatus::Satisfied);
        assert_eq!(sim.decisions()[0].map(|d| d.value), Some(true));
        assert_eq!(sim.decisions()[1].map(|d| d.value), Some(false));
    }

    /// Re-arming periodic timer.
    struct Ticker {
        fired: Shared<Vec<u64>>,
    }
    impl Application for Ticker {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
            assert_eq!(timer, 1);
            self.fired.0.borrow_mut().push(ctx.now().as_millis());
            if self.fired.0.borrow().len() < 3 {
                ctx.set_timer(Duration::from_millis(10), 1);
            }
        }
    }

    #[test]
    fn timers_fire_and_rearm() {
        let cell = Shared::<Vec<u64>>::new();
        let apps: Vec<Box<dyn Application>> = vec![Box::new(Ticker {
            fired: cell.clone(),
        })];
        let cfg = SimConfig {
            start_jitter: Duration::ZERO,
            ..SimConfig::default()
        };
        let mut sim = Simulator::without_faults(cfg, apps);
        let status = sim.run_until(SimTime::from_millis(1000), |_| false);
        assert_eq!(status, RunStatus::Quiescent);
        assert_eq!(cell.0.borrow().as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn time_limit_status() {
        let cell = Shared::<Vec<u64>>::new();
        let apps: Vec<Box<dyn Application>> = vec![Box::new(Ticker {
            fired: cell.clone(),
        })];
        let cfg = SimConfig {
            start_jitter: Duration::ZERO,
            ..SimConfig::default()
        };
        let mut sim = Simulator::without_faults(cfg, apps);
        let status = sim.run_until(SimTime::from_millis(15), |_| false);
        assert_eq!(status, RunStatus::TimeLimit);
        assert_eq!(cell.0.borrow().as_slice(), &[10]);
    }

    #[test]
    fn trace_captures_network_events() {
        let (cells, apps): (Vec<_>, Vec<Box<dyn Application>>) = (0..2)
            .map(|_| {
                let cell = Shared::<Vec<(NodeId, Bytes)>>::new();
                let app = Box::new(Chatter {
                    sent: false,
                    received: cell.clone(),
                }) as Box<dyn Application>;
                (cell, app)
            })
            .unzip();
        drop(cells);
        let cfg = SimConfig {
            seed: 1,
            trace_capacity: 64,
            ..SimConfig::default()
        };
        let mut sim = Simulator::without_faults(cfg, apps);
        sim.run_until(SimTime::from_millis(100), |_| false);
        assert!(!sim.trace().is_empty());
        let log = sim.trace().render();
        assert!(log.contains("tx-start"), "{log}");
        assert!(log.contains("deliver"), "{log}");
        // A transmission is stamped when it starts: every delivery of
        // `src`'s frame comes a whole airtime after `src`'s tx-start.
        let started = |src: NodeId| {
            let mut starts = sim.trace().events().filter_map(|(at, ev)| match ev {
                TraceEvent::TxStart { node, .. } if *node == src => Some(*at),
                _ => None,
            });
            starts.next().expect("each node transmits once")
        };
        let mut deliveries = 0;
        for (at, ev) in sim.trace().events() {
            if let TraceEvent::Deliver { src, .. } = ev {
                assert!(started(*src) < *at, "n{src} tx-start not before its delivery\n{log}");
                deliveries += 1;
            }
        }
        assert_eq!(deliveries, 2, "{log}");
    }

    #[test]
    fn trace_disabled_by_default() {
        let apps: Vec<Box<dyn Application>> = vec![Box::new(Chatter {
            sent: false,
            received: Shared::<Vec<(NodeId, Bytes)>>::new(),
        })];
        let mut sim = Simulator::without_faults(SimConfig::default(), apps);
        sim.run_until(SimTime::from_millis(50), |_| false);
        assert!(sim.trace().is_empty());
    }

    /// Periodically re-broadcasts and reports phase = ticks elapsed;
    /// exercises the progress probe, reset, and crash machinery.
    struct PhaseTicker {
        phase: u32,
        resets: Shared<Vec<u32>>,
    }
    impl Application for PhaseTicker {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration::from_millis(5), 0);
        }
        fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: u64) {
            self.phase += 1;
            ctx.broadcast(Bytes::from_static(b"tick"), 36);
            ctx.set_timer(Duration::from_millis(5), 0);
        }
        fn progress(&self) -> Option<AppProgress> {
            Some(AppProgress {
                phase: self.phase,
                store_bytes: 16 * self.phase as usize,
            })
        }
        fn reset(&mut self) {
            self.resets.0.borrow_mut().push(self.phase);
            self.phase = 0;
        }
    }

    fn ticker_sim(n: usize) -> (Simulator, Shared<Vec<u32>>) {
        let resets = Shared::<Vec<u32>>::new();
        let apps: Vec<Box<dyn Application>> = (0..n)
            .map(|_| {
                Box::new(PhaseTicker {
                    phase: 0,
                    resets: resets.clone(),
                }) as Box<dyn Application>
            })
            .collect();
        let cfg = SimConfig {
            seed: 11,
            start_jitter: Duration::ZERO,
            ..SimConfig::default()
        };
        (Simulator::without_faults(cfg, apps), resets)
    }

    #[test]
    fn crash_silences_node_and_drops_backlog() {
        let (mut sim, _resets) = ticker_sim(2);
        sim.set_crash_schedule(CrashSchedule::new().crash_at(0, SimTime::from_millis(50)));
        sim.run_until(SimTime::from_millis(200), |_| false);
        assert!(sim.crash_down[0]);
        assert!(!sim.crash_down[1]);
        // The crashed node stopped ticking: far fewer transmissions than
        // its live sibling, and suppressed effects were counted.
        assert!(
            sim.stats().per_node_tx[0] < sim.stats().per_node_tx[1] / 2,
            "crashed node kept transmitting: {:?}",
            sim.stats().per_node_tx
        );
        assert!(sim.stats().crash_drops > 0, "deliveries to the dead node count");
    }

    /// Node 1 broadcasts at start. Node 0 spends 60 µs of CPU and then
    /// (optionally) broadcasts too — but crashes at 30 µs, so that
    /// send reaches the simulator after its radio died.
    struct CrashRace {
        late_send: bool,
        heard_at: Shared<Vec<SimTime>>,
    }
    impl Application for CrashRace {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            match ctx.node() {
                0 => {
                    ctx.charge_cpu(Duration::from_micros(60));
                    if self.late_send {
                        ctx.broadcast(Bytes::from_static(b"from the grave"), 36);
                    }
                }
                1 => ctx.broadcast(Bytes::from_static(b"alive"), 36),
                _ => {}
            }
        }
        fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {
            if ctx.node() == 2 {
                self.heard_at.0.borrow_mut().push(ctx.now());
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
    }

    #[test]
    fn frame_a_crashed_radio_never_sent_delays_nobodys_backoff() {
        let heard_at = |late_send: bool| {
            let heard = Shared::<Vec<SimTime>>::new();
            let apps: Vec<Box<dyn Application>> = (0..3)
                .map(|_| {
                    Box::new(CrashRace {
                        late_send,
                        heard_at: heard.clone(),
                    }) as Box<dyn Application>
                })
                .collect();
            let cfg = SimConfig {
                seed: 11,
                start_jitter: Duration::ZERO,
                ..SimConfig::default()
            };
            let mut sim = Simulator::without_faults(cfg, apps);
            sim.set_crash_schedule(CrashSchedule::new().crash_at(0, SimTime::from_micros(30)));
            sim.run_until(SimTime::from_millis(10), |_| false);
            let heard = heard.0.borrow().clone();
            assert_eq!(heard.len(), 1, "node 2 hears node 1's broadcast only");
            (heard[0], sim.stats().crash_drops)
        };
        let (undisturbed, drops) = heard_at(false);
        // The dead send lands mid-countdown: after node 1's resolution
        // was scheduled, before it fires.
        let difs = crate::config::PhyConfig::default().difs;
        assert!(undisturbed > SimTime::from_micros(60) + difs, "pick a seed with backoff > 0");
        let (disturbed, more_drops) = heard_at(true);
        assert!(more_drops > drops, "the dead NIC's frame was discarded");
        assert_eq!(disturbed, undisturbed);
    }

    #[test]
    fn rejoin_resets_app_and_restarts() {
        let (mut sim, resets) = ticker_sim(2);
        sim.set_crash_schedule(
            CrashSchedule::new()
                .crash_at(0, SimTime::from_millis(50))
                .rejoin_after(Duration::from_millis(30)),
        );
        sim.run_until(SimTime::from_millis(200), |_| false);
        assert!(!sim.crash_down[0], "node 0 rejoined");
        // reset() saw the pre-crash phase (~9 ticks at 5 ms), then the
        // probe restarted from zero and advanced again.
        let resets = resets.0.borrow();
        assert_eq!(resets.len(), 1, "exactly one restart");
        assert!(resets[0] >= 5, "pre-crash phase was {}", resets[0]);
        let p = sim.app(0).progress().expect("probe available");
        assert!(
            (5..25).contains(&p.phase),
            "post-rejoin phase restarted from zero, got {}",
            p.phase
        );
    }

    #[test]
    fn phase_triggered_crash_fires() {
        let (mut sim, _resets) = ticker_sim(2);
        sim.set_crash_schedule(CrashSchedule::new().crash_at_phase(1, 3));
        sim.run_until(SimTime::from_millis(200), |_| false);
        assert!(sim.crash_down[1]);
        let p = sim.app(1).progress().expect("probe available");
        assert_eq!(p.phase, 3, "crashed exactly at the trigger phase");
    }

    #[test]
    fn pre_crash_timers_never_fire_after_rejoin() {
        // A rejoining PhaseTicker re-arms its own timer via on_start; if
        // the pre-crash timer leaked through, ticks would double up.
        let (mut sim, _resets) = ticker_sim(1);
        sim.set_crash_schedule(
            CrashSchedule::new()
                .crash_at(0, SimTime::from_millis(52))
                .rejoin_after(Duration::from_millis(8)),
        );
        sim.run_until(SimTime::from_millis(100), |_| false);
        let p = sim.app(0).progress().expect("probe available");
        // 60..100 ms at one tick per 5 ms = 8 ticks; doubled timers
        // would give ~16.
        assert_eq!(p.phase, 8, "exactly one timer chain after rejoin");
    }

    #[test]
    fn supervised_run_reports_stall_with_progress_rows() {
        let (mut sim, _resets) = ticker_sim(3);
        let (status, report) =
            sim.run_until_k_decided_supervised(3, SimTime::from_millis(40));
        assert_ne!(status, RunStatus::Satisfied, "nobody ever decides");
        let report = report.expect("non-satisfied run carries a report");
        assert_eq!(report.decided, 0);
        assert_eq!(report.target, Some(3));
        assert_eq!(report.nodes.len(), 3);
        for np in &report.nodes {
            let p = np.progress.expect("PhaseTicker has a probe");
            assert!(p.phase >= 5, "node {} stuck at phase {}", np.node, p.phase);
            assert!(!np.crashed);
            // PhaseTicker reports 16 bytes per phase; the high-water
            // mark tracks the probe.
            assert_eq!(np.peak_store_bytes, 16 * p.phase as usize);
        }
        // Ticks kept arriving, so the progress clock is recent.
        assert!(report.last_progress >= SimTime::from_millis(35));
        assert!(!report.zero_progress());
        let text = report.to_string();
        assert!(text.contains("0/3 decided"), "{text}");
        assert!(text.contains("no injected faults"), "{text}");
    }

    #[test]
    fn supervised_run_satisfied_has_no_report() {
        let apps: Vec<Box<dyn Application>> = vec![Box::new(Decider(true))];
        let mut sim = Simulator::without_faults(SimConfig::default(), apps);
        let (status, report) = sim.run_until_k_decided_supervised(1, SimTime::from_millis(10));
        assert_eq!(status, RunStatus::Satisfied);
        assert!(report.is_none());
    }

    #[test]
    fn crash_events_show_in_trace() {
        let resets = Shared::<Vec<u32>>::new();
        let apps: Vec<Box<dyn Application>> = vec![Box::new(PhaseTicker {
            phase: 0,
            resets: resets.clone(),
        })];
        let cfg = SimConfig {
            seed: 11,
            start_jitter: Duration::ZERO,
            trace_capacity: 512,
            ..SimConfig::default()
        };
        let mut sim = Simulator::without_faults(cfg, apps);
        sim.set_crash_schedule(
            CrashSchedule::new()
                .crash_at(0, SimTime::from_millis(20))
                .rejoin_after(Duration::from_millis(10)),
        );
        sim.run_until(SimTime::from_millis(50), |_| false);
        let log = sim.trace().render();
        assert!(log.contains("crash     n0"), "{log}");
        assert!(log.contains("rejoin    n0"), "{log}");
    }

    // ---- the fan-out entry, one receiver per step --------------------

    /// `(receiver, src, when)` of every frame any node heard, in order.
    type HeardLog = Shared<Vec<(NodeId, NodeId, SimTime)>>;

    /// Nodes below `senders` broadcast once at start. A node may spend
    /// `busy` CPU at start, or arm a one-shot timer that advances its
    /// phase. Everyone logs what it hears and decides on its first
    /// radio frame.
    struct FanoutProbe {
        senders: usize,
        busy: Duration,
        timer: Option<Duration>,
        phase: u32,
        log: HeardLog,
    }

    impl Application for FanoutProbe {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.node() < self.senders {
                ctx.broadcast(Bytes::from_static(b"fan-out"), 36);
            }
            ctx.charge_cpu(self.busy);
            if let Some(delay) = self.timer {
                ctx.set_timer(delay, 0);
            }
        }
        fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
            self.log.0.borrow_mut().push((ctx.node(), frame.src, ctx.now()));
            if frame.src != ctx.node() {
                ctx.decide(true);
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {
            self.phase += 1;
        }
        fn progress(&self) -> Option<AppProgress> {
            Some(AppProgress {
                phase: self.phase,
                store_bytes: 0,
            })
        }
    }

    fn fanout_sim(
        n: usize,
        senders: usize,
        cfg: SimConfig,
        fault: Box<dyn FaultModel>,
        customize: impl Fn(NodeId, &mut FanoutProbe),
    ) -> (Simulator, HeardLog) {
        let log = HeardLog::new();
        let apps = (0..n)
            .map(|node| {
                let mut app = FanoutProbe {
                    senders,
                    busy: Duration::ZERO,
                    timer: None,
                    phase: 0,
                    log: log.clone(),
                };
                customize(node, &mut app);
                Box::new(app) as Box<dyn Application>
            })
            .collect();
        (Simulator::new(cfg, fault, apps), log)
    }

    /// Node 0 of four broadcasts once at time zero; nobody else sends.
    fn one_broadcast(
        fault: Box<dyn FaultModel>,
        customize: impl Fn(NodeId, &mut FanoutProbe),
    ) -> (Simulator, HeardLog) {
        let cfg = SimConfig {
            start_jitter: Duration::ZERO,
            ..SimConfig::default()
        };
        fanout_sim(4, 1, cfg, fault, customize)
    }

    /// What the nodes other than the sender heard, in order.
    fn radio_deliveries(log: &HeardLog) -> Vec<(NodeId, NodeId, SimTime)> {
        log.0.borrow().iter().copied().filter(|&(rx, _, _)| rx != 0).collect()
    }

    /// Events of [`one_broadcast`] before any radio delivery: four
    /// starts, the loopback, `EnqueueTx`, `ContentionResolve`, `TxEnd`.
    const ONE_BROADCAST_EVENTS: u64 = 8;

    /// When [`one_broadcast`]'s frame reaches its receivers, undisturbed.
    fn one_broadcast_arrival() -> SimTime {
        let (mut sim, log) = one_broadcast(Box::new(NoFaults), |_, _| {});
        assert_eq!(sim.run_until(SimTime::from_millis(100), |_| false), RunStatus::Quiescent);
        let radio = radio_deliveries(&log);
        let at = radio[0].2;
        assert_eq!(radio, vec![(1, 0, at), (2, 0, at), (3, 0, at)], "ascending, one instant");
        // A broadcast to k receivers is k events.
        assert_eq!(sim.stats().events_processed, ONE_BROADCAST_EVENTS + 3);
        assert_eq!(sim.stats().deliveries, 1 + 3);
        at
    }

    #[test]
    fn run_stopped_mid_fanout_resumes_to_the_same_end() {
        let limit = SimTime::from_millis(100);
        let run = |stop_at: Option<u64>| {
            let cfg = SimConfig {
                seed: 2,
                ..SimConfig::default()
            };
            let (mut sim, log) = fanout_sim(5, 5, cfg, Box::new(IidLoss::new(0.1, 8)), |_, _| {});
            let mut mid_fanout = false;
            if let Some(k) = stop_at {
                let status = sim.run_until(limit, |sim| sim.stats().deliveries >= k);
                assert_eq!(status, RunStatus::Satisfied);
                assert_eq!(sim.stats().deliveries, k, "stopped between two receivers");
                mid_fanout = sim.fanout.is_some();
            }
            assert_eq!(sim.run_until(limit, |_| false), RunStatus::Quiescent);
            let end = (
                format!("{:?}", sim.stats()),
                sim.decisions().to_vec(),
                log.0.borrow().clone(),
                sim.now(),
            );
            (end, mid_fanout)
        };
        let (whole, _) = run(None);
        let deliveries = whole.2.len() as u64;
        assert!(deliveries > 15, "seed must separate most broadcasts, got {deliveries}");
        let mut stops_mid_fanout = 0;
        for k in 1..=deliveries {
            let (resumed, mid_fanout) = run(Some(k));
            assert_eq!(resumed, whole, "stopping at delivery {k} changed the run");
            stops_mid_fanout += usize::from(mid_fanout);
        }
        assert!(stops_mid_fanout >= 5, "only {stops_mid_fanout} stops fell inside a fan-out");
    }

    #[test]
    fn receiver_crashed_between_tx_end_and_its_turn_is_dropped_once() {
        let arrival = one_broadcast_arrival();
        let prop = SimConfig::default().phy.propagation;
        // After `TxEnd` consulted the fault model, before the deliveries.
        let between = SimTime::from_nanos(arrival.as_nanos() - prop.as_nanos() as u64 / 2);
        let check = |mut sim: Simulator, log: HeardLog| {
            assert_eq!(sim.run_until(SimTime::from_millis(100), |_| false), RunStatus::Quiescent);
            assert!(sim.crash_down[2]);
            assert_eq!(sim.stats().crash_drops, 1);
            let radio = radio_deliveries(&log);
            assert_eq!(radio, vec![(1, 0, arrival), (3, 0, arrival)], "node 2 is not dispatched");
            assert_eq!(sim.stats().deliveries, 1 + 2);
            // The crash (or the timer that triggers it) and all three turns.
            assert_eq!(sim.stats().events_processed, ONE_BROADCAST_EVENTS + 1 + 3);
        };
        let (mut sim, log) = one_broadcast(Box::new(NoFaults), |_, _| {});
        sim.set_crash_schedule(CrashSchedule::new().crash_at(2, between));
        check(sim, log);
        let (mut sim, log) = one_broadcast(Box::new(NoFaults), |node, app| {
            if node == 2 {
                app.timer = Some(between - SimTime::ZERO);
            }
        });
        sim.set_crash_schedule(CrashSchedule::new().crash_at_phase(2, 1));
        check(sim, log);
    }

    #[test]
    fn busy_receiver_is_requeued_alone_and_delays_nobody() {
        let arrival = one_broadcast_arrival();
        let free_at = SimTime::from_millis(10);
        let (mut sim, log) = one_broadcast(Box::new(NoFaults), |node, app| {
            if node == 1 {
                app.busy = free_at - SimTime::ZERO;
            }
        });
        // Step through node 1's turn, the first of the fan-out.
        while sim.fanout.is_none() {
            assert!(sim.step(), "the broadcast never fanned out");
        }
        assert_eq!(sim.now(), arrival);
        let (_, rest) = sim.fanout.as_ref().expect("just checked");
        assert_eq!(rest.receivers.as_slice(), [2, 3]);
        assert_eq!(sim.queue.len(), 1, "one `Deliver` for the busy node, nothing else");
        assert_eq!(sim.queue.peek_at(), Some(free_at.as_nanos()));
        assert_eq!(sim.run_until(SimTime::from_millis(100), |_| false), RunStatus::Quiescent);
        let radio = radio_deliveries(&log);
        assert_eq!(radio, vec![(2, 0, arrival), (3, 0, arrival), (1, 0, free_at)]);
        assert_eq!(sim.stats().events_processed, ONE_BROADCAST_EVENTS + 3 + 1);
    }

    #[test]
    fn broadcast_with_no_survivor_schedules_nothing() {
        let arrival = one_broadcast_arrival();
        let everything = TargetedLoss::new(vec![], vec![], 1.0, 1);
        let (mut sim, log) = one_broadcast(Box::new(everything), |_, _| {});
        assert_eq!(sim.run_until(SimTime::from_millis(100), |_| false), RunStatus::Quiescent);
        assert_eq!(sim.stats().fault_drops, 3);
        assert_eq!(log.0.borrow().len(), 1, "the loopback only");
        assert_eq!(sim.stats().events_processed, ONE_BROADCAST_EVENTS);
        // The last event is `TxEnd`: nothing was queued for the arrival.
        assert_eq!(sim.now() + SimConfig::default().phy.propagation, arrival);
    }

    #[test]
    fn self_unicast_loops_back() {
        struct SelfSender {
            got: Shared<Vec<u8>>,
        }
        impl Application for SelfSender {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.unicast(ctx.node(), Bytes::from_static(b"me"), 48);
            }
            fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
                self.got.0.borrow_mut().extend_from_slice(&frame.payload);
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
        }
        let cell = Shared::<Vec<u8>>::new();
        let apps: Vec<Box<dyn Application>> = vec![Box::new(SelfSender { got: cell.clone() })];
        let mut sim = Simulator::without_faults(SimConfig::default(), apps);
        sim.run_until(SimTime::from_millis(10), |_| false);
        assert_eq!(cell.0.borrow().as_slice(), b"me");
        assert_eq!(sim.stats().unicast_frames_sent, 0, "radio untouched");
    }

    // ---- the in-place fan-out against its expansion ------------------

    impl Simulator {
        /// The reference the in-place fan-out is held to: one `Deliver`
        /// per receiver, pushed back to back — the consecutive `(at,
        /// seq)` entries a fan-out stands for.
        pub(super) fn push_expanded(&mut self, at: SimTime, fanout: Fanout) {
            let Fanout { src, payload, receivers } = fanout;
            for node in receivers {
                let frame = ReceivedFrame { src, addressing: Addressing::Broadcast, payload: payload.clone() };
                self.queue.push(at.as_nanos(), EventKind::Deliver { node, frame });
            }
        }
    }

    /// The source a [`Storm`] logs for a timer firing.
    const TIMER: NodeId = NodeId::MAX;

    /// Broadcasts at start and logs every frame it hears. A frame from
    /// another node charges `busy` CPU, advances its phase and arms a
    /// zero-delay timer — without a charge, a push at the instant of
    /// the fan-out being served. A firing logs `(node, TIMER, now)` and
    /// rebroadcasts while `echoes` last.
    struct Storm {
        busy: Duration,
        echoes: u32,
        phase: u32,
        log: HeardLog,
    }

    impl Application for Storm {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.broadcast(Bytes::from_static(b"storm"), 36);
        }
        fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
            self.log.0.borrow_mut().push((ctx.node(), frame.src, ctx.now()));
            if frame.src != ctx.node() {
                self.phase += 1;
                ctx.charge_cpu(self.busy);
                ctx.set_timer(Duration::ZERO, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: u64) {
            self.log.0.borrow_mut().push((ctx.node(), TIMER, ctx.now()));
            if self.echoes > 0 {
                self.echoes -= 1;
                ctx.broadcast(Bytes::from_static(b"echo"), 36);
            }
        }
        fn progress(&self) -> Option<AppProgress> {
            Some(AppProgress { phase: self.phase, store_bytes: 0 })
        }
    }

    /// The log, `events_processed` and the stats of a storm run.
    type StormState = (Vec<(NodeId, NodeId, SimTime)>, u64, String);

    /// A seeded storm among ten [`Storm`] nodes at 10 % loss: every
    /// third node's CPU is busy 300 µs per frame, node 2 crashes as its
    /// fifth radio frame is served, node 7 crashes at a seeded instant and
    /// rejoins. `run_until` returns at each delivery count in `stops`
    /// before the run resumes to quiescence. Returns the end state, the
    /// state at each stop, and how many stops fell inside a fan-out.
    fn storm(seed: u64, expand: bool, stops: &[u64]) -> (StormState, Vec<StormState>, usize) {
        let log = HeardLog::new();
        let apps = (0..10)
            .map(|node| {
                let busy = Duration::from_micros(if node % 3 == 1 { 300 } else { 0 });
                Box::new(Storm { busy, echoes: 4, phase: 0, log: log.clone() }) as Box<dyn Application>
            })
            .collect();
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulator::new(cfg, Box::new(IidLoss::new(0.1, seed)), apps);
        sim.expand_fanouts = expand;
        sim.set_crash_schedule(
            CrashSchedule::new()
                .crash_at_phase(2, 5)
                .crash_at(7, SimTime::from_micros(2_000 + 500 * seed))
                .rejoin_after(Duration::from_millis(3)),
        );
        let state = |sim: &Simulator| {
            let stats = sim.stats();
            (log.0.borrow().clone(), stats.events_processed, format!("{stats:?}"))
        };
        let limit = SimTime::from_millis(10_000);
        let (mut at_stops, mut mid_fanout) = (Vec::new(), 0);
        for &k in stops {
            sim.run_until(limit, |sim| sim.stats().deliveries >= k);
            mid_fanout += usize::from(sim.fanout.is_some());
            at_stops.push(state(&sim));
        }
        assert_eq!(sim.run_until(limit, |_| false), RunStatus::Quiescent);
        (state(&sim), at_stops, mid_fanout)
    }

    #[test]
    fn in_place_fanout_drains_like_its_expansion_into_deliveries() {
        let (mut mid_fanout, mut same_instant, mut crashed_mid_fanout) = (0, 0, 0);
        for seed in 0..6 {
            let stops: Vec<u64> = (1..40).map(|i| 7 * i + seed).collect();
            let (reference, reference_stops, _) = storm(seed, true, &stops);
            let (in_place, in_place_stops, stopped_mid) = storm(seed, false, &stops);
            assert_eq!(in_place, reference, "seed {seed}: the runs diverged");
            assert_eq!(in_place_stops, reference_stops, "seed {seed}: a stop diverged");
            mid_fanout += stopped_mid;
            // What the scenario exercised: timers armed and fired at
            // the instant of the frame that armed them, and node 2's
            // crashing frame followed by later receivers of its fan-out.
            let log = &reference.0;
            let heard = |node: NodeId, at: SimTime| log.iter().any(|&(rx, src, t)| (rx, t) == (node, at) && src != TIMER);
            same_instant += log.iter().filter(|&&(rx, src, at)| src == TIMER && heard(rx, at)).count();
            let fifth = log.iter().filter(|&&(rx, src, _)| rx == 2 && src != TIMER && src != 2).nth(4);
            let &(_, src, at) = fifth.expect("node 2 hears five frames");
            crashed_mid_fanout += usize::from(log.iter().any(|&(rx, s, t)| rx > 2 && (s, t) == (src, at)));
        }
        assert!(mid_fanout >= 20, "only {mid_fanout} stops fell inside a fan-out");
        assert!(same_instant >= 100, "only {same_instant} same-instant timers");
        assert!(crashed_mid_fanout >= 1, "node 2 never crashed mid-fan-out");
    }
}
