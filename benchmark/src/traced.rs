//! The traced pass: spans around every call the simulator makes into an
//! application or the fault model, recorded from outside.
//!
//! The benchmark rebuilds each job from the same public constructors
//! `Scenario::build_sim` uses, but with every `Box<dyn Application>`
//! inside a forwarding [`TracedApp`] and the fault model inside a
//! [`TracedFault`], and drives it with its own `step` loop. One root
//! span `sim.step` covers each event; `app.*` and `fault.drops` are its
//! children, so `sim.step`'s self time is the simulator core's own
//! cost. A run built this way must reproduce its untraced twin exactly
//! (the digests are compared), which is also what catches drift
//! between this copy of the construction and the harness's.
//!
//! Spans are folded in memory into count / total / self / p50 / p99 per
//! name; full spans are kept for one designated job and written out
//! when the pass ends.

use crate::alloc;
use crate::drive::{decision_target, radio_sim_config, sim_limit, Built, Stop, Watch};
use crate::jobs::{ConsensusJob, Job, JobKind, LOSS};
use crate::radio::radio_apps;
use crate::surface::{
    byzantine_bracha_app, new_link_tags, Abba, AbbaApp, AbbaKeys, AppProgress, Application, Bracha,
    BrachaApp, Bytes, ByzantineAbbaApp, ByzantineTurquoisApp, Config, CostModel, CrashedApp,
    DeliveryCtx, FaultLoad, FaultModel, IidLoss, KeyRing, NodeCtx, NodeId, Protocol, ReceivedFrame,
    RunProbe, SimConfig, Simulator, Turquois, TurquoisApp,
};
use std::cell::RefCell;
use std::time::Instant;

/// The span names, in report order.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SpanKind {
    /// Root: building one job's simulator.
    Build,
    /// Root: one simulator event.
    Step,
    /// `Application::on_start`
    OnStart,
    /// `Application::on_frame`
    OnFrame,
    /// `Application::on_timer`
    OnTimer,
    /// `Application::on_unicast_failed`
    OnUnicastFailed,
    /// `Application::progress`
    Progress,
    /// `FaultModel::drops`
    FaultDrops,
}

impl SpanKind {
    /// Every kind, in report order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Build,
        SpanKind::Step,
        SpanKind::OnStart,
        SpanKind::OnFrame,
        SpanKind::OnTimer,
        SpanKind::OnUnicastFailed,
        SpanKind::Progress,
        SpanKind::FaultDrops,
    ];

    /// The span's name in reports and trace files.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Build => "job.build",
            SpanKind::Step => "sim.step",
            SpanKind::OnStart => "app.on_start",
            SpanKind::OnFrame => "app.on_frame",
            SpanKind::OnTimer => "app.on_timer",
            SpanKind::OnUnicastFailed => "app.on_unicast_failed",
            SpanKind::Progress => "app.progress",
            SpanKind::FaultDrops => "fault.drops",
        }
    }

    /// Whether the span is one of the application callbacks.
    pub fn is_app(self) -> bool {
        !matches!(
            self,
            SpanKind::Build | SpanKind::Step | SpanKind::FaultDrops
        )
    }
}

/// Sub-buckets per power of two: quantiles are exact to 1/8 octave.
const SUB: usize = 8;

/// A log-scale histogram of nanosecond durations.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; 64 * SUB],
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (octave - 3)) & (SUB as u64 - 1)) as usize;
        octave * SUB + sub
    }

    fn lower_bound(index: usize) -> f64 {
        if index < SUB {
            return index as f64;
        }
        let (octave, sub) = (index / SUB, index % SUB);
        ((SUB + sub) as f64) * 2f64.powi(octave as i32 - 3)
    }

    /// Adds one duration.
    pub fn add(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The `q`-quantile (lower edge of its bucket), ns; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * (total - 1) as f64) as u64;
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::lower_bound(i);
            }
        }
        unreachable!("rank lies below the total")
    }
}

/// All spans of one name, folded.
#[derive(Clone, Debug, Default)]
pub struct Fold {
    /// Spans seen.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child spans, ns.
    pub self_ns: u64,
    /// Distribution of self time (equal to duration for leaf spans).
    pub hist: Histogram,
}

impl Fold {
    /// Adds one span of `duration` ns, `self_ns` of it its own.
    pub fn add(&mut self, duration: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += duration;
        self.self_ns += self_ns;
        self.hist.add(self_ns);
    }

    /// Adds another fold's spans.
    pub fn merge(&mut self, other: &Fold) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }

    /// Mean duration, ns; 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One span kept in full.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Sequence number of the root span this one belongs to (its own
    /// for a root).
    pub root: u64,
    /// What was timed.
    pub kind: SpanKind,
    /// Node the call was made for (`u32::MAX` for roots).
    pub node: u32,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
}

/// Most full spans kept for the designated job.
pub const SPAN_CAP: usize = 200_000;

/// One callback delivered to the recorded node, for the replay.
#[derive(Clone, Debug)]
pub enum Callback {
    /// `on_start`
    Start,
    /// `on_frame` with these payload bytes.
    Frame(Bytes),
    /// `on_timer` with this id.
    Timer(u64),
}

/// Everything the tracer collected over one job.
#[derive(Debug, Default)]
pub struct JobTrace {
    /// One fold per [`SpanKind::ALL`] entry.
    pub folds: [Fold; 8],
    /// Callbacks at the recorded node only (`on_start`, `on_frame`,
    /// `on_timer`), for `harness.adapter_self_ns`.
    pub recorded_node: Fold,
    /// Full spans, for the designated job only.
    pub spans: Vec<Span>,
    /// The recorded node's callback sequence.
    pub callbacks: Vec<Callback>,
}

struct State {
    epoch: Instant,
    job: JobTrace,
    keep_spans: bool,
    /// Child time inside the open `sim.step`.
    children_ns: u64,
    roots: u64,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    STATE.with(|s| f(s.borrow_mut().as_mut().expect("a job is being traced")))
}

/// Nanoseconds since the current job's trace began.
fn now_ns() -> u64 {
    with_state(|s| s.epoch.elapsed().as_nanos() as u64)
}

/// Starts collecting for one job.
pub fn begin_job(keep_spans: bool) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            epoch: Instant::now(),
            job: JobTrace::default(),
            keep_spans,
            children_ns: 0,
            roots: 0,
        })
    });
}

/// Stops collecting and hands the job's trace over.
pub fn end_job() -> JobTrace {
    STATE.with(|s| s.borrow_mut().take().expect("a job is being traced").job)
}

impl State {
    fn keep(&mut self, span: Span) {
        if self.keep_spans && self.job.spans.len() < SPAN_CAP {
            alloc::uncounted(|| self.job.spans.push(span));
        }
    }
}

/// Closes a child span opened at `start_ns`.
fn close_child(kind: SpanKind, node: NodeId, start_ns: u64, recorded: bool) {
    with_state(|s| {
        let end_ns = s.epoch.elapsed().as_nanos() as u64;
        let d = end_ns - start_ns;
        s.job.folds[kind as usize].add(d, d);
        if recorded {
            s.job.recorded_node.add(d, d);
        }
        s.children_ns += d;
        s.keep(Span {
            root: s.roots,
            kind,
            node: node as u32,
            start_ns,
            end_ns,
        });
    });
}

/// Closes a root span; its self time is its duration minus the children
/// closed since the previous root.
fn close_root(kind: SpanKind, start_ns: u64, end_ns: u64) {
    with_state(|s| {
        let d = end_ns - start_ns;
        let own = d.saturating_sub(s.children_ns);
        s.children_ns = 0;
        s.job.folds[kind as usize].add(d, own);
        s.keep(Span {
            root: s.roots,
            kind,
            node: u32::MAX,
            start_ns,
            end_ns,
        });
        s.roots += 1;
    });
}

/// Opens and closes a child span around nothing: what the tracer itself
/// adds to every `*_ns` figure it reports.
pub fn empty_span() {
    let t0 = now_ns();
    close_child(SpanKind::Progress, 0, t0, false);
}

/// Forwards every callback to `inner` inside a span.
pub struct TracedApp {
    inner: Box<dyn Application>,
    node: NodeId,
    /// Record this node's callback sequence for the replay.
    record: bool,
}

impl TracedApp {
    fn record(&self, callback: impl FnOnce() -> Callback) {
        if self.record {
            alloc::uncounted(|| with_state(|s| s.job.callbacks.push(callback())));
        }
    }
}

impl Application for TracedApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.record(|| Callback::Start);
        let t0 = now_ns();
        self.inner.on_start(ctx);
        close_child(SpanKind::OnStart, self.node, t0, self.record);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        self.record(|| Callback::Frame(frame.payload.clone()));
        let t0 = now_ns();
        self.inner.on_frame(ctx, frame);
        close_child(SpanKind::OnFrame, self.node, t0, self.record);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        self.record(|| Callback::Timer(timer));
        let t0 = now_ns();
        self.inner.on_timer(ctx, timer);
        close_child(SpanKind::OnTimer, self.node, t0, self.record);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, payload: Bytes) {
        let t0 = now_ns();
        self.inner.on_unicast_failed(ctx, dst, payload);
        close_child(SpanKind::OnUnicastFailed, self.node, t0, false);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn progress(&self) -> Option<AppProgress> {
        let t0 = now_ns();
        let p = self.inner.progress();
        close_child(SpanKind::Progress, self.node, t0, false);
        p
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Forwards every `drops` decision to `inner` inside a span.
pub struct TracedFault(Box<dyn FaultModel>);

impl FaultModel for TracedFault {
    fn drops(&mut self, ctx: &DeliveryCtx) -> bool {
        let t0 = now_ns();
        let dropped = self.0.drops(ctx);
        close_child(SpanKind::FaultDrops, ctx.dst, t0, false);
        dropped
    }

    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// What the replay needs to rebuild the recorded node's engine.
#[derive(Clone)]
pub struct EngineSeed {
    /// Protocol configuration.
    pub cfg: Config,
    /// The node's proposal.
    pub proposal: bool,
    /// The node's key ring.
    pub ring: KeyRing,
    /// The node's engine seed.
    pub seed: u64,
}

/// The node whose callbacks are recorded: always correct (the faulty
/// processes are the last `f`).
pub const RECORDED_NODE: NodeId = 0;

fn traced(apps: Vec<Box<dyn Application>>, record: bool) -> Vec<Box<dyn Application>> {
    apps.into_iter()
        .enumerate()
        .map(|(node, inner)| {
            Box::new(TracedApp {
                inner,
                node,
                record: record && node == RECORDED_NODE,
            }) as Box<dyn Application>
        })
        .collect()
}

/// The applications of a consensus job, built as `Scenario::build_sim`
/// builds them, and the recorded node's engine parameters when the
/// engine is Turquois.
fn consensus_apps(
    c: &ConsensusJob,
    seed: u64,
) -> (
    Vec<Box<dyn Application>>,
    crate::surface::SharedProbe,
    Option<EngineSeed>,
) {
    let cfg = Config::evaluation(c.n).expect("every grid size admits a configuration");
    let (n, f) = (c.n, cfg.f());
    let cost = CostModel::pentium3_600();
    let probe = RunProbe::new(n);
    let faulty = |i: usize| c.load != FaultLoad::FailureFree && i >= n - f;
    let byzantine = c.load == FaultLoad::Byzantine;
    let proposal = |i: usize| c.proposals.proposal(i);
    let mut engine_seed = None;
    let apps: Vec<Box<dyn Application>> = match c.engine {
        Protocol::Turquois => KeyRing::trusted_setup(n, c.key_phases(), seed)
            .into_iter()
            .enumerate()
            .map(|(i, ring)| {
                let node_seed = seed + 7 * i as u64;
                if i == RECORDED_NODE {
                    engine_seed = Some(EngineSeed {
                        cfg,
                        proposal: proposal(i),
                        ring: ring.clone(),
                        seed: node_seed,
                    });
                }
                if !faulty(i) {
                    let inst = Turquois::new(cfg, i, proposal(i), ring.clone(), node_seed);
                    Box::new(
                        TurquoisApp::new(inst, cost, probe.clone())
                            .tick_interval(c.tick)
                            .resettable(cfg, proposal(i), ring, node_seed),
                    ) as Box<dyn Application>
                } else if byzantine {
                    let tracker = Turquois::new(cfg, i, proposal(i), ring.clone(), node_seed);
                    Box::new(ByzantineTurquoisApp::new(tracker, ring).tick_interval(c.tick))
                        as Box<dyn Application>
                } else {
                    Box::new(CrashedApp)
                }
            })
            .collect(),
        Protocol::Bracha => {
            let link_tags = new_link_tags();
            (0..n)
                .map(|i| {
                    let engine = Bracha::new(n, f, i, proposal(i), seed + 31 * i as u64);
                    if !faulty(i) {
                        Box::new(BrachaApp::new(
                            engine,
                            n,
                            seed,
                            cost,
                            probe.clone(),
                            link_tags.clone(),
                        )) as Box<dyn Application>
                    } else if byzantine {
                        Box::new(byzantine_bracha_app(
                            engine,
                            n,
                            seed,
                            cost,
                            probe.clone(),
                            link_tags.clone(),
                        )) as Box<dyn Application>
                    } else {
                        Box::new(CrashedApp)
                    }
                })
                .collect()
        }
        Protocol::Abba => AbbaKeys::trusted_setup(n, f, seed)
            .into_iter()
            .enumerate()
            .map(|(i, keys)| {
                if !faulty(i) {
                    let engine = Abba::new(n, f, i, proposal(i), keys, seed + 17 * i as u64);
                    Box::new(AbbaApp::new(engine, n, cost, probe.clone())) as Box<dyn Application>
                } else if byzantine {
                    Box::new(ByzantineAbbaApp::new(i, n)) as Box<dyn Application>
                } else {
                    Box::new(CrashedApp)
                }
            })
            .collect(),
    };
    (apps, probe, engine_seed)
}

/// Builds a job with every application and the fault model wrapped,
/// inside a `job.build` span.
pub fn build_traced(job: &Job) -> (Built, Option<EngineSeed>) {
    let t0 = now_ns();
    let fault = Box::new(TracedFault(Box::new(IidLoss::new(LOSS, job.seed))));
    let built = match &job.kind {
        JobKind::Consensus(c) => {
            let (apps, probe, engine_seed) = consensus_apps(c, job.seed);
            let cfg = SimConfig {
                seed: job.seed,
                phy: c.phy,
                topology: c.topology(),
                ..SimConfig::default()
            };
            let sim = Simulator::new(cfg, fault, traced(apps, engine_seed.is_some()));
            (
                Built {
                    sim,
                    watch: Watch::Consensus(probe),
                },
                engine_seed,
            )
        }
        JobKind::Radio { n, horizon } => {
            let (apps, tally) = radio_apps(*n, *horizon);
            let sim = Simulator::new(radio_sim_config(*n, job.seed), fault, traced(apps, false));
            (
                Built {
                    sim,
                    watch: Watch::Radio(tally),
                },
                None,
            )
        }
    };
    close_root(SpanKind::Build, t0, now_ns());
    built
}

/// Drives a traced job with the benchmark's own loop: one `sim.step`
/// span per event. One clock read closes a span and opens the next, so
/// the loop's own bookkeeping lands in `sim.step`'s self time rather
/// than between spans.
pub fn drive_traced(job: &Job, built: &mut Built) -> Stop {
    let target = match &job.kind {
        JobKind::Consensus(c) => decision_target(c),
        JobKind::Radio { .. } => usize::MAX,
    };
    let limit = sim_limit();
    let sim = &mut built.sim;
    let mut opened = now_ns();
    loop {
        if sim.decided_count() >= target {
            return Stop::Decided;
        }
        if !sim.step() {
            return Stop::Drained;
        }
        let now = now_ns();
        close_root(SpanKind::Step, opened, now);
        opened = now;
        if target != usize::MAX && sim.now() > limit {
            return Stop::Budget;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_an_eighth_octave() {
        let mut h = Histogram::default();
        for ns in 1..=10_000u64 {
            h.add(ns);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((4_400.0..=5_000.0).contains(&p50), "p50 {p50}");
        assert!((8_700.0..=9_900.0).contains(&p99), "p99 {p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        // Bucket edges map back onto themselves.
        for ns in [0u64, 7, 8, 9, 15, 16, 1000, 1 << 40] {
            let lb = Histogram::lower_bound(Histogram::index(ns));
            assert!(
                lb <= ns as f64 && ns as f64 <= lb * 1.126 + 1.0,
                "{ns} → {lb}"
            );
        }
    }

    #[test]
    fn root_self_time_excludes_children() {
        begin_job(true);
        close_child(SpanKind::OnFrame, 3, 0, false);
        let children = with_state(|s| s.children_ns);
        close_root(SpanKind::Step, 0, children + 50);
        let job = end_job();
        assert_eq!(job.folds[SpanKind::Step as usize].self_ns, 50);
        assert_eq!(job.folds[SpanKind::OnFrame as usize].count, 1);
        assert_eq!(job.spans.len(), 2);
        assert_eq!(job.spans[0].root, job.spans[1].root);
    }
}
