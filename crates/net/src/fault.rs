//! Dynamic omission-fault injection (the communication failure model).
//!
//! Turquois adopts the Santoro–Widmayer *communication failure model*:
//! any transmission between two correct processes may be lost, at any
//! time, in any pattern. The simulator realizes that model with pluggable
//! [`FaultModel`]s consulted once per `(frame, receiver)` delivery — on
//! top of the losses the MAC itself produces (collisions).
//!
//! Provided models:
//!
//! * [`NoFaults`] — the failure-free fault load of paper §7.2.
//! * [`IidLoss`] — independent per-delivery loss with probability `p`.
//! * [`GilbertElliott`] — bursty per-directed-link loss (good/bad channel
//!   states), the standard model for 802.11 interference and fading.
//! * [`JammingWindows`] — total loss during one time window, modelling
//!   the jamming attack discussed in the paper's introduction.
//! * [`BudgetedOmission`] — an omission *adversary*: kills up to `budget`
//!   broadcast deliveries per time window, targeting the protocol's σ
//!   bound.
//! * [`Compose`] — OR-composition of several models.
//! * [`CrashSchedule`] — deterministic crash (and optional rejoin) of
//!   whole nodes. Unlike the delivery-filter models above, a crash
//!   silences the node entirely — it stops transmitting, receiving,
//!   and ticking — so it is installed into the simulator with
//!   [`crate::sim::Simulator::set_crash_schedule`] rather than through
//!   the [`FaultModel`] hook, and composes freely with any of them.

use crate::frame::NodeId;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

/// Context handed to a fault model for one prospective delivery.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryCtx {
    /// Simulated time of the delivery decision.
    pub now: SimTime,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node under consideration.
    pub dst: NodeId,
    /// Whether the frame is link-layer broadcast.
    pub broadcast: bool,
}

/// Decides, per `(frame, receiver)`, whether an omission fault occurs.
///
/// Implementations must be deterministic given their seed so experiment
/// runs are reproducible.
pub trait FaultModel: Send {
    /// Returns `true` if this delivery is lost.
    fn drops(&mut self, ctx: &DeliveryCtx) -> bool;

    /// Human-readable description, recorded with experiment results.
    fn describe(&self) -> String;
}

/// No injected faults (collisions may still occur at the MAC).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn drops(&mut self, _ctx: &DeliveryCtx) -> bool {
        false
    }

    fn describe(&self) -> String {
        "no injected faults".into()
    }
}

/// Independent loss: every delivery is dropped with probability `p`.
#[derive(Debug)]
pub struct IidLoss {
    p: f64,
    rng: StdRng,
}

impl IidLoss {
    /// Creates a model dropping each delivery with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability {p} out of range");
        IidLoss {
            p,
            rng: StdRng::seed_from_u64(seed ^ 0x1d1d_1055),
        }
    }
}

impl FaultModel for IidLoss {
    fn drops(&mut self, _ctx: &DeliveryCtx) -> bool {
        self.rng.gen_bool(self.p)
    }

    fn describe(&self) -> String {
        format!("iid loss p={}", self.p)
    }
}

/// Two-state Gilbert–Elliott burst-loss model, independent per directed
/// link.
///
/// In the *good* state deliveries are lost with `loss_good`; in the *bad*
/// state with `loss_bad`. Before each decision the link transitions
/// good→bad with `p_gb` and bad→good with `p_bg`.
#[derive(Debug)]
pub struct GilbertElliott {
    p_gb: f64,
    p_bg: f64,
    loss_good: f64,
    loss_bad: f64,
    states: BTreeMap<(NodeId, NodeId), bool>, // true = bad
    rng: StdRng,
}

impl GilbertElliott {
    /// Creates the model; see type-level docs for parameter meaning.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]`.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64, seed: u64) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name}={p} out of range");
        }
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            states: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x6e11_be47),
        }
    }
}

impl FaultModel for GilbertElliott {
    fn drops(&mut self, ctx: &DeliveryCtx) -> bool {
        let state = self.states.entry((ctx.src, ctx.dst)).or_insert(false);
        let flip = if *state { self.p_bg } else { self.p_gb };
        if self.rng.gen_bool(flip) {
            *state = !*state;
        }
        let loss = if *state { self.loss_bad } else { self.loss_good };
        self.rng.gen_bool(loss)
    }

    fn describe(&self) -> String {
        format!(
            "gilbert-elliott p_gb={} p_bg={} loss_good={} loss_bad={}",
            self.p_gb, self.p_bg, self.loss_good, self.loss_bad
        )
    }
}

/// Total loss inside one `[start, end)` window — a jammer.
#[derive(Clone, Debug)]
pub struct JammingWindows {
    start: SimTime,
    end: SimTime,
}

impl JammingWindows {
    /// A single jamming burst starting at `start` lasting `len`.
    pub fn burst(start: SimTime, len: Duration) -> Self {
        JammingWindows {
            start,
            end: start + len,
        }
    }
}

impl FaultModel for JammingWindows {
    fn drops(&mut self, ctx: &DeliveryCtx) -> bool {
        ctx.now >= self.start && ctx.now < self.end
    }

    fn describe(&self) -> String {
        format!("jamming {}..{}", self.start, self.end)
    }
}

/// An omission adversary with a per-window kill budget over broadcast
/// deliveries (the frames that carry Turquois protocol messages).
///
/// Drops the first `budget` broadcast deliveries in every `window`-long
/// interval. With `budget` set to the protocol's σ bound this realizes
/// the strongest omission pattern under which Turquois must still make
/// progress; above σ it demonstrates safe stagnation.
#[derive(Debug)]
pub struct BudgetedOmission {
    budget: usize,
    window: Duration,
    window_start: SimTime,
    used: usize,
}

impl BudgetedOmission {
    /// Creates an adversary killing up to `budget` deliveries per
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero: no instant would ever leave it.
    pub fn new(budget: usize, window: Duration) -> Self {
        assert!(window > Duration::ZERO, "an omission window must be positive");
        BudgetedOmission {
            budget,
            window,
            window_start: SimTime::ZERO,
            used: 0,
        }
    }
}

impl FaultModel for BudgetedOmission {
    fn drops(&mut self, ctx: &DeliveryCtx) -> bool {
        if !ctx.broadcast {
            return false;
        }
        while ctx.now >= self.window_start + self.window {
            self.window_start += self.window;
            self.used = 0;
        }
        if self.used < self.budget {
            self.used += 1;
            true
        } else {
            false
        }
    }

    fn describe(&self) -> String {
        format!(
            "budgeted omission {} per {:?} (broadcast only)",
            self.budget, self.window
        )
    }
}

/// OR-composition: a delivery is dropped if **any** component drops it.
pub struct Compose {
    parts: Vec<Box<dyn FaultModel>>,
}

impl Compose {
    /// Composes `parts` into one model.
    pub fn new(parts: Vec<Box<dyn FaultModel>>) -> Self {
        Compose { parts }
    }
}

impl std::fmt::Debug for Compose {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Compose({})", self.describe())
    }
}

impl FaultModel for Compose {
    fn drops(&mut self, ctx: &DeliveryCtx) -> bool {
        // Evaluate all parts so stateful models (Gilbert–Elliott) advance
        // uniformly regardless of short-circuiting.
        let mut dropped = false;
        for p in &mut self.parts {
            dropped |= p.drops(ctx);
        }
        dropped
    }

    fn describe(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.describe())
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

/// What makes a [`CrashSpec`] fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Crash at the given simulated time.
    At(SimTime),
    /// Crash as soon as the node's [`crate::sim::Application`] reports
    /// (via [`crate::sim::Application::progress`]) a phase/round `>=`
    /// the given value — "crash mid-protocol", independent of how long
    /// the run takes to get there. Nodes whose application exposes no
    /// progress probe never trigger a phase crash.
    AtPhase(u32),
}

/// One node's deterministic crash (and optional rejoin).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The node to crash.
    pub node: NodeId,
    /// When the crash happens.
    pub trigger: CrashTrigger,
    /// If set, the node rejoins this long after the crash: its
    /// application is reset ([`crate::sim::Application::reset`]) and
    /// restarted via `on_start`, modelling a process restart with fresh
    /// in-memory state. `None` means the node stays down forever.
    pub rejoin_after: Option<Duration>,
}

/// A deterministic crash/recovery fault injector: at most one crash per
/// node, each optionally followed by a rejoin-with-reset.
///
/// While a node is down the simulator suppresses every callback to it,
/// flushes its transmit queue (a dead NIC loses its backlog), aborts
/// any frame it had on the air, and counts suppressed deliveries in
/// [`crate::stats::NetStats::crash_drops`]. Timers armed before the
/// crash never fire after a rejoin (each crash bumps the node's timer
/// epoch).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashSchedule {
    specs: Vec<CrashSpec>,
}

impl CrashSchedule {
    /// An empty schedule (no crashes).
    pub fn new() -> Self {
        CrashSchedule::default()
    }

    /// Adds a crash of `node` when it reaches protocol phase `phase`,
    /// never rejoining.
    ///
    /// # Panics
    ///
    /// Panics if `node` already has a crash scheduled.
    pub fn crash_at_phase(self, node: NodeId, phase: u32) -> Self {
        self.push(CrashSpec {
            node,
            trigger: CrashTrigger::AtPhase(phase),
            rejoin_after: None,
        })
    }

    /// Makes the most recently added crash rejoin `delay` after it
    /// fires.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty.
    pub fn rejoin_after(mut self, delay: Duration) -> Self {
        self.specs
            .last_mut()
            .expect("rejoin_after needs a preceding crash spec")
            .rejoin_after = Some(delay);
        self
    }

    /// Adds a fully-specified crash.
    ///
    /// # Panics
    ///
    /// Panics if `spec.node` already has a crash scheduled — the
    /// one-crash-per-node rule keeps rejoin/epoch bookkeeping trivially
    /// deterministic.
    pub fn push(mut self, spec: CrashSpec) -> Self {
        assert!(
            self.specs.iter().all(|s| s.node != spec.node),
            "node {} already has a crash scheduled",
            spec.node
        );
        self.specs.push(spec);
        self
    }

    /// The scheduled crashes.
    pub(crate) fn specs(&self) -> &[CrashSpec] {
        &self.specs
    }

    /// `true` when no crash is scheduled.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Human-readable description, matching [`FaultModel::describe`]
    /// conventions so experiment results can record the full fault
    /// state.
    pub fn describe(&self) -> String {
        if self.specs.is_empty() {
            return "no crashes".into();
        }
        self.specs
            .iter()
            .map(|s| {
                let trigger = match s.trigger {
                    CrashTrigger::At(t) => format!("crash n{} at {t}", s.node),
                    CrashTrigger::AtPhase(p) => format!("crash n{} at phase {p}", s.node),
                };
                match s.rejoin_after {
                    Some(d) => format!("{trigger} rejoin +{d:?}"),
                    None => trigger,
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl CrashSchedule {
        /// Adds a crash of `node` at simulated time `at`, never
        /// rejoining: [`CrashSchedule::push`] of a [`CrashTrigger::At`].
        pub(crate) fn crash_at(self, node: NodeId, at: SimTime) -> Self {
            self.push(CrashSpec {
                node,
                trigger: CrashTrigger::At(at),
                rejoin_after: None,
            })
        }
    }

    /// Loss with probability `p` restricted to deliveries whose sender is in
    /// `srcs` **and** receiver in `dsts` (empty set = wildcard).
    #[derive(Debug)]
    pub(crate) struct TargetedLoss {
        srcs: Vec<NodeId>,
        dsts: Vec<NodeId>,
        p: f64,
        rng: StdRng,
    }

    impl TargetedLoss {
        /// Creates a targeted-loss model; an empty `srcs`/`dsts` matches all.
        ///
        /// # Panics
        ///
        /// Panics unless `0.0 <= p <= 1.0`.
        pub(crate) fn new(srcs: Vec<NodeId>, dsts: Vec<NodeId>, p: f64, seed: u64) -> Self {
            assert!((0.0..=1.0).contains(&p), "loss probability {p} out of range");
            TargetedLoss {
                srcs,
                dsts,
                p,
                rng: StdRng::seed_from_u64(seed ^ 0x7a26_e7ed),
            }
        }
    }

    impl FaultModel for TargetedLoss {
        fn drops(&mut self, ctx: &DeliveryCtx) -> bool {
            let src_match = self.srcs.is_empty() || self.srcs.contains(&ctx.src);
            let dst_match = self.dsts.is_empty() || self.dsts.contains(&ctx.dst);
            if src_match && dst_match {
                self.rng.gen_bool(self.p)
            } else {
                false
            }
        }

        fn describe(&self) -> String {
            format!(
                "targeted loss p={} srcs={:?} dsts={:?}",
                self.p, self.srcs, self.dsts
            )
        }
    }

    fn ctx_at(now_us: u64) -> DeliveryCtx {
        DeliveryCtx {
            now: SimTime::from_micros(now_us),
            src: 0,
            dst: 1,
            broadcast: true,
        }
    }

    #[test]
    fn no_faults_never_drops() {
        let mut m = NoFaults;
        for t in 0..100 {
            assert!(!m.drops(&ctx_at(t)));
        }
    }

    #[test]
    fn iid_loss_zero_and_one() {
        let mut never = IidLoss::new(0.0, 1);
        let mut always = IidLoss::new(1.0, 1);
        for t in 0..100 {
            assert!(!never.drops(&ctx_at(t)));
            assert!(always.drops(&ctx_at(t)));
        }
    }

    #[test]
    fn iid_loss_rate_close_to_p() {
        let mut m = IidLoss::new(0.3, 42);
        let drops = (0..10_000).filter(|&t| m.drops(&ctx_at(t))).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed {rate}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn iid_loss_rejects_bad_p() {
        let _ = IidLoss::new(1.5, 0);
    }

    #[test]
    fn iid_deterministic_per_seed() {
        let run = |seed| {
            let mut m = IidLoss::new(0.5, seed);
            (0..64).map(|t| m.drops(&ctx_at(t))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn gilbert_elliott_burstier_than_iid() {
        // With sticky states, consecutive outcomes should correlate:
        // measure the rate of loss-runs vs. total losses.
        let mut ge = GilbertElliott::new(0.02, 0.1, 0.0, 0.9, 3);
        let outcomes: Vec<bool> = (0..20_000).map(|t| ge.drops(&ctx_at(t))).collect();
        let losses = outcomes.iter().filter(|&&d| d).count();
        assert!(losses > 100, "bad state should be visited: {losses}");
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        // P(loss | previous loss) must exceed the marginal loss rate.
        let cond = pairs as f64 / losses as f64;
        let marginal = losses as f64 / outcomes.len() as f64;
        assert!(
            cond > marginal * 2.0,
            "cond {cond} should exceed 2x marginal {marginal}"
        );
    }

    #[test]
    fn gilbert_elliott_links_independent() {
        let mut ge = GilbertElliott::new(0.5, 0.01, 0.0, 1.0, 3);
        // Drive link (0,1) into the bad state.
        for t in 0..50 {
            let _ = ge.drops(&ctx_at(t));
        }
        // A fresh link starts in the good state with loss_good = 0.
        let fresh = DeliveryCtx {
            now: SimTime::from_micros(1000),
            src: 5,
            dst: 6,
            broadcast: false,
        };
        // First decision on a fresh link can only be lost if it flips to
        // bad (p=0.5); run a few distinct fresh links and require at least
        // one clean delivery.
        let mut any_ok = false;
        for d in 7..17 {
            let c = DeliveryCtx { dst: d, ..fresh };
            any_ok |= !ge.drops(&c);
        }
        assert!(any_ok);
    }

    #[test]
    fn jamming_drops_only_inside_windows() {
        let mut jam = JammingWindows::burst(SimTime::from_micros(100), Duration::from_micros(50));
        assert!(!jam.drops(&ctx_at(99)));
        assert!(jam.drops(&ctx_at(100)));
        assert!(jam.drops(&ctx_at(149)));
        assert!(!jam.drops(&ctx_at(150)));
    }

    #[test]
    fn budgeted_omission_respects_budget_and_resets() {
        let mut adv = BudgetedOmission::new(2, Duration::from_micros(100));
        // Window [0, 100): first two killed, third passes.
        assert!(adv.drops(&ctx_at(1)));
        assert!(adv.drops(&ctx_at(2)));
        assert!(!adv.drops(&ctx_at(3)));
        // Next window: budget resets.
        assert!(adv.drops(&ctx_at(101)));
        assert!(adv.drops(&ctx_at(110)));
        assert!(!adv.drops(&ctx_at(111)));
    }

    #[test]
    fn budgeted_omission_skips_multiple_windows() {
        let mut adv = BudgetedOmission::new(1, Duration::from_micros(10));
        assert!(adv.drops(&ctx_at(5)));
        // Jump several windows ahead; budget must be fresh.
        assert!(adv.drops(&ctx_at(95)));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn budgeted_omission_rejects_a_zero_window() {
        let _ = BudgetedOmission::new(1, Duration::ZERO);
    }

    #[test]
    fn budgeted_omission_broadcast_only_ignores_unicast() {
        let mut adv = BudgetedOmission::new(1, Duration::from_micros(100));
        let unicast = DeliveryCtx {
            now: SimTime::from_micros(1),
            src: 0,
            dst: 1,
            broadcast: false,
        };
        assert!(!adv.drops(&unicast));
        assert!(adv.drops(&ctx_at(2)), "budget untouched by unicast");
    }

    #[test]
    fn targeted_loss_scopes_by_src_dst() {
        let mut m = TargetedLoss::new(vec![0], vec![1], 1.0, 9);
        assert!(m.drops(&ctx_at(0)));
        let other = DeliveryCtx {
            now: SimTime::ZERO,
            src: 2,
            dst: 1,
            broadcast: true,
        };
        assert!(!m.drops(&other));
    }

    #[test]
    fn targeted_loss_empty_sets_are_wildcards() {
        let mut m = TargetedLoss::new(vec![], vec![], 1.0, 9);
        assert!(m.drops(&ctx_at(0)));
    }

    #[test]
    fn compose_ors_components() {
        let mut m = Compose::new(vec![
            Box::new(JammingWindows::burst(
                SimTime::from_micros(10),
                Duration::from_micros(10),
            )),
            Box::new(TargetedLoss::new(vec![0], vec![], 1.0, 1)),
        ]);
        assert!(m.drops(&ctx_at(0)), "targeted component drops src 0");
        let other_src = DeliveryCtx {
            now: SimTime::from_micros(15),
            src: 3,
            dst: 1,
            broadcast: true,
        };
        assert!(m.drops(&other_src), "jamming window drops it");
        let clean = DeliveryCtx {
            now: SimTime::from_micros(30),
            src: 3,
            dst: 1,
            broadcast: true,
        };
        assert!(!m.drops(&clean));
    }

    #[test]
    fn crash_schedule_builders_and_describe() {
        let sched = CrashSchedule::new()
            .crash_at(0, SimTime::from_millis(5))
            .crash_at_phase(2, 4)
            .rejoin_after(Duration::from_millis(100));
        assert_eq!(sched.specs().len(), 2);
        assert_eq!(sched.specs()[0].rejoin_after, None);
        assert_eq!(
            sched.specs()[1],
            CrashSpec {
                node: 2,
                trigger: CrashTrigger::AtPhase(4),
                rejoin_after: Some(Duration::from_millis(100)),
            }
        );
        let text = sched.describe();
        assert!(text.contains("crash n0"), "{text}");
        assert!(text.contains("phase 4"), "{text}");
        assert!(text.contains("rejoin"), "{text}");
        assert_eq!(CrashSchedule::new().describe(), "no crashes");
        assert!(CrashSchedule::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "already has a crash scheduled")]
    fn crash_schedule_rejects_duplicate_node() {
        let _ = CrashSchedule::new()
            .crash_at(1, SimTime::from_millis(5))
            .crash_at_phase(1, 3);
    }

    #[test]
    fn descriptions_nonempty() {
        assert!(!NoFaults.describe().is_empty());
        assert!(!IidLoss::new(0.1, 0).describe().is_empty());
        assert!(!GilbertElliott::new(0.1, 0.1, 0.0, 1.0, 0).describe().is_empty());
        assert!(!JammingWindows::burst(SimTime::ZERO, Duration::from_millis(1))
            .describe()
            .is_empty());
        assert!(!BudgetedOmission::new(1, Duration::from_millis(1)).describe().is_empty());
        assert!(!TargetedLoss::new(vec![], vec![], 0.0, 0).describe().is_empty());
    }
}
