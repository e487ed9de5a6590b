//! Executes a [`Schedule`] against the nodes that ship — the harness's
//! `Application`s, correct and Byzantine — and checks agreement,
//! validity, and (within the σ omission budget) eventual decision.
//!
//! Time is a sequence of *rounds*, each [`QUANTUM`] of simulated time.
//! Every callback is opened with `NodeCtx::new` at `round × QUANTUM`
//! and drained with `NodeCtx::finish`, as the live runtime does: a
//! drained `Broadcast` fans out to every process, a `Unicast` is one
//! send, a `SetTimer` fires in the first round at or past its deadline,
//! the first `Decide` is the node's decision, and charged CPU is
//! ignored. So Turquois ticks by its own rule (every tick interval, and
//! at once when its phase advances), and the baselines run over the
//! reliable transport and link authentication they ship with.
//!
//! Each round fires the due timers, then delivers the due frames. A
//! frame lands one Turquois tick interval ([`LATENCY`] rounds) after it
//! is sent, so a phase's bare broadcast is followed, before the next
//! phase's frames land, by its justified rebroadcast — the explicit
//! validation that lets a process that missed a quorum catch up. At a
//! latency below the tick a decided group advances a phase per
//! delivery, never rebroadcasts an unchanged state, and a process that
//! missed one quorum stays stranded below it.
//!
//! Faults from the schedule apply to frames *sent* during the
//! adversarial window: drops, delays (reorders — the frame lands after
//! younger traffic), duplicates, and the partition's cut of
//! correct↔correct edges. After the window the network is fault-free:
//! Turquois' ticks and the transport's retransmissions recover, which
//! is what makes eventual decision checkable.

use crate::schedule::{ByzStrategy, EngineKind, FaultKind, Partition, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::time::Duration;
use turquois_baselines::abba::{Abba, AbbaKeys};
use turquois_baselines::bracha::Bracha;
use turquois_core::instance::Turquois;
use turquois_core::message::Status;
use turquois_core::KeyRing;
use turquois_crypto::cost::CostModel;
use turquois_harness::adapters::{
    new_link_tags, AbbaApp, BrachaApp, RunProbe, SharedLinkTags, TurquoisApp, TICK_INTERVAL,
};
use turquois_harness::adversary::SplitBrainCoalition;
use wireless_net::reliable;
use wireless_net::{Addressing, Application, Command, NodeCtx, ReceivedFrame, SimTime};

/// A property violated by an execution (most severe first).
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum Violation {
    /// Two correct processes decided different values.
    Agreement {
        /// First process and its decision.
        a: (usize, bool),
        /// Second process and its conflicting decision.
        b: (usize, bool),
    },
    /// All correct processes proposed `proposal`, yet one decided
    /// otherwise.
    Validity {
        /// The unanimous correct proposal.
        proposal: bool,
        /// The deviating process.
        id: usize,
    },
    /// The schedule guaranteed progress, but some correct process never
    /// decided.
    Liveness {
        /// Undecided correct processes.
        undecided: Vec<usize>,
        /// Engine-state snapshot of the undecided processes.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { a, b } => write!(
                f,
                "agreement: p{} decided {} but p{} decided {}",
                a.0, a.1 as u8, b.0, b.1 as u8
            ),
            Violation::Validity { proposal, id } => write!(
                f,
                "validity: unanimous proposal {} but p{id} decided {}",
                *proposal as u8,
                !*proposal as u8
            ),
            Violation::Liveness { undecided, detail } => {
                write!(f, "liveness: undecided {undecided:?} ({detail})")
            }
        }
    }
}

/// The stable kind tag of a violation (used by replay expectations).
impl Violation {
    /// `agreement`, `validity`, or `liveness`.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Agreement { .. } => "agreement",
            Violation::Validity { .. } => "validity",
            Violation::Liveness { .. } => "liveness",
        }
    }
}

/// Outcome of one schedule execution.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct RunReport {
    /// Decision of each process (`None` for Byzantine slots and
    /// undecided processes).
    pub decisions: Vec<Option<bool>>,
    /// Rounds actually executed.
    pub rounds_used: u32,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped by injected faults.
    pub dropped: u64,
    /// Whether the schedule stayed within the σ omission budget.
    pub eligible: bool,
    /// The first property violation, if any.
    pub violation: Option<Violation>,
}

/// Simulated time per round: the transport's tick, so its delayed
/// ACKs and retransmission timeouts land on round boundaries.
pub const QUANTUM: Duration = reliable::TICK_INTERVAL;
/// Rounds from a frame's send to its delivery: one Turquois tick
/// interval (see the module doc).
pub const LATENCY: u32 = (TICK_INTERVAL.as_nanos() / QUANTUM.as_nanos()) as u32;
const _: () = assert!(TICK_INTERVAL.as_nanos().is_multiple_of(QUANTUM.as_nanos()));

/// One queued frame: `(send seq, receiver, frame)`.
type Delivery = (u64, usize, ReceivedFrame);

/// In-flight frames, with the schedule's faults and partition cut
/// applied at send time.
struct Net {
    queue: BTreeMap<u32, Vec<Delivery>>,
    faults: BTreeMap<(u32, usize, usize), FaultKind>,
    window: u32,
    /// The schedule's split/heal action, if any (window-gated like the
    /// faults).
    partition: Option<Partition>,
    /// Bit `i` set means process `i` is correct — the partition never
    /// cuts a Byzantine endpoint (the equivocator straddles the split).
    correct_mask: u64,
    seq: u64,
    jitter: u64,
    delivered: u64,
    dropped: u64,
}

/// SplitMix64 finalizer — the per-round arrival-jitter hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Net {
    fn new(s: &Schedule) -> Net {
        let mut faults = BTreeMap::new();
        for f in &s.faults {
            faults.entry((f.round, f.from, f.to)).or_insert(f.kind);
        }
        let correct_mask = (0..s.n).filter(|&id| !s.is_byz(id)).fold(0, |m, id| m | 1 << id);
        Net {
            queue: BTreeMap::new(),
            faults,
            window: s.window,
            partition: s.partition,
            correct_mask,
            seq: 0,
            jitter: mix64(s.seed ^ 0x6a09e667f3bcc908),
            delivered: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, due: u32, to: usize, frame: ReceivedFrame) {
        self.queue.entry(due).or_default().push((self.seq, to, frame));
        self.seq += 1;
    }

    /// Sends `frame` to `to` in `round`, due [`LATENCY`] later, applying
    /// the schedule's fault for this edge, or the partition's cut, if
    /// the round is inside the adversarial window.
    fn send(&mut self, round: u32, to: usize, frame: ReceivedFrame) {
        let from = frame.src;
        let in_window = round <= self.window;
        let correct = |id: usize| self.correct_mask >> id & 1 == 1;
        let cut = in_window
            && self.partition.is_some_and(|p| {
                p.active(round) && p.crosses(from, to) && correct(from) && correct(to)
            });
        let fault = self.faults.get(&(round, from, to)).copied().filter(|_| in_window);
        let kind = if cut { Some(FaultKind::Drop) } else { fault };
        let due = round + LATENCY;
        match kind {
            None => self.push(due, to, frame),
            Some(FaultKind::Drop) => self.dropped += 1,
            Some(FaultKind::Delay(by)) => self.push(due + by, to, frame),
            Some(FaultKind::Duplicate) => {
                self.push(due, to, frame.clone());
                self.push(due + 1, to, frame);
            }
        }
    }

    /// Removes and returns every delivery due at or before `round`, in
    /// seeded pseudo-random arrival order.
    ///
    /// The order is a pure function of `(schedule seed, round, send
    /// seq)` — deterministic and thread-count-independent — but NOT
    /// send order: with a fixed sender-id order every quorum snapshot
    /// contains the same low-id senders, and a Byzantine process with a
    /// low id then sits inside *every* first quorum of every phase,
    /// livelocking the lock step indefinitely. Broadcast arrival jitter
    /// (which the simulator gets from airtime) is what breaks that
    /// symmetry in practice, so the driver reproduces it here. The
    /// order is global, not per-receiver: on a broadcast medium every
    /// receiver hears the same frame at the same instant.
    fn take(&mut self, round: u32) -> Vec<Delivery> {
        let later = self.queue.split_off(&(round + 1));
        let mut due: Vec<Delivery> =
            std::mem::replace(&mut self.queue, later).into_values().flatten().collect();
        let jitter = self.jitter ^ u64::from(round) << 32;
        due.sort_by_key(|&(seq, ..)| (mix64(jitter ^ seq), seq));
        self.delivered += due.len() as u64;
        due
    }
}

/// What a schedule's processes share: key material, the link-tag pool
/// and the split-brain coalition.
struct Group {
    rings: Vec<KeyRing>,
    abba_keys: Vec<AbbaKeys>,
    link_tags: SharedLinkTags,
    coalition: SplitBrainCoalition,
}

impl Group {
    fn new(s: &Schedule) -> Group {
        let (turquois, abba) = (s.engine == EngineKind::Turquois, s.engine == EngineKind::Abba);
        // A phase per round, with margin: keys are derived on first
        // touch, so unused phases cost nothing.
        let (phases, f) = (s.max_rounds as usize + 8, s.config().f());
        Group {
            rings: if turquois { KeyRing::trusted_setup(s.n, phases, s.seed) } else { Vec::new() },
            abba_keys: if abba { AbbaKeys::trusted_setup(s.n, f, s.seed) } else { Vec::new() },
            link_tags: new_link_tags(),
            coalition: SplitBrainCoalition::default(),
        }
    }
}

/// Builds process `id` of `s`: the harness adapter, in the Byzantine
/// role its spec names if it has one.
fn node(s: &Schedule, group: &Group, id: usize) -> Box<dyn Application> {
    let (n, f, proposal) = (s.n, s.config().f(), s.proposals[id]);
    let (cost, probe) = (CostModel::default(), RunProbe::new(n));
    let seed = s.seed.wrapping_add(31 * id as u64);
    let byz = s.byz.iter().find(|b| b.id == id);
    // The baselines' equivocators lie to the receivers in the mask;
    // the flip lies to everyone.
    let lie_mask = byz.map(|b| if b.strategy == ByzStrategy::Flip { u64::MAX } else { b.mask });
    match s.engine {
        EngineKind::Turquois => {
            let ring = &group.rings[id];
            let engine = |value, seed| Turquois::new(s.config(), id, value, ring.clone(), seed);
            match byz {
                None => Box::new(TurquoisApp::new(engine(proposal, seed), cost, probe)),
                Some(b) if b.strategy == ByzStrategy::Flip => {
                    Box::new(TurquoisApp::flipping(engine(proposal, seed), ring.clone()))
                }
                Some(b) => Box::new(TurquoisApp::split_brain(
                    [engine(false, seed), engine(true, seed ^ 0xa5a5)],
                    b.mask,
                    n,
                    group.coalition.clone(),
                )),
            }
        }
        EngineKind::Bracha => {
            let (engine, tags) = (Bracha::new(n, f, id, proposal, seed), group.link_tags.clone());
            let app = BrachaApp::new(engine, n, s.seed, cost, probe, tags);
            Box::new(match lie_mask {
                None => app,
                Some(mask) => app.lying_to(mask),
            })
        }
        EngineKind::Abba => {
            let keys = group.abba_keys[id].clone();
            Box::new(match lie_mask {
                None => AbbaApp::new(Abba::new(n, f, id, proposal, keys, seed), n, cost, probe),
                Some(mask) => AbbaApp::equivocating(id, n, keys, mask),
            })
        }
    }
}

/// The processes of one run and everything in flight between them.
struct World<'s> {
    s: &'s Schedule,
    nodes: Vec<Box<dyn Application>>,
    rngs: Vec<StdRng>,
    net: Net,
    /// `(due round, node, timer id)`.
    timers: BinaryHeap<Reverse<(u32, usize, u64)>>,
    decisions: Vec<Option<bool>>,
}

impl<'s> World<'s> {
    fn new(s: &'s Schedule, nodes: Vec<Box<dyn Application>>) -> Self {
        let rngs = (0..s.n).map(|id| StdRng::seed_from_u64(s.seed ^ id as u64)).collect();
        let (net, timers, decisions) = (Net::new(s), BinaryHeap::new(), vec![None; s.n]);
        World { s, nodes, rngs, net, timers, decisions }
    }

    /// Runs one callback of node `id` in `round` and applies what it
    /// drained; the CPU it charged is dropped, as in the live runtime.
    fn call(&mut self, round: u32, id: usize, f: impl FnOnce(&mut dyn Application, &mut NodeCtx<'_>)) {
        let mut ctx = NodeCtx::new(id, SimTime::ZERO + QUANTUM * round, &mut self.rngs[id], Vec::new());
        f(self.nodes[id].as_mut(), &mut ctx);
        for command in ctx.finish().1 {
            match command {
                Command::Broadcast { payload, .. } => {
                    let frame = ReceivedFrame { src: id, addressing: Addressing::Broadcast, payload };
                    for to in 0..self.s.n {
                        self.net.send(round, to, frame.clone());
                    }
                }
                Command::Unicast { dst, payload, .. } => {
                    let frame = ReceivedFrame { src: id, addressing: Addressing::Unicast(dst), payload };
                    self.net.send(round, dst, frame);
                }
                Command::SetTimer { delay, id: timer } => {
                    let due = round + (delay.as_nanos().div_ceil(QUANTUM.as_nanos()) as u32).max(1);
                    self.timers.push(Reverse((due, id, timer)));
                }
                Command::Decide { value } => {
                    assert!(!self.s.is_byz(id), "Byzantine p{id} decided: adversaries never decide");
                    self.decisions[id].get_or_insert(value);
                }
            }
        }
    }
}

/// Runs one schedule to completion and checks its properties.
///
/// # Panics
///
/// Panics on malformed schedules (`n` outside `1..=64`, more than
/// `⌊(n−1)/3⌋` or repeated Byzantine ids, ids or fault endpoints out of
/// range, `proposals.len() != n`) — the generator and the replay parser
/// both uphold these, so a panic here means a driver bug, and the
/// explorer wants it loud. So does a Byzantine node that decides.
pub fn run_schedule(s: &Schedule) -> RunReport {
    assert!((1..=64).contains(&s.n), "n = {} outside 1..=64 (masks are 64-bit)", s.n);
    assert_eq!(s.proposals.len(), s.n, "proposals must cover every process");
    let group = Group::new(s);
    let mut world = World::new(s, (0..s.n).map(|id| node(s, &group, id)).collect());
    let mut rounds_used = s.max_rounds;
    for round in 1..=s.max_rounds {
        if round == 1 {
            (0..s.n).for_each(|id| world.call(round, id, |app, ctx| app.on_start(ctx)));
        }
        while let Some(&Reverse((due, id, timer))) = world.timers.peek() {
            if due > round {
                break;
            }
            world.timers.pop();
            world.call(round, id, |app, ctx| app.on_timer(ctx, timer));
        }
        for (_, to, frame) in world.net.take(round) {
            world.call(round, to, |app, ctx| app.on_frame(ctx, frame));
        }
        // Done, or quiescent: nothing in flight and no timer armed, so
        // nothing will ever change again.
        let decided = (0..s.n).all(|id| s.is_byz(id) || world.decisions[id].is_some());
        if decided || world.net.queue.is_empty() && world.timers.is_empty() {
            rounds_used = round;
            break;
        }
    }

    // Engine-consistency invariant: a Decided broadcast status always
    // comes with the write-once decision set. (The converse does not
    // hold — Rule 1 catch-up copies the sender's status, so a decided
    // process chasing an undecided sender's higher phase legitimately
    // reverts its *broadcast* status while keeping its decision.)
    for (id, app) in world.nodes.iter().enumerate().filter(|&(id, _)| !s.is_byz(id)) {
        if let Some(app) = app.as_any().and_then(|a| a.downcast_ref::<TurquoisApp>()) {
            let p = app.instance();
            let consistent = p.status() != Status::Decided || p.decision().is_some();
            assert!(consistent, "p{id} has Decided status but no decision");
        }
    }
    finish(s, &world, rounds_used)
}

// ---- property checks -------------------------------------------------

fn finish(s: &Schedule, world: &World<'_>, rounds_used: u32) -> RunReport {
    let decisions = &world.decisions;
    let eligible = s.within_sigma_budget();
    let correct: Vec<usize> = (0..s.n).filter(|&id| !s.is_byz(id)).collect();
    let decided: Vec<(usize, bool)> = correct
        .iter()
        .filter_map(|&id| decisions[id].map(|d| (id, d)))
        .collect();

    // Agreement: every pair of correct decisions matches.
    let mut violation = None;
    if let Some(&first) = decided.first() {
        if let Some(&other) = decided.iter().find(|&&(_, d)| d != first.1) {
            violation = Some(Violation::Agreement { a: first, b: other });
        }
    }

    // Validity: unanimous correct proposals force the decision — unless
    // the adversary legitimately injected the other value into the
    // protocol. That out exists only for ABBA, whose round-1 pre-votes
    // carry no justification: a Byzantine party can sign the opposite
    // value (the one its mask shows a correct receiver), push every
    // correct party to a mixed pre-vote set and thus an abstain
    // main-vote, and let the shared coin land on the injected value.
    // That execution is correct CKS behaviour (pre-voted values are all
    // "justified" in round 1), so flagging it would indict the spec, not
    // the code.
    if violation.is_none() {
        let props: Vec<bool> = correct.iter().map(|&id| s.proposals[id]).collect();
        let injected = |value: bool| {
            s.engine == EngineKind::Abba
                && s.byz.iter().any(|b| {
                    let mask = if b.strategy == ByzStrategy::Flip { u64::MAX } else { b.mask };
                    correct.iter().any(|&to| (mask >> to & 1 == 1) == value)
                })
        };
        if let Some(&unanimous) = props.first() {
            if props.iter().all(|&p| p == unanimous) && !injected(!unanimous) {
                if let Some(&(id, _)) = decided.iter().find(|&&(_, d)| d != unanimous) {
                    violation = Some(Violation::Validity {
                        proposal: unanimous,
                        id,
                    });
                }
            }
        }
    }

    // Liveness: within the omission budget every correct process must
    // decide. A partition voids the budget for every engine (its heal
    // may sit past `max_rounds`, and pre-heal no-decision is the
    // *expected* outcome for a sub-quorum side; the partition fixtures
    // assert decision explicitly on healed runs instead).
    if violation.is_none() && eligible {
        let undecided: Vec<usize> = correct
            .iter()
            .copied()
            .filter(|&id| decisions[id].is_none())
            .collect();
        if !undecided.is_empty() {
            let detail = undecided
                .iter()
                .map(|&id| match world.nodes[id].progress() {
                    Some(p) => format!("p{id} phase={}", p.phase),
                    None => format!("p{id}"),
                })
                .collect::<Vec<_>>()
                .join(", ");
            violation = Some(Violation::Liveness { undecided, detail });
        }
    }

    RunReport {
        decisions: decisions.clone(),
        rounds_used,
        delivered: world.net.delivered,
        dropped: world.net.dropped,
        eligible,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ByzSpec, Fault};

    fn base(engine: EngineKind, n: usize) -> Schedule {
        Schedule {
            engine,
            n,
            seed: 42,
            proposals: vec![true; n],
            byz: Vec::new(),
            window: 6,
            max_rounds: 66,
            faults: Vec::new(),
            partition: None,
        }
    }

    #[test]
    fn faultless_unanimous_runs_decide_cleanly() {
        for engine in [EngineKind::Turquois, EngineKind::Bracha, EngineKind::Abba] {
            let s = base(engine, 4);
            let r = run_schedule(&s);
            assert_eq!(r.violation, None, "{}: {:?}", engine.name(), r.violation);
            assert!(r.decisions.iter().all(|d| *d == Some(true)), "{engine:?}");
        }
    }

    #[test]
    fn split_brain_byzantine_cannot_break_safety() {
        for engine in [EngineKind::Turquois, EngineKind::Bracha, EngineKind::Abba] {
            let mut s = base(engine, 4);
            s.byz = vec![ByzSpec {
                id: 3,
                mask: 0b0011,
                strategy: ByzStrategy::SplitBrain,
            }];
            let r = run_schedule(&s);
            assert_eq!(r.violation, None, "{}: {:?}", engine.name(), r.violation);
        }
    }

    #[test]
    fn drops_inside_window_do_not_break_turquois() {
        let mut s = base(EngineKind::Turquois, 4);
        s.proposals = vec![true, false, true, false];
        for round in 1..=s.window {
            s.faults.push(Fault {
                round,
                from: 0,
                to: 1,
                kind: FaultKind::Drop,
            });
            s.faults.push(Fault {
                round,
                from: 2,
                to: 3,
                kind: FaultKind::Delay(2),
            });
        }
        let r = run_schedule(&s);
        assert_eq!(r.violation, None, "{:?}", r.violation);
        assert!(r.dropped > 0);
    }

    #[test]
    fn duplicates_are_harmless() {
        let mut s = base(EngineKind::Bracha, 4);
        for round in 1..=s.window {
            for from in 0..4 {
                s.faults.push(Fault {
                    round,
                    from,
                    to: (from + 1) % 4,
                    kind: FaultKind::Duplicate,
                });
            }
        }
        let r = run_schedule(&s);
        assert_eq!(r.violation, None, "{:?}", r.violation);
    }

    /// A correct Turquois node broadcasts in the very callback whose
    /// frame advances its phase, and not in the callbacks before it.
    #[test]
    fn turquois_broadcasts_in_the_callback_its_phase_advances() {
        let s = base(EngineKind::Turquois, 4);
        let group = Group::new(&s);
        let mut world = World::new(&s, (0..4).map(|id| node(&s, &group, id)).collect());
        (0..4).for_each(|id| world.call(1, id, |app, ctx| app.on_start(ctx)));
        let mut phase1 = world.net.take(1 + LATENCY);
        phase1.retain(|&(_, to, _)| to == 0);
        assert_eq!(phase1.len(), 4, "every node broadcasts on start");
        let mut advanced = false;
        for (_, _, frame) in phase1 {
            let phase = |world: &World<'_>| world.nodes[0].progress().expect("progress").phase;
            let (before, sent) = (phase(&world), world.net.seq);
            world.call(3, 0, |app, ctx| app.on_frame(ctx, frame));
            let now_advanced = phase(&world) > before;
            assert_eq!(world.net.seq > sent, now_advanced, "broadcast iff the phase advanced");
            advanced |= now_advanced;
        }
        assert!(advanced, "a phase-1 quorum advances p0");
    }

    /// The baselines face in-window drops of correct→correct frames and
    /// decide anyway: their transport retransmits after the window.
    #[test]
    fn baselines_recover_in_window_drops() {
        for engine in [EngineKind::Bracha, EngineKind::Abba] {
            let mut s = base(engine, 4);
            s.max_rounds = 300;
            s.proposals = vec![true, false, true, false];
            for round in 1..=s.window {
                for (from, to) in [(0, 1), (2, 3), (1, 0)] {
                    s.faults.push(Fault { round, from, to, kind: FaultKind::Drop });
                }
            }
            assert!(s.within_sigma_budget(), "{}: eligible", engine.name());
            let r = run_schedule(&s);
            assert_eq!(r.violation, None, "{}: {:?}", engine.name(), r.violation);
            assert!(r.dropped > 0, "{}: nothing dropped", engine.name());
            assert!(r.decisions.iter().all(Option::is_some), "{}: {:?}", engine.name(), r.decisions);
        }
    }

    /// An adversary that decides breaks the contract the decision count
    /// rests on; the loop refuses it loudly.
    #[test]
    #[should_panic(expected = "adversaries never decide")]
    fn a_deciding_byzantine_node_panics() {
        struct Decides;
        impl Application for Decides {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.decide(true);
            }
            fn on_frame(&mut self, _: &mut NodeCtx<'_>, _: ReceivedFrame) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, _: u64) {}
        }
        let mut s = base(EngineKind::Turquois, 4);
        s.byz = vec![ByzSpec { id: 3, mask: 0, strategy: ByzStrategy::Flip }];
        let mut world = World::new(&s, (0..4).map(|_| Box::new(Decides) as _).collect());
        (0..4).for_each(|id| world.call(1, id, |app, ctx| app.on_start(ctx)));
    }

    #[test]
    fn runs_are_deterministic() {
        let mut s = base(EngineKind::Turquois, 7);
        s.proposals = (0..7).map(|i| i % 2 == 0).collect();
        s.byz = vec![ByzSpec {
            id: 6,
            mask: 0b0101010,
            strategy: ByzStrategy::SplitBrain,
        }];
        assert_eq!(run_schedule(&s), run_schedule(&s));
    }
}
