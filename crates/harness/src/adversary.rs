//! Byzantine attack strategies from the paper's evaluation (§7.2).
//!
//! * **Turquois / Bracha** — the value-flipping strategy: "a Byzantine
//!   process in phase 1 and 2 proposes the opposite value that it would
//!   propose if it were behaving correctly, and in phase 3 it proposes
//!   the default value ⊥. This strategy is followed even if messages are
//!   potentially considered invalid."
//! * **ABBA** — "a Byzantine process … transmits messages with invalid
//!   signatures and justifications in order to force extra computations
//!   at the correct processes."
//!
//! The schedule explorer adds two equivocators, which show each
//! receiver the side its bit of a per-receiver mask selects: the
//! split-brain Turquois process ([`SplitBrainTurquoisApp`]) and ABBA's
//! round-1 signed pre-vote equivocator ([`AbbaEquivocatorApp`]); its
//! Bracha equivocator is [`byzantine_bracha_app`] restricted with
//! [`BrachaApp::lying_to`].
//!
//! Each adversary tracks the protocol honestly on the inside (so its
//! lies stay phase-fresh) but corrupts what leaves the node. Adversaries
//! never call `decide`, so the simulator's decision count only reflects
//! correct processes.

use crate::adapters::{
    pad_to, BrachaApp, FrameMutation, SharedLinkTags, SharedProbe, TICK_INTERVAL,
};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;
use turquois_baselines::abba::{round1_prevote, AbbaKeys};
use turquois_baselines::bracha::Bracha;
use turquois_baselines::rbc::RbcMessage;
use turquois_core::instance::Turquois;
use turquois_core::message::{Message, Status};
use turquois_core::state::PhaseKind;
use turquois_core::KeyRing;
use turquois_crypto::cost::CostModel;
use turquois_crypto::otss::Value;
use turquois_crypto::sha256::sha256_concat;
use turquois_crypto::threshold::{CoinShare, SigShare};
use wireless_net::config::overhead;
use wireless_net::frame::ReceivedFrame;
use wireless_net::reliable::ReliableEndpoint;
use wireless_net::sim::{Application, NodeCtx};

/// The Turquois value-flipping adversary.
///
/// Runs a genuine instance internally to follow the protocol's phase
/// structure, but every broadcast carries the lie: flipped value in
/// CONVERGE and LOCK phases, `⊥` in DECIDE phases — signed with its own
/// (legitimate) one-time keys, exactly what a compromised node could do.
pub struct ByzantineTurquoisApp {
    tracker: Turquois,
    keyring: KeyRing,
    generation: u64,
    tick: Duration,
}

impl ByzantineTurquoisApp {
    /// Creates the adversary for the process owning `keyring`.
    pub fn new(tracker: Turquois, keyring: KeyRing) -> Self {
        ByzantineTurquoisApp {
            tracker,
            keyring,
            generation: 0,
            tick: TICK_INTERVAL,
        }
    }

    /// Overrides the clock-tick interval (paper default: 10 ms) — the
    /// adversary must tick at the same rate as the correct processes it
    /// hides among (scale grid, tick ablation).
    pub fn tick_interval(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    fn lie(&self) -> Option<Message> {
        turquois_lie(
            self.tracker.phase(),
            self.tracker.value(),
            self.tracker.id(),
            &self.keyring,
        )
    }

    fn broadcast_lie(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(msg) = self.lie() {
            ctx.broadcast(msg.encode(), overhead::UDP);
        }
        self.generation += 1;
        ctx.set_timer(self.tick, self.generation);
    }
}

impl Application for ByzantineTurquoisApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.broadcast_lie(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        if timer == self.generation {
            self.broadcast_lie(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let receipt = self.tracker.on_message(&frame.payload);
        if receipt.phase_advanced {
            self.broadcast_lie(ctx);
        }
        // Never decides.
    }

    fn progress(&self) -> Option<wireless_net::supervise::AppProgress> {
        Some(wireless_net::supervise::AppProgress {
            phase: self.tracker.phase(),
            decided: false, // a Byzantine node never counts as decided
            store_bytes: self.tracker.store_bytes(),
        })
    }
}

/// The split-brain coalition's out-of-band channel: per member, the
/// both-brain broadcasts of the coalition (its own included) it has not
/// absorbed yet. Colluding equivocators share what both their brains
/// said, so every member's brains keep pace with their side of the
/// split; with only the mask-selected copy a coalition of t ≥ 2
/// starves its own brains below quorum and the whole equivocation
/// stalls at phase 1 — a weaker adversary than the paper allows.
pub type SplitBrainCoalition = Rc<RefCell<BTreeMap<usize, Vec<[Bytes; 2]>>>>;

/// The split-brain Turquois equivocator: two honest brains with
/// opposite proposals. Each receiver outside the coalition gets, as a
/// unicast, the broadcast of the brain its bit of `mask` selects, and
/// each brain hears only the senders on its side of the mask. It ticks
/// by the rule correct processes follow (every tick interval, and at
/// once when a brain's phase advances) and never decides.
pub struct SplitBrainTurquoisApp {
    /// `brains[0]` serves the receivers whose mask bit is set.
    brains: [Turquois; 2],
    mask: u64,
    n: usize,
    coalition: SplitBrainCoalition,
    generation: u64,
}

impl SplitBrainTurquoisApp {
    /// Creates the equivocator from two brains of the same process
    /// (`brains[0]` for the receivers whose bit of `mask` is set) in a
    /// group of `n ≤ 64`, joining `coalition`, the one channel shared
    /// by every split-brain process of the run.
    pub fn new(brains: [Turquois; 2], mask: u64, n: usize, coalition: SplitBrainCoalition) -> Self {
        coalition.borrow_mut().insert(brains[0].id(), Vec::new());
        SplitBrainTurquoisApp { brains, mask, n, coalition, generation: 0 }
    }

    /// The brain that serves (and hears) `peer`.
    fn side(&self, peer: usize) -> usize {
        usize::from(self.mask >> peer & 1 == 0)
    }

    fn broadcast(&mut self, ctx: &mut NodeCtx<'_>) {
        let [Ok(a), Ok(b)] = self.brains.each_mut().map(Turquois::on_tick) else {
            return; // keys exhausted: fall silent
        };
        let out = [a.bytes, b.bytes];
        let mut coalition = self.coalition.borrow_mut();
        for dst in (0..self.n).filter(|dst| !coalition.contains_key(dst)) {
            ctx.unicast(dst, out[self.side(dst)].clone(), overhead::UDP);
        }
        coalition.values_mut().for_each(|inbox| inbox.push(out.clone()));
        self.generation += 1;
        ctx.set_timer(TICK_INTERVAL, self.generation);
    }

    /// Feeds the coalition's broadcasts to the matching brains, ticking
    /// whenever that advances a phase, until the inbox stays empty.
    fn absorb(&mut self, ctx: &mut NodeCtx<'_>) {
        let me = self.brains[0].id();
        loop {
            let inbox = std::mem::take(self.coalition.borrow_mut().get_mut(&me).expect("member"));
            if inbox.is_empty() {
                return;
            }
            let mut advanced = false;
            for pair in inbox {
                for (brain, bytes) in self.brains.iter_mut().zip(&pair) {
                    advanced |= brain.on_message(bytes).phase_advanced;
                }
            }
            if advanced {
                self.broadcast(ctx);
            }
        }
    }
}

impl Application for SplitBrainTurquoisApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.broadcast(ctx);
        self.absorb(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        if timer == self.generation {
            self.broadcast(ctx);
        }
        self.absorb(ctx);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let side = self.side(frame.src);
        if self.brains[side].on_message(&frame.payload).phase_advanced {
            self.broadcast(ctx);
        }
        self.absorb(ctx);
    }
}

/// Builds the paper's §7.2 Turquois lie for a process tracking phase
/// `phase` with honest value `value`: the flipped value in CONVERGE and
/// LOCK phases, `⊥` in DECIDE phases, signed with the liar's legitimate
/// one-time keys. Returns `None` once the keys no longer cover `phase`.
///
/// [`ByzantineTurquoisApp`] broadcasts it, in the simulator and in the
/// `turquois-check` schedule explorer alike; as a pure function it lets
/// a test build the lie without running the app.
pub fn turquois_lie(
    phase: u32,
    value: Value,
    sender: usize,
    keyring: &KeyRing,
) -> Option<Message> {
    let lie_value = match PhaseKind::of(phase) {
        PhaseKind::Converge | PhaseKind::Lock => match value {
            Value::Bot => Value::One, // an honest tracker holds ⊥ only transiently
            v => v.flipped(),
        },
        PhaseKind::Decide => Value::Bot,
    };
    let signature = keyring.sign(phase, lie_value).ok()?;
    Some(Message::bare(
        turquois_core::Envelope {
            sender,
            phase,
            value: lie_value,
            coin_flip: false,
            status: Status::Undecided,
        },
        signature,
    ))
}

/// Builds the Bracha value-flipping adversary: a [`BrachaApp`] whose
/// own reliable-broadcast *initials* are corrupted (steps 1–2 flipped,
/// step 3 forced to ⊥); echoes and readies for other processes pass
/// through unmodified.
pub fn byzantine_bracha_app(
    engine: Bracha,
    n: usize,
    seed: u64,
    cost: CostModel,
    probe: SharedProbe,
    link_tags: SharedLinkTags,
) -> BrachaApp {
    let me = engine.id();
    BrachaApp::new(engine, n, seed, cost, probe, link_tags)
        .with_mutation(bracha_flip_mutation(me))
}

/// The raw value-flipping mutation applied to a Byzantine Bracha node's
/// outgoing messages (exposed for tests and custom fault loads).
pub fn bracha_flip_mutation(me: usize) -> FrameMutation {
    Box::new(move |bytes| {
        let Some(msg) = RbcMessage::decode(bytes) else {
            return Bytes::copy_from_slice(bytes);
        };
        if let RbcMessage::Initial { tag, payload } = &msg {
            if tag.origin == me && payload.len() == 1 {
                let lie = match (tag.step, payload[0]) {
                    (1 | 2, 0) => 1u8,
                    (1 | 2, 1) => 0u8,
                    (3, _) => 2u8, // ⊥
                    (_, v) => v,
                };
                return RbcMessage::Initial {
                    tag: *tag,
                    payload: Bytes::copy_from_slice(&[lie]),
                }
                .encode();
            }
        }
        Bytes::copy_from_slice(bytes)
    })
}

/// Builds one salvo of the paper's ABBA attack messages for party `me`:
/// a pre-vote and a main-vote for `round` that decode fine but whose
/// shares and justifications are garbage, forcing verification work at
/// every receiver. Returns `(encoded message, RSA-equivalent wire size)`
/// pairs; adversaries pad each message to its RSA size.
pub fn abba_garbage_votes(me: usize, round: u32, salvo: usize) -> Vec<(Bytes, usize)> {
    let junk =
        |label: &str| sha256_concat(&[label.as_bytes(), &round.to_be_bytes(), &[salvo as u8]]);
    let share = SigShare {
        party: me,
        tag: junk("share"),
    };
    let coin_share = CoinShare {
        party: me,
        tag: junk("coin"),
    };
    let prevote = turquois_baselines::abba::AbbaMessage::PreVote {
        round,
        value: salvo.is_multiple_of(2),
        share,
        just: turquois_baselines::abba::PreVoteJust::Hard(
            turquois_crypto::threshold::ThresholdSignature { tag: junk("sig") },
        ),
    };
    let mainvote = turquois_baselines::abba::AbbaMessage::MainVote {
        round,
        value: turquois_baselines::abba::MainVoteValue::One,
        share,
        coin_share,
        just: turquois_baselines::abba::MainVoteJust::ForValue(
            turquois_crypto::threshold::ThresholdSignature { tag: junk("sig2") },
        ),
    };
    vec![
        (prevote.encode(), prevote.rsa_equivalent_size()),
        (mainvote.encode(), mainvote.rsa_equivalent_size()),
    ]
}

/// The ABBA invalid-signature adversary: floods every round it observes
/// with RSA-sized messages whose shares and justifications are garbage,
/// forcing correct processes to burn verification time before
/// discarding.
pub struct ByzantineAbbaApp {
    me: usize,
    n: usize,
    transport: ReliableEndpoint,
    released: Vec<(usize, Bytes)>,
    rounds_hit: BTreeSet<u32>,
    salvos_per_round: usize,
}

impl ByzantineAbbaApp {
    /// Creates the adversary.
    pub fn new(me: usize, n: usize) -> Self {
        ByzantineAbbaApp {
            me,
            n,
            transport: ReliableEndpoint::new(me, n),
            released: Vec::new(),
            rounds_hit: BTreeSet::new(),
            salvos_per_round: 2,
        }
    }

    fn bogus_for_round(&self, round: u32, salvo: usize) -> Vec<Bytes> {
        abba_garbage_votes(self.me, round, salvo)
            .into_iter()
            .map(|(bytes, rsa_size)| pad_to(&bytes, rsa_size + 4))
            .collect()
    }

    fn attack_round(&mut self, ctx: &mut NodeCtx<'_>, round: u32) {
        if !self.rounds_hit.insert(round) {
            return;
        }
        for salvo in 0..self.salvos_per_round {
            for bytes in self.bogus_for_round(round, salvo) {
                for dst in 0..self.n {
                    if dst != self.me {
                        self.transport.send(ctx, dst, bytes.clone());
                    }
                }
            }
        }
    }
}

impl Application for ByzantineAbbaApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.attack_round(ctx, 1);
        // Periodic re-scan in case traffic reveals later rounds slowly.
        ctx.set_timer(Duration::from_millis(20), 1);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        self.transport.on_frame(ctx, &frame, &mut self.released);
        let mut rounds = Vec::new();
        for (_peer, padded) in &self.released {
            if let Some(inner) = crate::adapters::unpad(padded) {
                if let Some(msg) = turquois_baselines::abba::AbbaMessage::decode(inner) {
                    let round = match msg {
                        turquois_baselines::abba::AbbaMessage::PreVote { round, .. }
                        | turquois_baselines::abba::AbbaMessage::MainVote { round, .. } => round,
                    };
                    rounds.push(round);
                    rounds.push(round + 1);
                }
            }
        }
        for round in rounds {
            self.attack_round(ctx, round);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        if timer == 1 {
            ctx.set_timer(Duration::from_millis(20), 1);
            return;
        }
        let _ = self.transport.on_timer(ctx, timer);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: usize, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }
}

/// ABBA's round-1 signed equivocator: sends every other party a
/// correctly signed round-1 pre-vote for the value its bit of `mask`
/// selects (round-1 pre-votes need no justification), then one salvo of
/// [`abba_garbage_votes`], over the reliable transport and padded to
/// RSA size like every ABBA message; after that it only acknowledges.
pub struct AbbaEquivocatorApp {
    me: usize,
    n: usize,
    keys: AbbaKeys,
    mask: u64,
    transport: ReliableEndpoint,
    released: Vec<(usize, Bytes)>,
}

impl AbbaEquivocatorApp {
    /// Creates the equivocator for party `me` (holding `keys`) in a
    /// group of `n ≤ 64`.
    pub fn new(me: usize, n: usize, keys: AbbaKeys, mask: u64) -> Self {
        let transport = ReliableEndpoint::new(me, n);
        AbbaEquivocatorApp { me, n, keys, mask, transport, released: Vec::new() }
    }
}

impl Application for AbbaEquivocatorApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let prevotes = [false, true].map(|value| {
            let vote = round1_prevote(&self.keys, value);
            pad_to(&vote.encode(), vote.rsa_equivalent_size() + 4)
        });
        let garbage = abba_garbage_votes(self.me, 1, 0);
        for dst in (0..self.n).filter(|&dst| dst != self.me) {
            self.transport.send(ctx, dst, prevotes[(self.mask >> dst & 1) as usize].clone());
            for (bytes, rsa_size) in &garbage {
                self.transport.send(ctx, dst, pad_to(bytes, rsa_size + 4));
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        self.transport.on_frame(ctx, &frame, &mut self.released);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let _ = self.transport.on_timer(ctx, timer);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: usize, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turquois_core::Config;

    #[test]
    fn turquois_lie_shape() {
        let cfg = Config::evaluation(4).expect("valid");
        let rings = KeyRing::trusted_setup(4, 30, 5);
        let mut rings: Vec<KeyRing> = rings;
        let ring3 = rings.pop().expect("4 rings");
        let tracker = Turquois::new(cfg, 3, true, ring3.clone(), 99);
        let adv = ByzantineTurquoisApp::new(tracker, ring3);
        // Phase 1 (CONVERGE), proposal true → lie is Zero.
        let lie = adv.lie().expect("keys cover phase 1");
        assert_eq!(lie.envelope.value, Value::Zero);
        assert_eq!(lie.envelope.phase, 1);
        assert_eq!(lie.envelope.status, Status::Undecided);
        // The lie is genuinely signed: any peer's keyring accepts it.
        assert!(rings[0].verify(&lie.envelope, &lie.signature));
    }

    /// `ByzantineTurquoisApp` carries its own copy of the §7.1 tick
    /// rule (a generation counter, a re-arm, a tick on phase advance).
    /// Fed the same frames at the same instants as a `TurquoisApp` of
    /// the same process, it broadcasts and arms the same timers at the
    /// same callbacks until the keys run out; only the payloads differ.
    #[test]
    fn byzantine_turquois_ticks_like_the_correct_app() {
        use crate::adapters::{RunProbe, TurquoisApp};
        use rand::SeedableRng;
        use std::collections::BTreeMap;
        use wireless_net::frame::Addressing;
        use wireless_net::sim::Command;
        use wireless_net::time::SimTime;

        const KEY_PHASES: usize = 12;
        let (n, cfg) = (4, Config::evaluation(4).expect("valid"));
        let rings = KeyRing::trusted_setup(n, KEY_PHASES, 3);
        let engine = |id: usize| Turquois::new(cfg, id, id != 1, rings[id].clone(), id as u64);
        let correct_app = |id| TurquoisApp::new(engine(id), CostModel::default(), RunProbe::new(n));
        // Processes 0–2 are a quorum on their own; process 3 runs twice,
        // correct and Byzantine, on the frames 0–2 send. Its own
        // broadcasts go nowhere, so both twins hear the same thing.
        let mut group: Vec<TurquoisApp> = (0..3).map(correct_app).collect();
        let mut twins = (correct_app(3), ByzantineTurquoisApp::new(engine(3), rings[3].clone()));

        enum Event {
            Start,
            Timer(u64),
            Frame(usize, Bytes),
        }
        // (at, seq) → (node, event); node 3 is the twin pair.
        let mut queue = BTreeMap::new();
        let mut seq = 0u64;
        let mut push = |queue: &mut BTreeMap<_, _>, at: SimTime, node: usize, event| {
            seq += 1;
            queue.insert((at, seq), (node, event));
        };
        for node in 0..4 {
            push(&mut queue, SimTime::from_micros(100 * node as u64), node, Event::Start);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        // Callbacks compared: frames that ticked (a phase advance),
        // timers that ticked, and timers a later tick made stale.
        let (mut advances, mut timer_ticks, mut stale) = (0, 0, 0);
        while let Some(((now, _), (node, event))) = queue.pop_first() {
            let mut run = |app: &mut dyn Application| {
                let mut ctx = NodeCtx::new(node, now, &mut rng, Vec::new());
                match &event {
                    Event::Start => app.on_start(&mut ctx),
                    Event::Timer(id) => app.on_timer(&mut ctx, *id),
                    Event::Frame(src, payload) => {
                        let frame = ReceivedFrame {
                            src: *src,
                            addressing: Addressing::Broadcast,
                            payload: payload.clone(),
                        };
                        app.on_frame(&mut ctx, frame);
                    }
                }
                ctx.finish().1
            };
            if node < 3 {
                for command in run(&mut group[node]) {
                    match command {
                        Command::Broadcast { payload, .. } => {
                            // Uneven latencies: a quorum forms slower
                            // than the tick interval, so timers fire too.
                            let at = now + Duration::from_millis(2 + 6 * node as u64);
                            for dst in 0..4 {
                                push(&mut queue, at, dst, Event::Frame(node, payload.clone()));
                            }
                        }
                        Command::SetTimer { delay, id } => {
                            push(&mut queue, now + delay, node, Event::Timer(id))
                        }
                        _ => {}
                    }
                }
                continue;
            }
            // What the tick rule decides: when to broadcast, which timers.
            let ticks_of = |commands: Vec<Command>| -> Vec<Option<(Duration, u64)>> {
                commands
                    .into_iter()
                    .filter_map(|command| match command {
                        Command::Broadcast { .. } => Some(None),
                        Command::SetTimer { delay, id } => Some(Some((delay, id))),
                        _ => None,
                    })
                    .collect()
            };
            let (honest, liar) = (ticks_of(run(&mut twins.0)), ticks_of(run(&mut twins.1)));
            if twins.0.instance().phase() as usize > KEY_PHASES {
                break; // the correct twin's keys ran out: it falls silent
            }
            assert_eq!(honest, liar, "tick rules diverged at {now:?}");
            match (&event, honest.is_empty()) {
                (Event::Frame(..), false) => advances += 1,
                (Event::Timer(_), false) => timer_ticks += 1,
                (Event::Timer(_), true) => stale += 1,
                _ => {}
            }
            for (delay, id) in honest.into_iter().flatten() {
                push(&mut queue, now + delay, 3, Event::Timer(id));
            }
        }
        assert!(twins.0.instance().phase() as usize > KEY_PHASES, "the run outlived the keys");
        assert!(
            advances >= KEY_PHASES - 1 && timer_ticks >= KEY_PHASES - 1 && stale > 0,
            "{advances} advances, {timer_ticks} timer ticks, {stale} stale timers"
        );
    }

    #[test]
    fn bracha_mutation_flips_initials_only() {
        use turquois_baselines::rbc::Tag;
        let own_initial = RbcMessage::Initial {
            tag: Tag {
                origin: 3,
                round: 1,
                step: 1,
            },
            payload: Bytes::copy_from_slice(&[1]),
        };
        let echo = RbcMessage::Echo {
            tag: Tag {
                origin: 0,
                round: 1,
                step: 1,
            },
            payload: Bytes::copy_from_slice(&[1]),
        };
        let mut mutate = bracha_flip_mutation(3);
        let mutated = mutate(&own_initial.encode());
        match RbcMessage::decode(&mutated).expect("valid") {
            RbcMessage::Initial { payload, .. } => assert_eq!(&payload[..], &[0]),
            other => panic!("unexpected {other:?}"),
        }
        let untouched = mutate(&echo.encode());
        assert_eq!(&untouched[..], &echo.encode()[..]);
        let step3 = RbcMessage::Initial {
            tag: Tag {
                origin: 3,
                round: 1,
                step: 3,
            },
            payload: Bytes::copy_from_slice(&[1]),
        };
        match RbcMessage::decode(&mutate(&step3.encode())).expect("valid") {
            RbcMessage::Initial { payload, .. } => assert_eq!(&payload[..], &[2], "⊥ at step 3"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn abba_bogus_messages_decode_but_fail_verification() {
        let adv = ByzantineAbbaApp::new(3, 4);
        let msgs = adv.bogus_for_round(1, 0);
        assert_eq!(msgs.len(), 2);
        for padded in msgs {
            let inner = crate::adapters::unpad(&padded).expect("padded frame");
            let msg = turquois_baselines::abba::AbbaMessage::decode(inner)
                .expect("decodes fine — the signatures are the garbage part");
            // RSA-equivalent padding was applied.
            assert!(padded.len() >= msg.rsa_equivalent_size());
        }
    }
}
