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
//! The Turquois and Bracha adversaries are roles of the shipped apps,
//! so they tick and retransmit exactly as correct processes do:
//! `TurquoisApp::flipping` broadcasts `turquois_lie`, and
//! `TurquoisApp::split_brain` equivocates through a [`SplitBrain`];
//! `BrachaApp::lying_to` sends
//! `bracha_lie` to the destinations in its mask (all of them for the
//! flip, some for the explorer's equivocator). ABBA's attackers are
//! roles of the [`AbbaApp`] and run no engine: `AbbaApp::flooding`
//! floods `abba_garbage_votes`, and `AbbaApp::equivocating` splits
//! the round-1 pre-votes. [`crate::group`] names these behaviours
//! ([`Role`](crate::group::Role)) and builds every process in its role.
//! This module holds what the roles send and hosts no application of
//! its own. No adversary decides, charges a Turquois or ABBA node's
//! simulated CPU or touches the [`RunProbe`](crate::adapters::RunProbe).

use crate::adapters::{AbbaApp, TurquoisApp};
pub use crate::group::byzantine_bracha_app;
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use turquois_baselines::rbc::RbcMessage;
use turquois_core::instance::Turquois;
use turquois_core::message::{Message, Status};
use turquois_core::state::PhaseKind;
use turquois_core::KeyRing;
use turquois_crypto::otss::Value;
use turquois_crypto::sha256::sha256_concat;
use turquois_crypto::threshold::{CoinShare, SigShare};
use wireless_net::config::overhead;
use wireless_net::sim::NodeCtx;

/// The name `benchmark/` builds the Turquois flip under; kept until
/// ROADMAP item 1 moves it to `TurquoisApp::flipping`.
pub struct ByzantineTurquoisApp;

impl ByzantineTurquoisApp {
    /// `TurquoisApp::flipping` under its old name.
    // The old constructor's name, kept for `benchmark/`: what it builds
    // is a `TurquoisApp` in the flipping role.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(tracker: Turquois, keyring: KeyRing) -> TurquoisApp {
        TurquoisApp::flipping(tracker, keyring)
    }
}

/// The split-brain coalition's out-of-band channel: per member, the
/// both-brain broadcasts of the coalition (its own included) it has not
/// absorbed yet. Colluding equivocators share what both their brains
/// said, so every member's brains keep pace with their side of the
/// split; with only the mask-selected copy a coalition of t ≥ 2
/// starves its own brains below quorum and the whole equivocation
/// stalls at phase 1 — a weaker adversary than the paper allows.
pub(crate) type SplitBrainCoalition = Rc<RefCell<BTreeMap<usize, Vec<[Bytes; 2]>>>>;

/// The split-brain role of a [`TurquoisApp`]: two honest brains with
/// opposite proposals, the app's engine first. Each receiver outside
/// the coalition gets, as a unicast, the broadcast of the brain its bit
/// of `mask` selects (the first brain for a set bit), and each brain
/// hears only the senders on its side of the mask.
pub struct SplitBrain {
    twin: Turquois,
    mask: u64,
    n: usize,
    coalition: SplitBrainCoalition,
}

impl SplitBrain {
    /// The role around the second brain `twin`, joining `coalition`,
    /// the one channel shared by every split-brain process of the run.
    pub(crate) fn new(twin: Turquois, mask: u64, n: usize, coalition: SplitBrainCoalition) -> Self {
        coalition.borrow_mut().insert(twin.id(), Vec::new());
        SplitBrain { twin, mask, n, coalition }
    }

    /// Whether `peer` is served by (and heard by) the first brain.
    fn first_side(&self, peer: usize) -> bool {
        self.mask >> peer & 1 == 1
    }

    /// The brain that hears `peer`.
    pub(crate) fn brain_of<'a>(
        &'a mut self,
        first: &'a mut Turquois,
        peer: usize,
    ) -> &'a mut Turquois {
        if self.first_side(peer) {
            first
        } else {
            &mut self.twin
        }
    }

    /// One tick of both brains: unicasts each receiver its side's
    /// message and posts both to the coalition. `false` once a brain's
    /// keys run out.
    pub(crate) fn tick(&mut self, first: &mut Turquois, ctx: &mut NodeCtx<'_>) -> bool {
        let [Ok(a), Ok(b)] = [first, &mut self.twin].map(Turquois::on_tick) else {
            return false;
        };
        let out = [a, b];
        let mut coalition = self.coalition.borrow_mut();
        for dst in (0..self.n).filter(|dst| !coalition.contains_key(dst)) {
            let side = usize::from(!self.first_side(dst));
            ctx.unicast(dst, out[side].clone(), overhead::UDP);
        }
        coalition.values_mut().for_each(|inbox| inbox.push(out.clone()));
        true
    }

    /// Feeds the coalition's unread broadcasts to the matching brains:
    /// `None` if there were none, else whether a phase advanced.
    pub(crate) fn absorb(&mut self, first: &mut Turquois) -> Option<bool> {
        let me = self.twin.id();
        let inbox = std::mem::take(self.coalition.borrow_mut().get_mut(&me).expect("member"));
        if inbox.is_empty() {
            return None;
        }
        let mut advanced = false;
        for [a, b] in inbox {
            advanced |= first.on_message(&a).phase_advanced;
            advanced |= self.twin.on_message(&b).phase_advanced;
        }
        Some(advanced)
    }
}

/// Builds the paper's §7.2 Turquois lie for a process tracking phase
/// `phase` with honest value `value`: the flipped value in CONVERGE and
/// LOCK phases, `⊥` in DECIDE phases, signed with the liar's legitimate
/// one-time keys. Returns `None` once the keys no longer cover `phase`.
///
/// [`TurquoisApp::flipping`] broadcasts it, in the simulator and in the
/// `turquois-check` schedule explorer alike; as a pure function it lets
/// a test build the lie without running the app.
pub(crate) fn turquois_lie(
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

/// The §7.2 lie a Byzantine Bracha process `me` sends in place of
/// `bytes`: its own reliable-broadcast *initials* corrupted (steps 1–2
/// flipped, step 3 forced to ⊥); echoes, readies and other origins'
/// messages pass through unmodified.
pub(crate) fn bracha_lie(me: usize, bytes: &Bytes) -> Bytes {
    match RbcMessage::decode(bytes) {
        Some(RbcMessage::Initial { tag, payload }) if tag.origin == me && payload.len() == 1 => {
            let lie = match (tag.step, payload[0]) {
                (1 | 2, 0) => 1u8,
                (1 | 2, 1) => 0u8,
                (3, _) => 2u8, // ⊥
                (_, v) => v,
            };
            RbcMessage::Initial { tag, payload: Bytes::copy_from_slice(&[lie]) }.encode()
        }
        _ => bytes.clone(),
    }
}

/// Builds one salvo of the paper's ABBA attack messages for party `me`:
/// a pre-vote and a main-vote for `round` that decode fine but whose
/// shares and justifications are garbage, forcing verification work at
/// every receiver. Returns `(encoded message, RSA-equivalent wire size)`
/// pairs; adversaries pad each message to its RSA size.
pub(crate) fn abba_garbage_votes(me: usize, round: u32, salvo: usize) -> Vec<(Bytes, usize)> {
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

/// The name `benchmark/` builds the ABBA flood under; kept until
/// ROADMAP item 1 moves it to `AbbaApp::flooding`.
pub struct ByzantineAbbaApp;

impl ByzantineAbbaApp {
    /// `AbbaApp::flooding` under its old name.
    // The old constructor's name, kept for `benchmark/`: what it builds
    // is an `AbbaApp` in the flooding role.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(me: usize, n: usize) -> AbbaApp {
        AbbaApp::flooding(me, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::tests::run_against_ackers;
    use crate::adapters::{rsa_framed, unpad, RunProbe};
    use rand::SeedableRng;
    use std::time::Duration;
    use turquois_baselines::abba::{round1_prevote, Abba, AbbaKeys, AbbaMessage};
    use turquois_core::Config;
    use turquois_crypto::cost::CostModel;
    use wireless_net::frame::{Addressing, ReceivedFrame};
    use wireless_net::reliable::TRANSPORT_TIMER_FLAG;
    use wireless_net::sim::{Application, Command};
    use wireless_net::time::SimTime;

    #[test]
    fn turquois_lie_shape() {
        let mut rings = KeyRing::trusted_setup(4, 30, 5);
        let ring3 = rings.pop().expect("4 rings");
        // Phase 1 (CONVERGE), honest value One → the lie is Zero.
        let lie = turquois_lie(1, Value::One, 3, &ring3).expect("keys cover phase 1");
        assert_eq!(lie.envelope.value, Value::Zero);
        assert_eq!(lie.envelope.phase, 1);
        assert_eq!(lie.envelope.status, Status::Undecided);
        // The lie is genuinely signed: any peer's keyring accepts it.
        assert!(rings[0].verify(&lie.envelope, &lie.signature));
        let decide_lie = turquois_lie(3, Value::One, 3, &ring3).expect("keys cover phase 3");
        assert_eq!(decide_lie.envelope.value, Value::Bot);
        assert!(turquois_lie(31, Value::One, 3, &ring3).is_none(), "past the keys");
    }

    /// The Byzantine roles of a [`TurquoisApp`] under test.
    #[derive(Clone, Copy, Debug)]
    enum Twin {
        Flip,
        SplitBrain,
    }

    const KEY_PHASES: usize = 12;

    enum Event {
        Start,
        Timer(u64),
        Frame(usize, Bytes),
    }

    /// One callback of process 3 as both twins ran it: each twin's
    /// `(charged CPU, commands)`, whether the correct twin's keys have
    /// run out, and whether the Byzantine twin's callback moved the
    /// run's shared [`RunProbe`].
    struct Step<'a> {
        now: SimTime,
        event: &'a Event,
        correct: (Duration, Vec<Command>),
        byzantine: (Duration, Vec<Command>),
        exhausted: bool,
        probe_moved: bool,
    }

    /// Runs processes 0–2 of a group of 4 (a quorum on their own, at a
    /// 7 ms tick) and process 3 twice, as a correct app and in the
    /// `role`, on the frames 0–2 send; `check` sees every callback of
    /// process 3. Neither twin's broadcasts reach anyone, so both hear
    /// the same thing. A split brain hears its own broadcasts through
    /// its coalition within the callback, so its correct twin then
    /// hears its own broadcasts at once too.
    fn run_twins(role: Twin, mut check: impl FnMut(Step<'_>)) {
        let tick = Duration::from_millis(7);
        let (n, cfg) = (4, Config::evaluation(4).expect("valid"));
        let rings = KeyRing::trusted_setup(n, KEY_PHASES, 3);
        let engine =
            |id: usize, value: bool, seed| Turquois::new(cfg, id, value, rings[id].clone(), seed);
        let probe = RunProbe::new(n);
        let correct_app = |id| {
            TurquoisApp::new(engine(id, id != 1, id as u64), CostModel::default(), probe.clone())
                .tick_interval(tick)
        };
        let mut group: Vec<TurquoisApp> = (0..3).map(correct_app).collect();
        let byzantine = match role {
            Twin::Flip => TurquoisApp::flipping(engine(3, true, 3), rings[3].clone()),
            // Every peer is on the side of the brain proposing what the
            // correct twin proposes; the coalition is process 3 alone.
            Twin::SplitBrain => TurquoisApp::split_brain(
                [engine(3, true, 3), engine(3, false, 0xa5a5)],
                u64::MAX,
                n,
                SplitBrainCoalition::default(),
            ),
        };
        let mut twins = [correct_app(3), byzantine.tick_interval(tick)];
        let loopback = matches!(role, Twin::SplitBrain);

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
        while let Some(((now, _), (node, event))) = queue.pop_first() {
            let mut run = |app: &mut TurquoisApp, event: &Event| {
                let mut ctx = NodeCtx::new(node, now, &mut rng, Vec::new());
                match event {
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
                ctx.finish()
            };
            if node < 3 {
                for command in run(&mut group[node], &event).1 {
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
            let mut correct = run(&mut twins[0], &event);
            let mut heard = 0;
            while loopback && heard < correct.1.len() {
                if let Command::Broadcast { payload, .. } = &correct.1[heard] {
                    let (charged, commands) = run(&mut twins[0], &Event::Frame(3, payload.clone()));
                    correct.0 += charged;
                    correct.1.extend(commands);
                }
                heard += 1;
            }
            let exhausted = twins[0].instance().phase() as usize > KEY_PHASES;
            let before = format!("{:?}", probe.borrow());
            let byzantine = run(&mut twins[1], &event);
            let probe_moved = format!("{:?}", probe.borrow()) != before;
            for command in &correct.1 {
                if let Command::SetTimer { delay, id } = command {
                    push(&mut queue, now + *delay, 3, Event::Timer(*id));
                }
            }
            check(Step { now, event: &event, correct, byzantine, exhausted, probe_moved });
        }
    }

    /// What the tick rule decides: when a tick sends (a broadcast, or
    /// a split brain's burst of unicasts) and which timers it arms.
    fn ticks_of(commands: &[Command]) -> Vec<Option<(Duration, u64)>> {
        let mut ticks = Vec::new();
        let mut in_burst = false;
        for command in commands {
            match command {
                Command::Broadcast { .. } => ticks.push(None),
                Command::Unicast { .. } if !in_burst => ticks.push(None),
                Command::SetTimer { delay, id } => ticks.push(Some((*delay, *id))),
                _ => {}
            }
            in_burst = matches!(command, Command::Unicast { .. });
        }
        ticks
    }

    /// A Byzantine role cannot suppress or add a tick: fed the same
    /// frames at the same instants as a correct app of the same
    /// process, at a non-default tick, its app sends and arms the same
    /// timers at the same callbacks, and falls silent with it when the
    /// keys run out; only the payloads differ.
    #[test]
    fn byzantine_turquois_ticks_like_the_correct_app() {
        for role in [Twin::Flip, Twin::SplitBrain] {
            // Callbacks compared: frames that ticked (a phase advance),
            // timers that ticked, timers a later tick made stale, and
            // callbacks after the keys ran out.
            let (mut advances, mut timer_ticks, mut stale, mut silent) = (0, 0, 0, 0);
            run_twins(role, |step| {
                let (now, honest) = (step.now, ticks_of(&step.correct.1));
                let liar = ticks_of(&step.byzantine.1);
                assert_eq!(honest, liar, "{role:?}: tick rules diverged at {now:?}");
                match (step.event, honest.is_empty()) {
                    _ if step.exhausted => silent += usize::from(honest.is_empty()),
                    (Event::Frame(..), false) => advances += 1,
                    (Event::Timer(_), false) => timer_ticks += 1,
                    (Event::Timer(_), true) => stale += 1,
                    _ => {}
                }
            });
            assert!(
                advances >= KEY_PHASES - 1 && timer_ticks >= KEY_PHASES - 1 && stale > 0,
                "{role:?}: {advances} advances, {timer_ticks} timer ticks, {stale} stale timers"
            );
            assert!(silent > 0, "{role:?}: the run ended with the keys");
        }
    }

    /// A Byzantine role accounts for nothing: fed the frames on which
    /// its correct twin decides, it emits no decision, charges no
    /// simulated CPU and leaves the run's probe alone.
    #[test]
    fn byzantine_turquois_roles_account_for_nothing() {
        for role in [Twin::Flip, Twin::SplitBrain] {
            let mut twin_decided = false;
            run_twins(role, |step| {
                let decides = |commands: &[Command]| {
                    commands.iter().any(|c| matches!(c, Command::Decide { .. }))
                };
                let now = step.now;
                twin_decided |= decides(&step.correct.1);
                assert!(!decides(&step.byzantine.1), "{role:?} decided at {now:?}");
                assert_eq!(step.byzantine.0, Duration::ZERO, "{role:?} charged CPU at {now:?}");
                assert!(!step.probe_moved, "{role:?} touched the probe at {now:?}");
            });
            assert!(twin_decided, "{role:?}: the correct twin never decided");
        }
    }

    /// Bracha's lie flips the liar's own step-1 and step-2 initials,
    /// sends ⊥ for its step-3 ones and leaves everything else alone.
    #[test]
    fn bracha_lie_flips_own_initials_only() {
        use turquois_baselines::rbc::Tag;
        let initial = |origin, step, value| {
            let tag = Tag { origin, round: 1, step };
            RbcMessage::Initial { tag, payload: Bytes::copy_from_slice(&[value]) }.encode()
        };
        let payload_of = |bytes: &Bytes| match RbcMessage::decode(bytes).expect("valid") {
            RbcMessage::Initial { payload, .. } => payload[0],
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(payload_of(&bracha_lie(3, &initial(3, 1, 1))), 0);
        assert_eq!(payload_of(&bracha_lie(3, &initial(3, 2, 0))), 1);
        assert_eq!(payload_of(&bracha_lie(3, &initial(3, 3, 1))), 2, "⊥ at step 3");
        assert_eq!(bracha_lie(3, &initial(0, 1, 1)), initial(0, 1, 1), "another origin");
        let echo = RbcMessage::Echo {
            tag: Tag { origin: 3, round: 1, step: 1 },
            payload: Bytes::copy_from_slice(&[1]),
        }
        .encode();
        assert_eq!(bracha_lie(3, &echo), echo);
    }

    /// The flood's messages decode fine, and a correct engine fed them
    /// spends verification work on each and records none: the
    /// signatures are the garbage part.
    #[test]
    fn abba_bogus_messages_decode_but_fail_verification() {
        let (n, f) = (4, 1);
        let keys = AbbaKeys::trusted_setup(n, f, 7);
        let mut engine = Abba::new(n, f, 0, true, keys[0].clone(), 11);
        let _ = engine.on_start();
        // A genuine pre-vote is recorded, so the store has a size to keep.
        let _ = engine.on_message(1, &round1_prevote(&keys[1], true).encode());
        let store = engine.store_bytes();
        assert!(store > 0, "the genuine pre-vote was not recorded");
        for (round, salvo) in [(1, 0), (1, 1), (2, 0)] {
            for (bytes, rsa_size) in abba_garbage_votes(3, round, salvo) {
                let framed = rsa_framed(&bytes, rsa_size);
                let inner = unpad(&framed).expect("framed");
                let msg = AbbaMessage::decode(inner).expect("decodes fine");
                assert_eq!(framed.len(), msg.rsa_equivalent_size() + 4, "RSA framing");
                let out = engine.on_message(3, inner);
                assert!(out.ops.share_verifies > 0, "{msg:?} cost no verification");
                assert!(out.send.is_empty() && out.newly_decided.is_none(), "{msg:?} moved it");
                assert_eq!(engine.store_bytes(), store, "{msg:?} was recorded");
            }
        }
    }

    /// Drives ABBA attacker `app`, process `me` of `n`, against peers
    /// that only acknowledge, holding every callback to account for
    /// nothing: no decision, no simulated CPU, no progress report.
    /// Returns the ABBA messages each peer received, each checked to be
    /// framed to its RSA size, and the timers the app armed outside its
    /// transport.
    fn run_abba_attacker(
        role: &str,
        mut app: AbbaApp,
        me: usize,
        n: usize,
    ) -> (Vec<Vec<Bytes>>, Vec<(Duration, u64)>) {
        let mut timers = Vec::new();
        let released = run_against_ackers(&mut app, me, n, |app, charged, commands| {
            assert_eq!(charged, Duration::ZERO, "{role} charged CPU");
            assert!(app.progress().is_none(), "{role} reports progress");
            for command in commands {
                assert!(!matches!(command, Command::Decide { .. }), "{role} decided");
                match *command {
                    Command::SetTimer { delay, id } if id & TRANSPORT_TIMER_FLAG == 0 => {
                        timers.push((delay, id))
                    }
                    _ => {}
                }
            }
        });
        let received = released.iter().map(|frames| {
            let messages = frames.iter().map(|framed| {
                let inner = unpad(framed).expect("framed");
                let msg = AbbaMessage::decode(inner).expect("an ABBA message");
                assert_eq!(framed.len(), msg.rsa_equivalent_size() + 4, "{role}: RSA framing");
                Bytes::copy_from_slice(inner)
            });
            messages.collect()
        });
        (received.collect(), timers)
    }

    /// ABBA's attacker roles account for nothing and send what their
    /// role says, to every peer but themselves: the flood two salvos of
    /// round-1 garbage (and it arms its 20 ms timer), the equivocator
    /// the signed round-1 pre-vote its bit of the mask selects, then
    /// one garbage salvo.
    #[test]
    fn abba_roles_account_for_nothing() {
        let (n, me, mask) = (4, 2, 0b1001);
        let garbage = |salvo| abba_garbage_votes(me, 1, salvo).into_iter().map(|(bytes, _)| bytes);
        let peer = |dst, messages: Vec<Bytes>| if dst == me { Vec::new() } else { messages };

        let (received, timers) = run_abba_attacker("Flood", AbbaApp::flooding(me, n), me, n);
        let salvos: Vec<Bytes> = garbage(0).chain(garbage(1)).collect();
        for (dst, messages) in received.into_iter().enumerate() {
            assert_eq!(messages, peer(dst, salvos.clone()), "Flood to {dst}");
        }
        assert_eq!(timers, [(Duration::from_millis(20), 1)], "Flood timers");

        let keys = AbbaKeys::trusted_setup(n, 1, 7).swap_remove(me);
        let app = AbbaApp::equivocating(me, n, keys.clone(), mask);
        let (received, timers) = run_abba_attacker("Equivocate", app, me, n);
        for (dst, messages) in received.into_iter().enumerate() {
            let prevote = round1_prevote(&keys, mask >> dst & 1 == 1).encode();
            let expected = std::iter::once(prevote).chain(garbage(0)).collect();
            assert_eq!(messages, peer(dst, expected), "Equivocate to {dst}");
        }
        assert!(timers.is_empty(), "Equivocate timers: {timers:?}");
    }

    /// A new attacker has to be a role of a shipped app: the shipped
    /// part of this module (up to its first `#[cfg(test)]`) implements
    /// no `Application` and hosts no transport of its own.
    #[test]
    fn adversaries_are_roles_not_apps() {
        let shipped = include_str!("adversary.rs").split("#[cfg(test)]").next().unwrap_or_default();
        for banned in ["impl Application for", "ReliableEndpoint"] {
            assert!(!shipped.contains(banned), "adversary.rs ships `{banned}`: make it a role");
        }
    }
}
