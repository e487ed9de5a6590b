//! The one place a run's processes are built: a [`Group`] deals the
//! run's trusted set-up once and turns each process's [`Role`] into its
//! [`Application`]. Callers pass data only: seeds, key phases, roles.
//!
//! | [`Role`] | Turquois | Bracha | ABBA |
//! |---|---|---|---|
//! | `Correct` | [`TurquoisApp::new`], resettable | [`BrachaApp::new`] | [`AbbaApp::new`] |
//! | `Crashed` | [`CrashedApp`] | [`CrashedApp`] | [`CrashedApp`] |
//! | `Attack` | `TurquoisApp::flipping` | `BrachaApp::lying_to` all | `AbbaApp::flooding` |
//! | `Equivocate(mask)` | `TurquoisApp::split_brain` | `BrachaApp::lying_to` `mask` | `AbbaApp::equivocating` |

use crate::adapters::{
    new_link_tags, AbbaApp, BrachaApp, SharedLinkTags, SharedProbe, TurquoisApp, TICK_INTERVAL,
};
use crate::adversary::SplitBrainCoalition;
use crate::scenario::Protocol;
use std::time::Duration;
use turquois_baselines::abba::{Abba, AbbaKeys};
use turquois_baselines::bracha::Bracha;
use turquois_core::{Config, KeyRing, Turquois};
use turquois_crypto::cost::CostModel;
use wireless_net::sim::{Application, CrashedApp};

/// How one process of a run behaves.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Role {
    /// Runs the protocol.
    Correct,
    /// Crashed before the run starts: sends nothing.
    Crashed,
    /// The protocol's §7.2 attack: the value flip (Turquois, Bracha)
    /// or the invalid-signature flood (ABBA).
    Attack,
    /// Shows the receivers whose bit of the mask is set one value and
    /// the rest the other.
    Equivocate(u64),
}

/// One run's trusted set-up and what its processes share.
pub struct Group {
    cfg: Config,
    keys: Keys,
    seed: u64,
    cost: CostModel,
    tick: Duration,
    coalition: SplitBrainCoalition,
}

/// What the protocol needs from the dealer, and nothing else (Bracha's
/// link keys derive from the seed; its tag pool is shared host work).
enum Keys {
    Turquois(Vec<KeyRing>),
    Bracha(SharedLinkTags),
    Abba(Vec<AbbaKeys>),
}

impl Group {
    /// Deals a `protocol` group of `cfg.n()` from `seed` (Turquois keys
    /// for `key_phases` phases), with the paper's cost model and tick.
    pub fn new(protocol: Protocol, cfg: Config, key_phases: usize, seed: u64) -> Group {
        let keys = match protocol {
            Protocol::Turquois => Keys::Turquois(KeyRing::trusted_setup(cfg.n(), key_phases, seed)),
            Protocol::Bracha => Keys::Bracha(new_link_tags()),
            Protocol::Abba => Keys::Abba(AbbaKeys::trusted_setup(cfg.n(), cfg.f(), seed)),
        };
        let (cost, tick, coalition) = (CostModel::default(), TICK_INTERVAL, Default::default());
        Group { cfg, keys, seed, cost, tick, coalition }
    }

    /// Sets the CPU cost model correct processes charge.
    pub fn cost_model(self, cost: CostModel) -> Group {
        Group { cost, ..self }
    }

    /// Sets the Turquois clock tick, for correct and Byzantine alike.
    pub fn tick_interval(self, tick: Duration) -> Group {
        Group { tick, ..self }
    }

    /// Process `id` in `role`, proposing `proposal`, its engine seeded
    /// with `engine_seed` (a split brain's twin with `engine_seed ^
    /// 0xa5a5`); a correct process reports to `probe`.
    pub fn node(
        &self,
        id: usize,
        proposal: bool,
        role: Role,
        engine_seed: u64,
        probe: &SharedProbe,
    ) -> Box<dyn Application> {
        let (cfg, n, f, cost) = (self.cfg, self.cfg.n(), self.cfg.f(), self.cost);
        let bracha = |tags: &SharedLinkTags| {
            let engine = Bracha::new(n, f, id, proposal, engine_seed);
            BrachaApp::new(engine, n, self.seed, cost, probe.clone(), tags.clone())
        };
        match (&self.keys, role) {
            (_, Role::Crashed) => Box::new(CrashedApp),
            (Keys::Turquois(rings), role) => {
                let ring = &rings[id];
                let engine = |value, seed| Turquois::new(cfg, id, value, ring.clone(), seed);
                let app = match role {
                    Role::Attack => TurquoisApp::flipping(engine(proposal, engine_seed), ring.clone()),
                    Role::Equivocate(mask) => {
                        let brains = [engine(false, engine_seed), engine(true, engine_seed ^ 0xa5a5)];
                        TurquoisApp::split_brain(brains, mask, n, self.coalition.clone())
                    }
                    // `Correct`; `Crashed` is matched above.
                    _ => TurquoisApp::new(engine(proposal, engine_seed), cost, probe.clone())
                        .resettable(cfg, proposal, ring.clone(), engine_seed),
                };
                Box::new(app.tick_interval(self.tick))
            }
            (Keys::Bracha(tags), Role::Correct) => Box::new(bracha(tags)),
            (Keys::Bracha(tags), Role::Attack) => Box::new(bracha(tags).lying_to(u64::MAX)),
            (Keys::Bracha(tags), Role::Equivocate(mask)) => Box::new(bracha(tags).lying_to(mask)),
            (Keys::Abba(keys), Role::Correct) => {
                let engine = Abba::new(n, f, id, proposal, keys[id].clone(), engine_seed);
                Box::new(AbbaApp::new(engine, n, cost, probe.clone()))
            }
            (Keys::Abba(_), Role::Attack) => Box::new(AbbaApp::flooding(id, n)),
            (Keys::Abba(keys), Role::Equivocate(mask)) => {
                Box::new(AbbaApp::equivocating(id, n, keys[id].clone(), mask))
            }
        }
    }
}

/// `BrachaApp::lying_to` every peer under the name `benchmark/`
/// builds it by (`adversary::byzantine_bracha_app`), until ROADMAP
/// item 1 moves the benchmark to [`Group::node`].
pub fn byzantine_bracha_app(
    engine: Bracha,
    n: usize,
    seed: u64,
    cost: CostModel,
    probe: SharedProbe,
    link_tags: SharedLinkTags,
) -> BrachaApp {
    BrachaApp::new(engine, n, seed, cost, probe, link_tags).lying_to(u64::MAX)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adapters::RunProbe;
    use bytes::Bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use std::path::Path;
    use wireless_net::frame::{Addressing, ReceivedFrame};
    use wireless_net::reliable::TRANSPORT_TIMER_FLAG;
    use wireless_net::sim::{Command, NodeCtx};
    use wireless_net::time::SimTime;

    const ROLES: [Role; 4] = [Role::Correct, Role::Crashed, Role::Attack, Role::Equivocate(0b0101)];

    fn group(protocol: Protocol) -> Group {
        Group::new(protocol, Config::evaluation(4).expect("valid"), 30, 11)
    }

    /// One callback of `app`, process `id`, at `now`: what it issued.
    fn call(
        app: &mut dyn Application,
        id: usize,
        now: Duration,
        rng: &mut StdRng,
        f: impl FnOnce(&mut dyn Application, &mut NodeCtx<'_>),
    ) -> Vec<Command> {
        let mut ctx = NodeCtx::new(id, SimTime::ZERO + now, rng, Vec::new());
        f(app, &mut ctx);
        ctx.finish().1
    }

    enum Event {
        Start,
        Frame(ReceivedFrame),
        Timer(u64),
    }

    /// Runs a group of four, processes 0–2 correct and process 3 in
    /// `role`, through `NodeCtx` callbacks: a frame lands 1 ms after
    /// its send, a timer at its deadline, until nothing is pending or
    /// 2 s have passed. Returns process 3's commands and each
    /// process's first decision.
    fn run(protocol: Protocol, role: Role) -> (Vec<Command>, Vec<Option<bool>>) {
        let (group, probe) = (group(protocol), RunProbe::new(4));
        let roles = [Role::Correct, Role::Correct, Role::Correct, role];
        let mut nodes: Vec<_> =
            (0..4).map(|id| group.node(id, id % 2 == 0, roles[id], id as u64, &probe)).collect();
        let mut rngs: Vec<StdRng> = (0..4).map(StdRng::seed_from_u64).collect();
        let mut events: BTreeMap<(Duration, u64), (usize, Event)> =
            (0..4).map(|id| ((Duration::ZERO, id as u64), (id, Event::Start))).collect();
        let (mut seq, mut issued, mut decisions) = (4, Vec::new(), vec![None; 4]);
        while let Some(((now, _), (id, event))) = events.pop_first() {
            if now > Duration::from_secs(2) {
                break;
            }
            let commands = call(nodes[id].as_mut(), id, now, &mut rngs[id], |app, ctx| match event {
                Event::Start => app.on_start(ctx),
                Event::Frame(frame) => app.on_frame(ctx, frame),
                Event::Timer(timer) => app.on_timer(ctx, timer),
            });
            let mut at = |delay: Duration, to: usize, event: Event| {
                events.insert((now + delay, seq), (to, event));
                seq += 1;
            };
            for command in &commands {
                let frame = |addressing, payload: &Bytes| {
                    Event::Frame(ReceivedFrame { src: id, addressing, payload: payload.clone() })
                };
                let ms = Duration::from_millis(1);
                match command {
                    Command::Broadcast { payload, .. } => (0..4)
                        .for_each(|to| at(ms, to, frame(Addressing::Broadcast, payload))),
                    Command::Unicast { dst, payload, .. } => {
                        at(ms, *dst, frame(Addressing::Unicast(*dst), payload))
                    }
                    Command::SetTimer { delay, id: timer } => at(*delay, id, Event::Timer(*timer)),
                    Command::Decide { value } => {
                        decisions[id].get_or_insert(*value);
                    }
                }
            }
            if id == 3 {
                issued.extend(commands);
            }
        }
        (issued, decisions)
    }

    /// Every protocol builds every role: a crashed process sends
    /// nothing, an attacker sends but never decides, and the correct
    /// processes decide beside each of them.
    #[test]
    fn every_protocol_builds_every_role() {
        for (protocol, role) in Protocol::ALL.into_iter().flat_map(|p| ROLES.map(|r| (p, r))) {
            let (issued, decisions) = run(protocol, role);
            let at = format!("{protocol:?} {role:?}");
            let decided = |command: &Command| matches!(command, Command::Decide { .. });
            match role {
                Role::Correct => assert!(issued.iter().any(decided), "{at}: undecided"),
                Role::Crashed => assert!(issued.is_empty(), "{at} sent {issued:?}"),
                Role::Attack | Role::Equivocate(_) => {
                    assert!(!issued.is_empty(), "{at} sent nothing");
                    assert!(!issued.iter().any(decided), "{at} decided");
                }
            }
            assert!(decisions[..3].iter().all(Option::is_some), "{at}: {decisions:?}");
        }
    }

    /// A correct Turquois process that a crash schedule rejoins starts
    /// over: after `reset` its first broadcast is a fresh process's.
    #[test]
    fn correct_turquois_nodes_restart_on_reset() {
        let (group, probe) = (group(Protocol::Turquois), RunProbe::new(4));
        let node = |id: usize| group.node(id, true, Role::Correct, id as u64, &probe);
        let mut rng = StdRng::seed_from_u64(0);
        let mut start = |app: &mut dyn Application, id| -> Vec<Bytes> {
            call(app, id, Duration::ZERO, &mut rng, |app, ctx| app.on_start(ctx))
                .into_iter()
                .filter_map(|command| match command {
                    Command::Broadcast { payload, .. } => Some(payload),
                    _ => None,
                })
                .collect()
        };
        let mut nodes: Vec<_> = (0..4).map(node).collect();
        let phase1: Vec<(usize, Bytes)> = (0..4)
            .flat_map(|id| start(nodes[id].as_mut(), id).into_iter().map(move |payload| (id, payload)))
            .collect();
        let mut p0 = nodes.swap_remove(0);
        let mut rng = StdRng::seed_from_u64(1);
        for (src, payload) in phase1 {
            let frame = ReceivedFrame { src, addressing: Addressing::Broadcast, payload };
            call(p0.as_mut(), 0, Duration::ZERO, &mut rng, |app, ctx| app.on_frame(ctx, frame));
        }
        assert!(p0.progress().expect("progress").phase > 1, "a phase-1 quorum advances p0");
        p0.reset();
        assert_eq!(start(p0.as_mut(), 0), start(node(0).as_mut(), 0), "a reset p0 starts afresh");
    }

    /// A rejoined baseline process arms its transport's tick again:
    /// the crash staled the pending one, and without a new one nothing
    /// queued before the crash is ever retransmitted.
    #[test]
    fn baseline_transports_tick_again_after_a_rejoin() {
        for protocol in [Protocol::Bracha, Protocol::Abba] {
            let (group, probe) = (group(protocol), RunProbe::new(4));
            let mut node = group.node(0, true, Role::Correct, 0, &probe);
            let mut rng = StdRng::seed_from_u64(0);
            let mut ticks_armed_on_start = |app: &mut dyn Application| {
                call(app, 0, Duration::ZERO, &mut rng, |app, ctx| app.on_start(ctx))
                    .iter()
                    .filter(|c| matches!(c, Command::SetTimer { id, .. } if id & TRANSPORT_TIMER_FLAG != 0))
                    .count()
            };
            assert_eq!(ticks_armed_on_start(node.as_mut()), 1, "{protocol:?}: first start");
            node.reset();
            assert_eq!(ticks_armed_on_start(node.as_mut()), 1, "{protocol:?}: after a rejoin");
        }
    }

    /// The shipped source of this crate and of `turquois-check` (every
    /// `.rs` file under their `src`, `#[cfg(test)]` modules and comment
    /// lines left out) builds no process outside this file: it deals
    /// no keys and calls no app constructor.
    #[test]
    fn processes_are_built_only_here() {
        const BANNED: [&str; 6] = [
            "KeyRing::trusted_setup(",
            "AbbaKeys::trusted_setup(",
            "new_link_tags(",
            "TurquoisApp::new(",
            "BrachaApp::new(",
            "AbbaApp::new(",
        ];
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut files = Vec::new();
        for dir in ["harness/src", "check/src"] {
            rust_files(&crates.join(dir), &mut files);
        }
        assert!(files.iter().any(|f| f.ends_with("scenario.rs")), "scanned {files:?}");
        assert!(files.iter().any(|f| f.ends_with("drive.rs")), "scanned {files:?}");
        for file in files.iter().filter(|f| !f.ends_with("group.rs")) {
            let source = std::fs::read_to_string(file).expect("readable source");
            let shipped = shipped(&source);
            for banned in BANNED {
                // `new_link_tags` is defined in `adapters.rs`; only a
                // call counts.
                let calls = shipped.match_indices(banned).any(|(at, _)| !shipped[..at].ends_with("fn "));
                assert!(!calls, "{} calls `{banned}`: build processes with `Group`", file.display());
            }
        }
    }

    pub(crate) fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// `source` without its `#[cfg(test)]` modules and comment lines.
    pub(crate) fn shipped(source: &str) -> String {
        const TEST: &str = "#[cfg(test)]";
        let (mut out, mut rest) = (String::new(), source);
        while let Some(at) = rest.find(TEST) {
            out.push_str(&rest[..at]);
            let item = &rest[at..];
            let open = item.find('{').unwrap_or(item.len());
            if !item[..open].contains("mod ") {
                out.push_str(TEST);
                rest = &item[TEST.len()..];
                continue;
            }
            let mut depth = 0;
            let close = item[open..].char_indices().find_map(|(i, c)| {
                depth += match c {
                    '{' => 1,
                    '}' => -1,
                    _ => 0,
                };
                (depth == 0).then_some(open + i + 1)
            });
            rest = &item[close.unwrap_or(item.len())..];
        }
        out.push_str(rest);
        out.lines().filter(|line| !line.trim_start().starts_with("//")).collect::<Vec<_>>().join("\n")
    }
}
