//! Adapters binding the three protocol engines to the `wireless-net`
//! simulator, reproducing the paper's deployment choices (§7.1):
//!
//! * **Turquois** runs over UDP broadcast. A local clock tick fires when
//!   10 ms passed since the last broadcast **or** the phase value
//!   changed.
//! * **Bracha** runs over TCP (the reliable transport) with per-link
//!   IPSec-AH-style authentication — HMAC-SHA256 with pairwise keys
//!   here.
//! * **ABBA** runs over TCP with its own threshold-signature
//!   authentication; messages are padded to the size they would have
//!   with RSA-1024 group elements, and every cryptographic operation is
//!   charged to the node's virtual CPU through the
//!   [`CostModel`].

use crate::adversary::{
    abba_garbage_votes, bracha_lie, turquois_lie, SplitBrain, SplitBrainCoalition,
};
use bytes::{BufMut, Bytes, BytesMut};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;
use turquois_baselines::abba::{round1_prevote, Abba, AbbaKeys, AbbaMessage, AbbaOutput};
use turquois_baselines::bracha::{Bracha, BrachaOutput};
use turquois_core::instance::Turquois;
use turquois_core::KeyRing;
use turquois_crypto::cost::CostModel;
use turquois_crypto::hmac::HmacKey;
use turquois_crypto::memo::MemoCache;
use turquois_crypto::sha256::{Digest, DIGEST_LEN};
use wireless_net::config::overhead;
use wireless_net::frame::ReceivedFrame;
use wireless_net::reliable::ReliableEndpoint;
use wireless_net::sim::{Application, NodeCtx};
use wireless_net::supervise::AppProgress;

/// Observations shared between adapters and the experiment driver
/// (single-threaded simulator ⇒ `Rc<RefCell>`).
#[derive(Clone, Debug, Default)]
pub struct RunProbe {
    /// Protocol phase (Turquois) or round (baselines) at decision time.
    pub phase_at_decision: Vec<Option<u32>>,
    /// Nodes whose one-time keys ran out (Turquois re-key boundary).
    pub keys_exhausted: Vec<bool>,
    /// Last observed protocol phase/round per node (updated continuously).
    pub final_phase: Vec<u32>,
}

impl RunProbe {
    /// Creates a probe for `n` nodes.
    pub fn new(n: usize) -> SharedProbe {
        Rc::new(RefCell::new(RunProbe {
            phase_at_decision: vec![None; n],
            keys_exhausted: vec![false; n],
            final_phase: vec![0; n],
        }))
    }
}

/// Shared handle to a [`RunProbe`].
pub type SharedProbe = Rc<RefCell<RunProbe>>;

/// The paper's clock-tick interval (§7.1).
pub const TICK_INTERVAL: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------- turquois

/// Construction parameters of a [`Turquois`] instance, retained so a
/// crash/rejoin can rebuild the engine from scratch (the engines are
/// deliberately not `Clone`).
type TurquoisRebuild = (turquois_core::config::Config, bool, KeyRing, u64);

/// Turquois over UDP broadcast, run by a correct process or, in a
/// Byzantine role, by an adversary.
pub struct TurquoisApp {
    instance: Turquois,
    role: Role,
    tick: Duration,
    generation: u64,
    exhausted: bool,
    rebuild: Option<TurquoisRebuild>,
}

/// What a [`TurquoisApp`]'s tick sends and which engine hears a frame;
/// when it ticks is the app's one §7.1 rule. Only a `Correct` node
/// charges simulated CPU, touches the [`RunProbe`] or decides.
enum Role {
    /// Broadcasts the engine's message.
    Correct { cost: CostModel, probe: SharedProbe },
    /// Broadcasts the §7.2 lie ([`turquois_lie`]), signed with the ring;
    /// the engine only tracks the phase and never ticks.
    Flip(KeyRing),
    /// Equivocates: the app's engine is the first of two brains.
    SplitBrain(Box<SplitBrain>),
}

impl TurquoisApp {
    /// Wraps a protocol instance run by a correct process.
    pub fn new(instance: Turquois, cost: CostModel, probe: SharedProbe) -> Self {
        Self::with_role(instance, Role::Correct { cost, probe })
    }

    /// The §7.2 value-flipping adversary: `tracker` follows the
    /// protocol's phases, and every tick broadcasts `turquois_lie`
    /// signed with the process's own (legitimate) `keyring`.
    pub(crate) fn flipping(tracker: Turquois, keyring: KeyRing) -> Self {
        Self::with_role(tracker, Role::Flip(keyring))
    }

    /// The split-brain equivocator ([`SplitBrain`]) of the process that
    /// owns both `brains` (`brains[0]` for the receivers whose bit of
    /// `mask` is set) in a group of `n ≤ 64`, joining `coalition`.
    pub(crate) fn split_brain(
        brains: [Turquois; 2],
        mask: u64,
        n: usize,
        coalition: SplitBrainCoalition,
    ) -> Self {
        let [first, twin] = brains;
        let split = SplitBrain::new(twin, mask, n, coalition);
        Self::with_role(first, Role::SplitBrain(Box::new(split)))
    }

    fn with_role(instance: Turquois, role: Role) -> Self {
        TurquoisApp {
            instance,
            role,
            tick: TICK_INTERVAL,
            generation: 0,
            exhausted: false,
            rebuild: None,
        }
    }

    /// Retains the engine's construction parameters so
    /// [`Application::reset`] can model a process restart (crash/rejoin
    /// scenarios). `proposal`, `ring`, and `seed` must match the ones
    /// the wrapped instance was built with. A restarted node re-signs
    /// early phases with the same one-time keys — safe, because the
    /// protocol counts per distinct sender and tolerates equivocation.
    pub fn resettable(
        mut self,
        cfg: turquois_core::config::Config,
        proposal: bool,
        ring: KeyRing,
        seed: u64,
    ) -> Self {
        self.rebuild = Some((cfg, proposal, ring, seed));
        self
    }

    /// Read access for post-run inspection.
    pub fn instance(&self) -> &Turquois {
        &self.instance
    }

    /// Overrides the clock-tick interval (paper default: 10 ms). Used by
    /// the tick-interval ablation and the scale grid; an adversary ticks
    /// at the rate of the correct processes it hides among.
    pub fn tick_interval(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// The §7.1 clock tick: the role's message goes out and the clock
    /// re-arms. Only the newest generation's timer ticks, so a
    /// phase-change tick implicitly resets the 10 ms clock. Once the
    /// keys run out the node falls silent for good.
    fn tick(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.exhausted {
            return;
        }
        let sent = match &mut self.role {
            Role::Correct { cost, probe } => match self.instance.on_tick() {
                Ok(bytes) => {
                    ctx.charge_cpu(cost.otss_sign() + cost.hash(bytes.len()));
                    ctx.broadcast(bytes, overhead::UDP);
                    true
                }
                Err(_) => {
                    probe.borrow_mut().keys_exhausted[self.instance.id()] = true;
                    false
                }
            },
            Role::Flip(ring) => {
                let i = &self.instance;
                let lie = turquois_lie(i.phase(), i.value(), i.id(), ring);
                lie.map(|lie| ctx.broadcast(lie.encode(), overhead::UDP)).is_some()
            }
            Role::SplitBrain(split) => split.tick(&mut self.instance, ctx),
        };
        if !sent {
            self.exhausted = true;
            return;
        }
        self.generation += 1;
        ctx.set_timer(self.tick, self.generation);
    }

    /// A split-brain node's coalition inbox is emptied after every
    /// callback, ticking whenever that advances a brain's phase.
    fn absorb(&mut self, ctx: &mut NodeCtx<'_>) {
        while let Role::SplitBrain(split) = &mut self.role {
            match split.absorb(&mut self.instance) {
                None => return,
                Some(true) => self.tick(ctx),
                Some(false) => {}
            }
        }
    }
}

impl Application for TurquoisApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.tick(ctx);
        self.absorb(ctx);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        if timer == self.generation {
            self.tick(ctx);
        }
        self.absorb(ctx);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let advanced = match &mut self.role {
            Role::Correct { cost, probe } => {
                let receipt = self.instance.on_message(&frame.payload);
                ctx.charge_cpu(
                    cost.hash(frame.payload.len())
                        + cost.otss_verify(DIGEST_LEN) * receipt.sig_verifications as u32,
                );
                let mut probe = probe.borrow_mut();
                let id = self.instance.id();
                probe.final_phase[id] = self.instance.phase();
                if let Some(v) = receipt.newly_decided {
                    probe.phase_at_decision[id] = Some(self.instance.phase());
                    ctx.decide(v);
                }
                receipt.phase_advanced
            }
            Role::Flip(_) => self.instance.on_message(&frame.payload).phase_advanced,
            Role::SplitBrain(split) => {
                let brain = split.brain_of(&mut self.instance, frame.src);
                brain.on_message(&frame.payload).phase_advanced
            }
        };
        if advanced {
            // Clock-tick condition (2): the phase value changed.
            self.tick(ctx);
        }
        self.absorb(ctx);
    }

    fn progress(&self) -> Option<AppProgress> {
        Some(AppProgress {
            phase: self.instance.phase(),
            store_bytes: self.instance.store_bytes(),
        })
    }

    fn reset(&mut self) {
        let Some((cfg, proposal, ring, seed)) = self.rebuild.clone() else {
            return; // no rebuild parameters: rejoin behaves like a partition
        };
        let id = self.instance.id();
        self.instance = Turquois::new(cfg, id, proposal, ring, seed);
        self.exhausted = false;
        if let Role::Correct { probe, .. } = &self.role {
            probe.borrow_mut().keys_exhausted[id] = false;
        }
        // `generation` is deliberately NOT reset: it must stay monotonic
        // so any pre-crash timer id can never match a post-rejoin one.
    }
}

// ------------------------------------------------------------------ bracha

/// IPSec AH truncates its HMAC ICV to 96 bits; the per-link framing is
/// `icv(12) ‖ inner`.
const ICV_LEN: usize = 12;

/// Reference per-link HMAC framing (IPSec AH stand-in) from a
/// precomputed tag; the adapter stages the same bytes n at a time.
#[cfg(test)]
fn mac_wrap(tag: &Digest, inner: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(ICV_LEN + inner.len());
    buf.put_slice(&tag.as_bytes()[..ICV_LEN]);
    buf.put_slice(inner);
    buf.freeze()
}

/// Reference unwrap used by tests: recomputes the HMAC from the key.
#[cfg(test)]
fn mac_unwrap<'a>(key: &HmacKey, wrapped: &'a [u8]) -> Option<&'a [u8]> {
    if wrapped.len() < ICV_LEN {
        return None;
    }
    let (tag, inner) = wrapped.split_at(ICV_LEN);
    if key.verify_truncated(inner, tag) {
        Some(inner)
    } else {
        None
    }
}

/// Constant-time comparison of a full tag's 96-bit truncation against a
/// received ICV.
fn icv_matches(tag: &Digest, icv: &[u8]) -> bool {
    if icv.len() != ICV_LEN {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in tag.as_bytes()[..ICV_LEN].iter().zip(icv) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Memo key for the link HMACs of one broadcast: the sender — which,
/// under the run's pre-distribution seed, fully determines its n
/// pairwise keys — plus the inner message bytes. Together these are
/// every input the n HMACs read, so a cached tag is always *the* correct
/// tag for its link's frame: comparing a received ICV against it is
/// exactly as sound as recomputing (a forged ICV mismatches the true
/// tag either way). The message bytes are held as a zero-copy [`Bytes`]
/// handle, which keys by content (same `Hash`/`Eq` as `[u8]`) without
/// copying the frame body on every wrap and every check. The sender is
/// the full `usize` id: a narrower field would let sender `s + 2¹⁶`'s
/// frames hit the tags `s` published and pass `s`'s ICV check.
type LinkTagKey = (usize, Bytes);

/// One simulation's pool of link HMAC tags, shared by every node the
/// simulator hosts: the sender's wrap and each receiver's check of the
/// same frame are the same computation under the same pairwise key, so
/// within the single-threaded simulation the sender publishes the n
/// tags of a broadcast (one entry, indexed by destination) and each
/// receiver's check is a cache hit on its own. Simulated CPU is still
/// charged per logical HMAC on both sides; only host hashing is shared.
pub type SharedLinkTags = Rc<RefCell<MemoCache<LinkTagKey, Rc<[Digest]>>>>;

/// Bound on pooled broadcasts per simulation; eviction only recomputes.
const LINK_TAG_CAP: usize = 1024;

/// Creates a fresh per-simulation link-tag pool (see [`SharedLinkTags`]).
pub fn new_link_tags() -> SharedLinkTags {
    Rc::new(RefCell::new(MemoCache::new(LINK_TAG_CAP)))
}

/// One node's pairwise HMAC keys, from the pre-distribution seed (the
/// paper establishes IPSec security associations between every pair
/// before the run). The node's whole row of n keys is derived on its
/// first HMAC — inside the run, not at set-up, and a node's first
/// broadcast needs all n anyway. Derivation is a pure function of
/// `(seed, pair)` (see [`turquois_crypto::hmac::pairwise_key`]) and
/// host work outside the simulated cost model, so when it happens
/// cannot move simulated time.
#[derive(Debug)]
pub(crate) struct PairwiseKeys {
    me: usize,
    n: usize,
    seed: u64,
    keys: OnceCell<Vec<HmacKey>>,
}

impl PairwiseKeys {
    /// Creates the (not yet derived) row for `me` in a group of `n`.
    pub fn new(me: usize, n: usize, seed: u64) -> Self {
        PairwiseKeys {
            me,
            n,
            seed,
            keys: OnceCell::new(),
        }
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The keys for the links to all n peers, in peer order.
    fn row(&self) -> &[HmacKey] {
        self.keys.get_or_init(|| {
            (0..self.n)
                .map(|peer| turquois_crypto::hmac::pairwise_key(self.seed, self.me, peer))
                .collect()
        })
    }

    /// The HMAC tag for `message` on the link to `peer`.
    pub fn mac(&self, peer: usize, message: &[u8]) -> Digest {
        self.row()[peer].mac(message)
    }

    /// The HMAC tags of one `message` on the links to all n peers, in
    /// peer order, finished as one batch
    /// ([`turquois_crypto::hmac::hmac_many`]) straight into the
    /// shared slice the link-tag pool holds. Tag-for-tag identical to
    /// calling [`PairwiseKeys::mac`] per peer.
    pub(crate) fn mac_all(&self, message: &[u8]) -> Rc<[Digest]> {
        let mut tags: Rc<[Digest]> = std::iter::repeat_n(Digest::ZERO, self.n).collect();
        let slots = Rc::get_mut(&mut tags).expect("a fresh Rc has no other owner");
        turquois_crypto::hmac::hmac_many(self.row(), message, slots);
        tags
    }
}

/// Bracha's protocol over the reliable (TCP-like) transport with
/// per-link HMAC authentication.
pub struct BrachaApp {
    engine: Bracha,
    transport: ReliableEndpoint,
    macs: PairwiseKeys,
    cost: CostModel,
    probe: SharedProbe,
    /// `Some(mask)`: a Byzantine node, which sends the §7.2 lie
    /// ([`bracha_lie`]) to the destinations in `mask` (bit per
    /// destination; all ones: every destination, whatever `n`), the
    /// engine's honest bytes to the rest, and never decides.
    lying_to: Option<u64>,
    /// The simulation-wide link-tag pool; simulated cost is still
    /// charged per logical HMAC, only host hashing is shared.
    link_tags: SharedLinkTags,
    released: Vec<(usize, Bytes)>,
}

impl BrachaApp {
    /// Wraps an engine; `seed` must match across the group (key
    /// pre-distribution) and `link_tags` must be the one pool shared by
    /// every node of the simulation (see [`new_link_tags`]).
    pub fn new(
        engine: Bracha,
        n: usize,
        seed: u64,
        cost: CostModel,
        probe: SharedProbe,
        link_tags: SharedLinkTags,
    ) -> Self {
        let me = engine.id();
        BrachaApp {
            engine,
            transport: ReliableEndpoint::new(me, n),
            macs: PairwiseKeys::new(me, n, seed),
            cost,
            probe,
            lying_to: None,
            link_tags,
            released: Vec::new(),
        }
    }

    /// Whether the 96-bit ICV that `wrapped` (`icv ‖ inner`, received on
    /// the link from `peer`) leads with is the link tag of its body: one
    /// probe of the shared pool, normally a hit on the tags `peer`
    /// published with the broadcast; a miss (evicted entry, stray or
    /// Byzantine frame) computes this link's tag from its key.
    fn icv_ok(&self, peer: usize, wrapped: &Bytes) -> bool {
        if wrapped.len() < ICV_LEN {
            return false;
        }
        let (me, key) = (self.engine.id(), (peer, wrapped.slice(ICV_LEN..)));
        let link_tag = || self.macs.mac(peer, &key.1);
        let pool = self.link_tags.borrow();
        let tag = match pool.peek(&key, |tags| tags[me] == link_tag()) {
            Some(tags) => tags[me],
            None => link_tag(),
        };
        icv_matches(&tag, &wrapped[..ICV_LEN])
    }

    /// Wraps `inner` for all n destinations: computes the n link tags
    /// as one batch (DESIGN.md §12), stages the n frames `icv ‖ inner`
    /// back to back, in destination order, into one exact-capacity
    /// buffer, and publishes the tags into the shared pool for the
    /// receivers' checks (one insert, or nothing if the pool holds this
    /// broadcast already). Every frame is `ICV_LEN + |inner|` long, so
    /// the per-destination slices need no side table.
    fn wrap_for_all(&mut self, inner: &Bytes) -> Bytes {
        let tags = self.macs.mac_all(inner);
        let mut buf = BytesMut::with_capacity(tags.len() * (ICV_LEN + inner.len()));
        for tag in tags.iter() {
            buf.put_slice(&tag.as_bytes()[..ICV_LEN]);
            buf.put_slice(inner);
        }
        self.link_tags.borrow_mut().lookup((self.engine.id(), inner.clone()), || tags);
        buf.freeze()
    }

    /// Makes this a Byzantine node lying to the destinations whose bit
    /// of `mask` is set (ids below 64; all ones: every destination).
    /// Lying to a strict subset equivocates. It never decides: only
    /// correct processes count toward k.
    pub(crate) fn lying_to(mut self, mask: u64) -> Self {
        self.lying_to = Some(mask);
        self
    }

    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, out: BrachaOutput) {
        if let Some(v) = out.newly_decided.filter(|_| self.lying_to.is_none()) {
            self.probe.borrow_mut().phase_at_decision[self.engine.id()] = Some(self.engine.round());
            ctx.decide(v);
        }
        for bytes in out.send {
            let Some(mask) = self.lying_to else {
                self.send_to(ctx, &bytes, |_| true);
                continue;
            };
            let lie = bracha_lie(self.engine.id(), &bytes);
            if mask != u64::MAX {
                self.send_to(ctx, &bytes, |dst| !lies_to(mask, dst));
            }
            self.send_to(ctx, &lie, |dst| lies_to(mask, dst));
        }
    }

    /// Sends `inner` to every destination `to` selects.
    fn send_to(&mut self, ctx: &mut NodeCtx<'_>, inner: &Bytes, to: impl Fn(usize) -> bool) {
        // One HMAC per destination link (as IPSec AH would). CPU
        // charges accumulate on the context and take effect after the
        // callback, so batching the wraps ahead of the sends cannot
        // move simulated time.
        let n = self.macs.n();
        ctx.charge_cpu(self.cost.hmac(inner.len()) * (0..n).filter(|&dst| to(dst)).count() as u32);
        let chunk = self.wrap_for_all(inner);
        let w = ICV_LEN + inner.len();
        for dst in (0..n).filter(|&dst| to(dst)) {
            self.transport.send(ctx, dst, chunk.slice(dst * w..(dst + 1) * w));
        }
    }
}

/// Whether a [`BrachaApp`] lying to the destinations in `mask` lies to
/// `dst`.
fn lies_to(mask: u64, dst: usize) -> bool {
    mask == u64::MAX || mask.checked_shr(dst as u32).is_some_and(|m| m & 1 == 1)
}

impl Application for BrachaApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let out = self.engine.on_start();
        self.dispatch(ctx, out);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let mut released = std::mem::take(&mut self.released);
        self.transport.on_frame(ctx, &frame, &mut released);
        for (peer, wrapped) in released.drain(..) {
            ctx.charge_cpu(self.cost.hmac(wrapped.len().saturating_sub(ICV_LEN)));
            if !self.icv_ok(peer, &wrapped) {
                continue;
            }
            let out = self.engine.on_message(peer, &wrapped[ICV_LEN..]);
            self.dispatch(ctx, out);
        }
        self.released = released;
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        let _ = self.transport.on_timer(ctx, timer);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: usize, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }

    fn progress(&self) -> Option<AppProgress> {
        Some(AppProgress {
            phase: self.engine.round(),
            store_bytes: self.engine.store_bytes(),
        })
    }

    /// A rejoin keeps the engine and the connections (a long
    /// partition) but restarts the transport's tick.
    fn reset(&mut self) {
        self.transport.restart();
    }
}

// -------------------------------------------------------------------- abba

/// Length-prefixed padding so ABBA payloads occupy their RSA-equivalent
/// size on the air: `len(4) ‖ msg ‖ zeros`.
pub(crate) fn pad_to(inner: &[u8], total: usize) -> Bytes {
    let body = total.max(inner.len() + 4);
    let mut buf = BytesMut::with_capacity(body);
    buf.put_u32(inner.len() as u32);
    buf.put_slice(inner);
    buf.resize(body, 0);
    buf.freeze()
}

/// Strips [`pad_to`] framing.
pub(crate) fn unpad(padded: &[u8]) -> Option<&[u8]> {
    if padded.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(padded[..4].try_into().ok()?) as usize;
    padded.get(4..4 + len)
}

/// An ABBA message framed for the air ([`pad_to`]): behind its length
/// prefix, padded to `rsa_size`, its size in an RSA-1024 deployment.
pub(crate) fn rsa_framed(bytes: &[u8], rsa_size: usize) -> Bytes {
    pad_to(bytes, rsa_size + 4)
}

/// Salvos of [`abba_garbage_votes`] the flood sends each round.
const FLOOD_SALVOS: usize = 2;

/// The flood's timer id (the transport's ids carry a flag bit).
const FLOOD_TIMER: u64 = 1;

/// ABBA over the reliable transport, run by a correct process or, in a
/// Byzantine role, by an adversary. Every frame it sends is an ABBA
/// message padded to its RSA-equivalent size (`pad_to`).
pub struct AbbaApp {
    me: usize,
    n: usize,
    role: AbbaRole,
    transport: ReliableEndpoint,
    released: Vec<(usize, Bytes)>,
}

/// What an [`AbbaApp`] sends and what it makes of what it hears. Only a
/// `Correct` node charges simulated CPU, touches the [`RunProbe`] or
/// decides; the attackers run no engine.
// One role per node, and most nodes are correct: boxing the engine
// would add an indirection to every correct callback to save bytes on
// the few attackers.
#[allow(clippy::large_enum_variant)]
enum AbbaRole {
    /// Runs the engine, with RSA-calibrated CPU charging.
    Correct { engine: Abba, cost: CostModel, probe: SharedProbe },
    /// The §7.2 attacker: floods every round it observes with
    /// [`abba_garbage_votes`], forcing verification work at every
    /// receiver.
    Flood { rounds_hit: BTreeSet<u32> },
    /// The round-1 signed equivocator: sends each peer the correctly
    /// signed round-1 pre-vote for the value its bit of `mask` selects
    /// ([`lies_to`]; round-1 pre-votes need no justification), then one
    /// salvo of garbage; after that it only acknowledges.
    Equivocate { keys: AbbaKeys, mask: u64 },
}

impl AbbaApp {
    /// Wraps an engine run by a correct process.
    pub fn new(engine: Abba, n: usize, cost: CostModel, probe: SharedProbe) -> Self {
        let me = engine.id();
        Self::with_role(me, n, AbbaRole::Correct { engine, cost, probe })
    }

    /// The §7.2 invalid-signature adversary, process `me` of `n`.
    pub(crate) fn flooding(me: usize, n: usize) -> Self {
        Self::with_role(me, n, AbbaRole::Flood { rounds_hit: BTreeSet::new() })
    }

    /// The round-1 equivocator, process `me` (holding `keys`) of
    /// `n ≤ 64`, sending the pre-vote for 1 to the peers in `mask`.
    pub(crate) fn equivocating(me: usize, n: usize, keys: AbbaKeys, mask: u64) -> Self {
        Self::with_role(me, n, AbbaRole::Equivocate { keys, mask })
    }

    fn with_role(me: usize, n: usize, role: AbbaRole) -> Self {
        let transport = ReliableEndpoint::new(me, n);
        AbbaApp { me, n, role, transport, released: Vec::new() }
    }

    /// Sends each destination, in id order, the frames `frames` picks
    /// for it. A correct node is one of its own destinations; an
    /// attacker skips itself.
    fn send<I: IntoIterator<Item = Bytes>>(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frames: impl Fn(usize) -> I,
    ) {
        let correct = matches!(self.role, AbbaRole::Correct { .. });
        for dst in (0..self.n).filter(|&dst| correct || dst != self.me) {
            for frame in frames(dst) {
                self.transport.send(ctx, dst, frame);
            }
        }
    }

    /// Charges, records and sends what a correct node's engine did.
    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, out: AbbaOutput) {
        let AbbaRole::Correct { engine, cost, probe } = &self.role else {
            unreachable!("only the correct role runs an engine")
        };
        let ops = out.ops;
        ctx.charge_cpu(
            cost.threshold_share() * ops.share_signs
                + cost.threshold_share_verify() * ops.share_verifies
                + cost.rsa_verify() * ops.sig_verifies
                + cost.threshold_combine(ops.shares_combined as usize),
        );
        if let Some(v) = out.newly_decided {
            probe.borrow_mut().phase_at_decision[self.me] = Some(engine.round());
            ctx.decide(v);
        }
        for bytes in out.send {
            let rsa_size =
                AbbaMessage::decode(&bytes).map_or(bytes.len(), |m| m.rsa_equivalent_size());
            let frame = rsa_framed(&bytes, rsa_size);
            self.send(ctx, |_| [frame.clone()]);
        }
    }

    /// Floods `round` with garbage, once.
    fn flood(&mut self, ctx: &mut NodeCtx<'_>, round: u32) {
        let AbbaRole::Flood { rounds_hit } = &mut self.role else {
            unreachable!("only the flood floods")
        };
        if !rounds_hit.insert(round) {
            return;
        }
        for salvo in 0..FLOOD_SALVOS {
            for (bytes, rsa_size) in abba_garbage_votes(self.me, round, salvo) {
                let frame = rsa_framed(&bytes, rsa_size);
                self.send(ctx, |_| [frame.clone()]);
            }
        }
    }

    /// Handles one message the transport released from `peer`.
    fn hear(&mut self, ctx: &mut NodeCtx<'_>, peer: usize, padded: &[u8]) {
        let inner = unpad(padded);
        match &mut self.role {
            AbbaRole::Correct { engine, .. } => {
                let Some(inner) = inner else {
                    return;
                };
                // `inner` borrows straight out of the delivered buffer;
                // the engine parses it without an owned copy.
                let out = engine.on_message(peer, inner);
                self.dispatch(ctx, out);
            }
            AbbaRole::Flood { .. } => {
                if let Some(round) = inner.and_then(AbbaMessage::decode).map(|m| m.round()) {
                    self.flood(ctx, round);
                    self.flood(ctx, round + 1);
                }
            }
            AbbaRole::Equivocate { .. } => {}
        }
    }
}

impl Application for AbbaApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        match &mut self.role {
            AbbaRole::Correct { engine, .. } => {
                let out = engine.on_start();
                self.dispatch(ctx, out);
            }
            AbbaRole::Flood { .. } => {
                self.flood(ctx, 1);
                // A 20 ms timer that only re-arms itself and attacks nothing.
                // Its events count in the benchmark's frozen outcome digest.
                ctx.set_timer(Duration::from_millis(20), FLOOD_TIMER);
            }
            AbbaRole::Equivocate { keys, mask } => {
                let prevotes = [false, true].map(|value| {
                    let vote = round1_prevote(keys, value);
                    rsa_framed(&vote.encode(), vote.rsa_equivalent_size())
                });
                let garbage: Vec<Bytes> = abba_garbage_votes(self.me, 1, 0)
                    .iter()
                    .map(|(bytes, rsa_size)| rsa_framed(bytes, *rsa_size))
                    .collect();
                let mask = *mask;
                self.send(ctx, |dst| {
                    let prevote = prevotes[usize::from(lies_to(mask, dst))].clone();
                    std::iter::once(prevote).chain(garbage.iter().cloned())
                });
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let mut released = std::mem::take(&mut self.released);
        self.transport.on_frame(ctx, &frame, &mut released);
        for (peer, padded) in released.drain(..) {
            self.hear(ctx, peer, &padded);
        }
        self.released = released;
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        if timer == FLOOD_TIMER && matches!(self.role, AbbaRole::Flood { .. }) {
            ctx.set_timer(Duration::from_millis(20), FLOOD_TIMER);
            return;
        }
        let _ = self.transport.on_timer(ctx, timer);
    }

    fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: usize, payload: Bytes) {
        self.transport.on_unicast_failed(ctx, dst, payload);
    }

    fn progress(&self) -> Option<AppProgress> {
        // An attacker reports nothing, so it does not hold up the stall
        // clock.
        let AbbaRole::Correct { engine, .. } = &self.role else {
            return None;
        };
        Some(AppProgress {
            phase: engine.round(),
            store_bytes: engine.store_bytes(),
        })
    }

    /// As [`BrachaApp`]'s: the rejoin restarts the transport's tick.
    fn reset(&mut self) {
        self.transport.restart();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wireless_net::{Addressing, Command, SimTime};

    /// Runs `app`, process `me` of `n`, from its start through
    /// `NodeCtx` callbacks against peers that only acknowledge: every
    /// unicast it sends reaches a bare transport endpoint of its
    /// destination, and each acknowledgement comes back, until nothing
    /// is left in flight. `check` sees the app after each of its
    /// callbacks with that callback's `(charged CPU, commands)`.
    /// Returns the messages each destination's endpoint released, in
    /// order.
    pub(crate) fn run_against_ackers(
        app: &mut dyn Application,
        me: usize,
        n: usize,
        mut check: impl FnMut(&dyn Application, Duration, &[Command]),
    ) -> Vec<Vec<Bytes>> {
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut peers: Vec<_> = (0..n).map(|peer| ReliableEndpoint::new(peer, n)).collect();
        let mut released = vec![Vec::new(); n];
        // Every callback runs 50 ms after the one before, past any
        // delayed ack.
        let mut now = SimTime::ZERO;
        let mut ctx = NodeCtx::new(me, now, &mut rng, Vec::new());
        app.on_start(&mut ctx);
        let (charged, mut sent) = ctx.finish();
        check(app, charged, &sent);
        loop {
            let mut acks = Vec::new();
            for command in sent {
                let Command::Unicast { dst, payload, .. } = command else { continue };
                let addressing = Addressing::Unicast(dst);
                let frame = ReceivedFrame { src: me, addressing, payload };
                now += Duration::from_millis(50);
                let mut ctx = NodeCtx::new(dst, now, &mut rng, Vec::new());
                let mut out = Vec::new();
                peers[dst].on_frame(&mut ctx, &frame, &mut out);
                released[dst].extend(out.into_iter().map(|(_, message)| message));
                let mut replies = ctx.finish().1;
                now += Duration::from_millis(50);
                let mut ctx = NodeCtx::new(dst, now, &mut rng, Vec::new());
                for command in &replies {
                    if let Command::SetTimer { id, .. } = command {
                        peers[dst].on_timer(&mut ctx, *id);
                    }
                }
                replies.extend(ctx.finish().1);
                for command in replies {
                    if let Command::Unicast { payload, .. } = command {
                        let addressing = Addressing::Unicast(me);
                        acks.push(ReceivedFrame { src: dst, addressing, payload });
                    }
                }
            }
            if acks.is_empty() {
                return released;
            }
            sent = Vec::new();
            for ack in acks {
                now += Duration::from_millis(50);
                let mut ctx = NodeCtx::new(me, now, &mut rng, Vec::new());
                app.on_frame(&mut ctx, ack);
                let (charged, commands) = ctx.finish();
                check(app, charged, &commands);
                sent.extend(commands);
            }
        }
    }

    #[test]
    fn mac_wrap_round_trip() {
        let key = HmacKey::from_bytes(b"pairwise");
        let wrapped = mac_wrap(&key.mac(b"payload"), b"payload");
        assert_eq!(mac_unwrap(&key, &wrapped), Some(&b"payload"[..]));
        let other = HmacKey::from_bytes(b"other");
        assert_eq!(mac_unwrap(&other, &wrapped), None);
        assert_eq!(mac_unwrap(&key, b"short"), None);
        let mut tampered = wrapped.to_vec();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert_eq!(mac_unwrap(&key, &tampered), None);
    }

    /// A received ICV verifies against the pooled tag exactly when the
    /// reference recomputation would accept the frame.
    #[test]
    fn icv_matches_agrees_with_reference_unwrap() {
        let key = HmacKey::from_bytes(b"pairwise");
        let tag = key.mac(b"payload");
        let wrapped = mac_wrap(&tag, b"payload");
        assert!(icv_matches(&tag, &wrapped[..ICV_LEN]));
        assert!(!icv_matches(&tag, &wrapped[1..ICV_LEN + 1]));
        assert!(!icv_matches(&tag, &wrapped[..ICV_LEN - 1]));
        assert!(!icv_matches(&key.mac(b"other"), &wrapped[..ICV_LEN]));
    }

    /// A Bracha group of `n` over one link-tag `pool`, pre-distribution
    /// seed 9.
    fn bracha_group(n: usize, pool: &SharedLinkTags) -> Vec<BrachaApp> {
        (0..n)
            .map(|i| {
                let engine = Bracha::new(n, (n - 1) / 3, i, i % 2 == 0, 31 * i as u64);
                BrachaApp::new(engine, n, 9, CostModel::default(), RunProbe::new(n), pool.clone())
            })
            .collect()
    }

    /// The `dst`-th frame of a [`BrachaApp::wrap_for_all`] chunk.
    fn frame_of(chunk: &Bytes, dst: usize, inner: &Bytes) -> Bytes {
        let w = ICV_LEN + inner.len();
        chunk.slice(dst * w..(dst + 1) * w)
    }

    fn tampered(frame: &Bytes) -> Bytes {
        let mut bytes = frame.to_vec();
        bytes[0] ^= 1;
        Bytes::from(bytes)
    }

    /// One broadcast to n = 7 costs n link-tag computations in total:
    /// the sender's batch computes them, publishes them as one pool
    /// entry and stages the per-link reference frames; every receiver's
    /// check is a hit on its link's tag — which still rejects a tampered
    /// ICV — and a frame nobody published is a miss the receiver
    /// computes itself.
    #[test]
    fn sender_publishes_n_link_tags_and_receivers_hit() {
        let n = 7;
        let pool = new_link_tags();
        let mut apps = bracha_group(n, &pool);
        let inner = Bytes::copy_from_slice(b"one broadcast body");
        let chunk = apps[0].wrap_for_all(&inner);
        assert_eq!(chunk.len(), n * (ICV_LEN + inner.len()));
        let published = pool.borrow().peek(&(0, inner.clone()), |_| true).cloned();
        assert_eq!(published.expect("the sender published its broadcast").len(), n);
        for (dst, app) in apps.iter().enumerate() {
            let frame = frame_of(&chunk, dst, &inner);
            // The batched, staged frames are the per-link reference
            // frames.
            let key = turquois_crypto::hmac::pairwise_key(9, 0, dst);
            assert_eq!(&frame[..], &mac_wrap(&key.mac(&inner), &inner)[..]);
            assert_eq!(mac_unwrap(&key, &frame), Some(&inner[..]));
            // Receiver side, as `on_frame` does it.
            assert!(app.icv_ok(0, &frame));
            assert!(!app.icv_ok(0, &tampered(&frame)), "forged ICV on a pool hit");
            assert!(!app.icv_ok(0, &frame.slice(..ICV_LEN - 1)), "short frame");
        }
        // Re-publishing the same broadcast adds nothing, and neither
        // does a receiver's check of a frame nobody published.
        apps[0].wrap_for_all(&inner);
        let stray = mac_wrap(&apps[3].macs.mac(5, b"stray"), b"stray");
        assert!(apps[5].icv_ok(3, &stray));
        assert!(!apps[5].icv_ok(3, &tampered(&stray)));
        assert_eq!(pool.borrow().len(), 1);
    }

    /// A pool too small for the traffic (capacity 2) changes no verdict:
    /// receivers whose broadcast was evicted before they checked
    /// recompute their tag from the link key — the genuine frames still
    /// verify and forged ones still fail, exactly as on a hit.
    #[test]
    fn evicted_link_tags_are_recomputed_by_the_receiver() {
        let n = 4;
        let pool: SharedLinkTags = Rc::new(RefCell::new(MemoCache::new(2)));
        let mut apps = bracha_group(n, &pool);
        let bodies = [&b"first"[..], b"second", b"third"].map(Bytes::copy_from_slice);
        let chunks = bodies.each_ref().map(|inner| apps[0].wrap_for_all(inner));
        assert!(pool.borrow().peek(&(0, bodies[0].clone()), |_| true).is_none(), "evicted");
        assert!(pool.borrow().peek(&(0, bodies[2].clone()), |_| true).is_some());
        for (inner, chunk) in bodies.iter().zip(&chunks) {
            for (dst, app) in apps.iter().enumerate() {
                let frame = frame_of(chunk, dst, inner);
                assert!(app.icv_ok(0, &frame), "destination {dst}");
                assert!(!app.icv_ok(0, &tampered(&frame)), "forged, destination {dst}");
            }
        }
        assert_eq!(pool.borrow().len(), 2);
    }

    /// Sender ids past 16 bits key pool entries of their own: a frame
    /// from sender 65 536 carrying the ICV sender 0 published for the
    /// same body misses sender 0's entry and fails its own link's check
    /// (a 16-bit key would hit that entry and accept the frame).
    #[test]
    fn sender_past_u16_misses_the_entry_of_sender_0() {
        let n = 65_537;
        let pool = new_link_tags();
        let engine = Bracha::new(n, 1, 1, false, 0);
        let receiver =
            BrachaApp::new(engine, n, 9, CostModel::default(), RunProbe::new(n), pool.clone());
        let inner = Bytes::copy_from_slice(b"one broadcast body");
        // Sender 0's published tags; the receiver reads only its slot.
        let tags: Rc<[Digest]> =
            (0..2).map(|dst| turquois_crypto::hmac::pairwise_key(9, 0, dst).mac(&inner)).collect();
        pool.borrow_mut().lookup((0, inner.clone()), || tags.clone());
        let frame = mac_wrap(&tags[1], &inner);
        assert!(receiver.icv_ok(0, &frame), "sender 0's own frame hits and verifies");
        assert!(pool.borrow().peek(&(65_536, inner.clone()), |_| true).is_none());
        assert!(!receiver.icv_ok(65_536, &frame), "sender 0's tag passed for sender 65 536");
    }

    /// A Byzantine wrapper lying to the destinations in a partial mask
    /// sends its flipped initial there and the engine's honest one
    /// elsewhere; the all-ones mask lies to every destination.
    #[test]
    fn lie_mask_selects_the_lied_to_destinations() {
        use turquois_baselines::rbc::RbcMessage;
        for (mask, lied_to) in [(0b0101, [true, false, true, false]), (u64::MAX, [true; 4])] {
            let mut app = bracha_group(4, &new_link_tags()).swap_remove(1).lying_to(mask);
            let released = run_against_ackers(&mut app, 1, 4, |_, _, _| {});
            let mut initials = [None; 4];
            for (dst, messages) in released.iter().enumerate() {
                for wrapped in messages {
                    let Some(RbcMessage::Initial { tag, payload }) =
                        RbcMessage::decode(&wrapped[ICV_LEN..])
                    else {
                        continue;
                    };
                    assert_eq!((tag.origin, tag.step), (1, 1));
                    assert!(initials[dst].replace(payload[0]).is_none(), "two initials to {dst}");
                }
            }
            // Process 1 proposes 0; the lie is 1.
            let expected = lied_to.map(|lie| Some(u8::from(lie)));
            assert_eq!(initials, expected, "mask {mask:#b}");
        }
    }

    #[test]
    fn pairwise_keys_symmetric() {
        let a = PairwiseKeys::new(0, 4, 7);
        let b = PairwiseKeys::new(3, 4, 7);
        // Key (0→3) equals key (3→0): same MAC over the same message.
        assert_eq!(a.mac(3, b"m"), b.mac(0, b"m"));
        // Distinct pairs get distinct keys.
        assert_ne!(a.mac(1, b"m"), a.mac(2, b"m"));
    }

    #[test]
    fn pad_round_trip() {
        let padded = pad_to(b"hello", 64);
        assert_eq!(padded.len(), 64);
        assert_eq!(unpad(&padded), Some(&b"hello"[..]));
        // Minimum size respected even when total is too small.
        let tight = pad_to(b"hello", 3);
        assert_eq!(unpad(&tight), Some(&b"hello"[..]));
        assert_eq!(unpad(b"xy"), None);
        assert_eq!(unpad(&[0, 0, 0, 9, 1]), None, "declared length overruns");
    }

    #[test]
    fn probe_new_sizes() {
        let probe = RunProbe::new(5);
        assert_eq!(probe.borrow().phase_at_decision.len(), 5);
        assert_eq!(probe.borrow().final_phase.len(), 5);
    }
}
