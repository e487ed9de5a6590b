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

use bytes::{BufMut, Bytes, BytesMut};
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::time::Duration;
use turquois_baselines::abba::{Abba, AbbaOutput};
use turquois_baselines::bracha::{Bracha, BrachaOutput};
use turquois_core::instance::Turquois;
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
    /// Messages accepted per node.
    pub accepted: Vec<u64>,
    /// Messages rejected (authenticity or semantic validation) per node.
    pub rejected: Vec<u64>,
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
            accepted: vec![0; n],
            rejected: vec![0; n],
            keys_exhausted: vec![false; n],
            final_phase: vec![0; n],
        }))
    }
}

/// Shared handle to a [`RunProbe`].
pub type SharedProbe = Rc<RefCell<RunProbe>>;

/// An outgoing-frame mutator installed on Byzantine protocol wrappers
/// (the §7.2 value-flipping strategies).
pub type FrameMutation = Box<dyn FnMut(&[u8]) -> Bytes>;

/// The paper's clock-tick interval (§7.1).
pub const TICK_INTERVAL: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------- turquois

/// Construction parameters of a [`Turquois`] instance, retained so a
/// crash/rejoin can rebuild the engine from scratch (the engines are
/// deliberately not `Clone`).
type TurquoisRebuild = (turquois_core::config::Config, bool, turquois_core::KeyRing, u64);

/// Turquois over UDP broadcast.
pub struct TurquoisApp {
    instance: Turquois,
    cost: CostModel,
    tick: Duration,
    generation: u64,
    exhausted: bool,
    probe: SharedProbe,
    rebuild: Option<TurquoisRebuild>,
}

impl TurquoisApp {
    /// Wraps a protocol instance.
    pub fn new(instance: Turquois, cost: CostModel, probe: SharedProbe) -> Self {
        TurquoisApp {
            instance,
            cost,
            tick: TICK_INTERVAL,
            generation: 0,
            exhausted: false,
            probe,
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
        ring: turquois_core::KeyRing,
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
    /// the tick-interval ablation.
    pub fn tick_interval(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    fn broadcast_now(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.exhausted {
            return;
        }
        match self.instance.on_tick() {
            Ok(out) => {
                ctx.charge_cpu(self.cost.otss_sign() + self.cost.hash(out.bytes.len()));
                ctx.broadcast(out.bytes, overhead::UDP);
            }
            Err(_) => {
                self.exhausted = true;
                self.probe.borrow_mut().keys_exhausted[self.instance.id()] = true;
                return;
            }
        }
        // Re-arm: only the newest generation's timer broadcasts, so a
        // phase-change broadcast implicitly resets the 10 ms clock.
        self.generation += 1;
        ctx.set_timer(self.tick, self.generation);
    }
}

impl Application for TurquoisApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.broadcast_now(ctx);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
        if timer == self.generation {
            self.broadcast_now(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let receipt = self.instance.on_message(&frame.payload);
        ctx.charge_cpu(
            self.cost.hash(frame.payload.len())
                + self.cost.otss_verify(DIGEST_LEN) * receipt.sig_verifications as u32,
        );
        {
            let mut probe = self.probe.borrow_mut();
            let id = self.instance.id();
            match receipt.outcome {
                turquois_core::MessageOutcome::Accepted
                | turquois_core::MessageOutcome::Duplicate => probe.accepted[id] += 1,
                _ => probe.rejected[id] += 1,
            }
            probe.final_phase[id] = self.instance.phase();
            if let Some(v) = receipt.newly_decided {
                probe.phase_at_decision[id] = Some(self.instance.phase());
                ctx.decide(v);
            }
        }
        if receipt.phase_advanced {
            // Clock-tick condition (2): the phase value changed.
            self.broadcast_now(ctx);
        }
    }

    fn progress(&self) -> Option<AppProgress> {
        Some(AppProgress {
            phase: self.instance.phase(),
            decided: self.instance.decision().is_some(),
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
        self.probe.borrow_mut().keys_exhausted[id] = false;
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
pub struct PairwiseKeys {
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
    pub fn mac_all(&self, message: &[u8]) -> Rc<[Digest]> {
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
    /// Optional mutation of outgoing messages (Byzantine strategies).
    mutate: Option<FrameMutation>,
    /// The destinations the mutation applies to (bit per destination;
    /// all ones: every destination, whatever `n`).
    lie_mask: u64,
    /// Byzantine wrappers suppress decisions (only correct processes
    /// count toward k).
    decide_enabled: bool,
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
            mutate: None,
            lie_mask: u64::MAX,
            decide_enabled: true,
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

    /// Installs an outgoing-message mutator (used by the Byzantine
    /// value-flipping strategy of §7.2) and suppresses decisions — a
    /// Byzantine node never counts toward k.
    pub fn with_mutation(mut self, mutate: FrameMutation) -> Self {
        self.mutate = Some(mutate);
        self.decide_enabled = false;
        self
    }

    /// Restricts the mutation to the destinations whose bit of `mask`
    /// is set (ids below 64); the others get the engine's honest bytes
    /// — an equivocating sender. The default mask, all ones, lies to
    /// every destination.
    pub fn lying_to(mut self, mask: u64) -> Self {
        self.lie_mask = mask;
        self
    }

    /// Read access for post-run inspection.
    pub fn engine(&self) -> &Bracha {
        &self.engine
    }

    /// Read access to the reliable transport (post-run diagnostics:
    /// sent/delivered/retransmit counters).
    pub fn transport(&self) -> &ReliableEndpoint {
        &self.transport
    }

    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, out: BrachaOutput) {
        if let Some(v) = out.newly_decided {
            if self.decide_enabled {
                self.probe.borrow_mut().phase_at_decision[self.engine.id()] =
                    Some(self.engine.round());
                ctx.decide(v);
            }
        }
        for bytes in out.send {
            let mask = self.lie_mask;
            match self.mutate.as_mut().map(|m| m(&bytes)) {
                None => self.send_to(ctx, &bytes, |_| true),
                Some(lie) => {
                    if mask != u64::MAX {
                        self.send_to(ctx, &bytes, |dst| !lies_to(mask, dst));
                    }
                    self.send_to(ctx, &lie, |dst| lies_to(mask, dst));
                }
            }
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
                self.probe.borrow_mut().rejected[self.engine.id()] += 1;
                continue;
            }
            self.probe.borrow_mut().accepted[self.engine.id()] += 1;
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
            decided: self.engine.decision().is_some(),
            store_bytes: self.engine.store_bytes(),
        })
    }
}

// -------------------------------------------------------------------- abba

/// Length-prefixed padding so ABBA payloads occupy their RSA-equivalent
/// size on the air: `len(4) ‖ msg ‖ zeros`.
pub fn pad_to(inner: &[u8], total: usize) -> Bytes {
    let body = total.max(inner.len() + 4);
    let mut buf = BytesMut::with_capacity(body);
    buf.put_u32(inner.len() as u32);
    buf.put_slice(inner);
    buf.resize(body, 0);
    buf.freeze()
}

/// Strips [`pad_to`] framing.
pub fn unpad(padded: &[u8]) -> Option<&[u8]> {
    if padded.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(padded[..4].try_into().ok()?) as usize;
    padded.get(4..4 + len)
}

/// ABBA over the reliable transport, with RSA-calibrated CPU charging
/// and RSA-equivalent message sizes.
pub struct AbbaApp {
    engine: Abba,
    transport: ReliableEndpoint,
    n: usize,
    cost: CostModel,
    probe: SharedProbe,
    released: Vec<(usize, Bytes)>,
}

impl AbbaApp {
    /// Wraps an engine.
    pub fn new(engine: Abba, n: usize, cost: CostModel, probe: SharedProbe) -> Self {
        let me = engine.id();
        AbbaApp {
            engine,
            transport: ReliableEndpoint::new(me, n),
            n,
            cost,
            probe,
            released: Vec::new(),
        }
    }

    /// Read access for post-run inspection.
    pub fn engine(&self) -> &Abba {
        &self.engine
    }

    fn charge(&self, ctx: &mut NodeCtx<'_>, ops: turquois_baselines::abba::CryptoOps) {
        ctx.charge_cpu(
            self.cost.threshold_share() * ops.share_signs
                + self.cost.threshold_share_verify() * ops.share_verifies
                + self.cost.rsa_verify() * ops.sig_verifies
                + self.cost.threshold_combine(ops.shares_combined as usize),
        );
    }

    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, out: AbbaOutput) {
        self.charge(ctx, out.ops);
        if let Some(v) = out.newly_decided {
            self.probe.borrow_mut().phase_at_decision[self.engine.id()] =
                Some(self.engine.round());
            ctx.decide(v);
        }
        for bytes in out.send {
            let rsa_size = turquois_baselines::abba::AbbaMessage::decode(&bytes)
                .map(|m| m.rsa_equivalent_size())
                .unwrap_or(bytes.len());
            let padded = pad_to(&bytes, rsa_size + 4);
            for dst in 0..self.n {
                self.transport.send(ctx, dst, padded.clone());
            }
        }
    }

}

impl Application for AbbaApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let out = self.engine.on_start();
        self.dispatch(ctx, out);
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
        let mut released = std::mem::take(&mut self.released);
        self.transport.on_frame(ctx, &frame, &mut released);
        for (peer, padded) in released.drain(..) {
            let Some(inner) = unpad(&padded) else {
                self.probe.borrow_mut().rejected[self.engine.id()] += 1;
                continue;
            };
            // `inner` borrows straight out of the delivered buffer; the
            // engine parses it without an owned copy.
            self.probe.borrow_mut().accepted[self.engine.id()] += 1;
            let out = self.engine.on_message(peer, inner);
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
            decided: self.engine.decision().is_some(),
            store_bytes: self.engine.store_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// sends the mutated body there and the engine's honest bytes
    /// elsewhere; the default all-ones mask lies to every destination.
    #[test]
    fn lie_mask_selects_the_lied_to_destinations() {
        const LIE: &[u8] = b"a lie";
        for (mask, lied_to) in [(0b0101, [true, false, true, false]), (u64::MAX, [true; 4])] {
            let mut app = bracha_group(4, &new_link_tags()).swap_remove(1);
            app = app.with_mutation(Box::new(|_| Bytes::from_static(LIE)));
            if mask != u64::MAX {
                app = app.lying_to(mask);
            }
            let mut rng = rand::SeedableRng::seed_from_u64(0);
            let mut ctx = NodeCtx::new(1, wireless_net::SimTime::ZERO, &mut rng, Vec::new());
            app.on_start(&mut ctx);
            for command in ctx.finish().1 {
                let wireless_net::Command::Unicast { dst, payload, .. } = command else { continue };
                let carries_lie = payload.windows(LIE.len()).any(|w| w == LIE);
                assert_eq!(carries_lie, lied_to[dst], "mask {mask:#b}, destination {dst}");
            }
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
        assert_eq!(probe.borrow().accepted.len(), 5);
    }
}
