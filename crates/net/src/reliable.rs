//! A TCP-like reliable, ordered, per-pair transport over the simulated
//! medium.
//!
//! The baseline protocols of the paper's evaluation (Bracha, ABBA) assume
//! the classic intrusion-tolerant model with *reliable point-to-point
//! links*, which the authors implement with TCP. This module provides the
//! equivalent: per-pair sequence numbers, cumulative acknowledgements
//! piggybacked on reverse-direction data, delayed pure ACKs, an adaptive
//! retransmission timeout (RFC 6298-style, Karn's rule), and recovery
//! from MAC-level retry exhaustion. Combined with the MAC's own
//! ACK/retransmission, this delivers every message to a live peer exactly
//! once and in order — at the airtime price the paper's results hinge on:
//! a logical broadcast costs `n − 1` unicast data frames plus their MAC
//! ACKs (and occasional transport ACKs), versus one frame for UDP
//! broadcast.
//!
//! Like real TCP, the endpoint applies **Nagle-style coalescing**: a
//! message sent while earlier data is still unacknowledged is buffered
//! and rides the next segment (flushed when the in-flight data is
//! acknowledged, or immediately once a full MSS accumulates). Protocols
//! that emit bursts — Bracha's reliable broadcast emits `O(n)` echoes
//! and readies per delivery — get the segment-packing a kernel TCP stack
//! would give them.
//!
//! Delayed acks and retransmissions are driven by one 5 ms tick per
//! endpoint, armed while any peer has an ack owed, data in flight or
//! data buffered. A tick scans the peers only when something can be
//! due: the endpoint keeps a lower bound on every ack deadline and every
//! oldest-segment RTO deadline, which a MAC failure drops to zero, and
//! below that bound a tick just re-arms from a count of busy peers. The
//! contract is that this sets and fires exactly the timer events a scan
//! on every tick would (the simulator's event count is part of every
//! recorded result); debug builds evaluate the skipped scan's
//! conditions and assert it.
//!
//! [`ReliableEndpoint`] is a helper an [`crate::sim::Application`]
//! embeds; the application forwards its `on_frame`, `on_timer`, and
//! `on_unicast_failed` callbacks.

use crate::config::overhead;
use crate::frame::{NodeId, ReceivedFrame};
use crate::sim::NodeCtx;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Timer-id namespace bit reserved by the transport. Applications using
/// a [`ReliableEndpoint`] must keep their own timer ids below this.
pub const TRANSPORT_TIMER_FLAG: u64 = 1 << 63;

const TICK_ID: u64 = TRANSPORT_TIMER_FLAG | 1;
/// Period of the transport's delayed-ACK / retransmission tick.
pub const TICK_INTERVAL: Duration = Duration::from_millis(5);
const DELAYED_ACK: Duration = Duration::from_millis(10);
/// Floor of the retransmission timeout: a lost segment is resent no
/// sooner than this after it was sent.
pub const MIN_RTO: Duration = Duration::from_millis(200);
const MAX_RTO: Duration = Duration::from_secs(3);

const MAGIC: u8 = 0x54; // 'T'
const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const HEADER_LEN: usize = 1 + 1 + 8 + 8;
/// Maximum segment payload (Ethernet-class MSS minus headers).
const MSS: usize = 1400;

#[derive(Debug)]
struct Unacked {
    seq: u64,
    payload: Bytes,
    sent_at: crate::time::SimTime,
    retransmitted: bool,
    rto_deadline: crate::time::SimTime,
}

#[derive(Debug)]
struct PeerState {
    next_seq_out: u64,
    /// Messages awaiting segment assignment (Nagle buffer).
    pending: Vec<Bytes>,
    pending_bytes: usize,
    unacked: VecDeque<Unacked>,
    next_expected_in: u64,
    reorder: BTreeMap<u64, Bytes>,
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    ack_due_at: Option<crate::time::SimTime>,
    mac_failed: bool,
    /// Whether this peer is counted in the endpoint's `busy`.
    busy: bool,
}

impl PeerState {
    fn new() -> Self {
        PeerState {
            next_seq_out: 0,
            pending: Vec::new(),
            pending_bytes: 0,
            unacked: VecDeque::new(),
            next_expected_in: 0,
            reorder: BTreeMap::new(),
            srtt: None,
            rttvar: Duration::ZERO,
            rto: MIN_RTO,
            ack_due_at: None,
            mac_failed: false,
            busy: false,
        }
    }

    /// An ack owed, data in flight or data buffered: what keeps the
    /// transport tick armed.
    fn has_work(&self) -> bool {
        self.ack_due_at.is_some() || !self.unacked.is_empty() || !self.pending.is_empty()
    }

    fn update_rtt(&mut self, sample: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = srtt.abs_diff(sample);
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        let rto = self.srtt.expect("just set") + 4 * self.rttvar;
        self.rto = rto.clamp(MIN_RTO, MAX_RTO);
    }
}

/// Reliable ordered transport endpoint for one node.
///
/// # Example (inside an `Application`)
///
/// ```no_run
/// use wireless_net::reliable::ReliableEndpoint;
/// use wireless_net::sim::{Application, NodeCtx};
/// use wireless_net::frame::ReceivedFrame;
/// use bytes::Bytes;
///
/// struct Echo {
///     transport: ReliableEndpoint,
///     released: Vec<(usize, Bytes)>,
/// }
///
/// impl Application for Echo {
///     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
///         self.transport.send(ctx, 1, Bytes::from_static(b"ping"));
///     }
///     fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
///         self.transport.on_frame(ctx, &frame, &mut self.released);
///         for (peer, msg) in self.released.drain(..) {
///             self.transport.send(ctx, peer, msg); // echo back
///         }
///     }
///     fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
///         let _ = self.transport.on_timer(ctx, timer);
///     }
///     fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: usize, payload: Bytes) {
///         self.transport.on_unicast_failed(ctx, dst, payload);
///     }
/// }
/// ```
#[derive(Debug)]
pub struct ReliableEndpoint {
    node: NodeId,
    peers: Vec<PeerState>,
    tick_armed: bool,
    /// Lower bound on everything a tick's scan could find due: each
    /// peer's `ack_due_at`, the RTO deadline of its oldest
    /// unacknowledged segment, and time zero while any `mac_failed` is
    /// set (`None`: there is nothing).
    next_due: Option<crate::time::SimTime>,
    /// Peers with an ack owed, data in flight or data buffered: the
    /// tick re-arms exactly while there is one.
    busy: usize,
}

impl ReliableEndpoint {
    /// Creates the endpoint for `node` in a network of `n` nodes.
    pub fn new(node: NodeId, n: usize) -> Self {
        ReliableEndpoint {
            node,
            peers: (0..n).map(|_| PeerState::new()).collect(),
            tick_armed: false,
            next_due: None,
            busy: 0,
        }
    }

    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Restarts the tick after the node rejoined: the crash staled the
    /// pending tick timer, so the next send or data frame arms a new
    /// one, whose scan visits every peer. Connections survive; an
    /// application calls this from [`crate::sim::Application::reset`].
    pub fn restart(&mut self) {
        self.tick_armed = false;
        self.next_due = Some(crate::time::SimTime::ZERO);
    }

    /// Sends `payload` reliably and in order to `dst`.
    ///
    /// Transmits immediately when no data is in flight to `dst`;
    /// otherwise the message joins the Nagle buffer and rides the next
    /// segment (on acknowledgement, or as soon as a full MSS
    /// accumulates).
    ///
    /// # Panics
    ///
    /// If `payload` is longer than `u16::MAX` bytes, the most a
    /// segment's per-message length prefix can carry.
    pub fn send(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, payload: Bytes) {
        assert!(payload.len() <= usize::from(u16::MAX), "message exceeds the 16-bit length prefix");
        let peer = &mut self.peers[dst];
        peer.pending_bytes += payload.len() + 2;
        peer.pending.push(payload);
        if peer.unacked.is_empty() || peer.pending_bytes >= MSS {
            self.flush(ctx, dst);
        }
        self.note(dst);
        self.arm_tick(ctx);
    }

    /// Packs the Nagle buffer into one segment (up to MSS) and
    /// transmits it.
    fn flush(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId) {
        let now = ctx.now();
        let peer = &mut self.peers[dst];
        while !peer.pending.is_empty() {
            // Take messages until the MSS would be exceeded (always at
            // least one).
            let (mut k, mut bytes) = (0usize, 0usize);
            for message in &peer.pending {
                let add = message.len() + 2;
                if k > 0 && bytes + add > MSS {
                    break;
                }
                bytes += add;
                k += 1;
            }
            peer.pending_bytes = peer.pending_bytes.saturating_sub(bytes);
            let seq = peer.next_seq_out;
            peer.next_seq_out += 1;
            let ack = peer.next_expected_in;
            peer.ack_due_at = None; // piggybacked
            let rto = peer.rto;
            // Header and packed batch are written once, into one
            // exact-capacity buffer; the batch the retransmit queue must
            // retain is a zero-copy slice of the transmitted segment.
            let mut buf = BytesMut::with_capacity(HEADER_LEN + 2 + bytes);
            put_segment_header(&mut buf, KIND_DATA, seq, ack);
            pack_batch_into(&mut buf, &peer.pending[..k]);
            peer.pending.drain(..k);
            let segment = buf.freeze();
            peer.unacked.push_back(Unacked {
                seq,
                payload: segment.slice(HEADER_LEN..),
                sent_at: now,
                retransmitted: false,
                rto_deadline: now + rto,
            });
            ctx.unicast(dst, segment, overhead::TCP);
            // Only the first segment goes out eagerly; the rest wait for
            // acks unless a full MSS is already queued.
            if peer.pending_bytes < MSS {
                break;
            }
        }
    }

    /// Processes a received frame: clears `released` (one buffer serves
    /// every frame), then writes into it the application messages the
    /// frame released, in order, as `(peer, payload)` pairs.
    pub fn on_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: &ReceivedFrame,
        released: &mut Vec<(NodeId, Bytes)>,
    ) {
        released.clear();
        let Some((kind, seq, ack, payload)) = decode(&frame.payload) else {
            return;
        };
        let src = frame.src;
        if src >= self.peers.len() {
            return;
        }
        let now = ctx.now();
        if self.process_ack(src, ack, now) {
            // The pipe drained and the Nagle buffer has data: flush it.
            self.flush(ctx, src);
        }
        if kind == KIND_DATA {
            let peer = &mut self.peers[src];
            if seq == peer.next_expected_in {
                peer.next_expected_in += 1;
                unpack_batch_into(src, &payload, released);
                while let Some(p) = peer.reorder.remove(&peer.next_expected_in) {
                    peer.next_expected_in += 1;
                    unpack_batch_into(src, &p, released);
                }
            } else if seq > peer.next_expected_in {
                peer.reorder.insert(seq, payload);
            }
            // Duplicate or old segment: just (re-)ack.
            let peer = &mut self.peers[src];
            if peer.ack_due_at.is_none() {
                peer.ack_due_at = Some(now + DELAYED_ACK);
            }
            self.arm_tick(ctx);
        }
        self.note(src);
    }

    /// Handles a transport tick or ignores foreign timers. Returns `true`
    /// when the timer belonged to the transport.
    pub fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) -> bool {
        if timer != TICK_ID {
            return false;
        }
        self.tick_armed = false;
        let now = ctx.now();
        if self.next_due.is_none_or(|due| now < due) {
            // Nothing can be due: the scan would send nothing.
            #[cfg(debug_assertions)]
            self.assert_scan_would_idle(now);
            if self.busy > 0 {
                self.arm_tick(ctx);
            }
            return true;
        }
        self.next_due = None;
        for dst in 0..self.peers.len() {
            // Pure ACK if the delayed-ack clock expired.
            if self.peers[dst].ack_due_at.is_some_and(|due| now >= due) {
                let ack = self.peers[dst].next_expected_in;
                let next_seq = self.peers[dst].next_seq_out;
                self.peers[dst].ack_due_at = None;
                let segment = encode_segment(KIND_ACK, next_seq, ack, &[]);
                ctx.unicast(dst, segment, overhead::TCP_ACK_SEGMENT);
            }
            // Retransmit on RTO expiry or MAC failure.
            let mac_failed = std::mem::take(&mut self.peers[dst].mac_failed);
            let expired = self.peers[dst]
                .unacked
                .front()
                .is_some_and(|u| mac_failed || now >= u.rto_deadline);
            if expired {
                let rto = (self.peers[dst].rto * 2).min(MAX_RTO);
                self.peers[dst].rto = rto;
                let ack = self.peers[dst].next_expected_in;
                let (head_seq, head_payload) = {
                    let head = self.peers[dst].unacked.front_mut().expect("checked");
                    head.retransmitted = true;
                    head.rto_deadline = now + rto;
                    (head.seq, head.payload.clone())
                };
                let segment = encode_segment(KIND_DATA, head_seq, ack, &head_payload);
                ctx.unicast(dst, segment, overhead::TCP);
            }
            self.note(dst);
        }
        if self.busy > 0 {
            self.arm_tick(ctx);
        }
        true
    }

    /// Re-derives `dst`'s share of the tick bookkeeping after its state
    /// changed: its bit of the busy count, and its ack and oldest-RTO
    /// deadlines folded into the lower bound (a deadline that went away
    /// stays folded until the next scan rebuilds the bound — early is
    /// safe, late is not).
    fn note(&mut self, dst: NodeId) {
        let peer = &mut self.peers[dst];
        let busy = peer.has_work();
        self.busy = self.busy + usize::from(busy) - usize::from(peer.busy);
        peer.busy = busy;
        let oldest_rto = peer.unacked.front().map(|u| u.rto_deadline);
        for due in peer.ack_due_at.into_iter().chain(oldest_rto) {
            self.next_due = Some(self.next_due.map_or(due, |bound| bound.min(due)));
        }
    }

    /// The skipped scan, evaluated: at `now` it would send no ack, find
    /// no RTO expired and no MAC failure flagged, and leave the tick
    /// armed exactly when `busy` says so.
    #[cfg(debug_assertions)]
    fn assert_scan_would_idle(&self, now: crate::time::SimTime) {
        for (dst, peer) in self.peers.iter().enumerate() {
            assert!(peer.ack_due_at.is_none_or(|due| now < due), "skipped an ack due to {dst}");
            assert!(!peer.mac_failed, "skipped a MAC failure to {dst}");
            let oldest = peer.unacked.front();
            assert!(oldest.is_none_or(|u| now < u.rto_deadline), "skipped an RTO to {dst}");
        }
        let work_left = self.peers.iter().any(PeerState::has_work);
        assert_eq!(work_left, self.busy > 0, "busy count disagrees with the scan");
    }

    /// Notifies the transport that the MAC gave up on a unicast frame to
    /// `dst`; the affected segment is retransmitted on the next tick.
    pub fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, _payload: Bytes) {
        if dst < self.peers.len() && !self.peers[dst].unacked.is_empty() {
            self.peers[dst].mac_failed = true;
            self.next_due = Some(crate::time::SimTime::ZERO);
            self.arm_tick(ctx);
        }
    }

    fn process_ack(&mut self, src: NodeId, ack: u64, now: crate::time::SimTime) -> bool {
        let peer = &mut self.peers[src];
        let mut newest_sample: Option<Duration> = None;
        while let Some(front) = peer.unacked.front() {
            if front.seq < ack {
                let u = peer.unacked.pop_front().expect("front checked");
                if !u.retransmitted {
                    newest_sample = Some(now.saturating_since(u.sent_at));
                }
            } else {
                break;
            }
        }
        if let Some(sample) = newest_sample {
            peer.update_rtt(sample);
        }
        peer.unacked.is_empty() && !peer.pending.is_empty()
    }

    fn arm_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.set_timer(TICK_INTERVAL, TICK_ID);
        }
    }
}

/// Encodes one wire segment.
fn encode_segment(kind: u8, seq: u64, ack: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len());
    put_segment_header(&mut buf, kind, seq, ack);
    buf.put_slice(payload);
    buf.freeze()
}

fn put_segment_header(buf: &mut BytesMut, kind: u8, seq: u64, ack: u64) {
    buf.put_u8(MAGIC);
    buf.put_u8(kind);
    buf.put_u64(seq);
    buf.put_u64(ack);
}

fn pack_batch_into(buf: &mut BytesMut, messages: &[Bytes]) {
    buf.put_u16(messages.len() as u16);
    for m in messages {
        buf.put_u16(m.len() as u16);
        buf.put_slice(m);
    }
}

/// Appends the messages of one packed batch from `src` to `released`;
/// a malformed batch releases nothing (the whole segment is dropped).
fn unpack_batch_into(src: NodeId, payload: &Bytes, released: &mut Vec<(NodeId, Bytes)>) {
    if payload.len() < 2 {
        return;
    }
    let first = released.len();
    let count = u16::from_be_bytes([payload[0], payload[1]]) as usize;
    let mut at = 2usize;
    for _ in 0..count {
        if at + 2 > payload.len() {
            return released.truncate(first);
        }
        let len = u16::from_be_bytes([payload[at], payload[at + 1]]) as usize;
        at += 2;
        if at + len > payload.len() {
            return released.truncate(first);
        }
        released.push((src, payload.slice(at..at + len)));
        at += len;
    }
}

fn decode(bytes: &Bytes) -> Option<(u8, u64, u64, Bytes)> {
    if bytes.len() < HEADER_LEN || bytes[0] != MAGIC {
        return None;
    }
    let kind = bytes[1];
    if kind != KIND_DATA && kind != KIND_ACK {
        return None;
    }
    let seq = u64::from_be_bytes(bytes[2..10].try_into().ok()?);
    let ack = u64::from_be_bytes(bytes[10..18].try_into().ok()?);
    Some((kind, seq, ack, bytes.slice(HEADER_LEN..)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::tests::TargetedLoss;
    use crate::fault::{CrashSchedule, IidLoss, NoFaults};
    use crate::sim::{Application, SimConfig, Simulator};
    use crate::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn pack_batch(messages: &[Bytes]) -> Bytes {
        let mut buf = BytesMut::new();
        pack_batch_into(&mut buf, messages);
        buf.freeze()
    }

    fn unpack_batch(payload: &Bytes) -> Vec<Bytes> {
        let mut released = Vec::new();
        unpack_batch_into(0, payload, &mut released);
        released.into_iter().map(|(_, message)| message).collect()
    }

    #[test]
    fn codec_round_trip() {
        let seg = encode_segment(KIND_DATA, 7, 3, &Bytes::from_static(b"payload"));
        let (kind, seq, ack, payload) = decode(&seg).expect("valid segment");
        assert_eq!(kind, KIND_DATA);
        assert_eq!(seq, 7);
        assert_eq!(ack, 3);
        assert_eq!(&payload[..], b"payload");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&Bytes::from_static(b"")).is_none());
        assert!(decode(&Bytes::from_static(b"short")).is_none());
        let mut bad_magic = encode_segment(KIND_DATA, 0, 0, &Bytes::new()).to_vec();
        bad_magic[0] = 0xff;
        assert!(decode(&Bytes::from(bad_magic)).is_none());
        let mut bad_kind = encode_segment(KIND_DATA, 0, 0, &Bytes::new()).to_vec();
        bad_kind[1] = 77;
        assert!(decode(&Bytes::from(bad_kind)).is_none());
    }

    type Inbox = Rc<RefCell<Vec<(NodeId, Vec<u8>)>>>;

    /// Sends `count` messages to every peer at start; records ordered
    /// deliveries.
    struct Flood {
        transport: ReliableEndpoint,
        count: usize,
        inbox: Inbox,
    }

    impl Application for Flood {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for i in 0..self.count {
                let msg = format!("m{}-{}", ctx.node(), i);
                let payload = Bytes::from(msg.into_bytes());
                for dst in 0..self.transport.peers.len() {
                    self.transport.send(ctx, dst, payload.clone());
                }
            }
        }
        fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
            let mut released = Vec::new();
            self.transport.on_frame(ctx, &frame, &mut released);
            for (peer, msg) in released {
                self.inbox.borrow_mut().push((peer, msg.to_vec()));
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
            let _ = self.transport.on_timer(ctx, timer);
        }
        fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, payload: Bytes) {
            self.transport.on_unicast_failed(ctx, dst, payload);
        }
    }

    fn flood_sim(
        n: usize,
        count: usize,
        seed: u64,
        fault: Box<dyn crate::fault::FaultModel>,
    ) -> (Simulator, Vec<Inbox>) {
        let inboxes: Vec<Inbox> = (0..n).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        let apps: Vec<Box<dyn Application>> = inboxes
            .iter()
            .enumerate()
            .map(|(i, inbox)| {
                Box::new(Flood {
                    transport: ReliableEndpoint::new(i, n),
                    count,
                    inbox: inbox.clone(),
                }) as Box<dyn Application>
            })
            .collect();
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        (Simulator::new(cfg, fault, apps), inboxes)
    }

    fn assert_all_delivered_in_order(inboxes: &[Inbox], n: usize, count: usize) {
        for (rx, inbox) in inboxes.iter().enumerate() {
            let got = inbox.borrow();
            for src in 0..n {
                let from_src: Vec<&Vec<u8>> = got
                    .iter()
                    .filter(|(s, _)| *s == src)
                    .map(|(_, m)| m)
                    .collect();
                assert_eq!(
                    from_src.len(),
                    count,
                    "node {rx} expected {count} messages from {src}"
                );
                for (i, msg) in from_src.iter().enumerate() {
                    let expected = format!("m{src}-{i}");
                    assert_eq!(
                        msg.as_slice(),
                        expected.as_bytes(),
                        "node {rx} message {i} from {src} out of order"
                    );
                }
            }
        }
    }

    #[test]
    fn lossless_delivery_in_order() {
        let (mut sim, inboxes) = flood_sim(3, 5, 11, Box::new(NoFaults));
        sim.run_until(SimTime::from_millis(5_000), |_| false);
        assert_all_delivered_in_order(&inboxes, 3, 5);
    }

    #[test]
    fn delivery_survives_heavy_loss() {
        // 40% loss: MAC ARQ plus transport retransmission must still get
        // every message through, in order, exactly once.
        let (mut sim, inboxes) = flood_sim(3, 5, 13, Box::new(IidLoss::new(0.4, 21)));
        sim.run_until(SimTime::from_millis(30_000), |_| false);
        assert_all_delivered_in_order(&inboxes, 3, 5);
        assert!(sim.stats().fault_drops > 0, "loss must actually occur");
    }

    #[test]
    fn delivery_survives_total_blackout_of_one_direction_then_recovers() {
        // All deliveries to node 1 dropped: MAC fails, transport keeps
        // retrying. (Jamming that later clears is covered by the
        // integration tests; here we check nothing deadlocks and other
        // pairs complete.)
        let fault = TargetedLoss::new(vec![], vec![1], 1.0, 5);
        let (mut sim, inboxes) = flood_sim(3, 2, 17, Box::new(fault));
        sim.run_until(SimTime::from_millis(2_000), |_| false);
        // Nodes 0 and 2 exchange everything despite node 1 being deaf.
        for rx in [0usize, 2] {
            let got = inboxes[rx].borrow();
            for src in [0usize, 2] {
                let cnt = got.iter().filter(|(s, _)| *s == src).count();
                assert_eq!(cnt, 2, "node {rx} should have node {src}'s messages");
            }
        }
        assert!(sim.stats().mac_failures > 0);
    }

    /// A crash stales the pending tick. Node 0 queues 40 messages to
    /// node 1, crashes before they are through and rejoins 250 ms later
    /// announcing one more, as a restarted baseline re-sends its state:
    /// the restarted tick retransmits what the crash cut off.
    #[test]
    fn a_rejoined_endpoint_ticks_again() {
        const QUEUED: usize = 40;
        struct Restarting {
            transport: ReliableEndpoint,
            starts: usize,
            inbox: Inbox,
        }
        impl Application for Restarting {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node() == 0 {
                    let range = if self.starts == 0 { 0..QUEUED } else { QUEUED..QUEUED + 1 };
                    for i in range {
                        self.transport.send(ctx, 1, Bytes::from(format!("m0-{i}").into_bytes()));
                    }
                }
                self.starts += 1;
            }
            fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
                let mut released = Vec::new();
                self.transport.on_frame(ctx, &frame, &mut released);
                for (peer, msg) in released {
                    self.inbox.borrow_mut().push((peer, msg.to_vec()));
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
                let _ = self.transport.on_timer(ctx, timer);
            }
            fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, payload: Bytes) {
                self.transport.on_unicast_failed(ctx, dst, payload);
            }
            fn reset(&mut self) {
                self.transport.restart();
            }
        }
        let inbox = Inbox::default();
        let apps: Vec<Box<dyn Application>> = (0..2)
            .map(|i| {
                Box::new(Restarting {
                    transport: ReliableEndpoint::new(i, 2),
                    starts: 0,
                    inbox: inbox.clone(),
                }) as Box<dyn Application>
            })
            .collect();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(NoFaults), apps);
        sim.set_crash_schedule(
            CrashSchedule::new()
                .crash_at(0, SimTime::from_micros(1_500))
                .rejoin_after(Duration::from_millis(250)),
        );
        sim.run_until(SimTime::from_millis(20_000), |_| false);
        let got: Vec<String> = inbox
            .borrow()
            .iter()
            .map(|(_, m)| String::from_utf8(m.clone()).expect("utf-8"))
            .collect();
        let want: Vec<String> = (0..=QUEUED).map(|i| format!("m0-{i}")).collect();
        assert_eq!(got, want, "node 1 hears everything node 0 queued, in order");
    }

    #[test]
    fn no_duplicate_deliveries_under_loss() {
        let (mut sim, inboxes) = flood_sim(2, 10, 29, Box::new(IidLoss::new(0.3, 7)));
        sim.run_until(SimTime::from_millis(30_000), |_| false);
        for inbox in &inboxes {
            let got = inbox.borrow();
            let mut seen = std::collections::BTreeSet::new();
            for (src, msg) in got.iter() {
                assert!(
                    seen.insert((*src, msg.clone())),
                    "duplicate delivery of {msg:?} from {src}"
                );
            }
        }
    }

    /// `flush` writes header and packed batch once: the batch retained
    /// for retransmission is a slice of the very segment the receiver
    /// is handed, and that segment is header ‖ packed batch.
    #[test]
    fn flushed_segment_and_retained_payload_share_storage() {
        type Captured = Rc<RefCell<Vec<Bytes>>>;
        struct Flusher(ReliableEndpoint, Captured);
        impl Application for Flusher {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node() == 0 {
                    let peer = &mut self.0.peers[1];
                    peer.pending = vec![Bytes::from_static(b"one"), Bytes::from_static(b"two")];
                    peer.pending_bytes = 2 * (3 + 2); // each with its length prefix
                    self.0.flush(ctx, 1);
                    let retained = self.0.peers[1].unacked[0].payload.clone();
                    self.1.borrow_mut().push(retained);
                }
            }
            fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
                self.1.borrow_mut().push(frame.payload);
            }
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
        }
        let captured = Captured::default();
        let apps: Vec<Box<dyn Application>> = (0..2)
            .map(|i| Box::new(Flusher(ReliableEndpoint::new(i, 2), captured.clone())) as _)
            .collect();
        Simulator::without_faults(SimConfig::default(), apps)
            .run_until(SimTime::from_millis(100), |_| false);
        let captured = captured.borrow();
        let [retained, segment] = &captured[..] else {
            panic!("one retained payload, one received segment: {captured:?}");
        };
        let batch = pack_batch(&[Bytes::from_static(b"one"), Bytes::from_static(b"two")]);
        assert_eq!(segment, &encode_segment(KIND_DATA, 0, 0, &batch));
        assert_eq!(retained, &batch);
        assert_eq!(retained.as_ptr(), segment[HEADER_LEN..].as_ptr());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the segment decoder, and a
        /// segment it accepts re-encodes to exactly the input.
        #[test]
        fn segment_decode_is_total_and_canonical(
            magic in proptest::prop_oneof![proptest::prelude::Just(MAGIC), proptest::arbitrary::any::<u8>()],
            kind in 0u8..4,
            rest in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..40),
        ) {
            let wire = Bytes::from([&[magic, kind][..], &rest[..]].concat());
            for cut in 0..=wire.len() {
                let bytes = wire.slice(..cut);
                if let Some((kind, seq, ack, payload)) = decode(&bytes) {
                    proptest::prop_assert_eq!(encode_segment(kind, seq, ack, &payload), bytes);
                }
            }
        }

        /// Arbitrary bytes never panic the batch unpacker. It releases
        /// either every message the count declares — then what it
        /// released packs back to a prefix of the input — or, when a
        /// declared length overruns the payload, nothing at all.
        #[test]
        fn batch_unpack_is_total_and_all_or_nothing(
            small in proptest::collection::vec(0u8..4, 0..48),
            wild in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..48),
        ) {
            for raw in [small, wild] {
                let payload = Bytes::from(raw);
                let released = unpack_batch(&payload);
                if payload.len() < 2 {
                    proptest::prop_assert!(released.is_empty());
                    continue;
                }
                let count = usize::from(u16::from_be_bytes([payload[0], payload[1]]));
                if released.len() == count {
                    let repacked = pack_batch(&released);
                    proptest::prop_assert_eq!(&repacked[..], &payload[..repacked.len()]);
                } else {
                    proptest::prop_assert!(released.is_empty(), "partial release: {:?}", released);
                }
            }
        }
    }

    #[test]
    fn batch_pack_unpack_round_trip() {
        let msgs = vec![
            Bytes::from_static(b"alpha"),
            Bytes::from_static(b""),
            Bytes::from_static(b"gamma-gamma"),
        ];
        let packed = pack_batch(&msgs);
        assert_eq!(unpack_batch(&packed), msgs);
        assert!(unpack_batch(&Bytes::from_static(b"")).is_empty());
        // Malformed batches (bad inner length) drop cleanly.
        let mut bad = packed.to_vec();
        bad[2] = 0xff; // first chunk length high byte
        bad[3] = 0xff;
        assert!(unpack_batch(&Bytes::from(bad.clone())).is_empty());
        // ... taking nothing of an earlier segment's release with them,
        // even when the bad length follows good messages.
        let mut released = vec![(7, Bytes::from_static(b"earlier"))];
        unpack_batch_into(1, &packed, &mut released);
        assert_eq!(released.len(), 4);
        let mut late_bad = packed.to_vec();
        late_bad[11] = 0xff; // third message's length, after two good ones
        unpack_batch_into(1, &Bytes::from(late_bad), &mut released);
        unpack_batch_into(1, &Bytes::from(bad), &mut released);
        assert_eq!(released.len(), 4);
        assert_eq!(released[3], (1, msgs[2].clone()));
    }

    /// A message the 16-bit length prefix cannot carry is refused at
    /// the door instead of corrupting its segment.
    #[test]
    #[should_panic(expected = "message exceeds the 16-bit length prefix")]
    fn send_rejects_a_message_past_the_length_prefix() {
        struct Oversized(ReliableEndpoint);
        impl Application for Oversized {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                self.0.send(ctx, 0, Bytes::from(vec![0; usize::from(u16::MAX) + 1]));
            }
            fn on_frame(&mut self, _ctx: &mut NodeCtx<'_>, _frame: ReceivedFrame) {}
            fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
        }
        let apps: Vec<Box<dyn Application>> = vec![Box::new(Oversized(ReliableEndpoint::new(0, 1)))];
        Simulator::without_faults(SimConfig::default(), apps)
            .run_until(SimTime::from_millis(1), |_| false);
    }

    /// Once everything is delivered and acknowledged the tick stops
    /// re-arming: a quiescent network processes no further events. (A
    /// stale busy count shows up here as ticks that never end — or, in
    /// the delivery tests, as ticks that never start.)
    #[test]
    fn idle_endpoints_stop_ticking() {
        let (mut sim, inboxes) = flood_sim(3, 5, 11, Box::new(IidLoss::new(0.2, 5)));
        sim.run_until(SimTime::from_millis(30_000), |_| false);
        assert_all_delivered_in_order(&inboxes, 3, 5);
        let quiescent = sim.stats().events_processed;
        sim.run_until(SimTime::from_millis(60_000), |_| false);
        assert_eq!(sim.stats().events_processed, quiescent);
    }

    #[test]
    fn nagle_coalesces_burst_into_few_segments() {
        // One sender bursts 20 small messages to one receiver: the first
        // flies alone, the rest coalesce behind acknowledgements — far
        // fewer than 20 data segments hit the air.
        struct Burst {
            transport: ReliableEndpoint,
            inbox: Rc<RefCell<Vec<Bytes>>>,
        }
        impl Application for Burst {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                if ctx.node() == 0 {
                    for i in 0..20u8 {
                        self.transport.send(ctx, 1, Bytes::from(vec![i; 8]));
                    }
                }
            }
            fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
                let mut released = Vec::new();
                self.transport.on_frame(ctx, &frame, &mut released);
                for (_, m) in released {
                    self.inbox.borrow_mut().push(m);
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: u64) {
                let _ = self.transport.on_timer(ctx, timer);
            }
            fn on_unicast_failed(&mut self, ctx: &mut NodeCtx<'_>, dst: NodeId, p: Bytes) {
                self.transport.on_unicast_failed(ctx, dst, p);
            }
        }
        let inbox = Rc::new(RefCell::new(Vec::new()));
        let apps: Vec<Box<dyn Application>> = vec![
            Box::new(Burst {
                transport: ReliableEndpoint::new(0, 2),
                inbox: Rc::new(RefCell::new(Vec::new())),
            }),
            Box::new(Burst {
                transport: ReliableEndpoint::new(1, 2),
                inbox: inbox.clone(),
            }),
        ];
        let mut sim = Simulator::without_faults(
            SimConfig {
                seed: 3,
                ..SimConfig::default()
            },
            apps,
        );
        sim.run_until(SimTime::from_millis(5_000), |_| false);
        assert_eq!(inbox.borrow().len(), 20, "all messages delivered");
        // 20 messages travel in far fewer data segments: 1 eager, 1
        // coalesced flush behind its acknowledgement, and their 2 pure
        // acks. Pinned, because the count moves if a tick fires late or
        // not at all.
        assert_eq!(sim.stats().unicast_frames_sent, 4);
    }

    #[test]
    fn transport_timer_namespace_respected() {
        let mut ep = ReliableEndpoint::new(0, 2);
        assert_eq!(ep.node(), 0);
        // Foreign timers are not consumed and issue nothing.
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut ctx = NodeCtx::new(0, SimTime::ZERO, &mut rng, Vec::new());
        assert!(!ep.on_timer(&mut ctx, 7));
        assert_eq!(ctx.finish(), (Duration::ZERO, Vec::new()));
    }
}
