//! The shared 802.11b broadcast medium: CSMA/CA arbitration with binary
//! exponential backoff, collisions, and unicast ACK/retransmission.
//!
//! The model is the standard simplified DCF used by protocol simulators:
//!
//! * Every node owns a FIFO transmit queue; only the head frame contends.
//! * A contender draws a backoff uniform in `[0, CW(attempt)]` slots.
//!   Contention resolves at `max(now, channel_free) + DIFS + min_backoff ·
//!   slot`; all contenders holding the minimum transmit **simultaneously**
//!   — more than one means a collision that garbles every involved frame
//!   at every receiver. Losers decrement their counters by the elapsed
//!   slots (the freeze rule).
//! * Broadcast (group-addressed) frames are sent once at the basic rate:
//!   no ACK, no retransmission — a collision or fault loses them at up to
//!   `n − 1` receivers, the effect paper §7.3 highlights.
//! * Unicast frames use the data rate and are acknowledged after SIFS;
//!   a collision or missing ACK triggers retransmission with a doubled
//!   contention window, up to `retry_limit`, after which the MAC reports
//!   failure to the sender.
//!
//! Reachability comes from the compiled partition schedule, a
//! [`crate::topology::Topology`]: a node decodes and senses exactly the
//! members of its group at the query instant. The paper's single
//! broadcast domain is the schedule with no transitions, where everyone
//! senses and hears everyone. In general:
//!
//! * `free_at` is per node: a node's NAV/EIFS hold-off tracks only
//!   transmissions it could actually sense.
//! * More than one transmission group may be in flight at once, as
//!   long as their contenders could not sense each other when they
//!   started (partition islands).
//! * [`Reception`] is per receiver: a frame is decodable at `dst` when
//!   `dst` shares the transmitter's group, no co-group transmitter and
//!   no overlapping foreign transmitter is sensed at `dst`, and `dst` is
//!   not itself transmitting.
//!
//! Interference marks are computed when a group *starts* (against
//! every group then in flight, both directions); any two overlapping
//! groups meet this way because one of them starts while the other is
//! on the air. Decodability is evaluated when the group *ends*. The
//! marks matter at transitions: a countdown sensed clear before a heal
//! can fire after it, onto a channel the other island is using.
//!
//! The medium is *driven* by the [`crate::sim::Simulator`]: it never
//! schedules its own events. Instead every mutation bumps an epoch, and
//! the simulator re-queries [`Medium::next_resolution`] and schedules a
//! resolution event carrying that epoch; stale events are ignored.

use crate::config::PhyConfig;
use crate::frame::{Addressing, Frame, NodeId};
use crate::time::SimTime;
use crate::topology::{Connectivity, Topology, TopologySpec};
use rand::RngCore;
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// A frame waiting in (or re-queued to) a node's transmit queue.
#[derive(Clone, Debug)]
pub struct PendingTx {
    /// The frame to transmit.
    pub frame: Frame,
    /// Transmission attempt, 0-based (drives the contention window).
    pub attempt: u32,
}

/// Which receivers can decode a completed transmission (before the
/// fault model has its say).
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum Reception {
    /// Every node other than the transmitter decodes the frame — the
    /// single-domain collision-free case.
    Everyone,
    /// No node decodes the frame (collision, or nobody in range).
    Nobody,
    /// Exactly these nodes decode the frame (sorted ascending).
    Subset(Vec<NodeId>),
}

impl Reception {
    /// Whether `rx` decodes the frame. `Everyone` answers for any id;
    /// the caller is responsible for excluding the transmitter itself.
    pub fn hears(&self, rx: NodeId) -> bool {
        match self {
            Reception::Everyone => true,
            Reception::Nobody => false,
            Reception::Subset(v) => v.binary_search(&rx).is_ok(),
        }
    }

    /// The nodes, ascending, that decode a frame `src` transmitted among
    /// `n` nodes and that `keep` (asked once each, in order) accepts.
    pub fn into_receivers(
        self,
        n: usize,
        src: NodeId,
        mut keep: impl FnMut(NodeId) -> bool,
    ) -> Vec<NodeId> {
        match self {
            Reception::Everyone => {
                let mut kept = Vec::with_capacity(n - 1);
                kept.extend((0..src).chain(src + 1..n).filter(|&rx| keep(rx)));
                kept
            }
            Reception::Nobody => Vec::new(),
            Reception::Subset(mut heard) => {
                heard.retain(|&rx| keep(rx));
                heard
            }
        }
    }
}

/// A transmission that just finished.
#[derive(Clone, Debug)]
pub struct CompletedTx {
    /// The transmitting node.
    pub node: NodeId,
    /// The frame that was on the air.
    pub frame: Frame,
    /// Attempt number of this transmission.
    pub attempt: u32,
    /// `true` if this transmission was garbled by interference at one
    /// or more receivers (in a single domain: it collided).
    pub collision: bool,
    /// Who decodes the frame.
    pub reception: Reception,
}

/// Opaque token tying a scheduled resolution event to the medium state it
/// was computed from.
pub type Epoch = u64;

/// One in-flight transmission group: the contenders that resolved
/// together at one instant within one carrier-sense neighborhood.
#[derive(Default)]
struct Group {
    txs: Vec<(NodeId, PendingTx)>,
    end: SimTime,
    /// Airtime of this group (for the channel-busy stat).
    busy: Duration,
    /// Receivers garbled by an overlapping foreign group (marked when
    /// either group starts).
    garbled: Vec<bool>,
}

/// The shared-medium arbiter. See the module docs for the model.
pub struct Medium {
    phy: PhyConfig,
    topology: Topology,
    /// Per-node channel-free time: when the last transmission this
    /// node could sense ends.
    free_at: Vec<SimTime>,
    groups: Vec<Group>,
    queues: Vec<VecDeque<PendingTx>>,
    backoffs: Vec<Option<u32>>,
    epoch: Epoch,
    last_busy: Duration,
    /// The epoch a resolution was first scheduled under and the `now`
    /// of that [`Medium::next_resolution`] call: the instant the
    /// current idle countdown started. `resolve` re-derives the winner
    /// set from it, and later queries under the same epoch (no mutation
    /// in between) must not move it.
    sched: Option<(Epoch, SimTime)>,
    /// Finished groups; the next group to start reuses their vectors.
    spare: Vec<Group>,
    /// Scratch: one topology row.
    row: Vec<bool>,
    /// Scratch: the OR of several rows — who defers ([`Medium::sense`]),
    /// who is garbled ([`Medium::finish_tx_into`]).
    mask: Vec<bool>,
}

/// `mask[i] |= row[i]`.
fn or_into(mask: &mut [bool], row: &[bool]) {
    for (m, &r) in mask.iter_mut().zip(row) {
        *m |= r;
    }
}

impl fmt::Debug for Medium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Medium")
            .field("topology", &self.topology.describe())
            .field("groups", &self.groups.len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Medium {
    /// Creates a single-broadcast-domain medium for `n` nodes with the
    /// given PHY parameters.
    pub fn new(n: usize, phy: PhyConfig) -> Self {
        Medium::with_topology(n, phy, &TopologySpec::SingleDomain, 0)
    }

    /// Creates a medium whose reachability is governed by `spec`.
    /// `_seed` is unused: no topology draws randomness, and callers
    /// still pass the run seed.
    pub fn with_topology(n: usize, phy: PhyConfig, spec: &TopologySpec, _seed: u64) -> Self {
        Medium {
            phy,
            topology: spec.build(n),
            free_at: vec![SimTime::ZERO; n],
            groups: Vec::new(),
            queues: vec![VecDeque::new(); n],
            backoffs: vec![None; n],
            epoch: 0,
            last_busy: Duration::ZERO,
            sched: None,
            spare: Vec::new(),
            row: vec![false; n],
            mask: vec![false; n],
        }
    }

    fn n(&self) -> usize {
        self.queues.len()
    }

    /// The PHY configuration in use.
    pub fn phy(&self) -> &PhyConfig {
        &self.phy
    }

    /// Current epoch; resolution events carrying an older epoch are
    /// stale.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// `true` while a transmission is on the air.
    pub fn transmitting(&self) -> bool {
        !self.groups.is_empty()
    }

    /// One-line description of the active topology.
    pub fn topology_describe(&self) -> String {
        self.topology.describe().to_owned()
    }

    /// Reachability snapshot at `now` (for stall diagnostics): per-node
    /// direct-neighbor count and connected-component id.
    pub fn connectivity(&self, now: SimTime) -> Connectivity {
        self.topology.connectivity(now)
    }

    /// Enqueues a frame for transmission by `frame.src`. Returns `false`
    /// — dropping the frame — when the node's transmit queue is full
    /// (socket-buffer tail drop).
    ///
    /// # Panics
    ///
    /// Panics on unicast frames addressed to their own sender (the
    /// simulator loops those back without touching the radio) and on
    /// unknown node ids.
    pub fn enqueue(&mut self, frame: Frame, rng: &mut dyn RngCore) -> bool {
        if let Addressing::Unicast(dst) = frame.addressing {
            assert_ne!(dst, frame.src, "self-unicast must not reach the medium");
        }
        let node = frame.src;
        if self.queues[node].len() >= self.phy.tx_queue_cap {
            self.epoch += 1;
            return false;
        }
        self.queues[node].push_back(PendingTx { frame, attempt: 0 });
        if self.backoffs[node].is_none() && self.queues[node].len() == 1 {
            self.backoffs[node] = Some(self.draw_backoff(0, rng));
        }
        self.epoch += 1;
        true
    }

    /// The transmissions of the group the last successful
    /// [`Medium::resolve`] put on the air (empty once it has finished
    /// and no other is in flight).
    pub fn last_started(&self) -> impl Iterator<Item = (NodeId, &Frame)> {
        let txs = self.groups.last().into_iter().flat_map(|group| &group.txs);
        txs.map(|(node, pending)| (*node, &pending.frame))
    }

    /// Carrier sense at `at`, one topology row per in-flight
    /// transmitter: `mask[node]` says whether `node` defers because one
    /// of them shares its group.
    fn sense(&mut self, at: SimTime) {
        self.mask.fill(false);
        for group in &self.groups {
            for &(src, _) in &group.txs {
                self.topology.same_group_row(at, src, &mut self.row);
                or_into(&mut self.mask, &self.row);
            }
        }
    }

    /// Backoff and fire instant of `node`, counting from schedule
    /// instant `base`, if it contends and the last [`Medium::sense`]
    /// found its channel clear.
    fn fire_at(&self, base: SimTime, node: NodeId) -> Option<(u32, SimTime)> {
        let b = self.backoffs[node].filter(|_| !self.mask[node])?;
        let (difs, slot) = (self.phy.difs.as_nanos() as u64, self.phy.slot.as_nanos() as u64);
        let difs_end = base.max(self.free_at[node]).as_nanos() + difs;
        Some((b, SimTime::from_nanos(difs_end + slot * u64::from(b))))
    }

    /// When and with what epoch the next contention resolution should
    /// fire, or `None` when no eligible contender exists (single
    /// domain: while transmitting or idle with no contenders).
    ///
    /// Takes `&mut self`: the first query under an epoch records its
    /// instant as the start of the idle countdown (`resolve` replays
    /// the winner computation from it). Asking again under the same
    /// epoch — nothing was mutated in between — returns the same
    /// instant.
    pub fn next_resolution(&mut self, now: SimTime) -> Option<(SimTime, Epoch)> {
        let base = match self.sched {
            Some((epoch, base)) if epoch == self.epoch => base,
            _ => {
                self.sched = Some((self.epoch, now));
                now
            }
        };
        self.sense(base);
        let fires = (0..self.n()).filter_map(|node| self.fire_at(base, node));
        fires.map(|(_, at)| at).min().map(|at| (at, self.epoch))
    }

    /// Fires a contention resolution scheduled with `epoch`.
    ///
    /// Returns the end time of the transmission group that starts now,
    /// or `None` if the event was stale (epoch mismatch — a mutation,
    /// or another group starting, intervened).
    pub fn resolve(&mut self, now: SimTime, epoch: Epoch) -> Option<SimTime> {
        // Re-derive the winner set from the schedule instant. The
        // epoch match guarantees no medium mutation intervened, and
        // topology queries are pure functions of the query time, so
        // this reproduces the `next_resolution` computation exactly.
        let base = match self.sched {
            Some((scheduled, base)) if scheduled == epoch && epoch == self.epoch => base,
            _ => return None, // stale, or never scheduled under this epoch
        };
        let n = self.n();
        self.sense(base);
        if !(0..n).any(|node| self.fire_at(base, node).is_some_and(|(_, fire)| fire == now)) {
            return None; // defensive: no contender fires at this instant
        }
        let mut group = self.spare.pop().unwrap_or_default();
        let slot = self.phy.slot.as_nanos() as u64;
        // The last loser's `(DIFS end, slots since)`: losers differ only
        // in `free_at`, which only a topology change mid-frame splits.
        let mut freeze = (u64::MAX, 0);
        for node in 0..n {
            // A contender that still senses a foreign transmission
            // stays frozen.
            let Some((b, fire)) = self.fire_at(base, node) else {
                continue;
            };
            if fire == now {
                let pending = self.queues[node]
                    .pop_front()
                    .expect("contending node has a head frame");
                self.backoffs[node] = None;
                group.txs.push((node, pending));
            } else {
                debug_assert!(fire > now, "missed a resolution instant");
                // Freeze rule: slots elapsed since this node's own
                // DIFS expiry are consumed.
                let difs_end = fire.as_nanos() - slot * u64::from(b);
                if difs_end != freeze.0 {
                    freeze = (difs_end, now.as_nanos().saturating_sub(difs_end) / slot);
                }
                self.backoffs[node] = Some(b - (freeze.1 as u32).min(b));
            }
        }
        group.busy = group
            .txs
            .iter()
            .map(|(_, p)| self.airtime_of(&p.frame))
            .max()
            .expect("at least one transmission");
        group.end = now + group.busy;

        // Mark mutual garbling against every group already in flight,
        // and hold off everyone who can sense a new transmitter.
        group.garbled.clear();
        group.garbled.resize(n, false);
        for &(src, _) in &group.txs {
            self.topology.same_group_row(now, src, &mut self.row);
            for other in &mut self.groups {
                or_into(&mut other.garbled, &self.row);
            }
            for (free_at, &senses) in self.free_at.iter_mut().zip(&self.row) {
                if senses {
                    *free_at = (*free_at).max(group.end);
                }
            }
        }
        for other in &self.groups {
            for &(src, _) in &other.txs {
                self.topology.same_group_row(now, src, &mut self.row);
                or_into(&mut group.garbled, &self.row);
            }
        }

        let end = group.end;
        self.groups.push(group);
        self.epoch += 1;
        Some(end)
    }

    /// Completes the earliest-ending in-flight transmission group.
    ///
    /// Fills `done` (cleared first, so the event loop reuses one
    /// allocation) with the transmissions that were on the air, each
    /// flagged with its [`Reception`]. The caller decides deliveries
    /// (fault model) and drives retries via [`Medium::retry_unicast`].
    ///
    /// # Panics
    ///
    /// Panics if no transmission is in flight.
    pub fn finish_tx_into(&mut self, now: SimTime, done: &mut Vec<CompletedTx>) {
        // One TxEnd event exists per group; pop the earliest-ending one
        // (FIFO among equals, matching event-queue push order).
        let idx = self
            .groups
            .iter()
            .enumerate()
            .min_by_key(|(i, g)| (g.end, *i))
            .map(|(i, _)| i)
            .expect("finish_tx_into with no tx in flight");
        let mut group = self.groups.remove(idx);
        debug_assert_eq!(now, group.end, "TxEnd event at the wrong time");
        self.last_busy = group.busy;
        let n = self.n();
        done.clear();
        done.extend(group.txs.drain(..).map(|(node, pending)| CompletedTx {
            node,
            frame: pending.frame,
            attempt: pending.attempt,
            collision: false,
            reception: Reception::Nobody,
        }));
        for i in 0..done.len() {
            let node = done[i].node;
            // Where this frame is garbled: wherever an overlapping
            // foreign group was sensed, and wherever a co-group
            // transmitter is (the single-domain collision, localized).
            // A co-group transmitter sharing `node`'s topology group is
            // a collision even when no third station observed it
            // (n = 2): the channel event happened, so it is counted.
            self.mask.copy_from_slice(&group.garbled);
            let mut collision = false;
            for other in done.iter().map(|tx| tx.node).filter(|&other| other != node) {
                self.topology.same_group_row(now, other, &mut self.row);
                or_into(&mut self.mask, &self.row);
                collision |= self.row[node];
            }
            // Who decodes it: in `node`'s group (outside it the frame
            // never arrives, so interference there is irrelevant), not
            // garbled, and — half-duplex — not transmitting, `node`
            // included.
            self.topology.same_group_row(now, node, &mut self.row);
            for tx in done.iter() {
                self.row[tx.node] = false;
            }
            let mut heard = 0;
            for (hears, &garbled) in self.row.iter_mut().zip(&self.mask) {
                collision |= *hears & garbled;
                *hears &= !garbled;
                heard += usize::from(*hears);
            }
            done[i].collision = collision;
            done[i].reception = if heard == n - 1 {
                Reception::Everyone
            } else if heard == 0 {
                Reception::Nobody
            } else {
                let mut subset = Vec::with_capacity(heard);
                subset.extend((0..n).filter(|&rx| self.row[rx]));
                Reception::Subset(subset)
            };
        }
        self.spare.push(group);
        self.epoch += 1;
    }

    /// Time the channel was busy in the transmission reported by the last
    /// [`Medium::finish_tx_into`].
    pub fn last_busy(&self) -> Duration {
        self.last_busy
    }

    /// Re-queues a unicast frame after a failed attempt.
    ///
    /// Returns `false` — and drops the frame — when the retry limit is
    /// exhausted (the caller should report a MAC failure to the sender).
    pub fn retry_unicast(
        &mut self,
        node: NodeId,
        frame: Frame,
        attempt: u32,
        rng: &mut dyn RngCore,
    ) -> bool {
        self.epoch += 1;
        let next_attempt = attempt + 1;
        if next_attempt > self.phy.retry_limit {
            self.after_head_done(node, rng);
            return false;
        }
        self.queues[node].push_front(PendingTx {
            frame,
            attempt: next_attempt,
        });
        self.backoffs[node] = Some(self.draw_backoff(next_attempt, rng));
        true
    }

    /// Restarts contention for `node` after its head frame left the
    /// queue for good (success, broadcast loss, or retry exhaustion).
    pub fn after_head_done(&mut self, node: NodeId, rng: &mut dyn RngCore) {
        self.epoch += 1;
        if let Some(head) = self.queues[node].front() {
            let attempt = head.attempt;
            self.backoffs[node] = Some(self.draw_backoff(attempt, rng));
        } else {
            self.backoffs[node] = None;
        }
    }

    /// Number of frames queued at `node` (head included, in-flight
    /// excluded).
    pub fn queue_len(&self, node: NodeId) -> usize {
        self.queues[node].len()
    }

    /// Empties `node`'s transmit queue and withdraws it from contention
    /// — a crashed NIC loses its backlog. Returns the number of frames
    /// discarded. A frame already on the air is unaffected here; the
    /// simulator discards it at `TxEnd` when the source is down.
    pub fn clear_queue(&mut self, node: NodeId) -> usize {
        self.epoch += 1;
        self.backoffs[node] = None;
        let dropped = self.queues[node].len();
        self.queues[node].clear();
        dropped
    }

    fn airtime_of(&self, frame: &Frame) -> Duration {
        match frame.addressing {
            Addressing::Broadcast => self.phy.broadcast_airtime(frame.mac_payload_len()),
            Addressing::Unicast(_) => self.phy.unicast_exchange_airtime(frame.mac_payload_len()),
        }
    }

    fn draw_backoff(&self, attempt: u32, rng: &mut dyn RngCore) -> u32 {
        let cw = self.phy.contention_window(attempt);
        rng.next_u32() % (cw + 1)
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Addressing;
    use crate::topology::PartitionSchedule;
    use bytes::Bytes;

    /// An RNG yielding a scripted sequence (for forcing backoff values).
    struct ScriptRng {
        values: Vec<u64>,
        at: usize,
    }

    impl ScriptRng {
        fn new(values: Vec<u64>) -> Self {
            ScriptRng { values, at: 0 }
        }
    }

    impl RngCore for ScriptRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let v = self.values[self.at % self.values.len()];
            self.at += 1;
            v
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest.iter_mut() {
                *b = self.next_u64() as u8;
            }
        }
        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }

    fn finish(m: &mut Medium, now: SimTime) -> Vec<CompletedTx> {
        let mut done = Vec::new();
        m.finish_tx_into(now, &mut done);
        done
    }

    fn bc(src: NodeId, len: usize) -> Frame {
        Frame {
            src,
            addressing: Addressing::Broadcast,
            payload: Bytes::from(vec![0u8; len]),
            transport_overhead: 0,
        }
    }

    fn uc(src: NodeId, dst: NodeId, len: usize) -> Frame {
        Frame {
            src,
            addressing: Addressing::Unicast(dst),
            payload: Bytes::from(vec![0u8; len]),
            transport_overhead: 0,
        }
    }

    #[test]
    fn single_broadcast_airs_after_difs_and_backoff() {
        let phy = PhyConfig::default();
        let mut m = Medium::new(2, phy);
        // Scripted value 0 → backoff 0 slots.
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(bc(0, 100), &mut rng);
        let (at, epoch) = m.next_resolution(SimTime::ZERO).expect("contender present");
        assert_eq!(at, SimTime::ZERO + phy.difs);
        let end = m.resolve(at, epoch).expect("fresh epoch");
        assert_eq!(end, at + phy.broadcast_airtime(100));
        let done = finish(&mut m, end);
        assert_eq!(done.len(), 1);
        assert!(!done[0].collision);
        assert_eq!(done[0].node, 0);
        assert_eq!(done[0].reception, Reception::Everyone);
    }

    #[test]
    fn stale_epoch_ignored() {
        let mut m = Medium::new(2, PhyConfig::default());
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(bc(0, 10), &mut rng);
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        m.enqueue(bc(1, 10), &mut rng); // bumps epoch
        assert_eq!(m.resolve(at, epoch), None, "stale event must be ignored");
        let (_, fresh) = m.next_resolution(SimTime::ZERO).unwrap();
        assert!(m.resolve(at, fresh).is_some());
    }

    #[test]
    fn later_query_under_the_same_epoch_keeps_the_scheduled_instant() {
        let phy = PhyConfig::default();
        let mut m = Medium::new(3, phy);
        let mut rng = ScriptRng::new(vec![4, 9]);
        m.enqueue(bc(0, 10), &mut rng); // backoff 4
        m.enqueue(bc(1, 10), &mut rng); // backoff 9
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        assert_eq!(at, SimTime::ZERO + phy.difs + phy.slot * 4);
        // Nothing was mutated, so the countdown that started at zero is
        // still running: asking again mid-countdown must not restart it.
        let later = SimTime::ZERO + phy.difs + phy.slot;
        assert_eq!(m.next_resolution(later), Some((at, epoch)));
        let end = m.resolve(at, epoch).expect("the first scheduled event resolves");
        let done = finish(&mut m, end);
        assert_eq!(done[0].node, 0);
        // The loser froze 4 slots off its counter, not fewer.
        let (at2, _) = m.next_resolution(end).unwrap();
        assert_eq!(at2, end + phy.difs + phy.slot * 5);
    }

    #[test]
    fn equal_backoffs_collide() {
        let phy = PhyConfig::default();
        let mut m = Medium::new(3, phy);
        let mut rng = ScriptRng::new(vec![5]);
        m.enqueue(bc(0, 50), &mut rng);
        m.enqueue(bc(1, 80), &mut rng);
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        assert_eq!(at, SimTime::ZERO + phy.difs + phy.slot * 5);
        let end = m.resolve(at, epoch).unwrap();
        // Busy for the longer of the two frames.
        assert_eq!(end, at + phy.broadcast_airtime(80));
        let done = finish(&mut m, end);
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|t| t.collision));
        assert!(done.iter().all(|t| t.reception == Reception::Nobody));
    }

    #[test]
    fn lower_backoff_wins_and_loser_decrements() {
        let phy = PhyConfig::default();
        let mut m = Medium::new(2, phy);
        let mut rng = ScriptRng::new(vec![2, 7]);
        m.enqueue(bc(0, 10), &mut rng); // backoff 2
        m.enqueue(bc(1, 10), &mut rng); // backoff 7
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        let end = m.resolve(at, epoch).unwrap();
        let done = finish(&mut m, end);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].node, 0);
        // Node 1's residual backoff is 7 − 2 = 5 slots after the busy
        // period.
        let (at2, _) = m.next_resolution(end).unwrap();
        assert_eq!(at2, end + phy.difs + phy.slot * 5);
    }

    #[test]
    fn unicast_busy_includes_ack_exchange() {
        let phy = PhyConfig::default();
        let mut m = Medium::new(2, phy);
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(uc(0, 1, 100), &mut rng);
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        let end = m.resolve(at, epoch).unwrap();
        assert_eq!(end, at + phy.unicast_exchange_airtime(100));
    }

    #[test]
    fn retry_respects_limit() {
        let phy = PhyConfig::default();
        let mut m = Medium::new(2, phy);
        let mut rng = ScriptRng::new(vec![0]);
        let frame = uc(0, 1, 10);
        let mut attempt = 0;
        // retry_limit retries allowed (attempts 1..=retry_limit).
        for _ in 0..phy.retry_limit {
            assert!(m.retry_unicast(0, frame.clone(), attempt, &mut rng));
            attempt += 1;
            // Clear the queue for the next retry call.
            let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
            let end = m.resolve(at, epoch).unwrap();
            let _ = finish(&mut m, end);
        }
        assert!(
            !m.retry_unicast(0, frame.clone(), attempt, &mut rng),
            "attempt {} must exceed the limit",
            attempt + 1
        );
    }

    #[test]
    fn retry_goes_to_front_of_queue() {
        let mut m = Medium::new(2, PhyConfig::default());
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(uc(0, 1, 10), &mut rng);
        m.enqueue(bc(0, 99), &mut rng); // queued behind
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        let end = m.resolve(at, epoch).unwrap();
        let done = finish(&mut m, end);
        // Failed: retry must contend before the queued broadcast.
        assert!(m.retry_unicast(0, done[0].frame.clone(), done[0].attempt, &mut rng));
        let (at2, epoch2) = m.next_resolution(end).unwrap();
        let end2 = m.resolve(at2, epoch2).unwrap();
        let done2 = finish(&mut m, end2);
        assert_eq!(done2[0].attempt, 1);
        assert!(!done2[0].frame.is_broadcast());
    }

    #[test]
    fn after_head_done_starts_next_frame() {
        let mut m = Medium::new(2, PhyConfig::default());
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(bc(0, 10), &mut rng);
        m.enqueue(bc(0, 20), &mut rng); // same node, queued
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        let end = m.resolve(at, epoch).unwrap();
        let _ = finish(&mut m, end);
        assert!(
            m.next_resolution(end).is_none(),
            "no contender until after_head_done"
        );
        m.after_head_done(0, &mut rng);
        assert!(m.next_resolution(end).is_some());
        assert_eq!(m.queue_len(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-unicast")]
    fn self_unicast_rejected() {
        let mut m = Medium::new(2, PhyConfig::default());
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(uc(1, 1, 10), &mut rng);
    }

    #[test]
    fn tx_queue_tail_drops_when_full() {
        let phy = PhyConfig {
            tx_queue_cap: 2,
            ..PhyConfig::default()
        };
        let mut m = Medium::new(2, phy);
        let mut rng = ScriptRng::new(vec![0]);
        assert!(m.enqueue(bc(0, 10), &mut rng));
        assert!(m.enqueue(bc(0, 11), &mut rng));
        assert!(!m.enqueue(bc(0, 12), &mut rng), "third frame tail-drops");
        assert_eq!(m.queue_len(0), 2);
        // Another node's queue is independent.
        assert!(m.enqueue(bc(1, 13), &mut rng));
    }

    #[test]
    fn clear_queue_discards_backlog_and_contention() {
        let mut m = Medium::new(2, PhyConfig::default());
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(bc(0, 10), &mut rng);
        m.enqueue(bc(0, 20), &mut rng);
        assert_eq!(m.clear_queue(0), 2);
        assert_eq!(m.queue_len(0), 0);
        assert!(m.next_resolution(SimTime::ZERO).is_none(), "no contender left");
        // An unaffected node keeps its queue.
        m.enqueue(bc(1, 10), &mut rng);
        assert_eq!(m.clear_queue(0), 0);
        assert_eq!(m.queue_len(1), 1);
    }

    #[test]
    fn no_resolution_while_transmitting() {
        let mut m = Medium::new(2, PhyConfig::default());
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(bc(0, 10), &mut rng);
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        let _ = m.resolve(at, epoch).unwrap();
        m.enqueue(bc(1, 10), &mut rng);
        assert!(m.next_resolution(at).is_none(), "channel is busy");
        assert!(m.transmitting());
    }

    // ---- topology-aware behavior ------------------------------------

    /// Four nodes in two islands, `{0, 1}` and `{2, 3}`, from time zero.
    fn islands(heal: Option<SimTime>) -> Medium {
        let split = PartitionSchedule::new().split_at(SimTime::ZERO, vec![vec![0, 1], vec![2, 3]]);
        let spec = TopologySpec::Partition(match heal {
            Some(at) => split.heal_at(at),
            None => split,
        });
        Medium::with_topology(4, PhyConfig::default(), &spec, 0)
    }

    #[test]
    fn a_heal_under_two_islands_frames_garbles_both() {
        let phy = PhyConfig::default();
        // Node 0 fires at DIFS; node 2 starts counting down then and
        // fires 2 slots after its own DIFS, past a heal between the two.
        let (at_0, heal) = (SimTime::ZERO + phy.difs, SimTime::ZERO + phy.difs * 2);
        let mut m = islands(Some(heal));
        let mut rng = ScriptRng::new(vec![0, 2]);
        m.enqueue(bc(0, 100), &mut rng);
        assert_eq!(m.next_resolution(SimTime::ZERO).unwrap().0, at_0);
        let end_0 = m.resolve(at_0, m.epoch()).unwrap();
        // Counted from before the heal, node 2 sensed its island clear.
        m.enqueue(bc(2, 100), &mut rng);
        let (at_2, ep_2) = m.next_resolution(at_0).unwrap();
        assert_eq!(at_2, at_0 + phy.difs + phy.slot * 2);
        assert!(heal < at_2 && at_2 < end_0, "node 2 fires healed, under node 0's frame");
        let end_2 = m.resolve(at_2, ep_2).unwrap();
        assert!(end_2 > end_0);
        // Healed, each frame reaches everyone and is garbled everywhere
        // by the other: marked on the group in flight, and on the new
        // group from the transmitter in flight.
        let done_0 = finish(&mut m, end_0);
        assert_eq!(done_0[0].node, 0);
        assert!(done_0[0].collision, "node 2 garbles node 0's frame");
        assert_eq!(done_0[0].reception, Reception::Nobody);
        let done_2 = finish(&mut m, end_2);
        assert_eq!(done_2[0].node, 2);
        assert!(done_2[0].collision, "node 0 garbled node 2's frame");
        assert_eq!(done_2[0].reception, Reception::Nobody);
    }

    #[test]
    fn a_two_node_island_firing_in_one_slot_collides() {
        let mut m = islands(None);
        let mut rng = ScriptRng::new(vec![5]);
        m.enqueue(bc(0, 50), &mut rng);
        m.enqueue(bc(1, 80), &mut rng);
        let (at, epoch) = m.next_resolution(SimTime::ZERO).unwrap();
        let end = m.resolve(at, epoch).unwrap();
        // No third station in the island observes the collision, and
        // the other island never hears it: only the co-group term
        // counts it.
        let done = finish(&mut m, end);
        assert_eq!(done.iter().map(|tx| tx.node).collect::<Vec<_>>(), vec![0, 1]);
        assert!(done.iter().all(|tx| tx.collision), "{done:?}");
        assert!(done.iter().all(|tx| tx.reception == Reception::Nobody));
    }

    #[test]
    fn partitioned_islands_transmit_concurrently_without_garbling() {
        let mut m = islands(None);
        let mut rng = ScriptRng::new(vec![0]);
        m.enqueue(bc(0, 100), &mut rng);
        let (at0, ep0) = m.next_resolution(SimTime::ZERO).unwrap();
        let end0 = m.resolve(at0, ep0).unwrap();
        // Node 2 lives in the other island: same instant, no deferral.
        m.enqueue(bc(2, 100), &mut rng);
        let (at2, ep2) = m.next_resolution(at0).unwrap();
        assert!(at2 < end0);
        let end2 = m.resolve(at2, ep2).unwrap();
        let done0 = finish(&mut m, end0);
        assert!(!done0[0].collision, "islands do not interfere");
        assert_eq!(done0[0].reception, Reception::Subset(vec![1]));
        let done2 = finish(&mut m, end2);
        assert!(!done2[0].collision);
        assert_eq!(done2[0].reception, Reception::Subset(vec![3]));
    }

    #[test]
    fn losers_with_different_difs_ends_freeze_by_their_own_slots() {
        let phy = PhyConfig::default();
        // Node 0's frame starts while {0, 1, 2} share a group, so it
        // holds off node 2 but not 3 or 4. A re-split under the frame
        // moves node 2 in with them: three contenders that no longer
        // sense it, with different `free_at`.
        let resplit = SimTime::ZERO + phy.difs * 2;
        let spec = TopologySpec::Partition(
            PartitionSchedule::new()
                .split_at(SimTime::ZERO, vec![vec![0, 1, 2], vec![3, 4]])
                .split_at(resplit, vec![vec![0, 1], vec![2, 3, 4]]),
        );
        let mut m = Medium::with_topology(5, phy, &spec, 0);
        let mut rng = ScriptRng::new(vec![0, 9, 7, 3]);
        m.enqueue(bc(0, 100), &mut rng);
        let (at_0, ep_0) = m.next_resolution(SimTime::ZERO).unwrap();
        let end_0 = m.resolve(at_0, ep_0).unwrap();
        for node in [2, 3, 4] {
            m.enqueue(bc(node, 100), &mut rng); // backoffs 9, 7, 3
        }
        let (at, epoch) = m.next_resolution(resplit).unwrap();
        assert_eq!(at, resplit + phy.difs + phy.slot * 3, "node 4 fires first");
        assert!(at < end_0, "node 0 is still on the air");
        m.resolve(at, epoch).unwrap();
        // Node 3 counted down the same 3 slots as node 4; node 2's DIFS
        // has not even begun (its hold-off runs to `end_0`).
        assert_eq!(m.backoffs[2..], [Some(9), Some(4), None]);
    }

    #[test]
    fn connectivity_snapshot_matches_partition() {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new()
                .split_at(SimTime::from_millis(1), vec![vec![0, 1, 2], vec![3]])
                .heal_at(SimTime::from_millis(9)),
        );
        let m = Medium::with_topology(4, PhyConfig::default(), &spec, 0);
        let mid = m.connectivity(SimTime::from_millis(5));
        assert_eq!(mid.reachable, vec![2, 2, 2, 0]);
        assert_eq!(mid.component, vec![0, 0, 0, 3]);
        let healed = m.connectivity(SimTime::from_millis(9));
        assert_eq!(healed.reachable, vec![3; 4]);
        assert_eq!(healed.component, vec![0; 4]);
        let single = Medium::new(4, PhyConfig::default());
        assert_eq!(single.connectivity(SimTime::ZERO), healed);
    }
}
