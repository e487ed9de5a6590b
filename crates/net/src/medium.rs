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
//! * A node's NAV/EIFS hold-off tracks only transmissions it could
//!   actually sense: it runs to the end of every group in flight whose
//!   transmitters shared its group when that group started.
//! * More than one transmission group may be in flight at once, as
//!   long as their contenders could not sense each other when they
//!   started (partition islands).
//! * `Reception` is per receiver: a frame is decodable at `dst` when
//!   `dst` shares the transmitter's group, no co-group transmitter and
//!   no overlapping foreign transmitter is sensed at `dst`, and `dst` is
//!   not itself transmitting.
//!
//! Interference marks are recorded when a group *starts* (against
//! every group then in flight, both directions); any two overlapping
//! groups meet this way because one of them starts while the other is
//! on the air. They are evaluated, with decodability, when the group
//! *ends*. The marks matter at transitions: a countdown sensed clear
//! before a heal can fire after it, onto a channel the other island is
//! using.
//!
//! Contention is an index, not a scan. Contenders are kept per
//! carrier-sense group of the grouping in force at the countdown base,
//! ordered by stored backoff (ties by node id), with the group's freeze
//! held as one offset. A member whose hold-off ended by the base fires
//! at `base + DIFS + backoff · slot`, so a group's first member is its
//! next sender; a resolution pops the winners and adds the elapsed
//! slots to each losing group's offset. The exception is a
//! *straggler*, which sensed a frame under an earlier grouping that is
//! still on the air at the base: it is evaluated on its own until the
//! base passes that frame's end.
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
pub(crate) struct PendingTx {
    /// The frame to transmit.
    pub frame: Frame,
    /// Transmission attempt, 0-based (drives the contention window).
    pub(crate) attempt: u32,
}

/// Which receivers can decode a completed transmission (before the
/// fault model has its say).
#[derive(Clone, Debug, Eq, PartialEq)]
pub(crate) enum Reception {
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
    pub(crate) fn hears(&self, rx: NodeId) -> bool {
        match self {
            Reception::Everyone => true,
            Reception::Nobody => false,
            Reception::Subset(v) => v.binary_search(&rx).is_ok(),
        }
    }

    /// The nodes, ascending, that decode a frame `src` transmitted among
    /// `n` nodes and that `keep` (asked once each, in order) accepts.
    pub(crate) fn into_receivers(
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
    pub(crate) attempt: u32,
    /// `true` if this transmission was garbled by interference at one
    /// or more receivers (in a single domain: it collided).
    pub(crate) collision: bool,
    /// Who decodes the frame.
    pub(crate) reception: Reception,
}

/// Opaque token tying a scheduled resolution event to the medium state it
/// was computed from.
pub type Epoch = u64;

/// One in-flight transmission group: the contenders that resolved
/// together at one instant.
#[derive(Default)]
struct Group {
    txs: Vec<(NodeId, PendingTx)>,
    /// Whoever shared a transmitter's group at `start` sensed it and
    /// holds off to `end`.
    start: SimTime,
    end: SimTime,
    /// Airtime of this group (for the channel-busy stat).
    busy: Duration,
    /// `(instant, transmitter)` of every overlapping foreign
    /// transmission, recorded when either group started: their rows at
    /// that instant garble this group's receivers.
    garbled_by: Vec<(SimTime, NodeId)>,
}

/// The low bits of a [`Contenders`] entry, which hold the node id.
const NODE_BITS: u32 = 20;

/// The contenders of one carrier-sense group, in backoff order.
#[derive(Default)]
struct Contenders {
    /// One entry per member, its key (backoff + `offset` when stored)
    /// above its node id, sorted: backoff order, ties by node id. Found
    /// by binary search; a deque, so winners leave from the front and
    /// an insertion moves the shorter side.
    ranked: VecDeque<u64>,
    /// Slots frozen off every member so far: a member's backoff is its
    /// key minus this.
    offset: u64,
}

impl Contenders {
    fn entry(key: u64, node: NodeId) -> u64 {
        debug_assert!(key >> (64 - NODE_BITS) == 0, "key {key} overflows its entry");
        key << NODE_BITS | node as u64
    }

    /// An entry's `(key, node)`.
    fn split(entry: u64) -> (u64, NodeId) {
        (entry >> NODE_BITS, (entry & ((1 << NODE_BITS) - 1)) as NodeId)
    }

    fn insert(&mut self, key: u64, node: NodeId) {
        let entry = Contenders::entry(key, node);
        self.ranked.insert(self.ranked.partition_point(|&e| e < entry), entry);
    }

    fn remove(&mut self, key: u64, node: NodeId) {
        let entry = Contenders::entry(key, node);
        if self.ranked.front() == Some(&entry) {
            self.ranked.pop_front(); // a winner
            return;
        }
        let at = self.ranked.partition_point(|&e| e < entry);
        debug_assert_eq!(self.ranked.get(at), Some(&entry), "a contender's key is in its group");
        self.ranked.remove(at);
    }

    /// Members in backoff order, as `(key, node)`.
    fn iter(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.ranked.iter().map(|&entry| Contenders::split(entry))
    }
}

/// The shared-medium arbiter. See the module docs for the model.
pub struct Medium {
    phy: PhyConfig,
    topology: Topology,
    groups: Vec<Group>,
    queues: Vec<VecDeque<PendingTx>>,
    /// The contention index: one [`Contenders`] per carrier-sense group
    /// of `era`'s grouping, at its leader's slot (slot 0 alone while
    /// fully connected).
    contenders: Vec<Contenders>,
    /// The topology era the index is grouped by, and its groups' leaders.
    era: usize,
    leaders: Vec<NodeId>,
    /// Per node: its key in its group's `ranked` while it contends.
    keys: Vec<Option<u64>>,
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
    /// Scratch: contenders whose group senses nothing at the countdown
    /// base but who still hold off for a frame they sensed under an
    /// earlier grouping, with the instant that hold-off ends.
    stragglers: Vec<(NodeId, SimTime)>,
    /// Scratch: the winners of a resolution.
    winners: Vec<NodeId>,
    /// Scratch: one topology row.
    row: Vec<bool>,
    /// Scratch: where a finishing transmission is garbled.
    garbled: Vec<bool>,
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
    #[cfg(test)]
    pub fn new(n: usize, phy: PhyConfig) -> Self {
        Medium::with_topology(n, phy, &TopologySpec::SingleDomain, 0)
    }

    /// Creates a medium whose reachability is governed by `spec`.
    /// `_seed` is unused: no topology draws randomness, and callers
    /// still pass the run seed.
    ///
    /// # Panics
    ///
    /// Panics past 2^20 nodes.
    pub fn with_topology(n: usize, phy: PhyConfig, spec: &TopologySpec, _seed: u64) -> Self {
        assert!(n <= 1 << NODE_BITS, "{n} nodes overflow the contention index");
        Medium {
            phy,
            topology: spec.build(n),
            groups: Vec::new(),
            queues: vec![VecDeque::new(); n],
            contenders: (0..n).map(|_| Contenders::default()).collect(),
            era: 0,
            leaders: (0..n.min(1)).collect(),
            keys: vec![None; n],
            epoch: 0,
            last_busy: Duration::ZERO,
            sched: None,
            spare: Vec::new(),
            stragglers: Vec::new(),
            winners: Vec::new(),
            row: vec![false; n],
            garbled: vec![false; n],
        }
    }

    fn n(&self) -> usize {
        self.queues.len()
    }

    /// Current epoch; resolution events carrying an older epoch are
    /// stale.
    #[cfg(test)]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// `true` while a transmission is on the air.
    #[cfg(test)]
    pub(crate) fn transmitting(&self) -> bool {
        !self.groups.is_empty()
    }

    /// One-line description of the active topology.
    pub(crate) fn topology_describe(&self) -> String {
        self.topology.describe().to_owned()
    }

    /// Reachability snapshot at `now` (for stall diagnostics): per-node
    /// direct-neighbor count and connected-component id.
    pub(crate) fn connectivity(&self, now: SimTime) -> Connectivity {
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
        if self.keys[node].is_none() && self.queues[node].len() == 1 {
            let backoff = self.draw_backoff(0, rng);
            self.contend(node, Some(backoff));
        }
        self.epoch += 1;
        true
    }

    /// The transmissions of the group the last successful
    /// [`Medium::resolve`] put on the air (empty once it has finished
    /// and no other is in flight).
    pub(crate) fn last_started(&self) -> impl Iterator<Item = (NodeId, &Frame)> {
        let txs = self.groups.last().into_iter().flat_map(|group| &group.txs);
        txs.map(|(node, pending)| (*node, &pending.frame))
    }

    /// `node`'s carrier-sense group in the index's era.
    fn leader(&self, node: NodeId) -> NodeId {
        self.topology.grouping_in(self.era).map_or(0, |leader| leader[node])
    }

    /// `node`'s backoff, if it contends.
    fn backoff(&self, node: NodeId) -> Option<u32> {
        let key = self.keys[node]?;
        Some((key - self.contenders[self.leader(node)].offset) as u32)
    }

    /// Sets `node`'s backoff, or with `None` withdraws it from
    /// contention.
    fn contend(&mut self, node: NodeId, backoff: Option<u32>) {
        let leader = self.leader(node);
        let group = &mut self.contenders[leader];
        if let Some(key) = self.keys[node].take() {
            group.remove(key, node);
        }
        if let Some(backoff) = backoff {
            let key = group.offset + u64::from(backoff);
            group.insert(key, node);
            self.keys[node] = Some(key);
        }
    }

    /// Groups the index by the grouping in force at `base`, if that is
    /// not the one it follows; every contender keeps its backoff.
    fn regroup(&mut self, base: SimTime) {
        let era = self.topology.era(base);
        if era == self.era {
            return;
        }
        let mut held = Vec::new();
        for &leader in &self.leaders {
            let group = &mut self.contenders[leader];
            held.extend(group.iter().map(|(key, node)| (node, (key - group.offset) as u32)));
            group.ranked.clear();
            group.offset = 0;
        }
        self.era = era;
        self.leaders.clear();
        match self.topology.grouping_in(era) {
            None => self.leaders.push(0),
            Some(leader) => self.leaders.extend((0..leader.len()).filter(|&node| leader[node] == node)),
        }
        for (node, backoff) in held {
            self.keys[node] = None;
            self.contend(node, Some(backoff));
        }
    }

    /// Carrier sense: whether group `leader` shares its group with a
    /// transmitter in flight.
    fn senses_the_air(&self, leader: NodeId) -> bool {
        let mut on_air = self.groups.iter().flat_map(|group| &group.txs);
        on_air.any(|&(src, _)| self.leader(src) == leader)
    }

    /// Fills `stragglers`: contenders in a group that senses nothing at
    /// `base` but that sensed a frame still on the air when it started
    /// under another grouping, with the latest such frame's end. Only a
    /// transition under a frame makes one, and it stays one until
    /// `base` passes that frame's end.
    fn find_stragglers(&mut self, base: SimTime) {
        self.stragglers.clear();
        let (era, groups, topology) = (self.era, &self.groups, &self.topology);
        // A group started in the index's era is sensed exactly where its
        // senders' groups sense the air.
        let earlier = || {
            let on_air = groups.iter().filter(move |group| group.end > base);
            on_air.map(|group| (topology.era(group.start), group)).filter(move |&(then, _)| then != era)
        };
        if earlier().next().is_none() {
            return;
        }
        for &leader in &self.leaders {
            if self.senses_the_air(leader) {
                continue;
            }
            for (_, node) in self.contenders[leader].iter() {
                let sensed = earlier().filter(|&(then, group)| {
                    let then = topology.grouping_in(then);
                    group.txs.iter().any(|&(src, _)| then.is_none_or(|leader| leader[src] == leader[node]))
                });
                if let Some(free_at) = sensed.map(|(_, group)| group.end).max() {
                    self.stragglers.push((node, free_at));
                }
            }
        }
    }

    /// The first member of group `leader` that is not a straggler, and
    /// its fire instant counting from `base`, unless the group senses a
    /// transmission.
    fn head(&self, base: SimTime, leader: NodeId) -> Option<(u64, SimTime)> {
        if self.senses_the_air(leader) {
            return None;
        }
        let group = &self.contenders[leader];
        let (key, _) = group.iter().find(|&(_, node)| self.stragglers.iter().all(|&(s, _)| s != node))?;
        Some((key, self.fire_at(base, key - group.offset)))
    }

    /// The fire instant of backoff `b` once the channel has been idle
    /// since `idle_from`.
    fn fire_at(&self, idle_from: SimTime, b: u64) -> SimTime {
        let (difs, slot) = (self.phy.difs.as_nanos() as u64, self.phy.slot.as_nanos() as u64);
        SimTime::from_nanos(idle_from.as_nanos() + difs + slot * b)
    }

    /// A straggler's fire instant: it counts from its own hold-off.
    fn straggler_fire(&self, (node, free_at): (NodeId, SimTime)) -> SimTime {
        let b = self.backoff(node).expect("a straggler contends");
        self.fire_at(free_at, u64::from(b))
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
        self.regroup(base);
        self.find_stragglers(base);
        let heads = self.leaders.iter().filter_map(|&leader| self.head(base, leader));
        let stragglers = self.stragglers.iter().map(|&s| self.straggler_fire(s));
        let first = heads.map(|(_, at)| at).chain(stragglers).min();
        #[cfg(debug_assertions)]
        assert_eq!(first, self.scan(base).map(|(at, _)| at), "index and scan disagree from {base}");
        first.map(|at| (at, self.epoch))
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
        debug_assert_eq!(self.era, self.topology.era(base), "next_resolution regrouped the index");
        self.find_stragglers(base);
        let mut winners = std::mem::take(&mut self.winners);
        winners.clear();
        for &leader in &self.leaders {
            let Some((key, fire)) = self.head(base, leader) else {
                continue;
            };
            debug_assert!(fire >= now, "missed a resolution instant");
            if fire == now {
                let ranked = self.contenders[leader].iter();
                let ties = ranked.skip_while(|&(k, _)| k < key).take_while(|&(k, _)| k == key);
                let stragglers = &self.stragglers;
                winners.extend(ties.map(|(_, node)| node).filter(|&node| stragglers.iter().all(|&(s, _)| s != node)));
            }
        }
        for &straggler in &self.stragglers {
            if self.straggler_fire(straggler) == now {
                winners.push(straggler.0);
            }
        }
        if winners.is_empty() {
            self.winners = winners;
            return None; // defensive: no contender fires at this instant
        }
        winners.sort_unstable();
        #[cfg(debug_assertions)]
        assert_eq!(self.scan(base), Some((now, winners.clone())), "index and scan disagree at {now}");

        // Freeze rule: losers consume the slots elapsed since their DIFS
        // expired, which is `base + DIFS` for everyone but a straggler.
        for &node in &winners {
            self.contend(node, None);
        }
        let slot = self.phy.slot.as_nanos() as u64;
        let frozen = |idle_from: SimTime| now.as_nanos().saturating_sub(self.fire_at(idle_from, 0).as_nanos()) / slot;
        let rekeyed: Vec<(NodeId, u32)> = self
            .stragglers
            .iter()
            .filter_map(|&(node, free_at)| {
                let b = self.backoff(node)?;
                Some((node, b - (frozen(free_at) as u32).min(b)))
            })
            .collect();
        let elapsed = frozen(base);
        for i in 0..self.leaders.len() {
            if !self.senses_the_air(self.leaders[i]) {
                self.contenders[self.leaders[i]].offset += elapsed;
            }
        }
        for (node, backoff) in rekeyed {
            self.contend(node, Some(backoff));
        }

        let mut group = self.spare.pop().unwrap_or_default();
        for &node in &winners {
            let pending = self.queues[node].pop_front().expect("contending node has a head frame");
            group.txs.push((node, pending));
        }
        self.winners = winners;
        group.busy = group
            .txs
            .iter()
            .map(|(_, p)| self.airtime_of(&p.frame))
            .max()
            .expect("at least one transmission");
        group.start = now;
        group.end = now + group.busy;
        // Mark mutual garbling with every group already in flight.
        group.garbled_by.clear();
        for other in &mut self.groups {
            other.garbled_by.extend(group.txs.iter().map(|&(src, _)| (now, src)));
            group.garbled_by.extend(other.txs.iter().map(|&(src, _)| (now, src)));
        }

        let end = group.end;
        self.groups.push(group);
        self.epoch += 1;
        Some(end)
    }

    /// The n-wide scan the index replaces, for the debug cross-check:
    /// every contender's fire instant from its own channel state, with
    /// carrier sense and hold-offs read off the rows of the groups in
    /// flight. The earliest instant and who fires then.
    #[cfg(debug_assertions)]
    fn scan(&mut self, base: SimTime) -> Option<(SimTime, Vec<NodeId>)> {
        let n = self.n();
        let (mut sensed, mut idle_from) = (vec![false; n], vec![base; n]);
        for group in &self.groups {
            for &(src, _) in &group.txs {
                self.topology.same_group_row(base, src, &mut self.row);
                or_into(&mut sensed, &self.row);
                self.topology.same_group_row(group.start, src, &mut self.row);
                for (from, &held) in idle_from.iter_mut().zip(&self.row) {
                    if held {
                        *from = (*from).max(group.end);
                    }
                }
            }
        }
        let fires: Vec<(SimTime, NodeId)> = (0..n)
            .filter(|&node| !sensed[node])
            .filter_map(|node| Some((self.fire_at(idle_from[node], u64::from(self.backoff(node)?)), node)))
            .collect();
        let first = fires.iter().map(|&(at, _)| at).min()?;
        Some((first, fires.iter().filter(|&&(at, _)| at == first).map(|&(_, node)| node).collect()))
    }

    /// Completes the earliest-ending in-flight transmission group.
    ///
    /// Fills `done` (cleared first, so the event loop reuses one
    /// allocation) with the transmissions that were on the air, each
    /// flagged with its `Reception`. The caller decides deliveries
    /// (fault model) and drives retries via `Medium::retry_unicast`.
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
            self.garbled.fill(false);
            for &(at, src) in &group.garbled_by {
                self.topology.same_group_row(at, src, &mut self.row);
                or_into(&mut self.garbled, &self.row);
            }
            let mut collision = false;
            for other in done.iter().map(|tx| tx.node).filter(|&other| other != node) {
                self.topology.same_group_row(now, other, &mut self.row);
                or_into(&mut self.garbled, &self.row);
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
            for (hears, &garbled) in self.row.iter_mut().zip(&self.garbled) {
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
        group.garbled_by.clear();
        self.spare.push(group);
        self.epoch += 1;
    }

    /// Time the channel was busy in the transmission reported by the last
    /// [`Medium::finish_tx_into`].
    pub(crate) fn last_busy(&self) -> Duration {
        self.last_busy
    }

    /// Re-queues a unicast frame after a failed attempt.
    ///
    /// Returns `false` — and drops the frame — when the retry limit is
    /// exhausted (the caller should report a MAC failure to the sender).
    pub(crate) fn retry_unicast(
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
        let backoff = self.draw_backoff(next_attempt, rng);
        self.contend(node, Some(backoff));
        true
    }

    /// Restarts contention for `node` after its head frame left the
    /// queue for good (success, broadcast loss, or retry exhaustion).
    pub fn after_head_done(&mut self, node: NodeId, rng: &mut dyn RngCore) {
        self.epoch += 1;
        let backoff = self.queues[node].front().map(|head| head.attempt);
        let backoff = backoff.map(|attempt| self.draw_backoff(attempt, rng));
        self.contend(node, backoff);
    }

    /// Number of frames queued at `node` (head included, in-flight
    /// excluded).
    pub(crate) fn queue_len(&self, node: NodeId) -> usize {
        self.queues[node].len()
    }

    /// Empties `node`'s transmit queue and withdraws it from contention
    /// — a crashed NIC loses its backlog. Returns the number of frames
    /// discarded. A frame already on the air is unaffected here; the
    /// simulator discards it at `TxEnd` when the source is down.
    pub(crate) fn clear_queue(&mut self, node: NodeId) -> usize {
        self.epoch += 1;
        self.contend(node, None);
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

    /// Today's countdown rule, pinned: any enqueue restarts every idle
    /// countdown from the enqueue instant, so a station loses DIFS and
    /// the slots it has counted whenever another station queues a frame
    /// — even a frame tail-dropped at `tx_queue_cap`, which changes no
    /// contender. This is the deviation from 802.11 DCF (where the
    /// counter keeps decrementing) that ROADMAP item 3(c) inverts; until
    /// then the contention index must keep honouring it.
    #[test]
    fn every_enqueue_restarts_the_idle_countdown_a_tail_drop_too() {
        let phy = PhyConfig {
            tx_queue_cap: 1,
            ..PhyConfig::default()
        };
        let (t0, b, k) = (SimTime::from_millis(1), 5, 3);
        for tail_drop in [false, true] {
            let mut m = Medium::new(3, phy);
            // A draws backoff `b`, B a larger one.
            let mut rng = ScriptRng::new(vec![b, 20]);
            m.enqueue(bc(0, 10), &mut rng);
            if tail_drop {
                assert!(m.enqueue(bc(1, 10), &mut rng), "B's queue is now full");
            }
            let (at, _) = m.next_resolution(t0).unwrap();
            assert_eq!(at, t0 + phy.difs + phy.slot * b as u32);
            let later = t0 + phy.slot * k;
            assert_eq!(m.enqueue(bc(1, 10), &mut rng), !tail_drop);
            let (at, epoch) = m.next_resolution(later).unwrap();
            assert_eq!(at, later + phy.difs + phy.slot * b as u32, "tail drop: {tail_drop}");
            let end = m.resolve(at, epoch).unwrap();
            assert_eq!(finish(&mut m, end)[0].node, 0);
        }
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
        // sense it, with different hold-offs.
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
        assert_eq!((2..5).map(|node| m.backoff(node)).collect::<Vec<_>>(), [Some(9), Some(4), None]);
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
