//! The medium's arbitration as it was before the topology answered in
//! rows and before contention was indexed, kept as a test oracle, and
//! the lock-step tests that hold [`Medium`] to it.
//!
//! [`PointwiseMedium`] asks the topology one `(transmitter, node)` pair
//! at a time and finds the next sender by scanning every station:
//! `blocked` and `fire_at` per contender, per-pair loops for the garbled
//! marks and the receptions, a `free_at` per node. Its method bodies are
//! the retired ones, verbatim, except that the retired `hears` and
//! `interferes` point queries are both [`same_group`], the one relation.
//! The golden files cross few transitions and never run a saturated
//! n = 256 channel through the medium alone, so these tests are the
//! guard that the contention index picks the scan's winners and freezes
//! the scan's losers, and that `Subset` receptions, `garbled` marks and
//! overlapping groups are still computed as they were when a split or
//! heal lands mid-countdown.

use super::*;
use crate::topology::PartitionSchedule;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Group {
    txs: Vec<(NodeId, PendingTx)>,
    end: SimTime,
    /// Airtime of this group (for the channel-busy stat).
    busy: Duration,
    /// Receivers garbled by an overlapping foreign group (marked when
    /// either group starts).
    garbled: Vec<bool>,
}

/// The topology's relation as a point query: `a` and `b` share a group
/// at `now`.
fn same_group(topology: &Topology, now: SimTime, a: NodeId, b: NodeId) -> bool {
    topology.grouping(now).is_none_or(|leader| leader[a] == leader[b])
}

struct PointwiseMedium {
    phy: PhyConfig,
    topology: Topology,
    free_at: Vec<SimTime>,
    groups: Vec<Group>,
    queues: Vec<VecDeque<PendingTx>>,
    backoffs: Vec<Option<u32>>,
    epoch: Epoch,
    last_busy: Duration,
    sched: Option<(Epoch, SimTime)>,
}

impl PointwiseMedium {
    fn over(n: usize, phy: PhyConfig, topology: Topology) -> Self {
        PointwiseMedium {
            phy,
            topology,
            free_at: vec![SimTime::ZERO; n],
            groups: Vec::new(),
            queues: vec![VecDeque::new(); n],
            backoffs: vec![None; n],
            epoch: 0,
            last_busy: Duration::ZERO,
            sched: None,
        }
    }

    fn n(&self) -> usize {
        self.queues.len()
    }

    fn enqueue(&mut self, frame: Frame, rng: &mut dyn RngCore) -> bool {
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

    /// Carrier sense: `node` defers while any in-flight transmitter
    /// shares its group at `at`.
    fn blocked(&mut self, at: SimTime, node: NodeId) -> bool {
        for g in 0..self.groups.len() {
            for t in 0..self.groups[g].txs.len() {
                let src = self.groups[g].txs[t].0;
                if same_group(&self.topology, at, src, node) {
                    return true;
                }
            }
        }
        false
    }

    /// Fire instant of contender `node` holding backoff `b`, counting
    /// from schedule instant `base`.
    fn fire_at(&self, base: SimTime, node: NodeId, b: u32) -> SimTime {
        base.max(self.free_at[node]) + self.phy.difs + self.phy.slot * b
    }

    fn next_resolution(&mut self, now: SimTime) -> Option<(SimTime, Epoch)> {
        let base = match self.sched {
            Some((epoch, base)) if epoch == self.epoch => base,
            _ => {
                self.sched = Some((self.epoch, now));
                now
            }
        };
        let mut best: Option<SimTime> = None;
        for node in 0..self.n() {
            let Some(b) = self.backoffs[node] else {
                continue;
            };
            if self.blocked(base, node) {
                continue;
            }
            let at = self.fire_at(base, node, b);
            best = Some(best.map_or(at, |cur: SimTime| cur.min(at)));
        }
        best.map(|at| (at, self.epoch))
    }

    fn resolve(&mut self, now: SimTime, epoch: Epoch) -> Option<SimTime> {
        // Re-derive the winner set from the schedule instant. The
        // epoch match guarantees no medium mutation intervened, and
        // topology queries are pure functions of the query time, so
        // this reproduces the `next_resolution` computation exactly.
        let base = match self.sched {
            Some((scheduled, base)) if scheduled == epoch && epoch == self.epoch => base,
            _ => return None, // stale, or never scheduled under this epoch
        };
        let mut eligible: Vec<(NodeId, u32, SimTime)> = Vec::new();
        for node in 0..self.n() {
            let Some(b) = self.backoffs[node] else {
                continue;
            };
            if self.blocked(base, node) {
                continue; // frozen: still senses a foreign transmission
            }
            eligible.push((node, b, self.fire_at(base, node, b)));
        }
        if !eligible.iter().any(|&(_, _, fire)| fire == now) {
            return None; // defensive: no contender fires at this instant
        }
        let mut txs = Vec::new();
        for (node, b, fire) in eligible {
            if fire == now {
                let pending = self.queues[node]
                    .pop_front()
                    .expect("contending node has a head frame");
                self.backoffs[node] = None;
                txs.push((node, pending));
            } else {
                debug_assert!(fire > now, "missed a resolution instant");
                // Freeze rule: slots elapsed since this node's own
                // DIFS expiry are consumed.
                let difs_end = base.max(self.free_at[node]) + self.phy.difs;
                let consumed = if now > difs_end {
                    (now.as_nanos() - difs_end.as_nanos()) / self.phy.slot.as_nanos() as u64
                } else {
                    0
                };
                self.backoffs[node] = Some(b - (consumed as u32).min(b));
            }
        }
        let airtime = txs
            .iter()
            .map(|(_, p)| self.airtime_of(&p.frame))
            .max()
            .expect("at least one transmission");
        let end = now + airtime;

        // Mark mutual garbling against every group already in flight,
        // and hold off everyone who can sense a new transmitter.
        let n = self.n();
        let mut garbled = vec![false; n];
        for &(src, _) in &txs {
            for g in 0..self.groups.len() {
                for j in 0..n {
                    if same_group(&self.topology, now, src, j) {
                        self.groups[g].garbled[j] = true;
                    }
                }
            }
            for j in 0..n {
                if same_group(&self.topology, now, src, j) {
                    self.free_at[j] = self.free_at[j].max(end);
                }
            }
        }
        for g in 0..self.groups.len() {
            for t in 0..self.groups[g].txs.len() {
                let src = self.groups[g].txs[t].0;
                for (j, flag) in garbled.iter_mut().enumerate() {
                    if same_group(&self.topology, now, src, j) {
                        *flag = true;
                    }
                }
            }
        }

        self.groups.push(Group {
            txs,
            end,
            busy: airtime,
            garbled,
        });
        self.epoch += 1;
        Some(end)
    }

    fn finish_tx_into(&mut self, now: SimTime, done: &mut Vec<CompletedTx>) {
        // One TxEnd event exists per group; pop the earliest-ending one
        // (FIFO among equals, matching event-queue push order).
        let idx = self
            .groups
            .iter()
            .enumerate()
            .min_by_key(|(i, g)| (g.end, *i))
            .map(|(i, _)| i)
            .expect("finish_tx with no tx in flight");
        let group = self.groups.remove(idx);
        debug_assert_eq!(now, group.end, "TxEnd event at the wrong time");
        self.last_busy = group.busy;
        let n = self.n();
        let sources: Vec<NodeId> = group.txs.iter().map(|(s, _)| *s).collect();
        done.clear();
        done.reserve(group.txs.len());
        for (node, pending) in group.txs {
            let mut heard: Vec<NodeId> = Vec::new();
            let mut all = true;
            let mut garbled_any = false;
            for rx in 0..n {
                if rx == node {
                    continue;
                }
                if sources.contains(&rx) {
                    all = false; // half-duplex: a co-group transmitter hears nothing
                    continue;
                }
                if !same_group(&self.topology, now, node, rx) {
                    // Out of decode range: the frame simply never
                    // reaches `rx` — interference there is irrelevant.
                    all = false;
                    continue;
                }
                let mut garbled = group.garbled[rx];
                if !garbled {
                    // A co-group transmitter in range garbles this
                    // frame at `rx` (the single-domain collision, localized).
                    for &other in &sources {
                        if other != node && same_group(&self.topology, now, other, rx) {
                            garbled = true;
                            break;
                        }
                    }
                }
                if garbled {
                    garbled_any = true;
                    all = false;
                    continue;
                }
                heard.push(rx);
            }
            // A simultaneous co-group transmitter within carrier-sense
            // range is a collision even when no third station observed
            // it (n = 2): the channel event happened, so it is counted.
            let collision = garbled_any
                || sources
                    .iter()
                    .any(|&other| other != node && same_group(&self.topology, now, other, node));
            let reception = if all {
                Reception::Everyone
            } else if heard.is_empty() {
                Reception::Nobody
            } else {
                Reception::Subset(heard)
            };
            done.push(CompletedTx {
                node,
                frame: pending.frame,
                attempt: pending.attempt,
                collision,
                reception,
            });
        }
        self.epoch += 1;
    }

    fn retry_unicast(
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
    fn after_head_done(&mut self, node: NodeId, rng: &mut dyn RngCore) {
        self.epoch += 1;
        if let Some(head) = self.queues[node].front() {
            let attempt = head.attempt;
            self.backoffs[node] = Some(self.draw_backoff(attempt, rng));
        } else {
            self.backoffs[node] = None;
        }
    }

    fn clear_queue(&mut self, node: NodeId) -> usize {
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

/// What the lock-step driver schedules.
#[derive(Clone, Copy, Debug, Eq, Ord, PartialEq, PartialOrd)]
enum Step {
    Enqueue { src: NodeId, dst: Option<NodeId> },
    Clear(NodeId),
    Resolve(Epoch),
    TxEnd,
}

/// What the scenario got to exercise.
#[derive(Debug, Default)]
struct Seen {
    transmissions: usize,
    collisions: usize,
    subsets: usize,
    overlapping_groups: usize,
    retries: usize,
    stale_resolves: usize,
    cleared_frames: usize,
    tail_drops: usize,
    /// Resolutions that put more than one transmitter on the air.
    multi_winner: usize,
}

/// Drives a [`Medium`] and a [`PointwiseMedium`] over two compilations
/// of one topology through the same seeded load — `sends` broadcasts
/// and unicasts at random instants of the first 200 ms, unicasts with
/// lost ACKs, queue clears — the way the simulator's event loop does,
/// and demands equal answers at every call. Adds what the load
/// exercised to `seen`.
fn lock_step(n: usize, phy: PhyConfig, sends: usize, seed: u64, spec: &TopologySpec, seen: &mut Seen) {
    let mut real = Medium::with_topology(n, phy, spec, seed);
    let mut oracle = PointwiseMedium::over(n, phy, spec.build(n));
    // One backoff stream each, drawn in step; the driver has its own.
    let (mut real_rng, mut oracle_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd21f);
    let mut events: BinaryHeap<Reverse<(SimTime, u64, Step)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |events: &mut BinaryHeap<_>, at: SimTime, step: Step| {
        seq += 1;
        events.push(Reverse((at, seq, step)));
    };
    // An offered load above the channel's capacity for 200 ms, so queues
    // fill, tail-drop, and contenders collide.
    for _ in 0..sends {
        let at = SimTime::from_nanos(rng.gen_range(0..200_000_000u64));
        let src = rng.gen_range(0..n);
        let step = match rng.gen_range(0..20u32) {
            0 => Step::Clear(src),
            1..=7 => Step::Enqueue { src, dst: Some((src + rng.gen_range(1..n)) % n) },
            _ => Step::Enqueue { src, dst: None },
        };
        push(&mut events, at, step);
    }
    let (mut real_done, mut oracle_done) = (Vec::new(), Vec::new());
    let mut frames = 0u32;
    while let Some(Reverse((now, _, step))) = events.pop() {
        match step {
            Step::Enqueue { src, dst } => {
                frames += 1;
                let frame = Frame {
                    src,
                    addressing: dst.map_or(Addressing::Broadcast, Addressing::Unicast),
                    payload: Bytes::from(frames.to_be_bytes().repeat(rng.gen_range(5..80usize))),
                    transport_overhead: 36,
                };
                let accepted = real.enqueue(frame.clone(), &mut real_rng);
                assert_eq!(accepted, oracle.enqueue(frame, &mut oracle_rng), "enqueue at {now}");
                seen.tail_drops += usize::from(!accepted);
            }
            Step::Clear(node) => {
                let dropped = real.clear_queue(node);
                assert_eq!(dropped, oracle.clear_queue(node), "clear_queue at {now}");
                seen.cleared_frames += dropped;
            }
            Step::Resolve(epoch) => {
                let end = real.resolve(now, epoch);
                assert_eq!(end, oracle.resolve(now, epoch), "resolve at {now}");
                match end {
                    Some(end) => {
                        push(&mut events, end, Step::TxEnd);
                        seen.overlapping_groups += usize::from(real.groups.len() > 1);
                        seen.multi_winner += usize::from(real.last_started().count() > 1);
                    }
                    None => seen.stale_resolves += 1,
                }
            }
            Step::TxEnd => {
                real.finish_tx_into(now, &mut real_done);
                oracle.finish_tx_into(now, &mut oracle_done);
                assert_eq!(real.last_busy(), oracle.last_busy, "busy time at {now}");
                let key = |tx: &CompletedTx| {
                    let reception = tx.reception.clone();
                    (tx.node, tx.attempt, tx.collision, reception, tx.frame.payload.clone())
                };
                let (got, want): (Vec<_>, Vec<_>) =
                    (real_done.iter().map(key).collect(), oracle_done.iter().map(key).collect());
                assert_eq!(got, want, "completed transmissions at {now}");
                for tx in real_done.drain(..) {
                    seen.transmissions += 1;
                    seen.collisions += usize::from(tx.collision);
                    seen.subsets += usize::from(matches!(tx.reception, Reception::Subset(_)));
                    let acked = match tx.frame.addressing {
                        Addressing::Broadcast => true,
                        Addressing::Unicast(dst) => tx.reception.hears(dst) && rng.gen_bool(0.7),
                    };
                    if acked {
                        real.after_head_done(tx.node, &mut real_rng);
                        oracle.after_head_done(tx.node, &mut oracle_rng);
                    } else {
                        seen.retries += 1;
                        let again = real.retry_unicast(tx.node, tx.frame.clone(), tx.attempt, &mut real_rng);
                        let want = oracle.retry_unicast(tx.node, tx.frame, tx.attempt, &mut oracle_rng);
                        assert_eq!(again, want, "retry_unicast at {now}");
                    }
                }
            }
        }
        // Re-query after every event, stale resolutions included: a
        // query under an unchanged epoch must not move the instant.
        let next = real.next_resolution(now);
        assert_eq!(next, oracle.next_resolution(now), "next_resolution at {now}");
        if let Some((at, epoch)) = next {
            push(&mut events, at, Step::Resolve(epoch));
        }
    }
    assert_eq!(real.epoch(), oracle.epoch);
}

/// A seeded schedule over the load's 200 ms: a transition every 1–4 ms,
/// each a heal (one in three) or a split of `0..n` into two to four
/// groups, so countdowns and transmissions keep straddling them.
fn churn(n: usize, seed: u64) -> TopologySpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4_a7);
    let mut schedule = PartitionSchedule::new();
    let mut at = 0;
    while at < 200_000_000 {
        at += rng.gen_range(1_000_000..4_000_000u64);
        schedule = if rng.gen_range(0..3u32) == 0 {
            schedule.heal_at(SimTime::from_nanos(at))
        } else {
            let mut groups = vec![Vec::new(); rng.gen_range(2..=4)];
            for node in 0..n {
                let g = rng.gen_range(0..groups.len());
                groups[g].push(node);
            }
            schedule.split_at(SimTime::from_nanos(at), groups)
        };
    }
    TopologySpec::Partition(schedule)
}

/// The contention window `scale_fanout` and `radio_null` run at `n`:
/// `cw_min = 2n − 1`.
fn scaled(n: usize) -> PhyConfig {
    let base = PhyConfig::default();
    let cw_min = base.cw_min.max(2 * n as u32 - 1);
    PhyConfig {
        cw_min,
        cw_max: base.cw_max.max(cw_min),
        ..base
    }
}

#[test]
fn index_matches_pointwise_medium_under_frequent_transitions() {
    let mut total = Seen::default();
    for seed in 0..6 {
        lock_step(12, PhyConfig::default(), 600, seed, &churn(12, seed), &mut total);
    }
    // Saturated at the scaled window: every transition strands dozens
    // of contenders mid-countdown.
    lock_step(64, scaled(64), 20 * 64, 64, &churn(64, 64), &mut total);
    assert!(total.transmissions > 1000, "{total:?}");
    assert!(total.collisions > 50, "{total:?}");
    assert!(total.subsets > 500, "{total:?}");
    assert!(total.overlapping_groups > 50, "islands must overlap: {total:?}");
    assert!(total.retries > 50, "{total:?}");
    assert!(total.stale_resolves > 100, "{total:?}");
    assert!(total.cleared_frames > 10, "{total:?}");
    assert!(total.tail_drops > 1000, "{total:?}");
    assert!(total.multi_winner > 100, "{total:?}");
}

#[test]
fn index_matches_pointwise_medium_across_split_and_heal() {
    for seed in 0..4 {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new()
                .split_at(SimTime::from_millis(30), vec![vec![0, 2, 4, 6], vec![1, 3], vec![5, 7, 8]])
                .heal_at(SimTime::from_millis(90))
                .split_at(SimTime::from_millis(140), vec![(0..5).collect(), (5..9).collect()]),
        );
        let mut seen = Seen::default();
        lock_step(9, PhyConfig::default(), 600, seed, &spec, &mut seen);
        assert!(seen.subsets > 50 && seen.overlapping_groups > 5, "{seen:?}");
        // Healed stretches behave as the single domain does.
        assert!(seen.transmissions - seen.subsets > 50, "{seen:?}");
        assert!(seen.tail_drops > 10 && seen.multi_winner > 5, "{seen:?}");
    }
    let mut seen = Seen::default();
    lock_step(9, PhyConfig::default(), 600, 1, &TopologySpec::SingleDomain, &mut seen);
    assert_eq!((seen.subsets, seen.overlapping_groups), (0, 0), "{seen:?}");
}

/// Saturated single domains at the scaled window: every station keeps a
/// frame queued, so each resolution picks among hundreds of contenders.
#[test]
fn index_matches_pointwise_medium_saturated_at_n64_and_n256() {
    for n in [64, 256] {
        let mut seen = Seen::default();
        lock_step(n, scaled(n), 20 * n, n as u64, &TopologySpec::SingleDomain, &mut seen);
        assert!(seen.transmissions > 200, "n = {n}: {seen:?}");
        assert!(seen.tail_drops > 4 * n, "n = {n}: {seen:?}");
        assert!(seen.multi_winner > 20, "n = {n}: {seen:?}");
        assert!(seen.stale_resolves > 100, "n = {n}: {seen:?}");
    }
}
