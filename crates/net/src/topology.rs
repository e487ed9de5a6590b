//! Radio topology: who hears whom, and who interferes with whom.
//!
//! The paper's evaluation lives in a single one-hop broadcast domain,
//! but Turquois targets *dynamic* ad hoc networks — partitions that
//! form and heal, nodes that drift out of range, hidden terminals. The
//! [`Topology`] trait is the seam: the medium asks it, per query
//! instant, whether a transmission from `src` is **decodable** at `dst`
//! ([`Topology::hears`], the communication range) and whether it is
//! **detectable** at `dst` ([`Topology::interferes`], the carrier-sense
//! / interference range — always at least the communication range).
//! Everything else (CSMA/CA, queues, retries) stays in
//! [`crate::medium`].
//!
//! Three regimes beyond the default single domain, all deterministic
//! functions of the run seed and the query time — no OS entropy, no
//! wall clocks:
//!
//! * [`PartitionSchedule`] — split the node set into groups at a
//!   simtime, heal at a simtime. Group membership *is* the topology:
//!   cross-group transmissions are neither heard nor sensed.
//! * [`TopologySpec::Spatial`] — static seeded positions in a square,
//!   disk communication/interference ranges. Nodes outside each
//!   other's interference range cannot carrier-sense each other, which
//!   is what produces hidden-terminal collisions at the MAC.
//! * [`TopologySpec::Waypoint`] — random-waypoint mobility; positions
//!   are re-evaluated on a configurable clock tick (queries between
//!   ticks see the last tick's geometry), so reachability changes at
//!   discrete, reproducible instants.
//!
//! Implementations must be symmetric (`hears(a, b) == hears(b, a)`)
//! and reflexive for interference (`interferes(x, x)` is `true`: a
//! transmitting radio always senses — and deafens — itself).

use crate::frame::NodeId;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Answers reachability and interference queries for one simulation.
///
/// Methods take `&mut self` so mobile topologies can advance their
/// internal state lazily; query times are non-decreasing over a run
/// (the simulator's clock is monotonic).
pub trait Topology {
    /// `true` when a frame transmitted by `src` at `now` is decodable
    /// at `dst` (absent collisions and injected faults).
    fn hears(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> bool;

    /// `true` when energy transmitted by `src` at `now` is detectable
    /// at `dst` — carrier sense blocks `dst` from starting its own
    /// transmission, and a foreign detectable transmission garbles any
    /// frame `dst` is currently decoding. Must imply nothing about
    /// decodability, must contain the `hears` relation, and must be
    /// `true` for `src == dst`.
    fn interferes(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> bool;

    /// [`Topology::hears`] from `src` to every node at once:
    /// `row[dst] = hears(now, src, dst)`. The medium asks in rows — one
    /// call per transmitter, not one per pair — so an implementation
    /// that can answer a row cheaply should; the answer must equal the
    /// point queries entry for entry.
    fn hears_row(&mut self, now: SimTime, src: NodeId, row: &mut [bool]) {
        for (dst, slot) in row.iter_mut().enumerate() {
            *slot = self.hears(now, src, dst);
        }
    }

    /// [`Topology::interferes`] from `src` to every node at once; same
    /// contract as [`Topology::hears_row`].
    fn interferes_row(&mut self, now: SimTime, src: NodeId, row: &mut [bool]) {
        for (dst, slot) in row.iter_mut().enumerate() {
            *slot = self.interferes(now, src, dst);
        }
    }

    /// One-line human description for reports and stall diagnostics.
    fn describe(&self) -> String;
}

/// Plain-data topology selector, carried by
/// [`crate::sim::SimConfig`]; [`TopologySpec::build`] instantiates the
/// actual [`Topology`] from the run seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TopologySpec {
    /// Every node hears (and senses) every other node — the paper's
    /// one-hop broadcast domain and the default.
    #[default]
    SingleDomain,
    /// Scheduled partition: groups split at a simtime and heal at a
    /// simtime ([`PartitionSchedule`]).
    Partition(PartitionSchedule),
    /// Static seeded positions in a `side_m × side_m` square with disk
    /// communication/interference ranges (meters).
    Spatial {
        /// Side of the deployment square, meters.
        side_m: f64,
        /// Communication (decode) range, meters.
        comm_range_m: f64,
        /// Interference (carrier-sense) range, meters; must be ≥ the
        /// communication range.
        interference_range_m: f64,
    },
    /// Random-waypoint mobility over the same disk model: each node
    /// walks to seeded waypoints at `speed_mps`, pausing `pause`
    /// between legs; geometry is re-evaluated every `tick`.
    Waypoint {
        /// Side of the deployment square, meters.
        side_m: f64,
        /// Communication (decode) range, meters.
        comm_range_m: f64,
        /// Interference (carrier-sense) range, meters; must be ≥ the
        /// communication range.
        interference_range_m: f64,
        /// Walking speed, meters per second (> 0).
        speed_mps: f64,
        /// Pause at each waypoint.
        pause: Duration,
        /// Reachability re-evaluation interval (> 0).
        tick: Duration,
    },
}

impl TopologySpec {
    /// Instantiates the topology for `n` nodes. All randomness derives
    /// from `seed` (never from the simulator's boot RNG, so adding a
    /// topology does not disturb node/MAC RNG streams).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters: a partition schedule that does
    /// not cover `0..n` exactly, interference range below
    /// communication range, or non-positive speed/tick.
    pub fn build(&self, n: usize, seed: u64) -> Box<dyn Topology> {
        match self {
            TopologySpec::SingleDomain => Box::new(SingleDomain),
            TopologySpec::Partition(schedule) => Box::new(schedule.build(n)),
            TopologySpec::Spatial {
                side_m,
                comm_range_m,
                interference_range_m,
            } => {
                let mut rng = StdRng::seed_from_u64(seed ^ SPATIAL_SALT);
                let pos = (0..n)
                    .map(|_| (rng.gen_range(0.0..*side_m), rng.gen_range(0.0..*side_m)))
                    .collect();
                Box::new(Disk::new(pos, *comm_range_m, *interference_range_m))
            }
            TopologySpec::Waypoint {
                side_m,
                comm_range_m,
                interference_range_m,
                speed_mps,
                pause,
                tick,
            } => Box::new(Waypoint::new(
                n,
                seed,
                *side_m,
                *comm_range_m,
                *interference_range_m,
                *speed_mps,
                *pause,
                *tick,
            )),
        }
    }
}

/// Seed salt for static spatial placement.
const SPATIAL_SALT: u64 = 0x0d15_7a6c_e5a1;
/// Seed salt for waypoint mobility streams.
const WAYPOINT_SALT: u64 = 0x00a0_b11e_5a17;

/// The default topology: one broadcast domain, everyone in range.
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleDomain;

impl Topology for SingleDomain {
    fn hears(&mut self, _now: SimTime, _src: NodeId, _dst: NodeId) -> bool {
        true
    }
    fn interferes(&mut self, _now: SimTime, _src: NodeId, _dst: NodeId) -> bool {
        true
    }
    fn hears_row(&mut self, _now: SimTime, _src: NodeId, row: &mut [bool]) {
        row.fill(true);
    }
    fn interferes_row(&mut self, _now: SimTime, _src: NodeId, row: &mut [bool]) {
        row.fill(true);
    }
    fn describe(&self) -> String {
        "single broadcast domain".into()
    }
}

/// A scheduled network partition: the node set splits into groups at
/// one simtime and heals (or re-splits) at another. Composable with
/// the loss/jamming fault models and [`crate::fault::CrashSchedule`]
/// — the topology decides who *can* hear, the fault model then drops
/// among those who would.
///
/// Built like [`crate::fault::CrashSchedule`]: chain
/// [`PartitionSchedule::split_at`] / [`PartitionSchedule::heal_at`],
/// hand the schedule to [`TopologySpec::Partition`]. Each `split_at`
/// must list every node exactly once; validation happens in
/// [`TopologySpec::build`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionSchedule {
    /// `(at, grouping)`; `None` = fully connected (healed).
    transitions: Vec<(SimTime, Option<Vec<Vec<NodeId>>>)>,
}

impl PartitionSchedule {
    /// An empty schedule (fully connected forever).
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the network into `groups` at simtime `at`. Nodes in
    /// different groups neither hear nor sense each other from `at`
    /// until the next transition.
    pub fn split_at(mut self, at: SimTime, groups: Vec<Vec<NodeId>>) -> Self {
        self.transitions.push((at, Some(groups)));
        self
    }

    /// Restores full connectivity at simtime `at`.
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.transitions.push((at, None));
        self
    }

    /// `true` when no transition is scheduled.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// One-line description, e.g. `split@5ms 11|5, heal@1s`.
    pub fn describe(&self) -> String {
        if self.transitions.is_empty() {
            return "no partition".into();
        }
        let mut sorted = self.transitions.clone();
        sorted.sort_by_key(|(at, _)| *at);
        sorted
            .iter()
            .map(|(at, grouping)| match grouping {
                Some(groups) => {
                    let shape = groups
                        .iter()
                        .map(|g| g.len().to_string())
                        .collect::<Vec<_>>()
                        .join("|");
                    format!("split@{at} {shape}")
                }
                None => format!("heal@{at}"),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Compiles the schedule for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics when a split does not cover `0..n` exactly once.
    fn build(&self, n: usize) -> Partitioned {
        let mut changes: Vec<(SimTime, Option<Vec<usize>>)> = self
            .transitions
            .iter()
            .map(|(at, grouping)| {
                let compiled = grouping.as_ref().map(|groups| {
                    let mut of = vec![usize::MAX; n];
                    for (gid, members) in groups.iter().enumerate() {
                        for &node in members {
                            assert!(node < n, "partition group member {node} out of range");
                            assert_eq!(
                                of[node],
                                usize::MAX,
                                "node {node} appears in more than one partition group"
                            );
                            of[node] = gid;
                        }
                    }
                    assert!(
                        of.iter().all(|&g| g != usize::MAX),
                        "a partition split must cover every node: {of:?}"
                    );
                    of
                });
                (*at, compiled)
            })
            .collect();
        changes.sort_by_key(|(at, _)| *at);
        Partitioned {
            describe: self.describe(),
            changes,
        }
    }
}

/// Compiled [`PartitionSchedule`]: group id per node per epoch.
#[derive(Clone, Debug)]
struct Partitioned {
    describe: String,
    /// Sorted transitions; the entry active at `now` is the last one
    /// with `at <= now` (fully connected before the first).
    changes: Vec<(SimTime, Option<Vec<usize>>)>,
}

impl Partitioned {
    /// Group id per node at `now`; `None` while fully connected.
    fn grouping(&self, now: SimTime) -> Option<&[usize]> {
        let idx = self.changes.partition_point(|(at, _)| *at <= now);
        self.changes[..idx].last().and_then(|(_, of)| of.as_deref())
    }

    fn connected(&self, now: SimTime, a: NodeId, b: NodeId) -> bool {
        self.grouping(now).is_none_or(|of| of[a] == of[b])
    }

    /// Both relations are "same group" (a node shares its own), so one
    /// row serves `hears_row` and `interferes_row`.
    fn connected_row(&self, now: SimTime, src: NodeId, row: &mut [bool]) {
        match self.grouping(now) {
            None => row.fill(true),
            Some(of) => {
                let mine = of[src];
                for (slot, &group) in row.iter_mut().zip(of) {
                    *slot = group == mine;
                }
            }
        }
    }
}

impl Topology for Partitioned {
    fn hears(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        self.connected(now, src, dst)
    }
    fn interferes(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.connected(now, src, dst)
    }
    fn hears_row(&mut self, now: SimTime, src: NodeId, row: &mut [bool]) {
        self.connected_row(now, src, row);
    }
    fn interferes_row(&mut self, now: SimTime, src: NodeId, row: &mut [bool]) {
        self.connected_row(now, src, row);
    }
    fn describe(&self) -> String {
        self.describe.clone()
    }
}

/// Static disk model over fixed positions (meters).
#[derive(Clone, Debug)]
pub struct Disk {
    pos: Vec<(f64, f64)>,
    comm2: f64,
    intf2: f64,
}

impl Disk {
    /// Builds a disk topology over explicit positions — the
    /// constructor tests and hand-crafted geometries (e.g. a
    /// hidden-terminal line) use.
    ///
    /// # Panics
    ///
    /// Panics when the interference range is below the communication
    /// range.
    pub fn new(pos: Vec<(f64, f64)>, comm_range_m: f64, interference_range_m: f64) -> Disk {
        assert!(
            interference_range_m >= comm_range_m,
            "interference range must contain the communication range"
        );
        Disk {
            pos,
            comm2: comm_range_m * comm_range_m,
            intf2: interference_range_m * interference_range_m,
        }
    }

    fn dist2(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.pos[a];
        let (bx, by) = self.pos[b];
        let (dx, dy) = (ax - bx, ay - by);
        dx * dx + dy * dy
    }
}

impl Topology for Disk {
    fn hears(&mut self, _now: SimTime, src: NodeId, dst: NodeId) -> bool {
        self.dist2(src, dst) <= self.comm2
    }
    fn interferes(&mut self, _now: SimTime, src: NodeId, dst: NodeId) -> bool {
        self.dist2(src, dst) <= self.intf2
    }
    fn describe(&self) -> String {
        format!(
            "static disk (n={}, comm {:.0}m, intf {:.0}m)",
            self.pos.len(),
            self.comm2.sqrt(),
            self.intf2.sqrt()
        )
    }
}

/// One node's current random-waypoint leg.
#[derive(Clone, Debug)]
struct Leg {
    rng: StdRng,
    /// Leg origin and target, meters.
    from: (f64, f64),
    to: (f64, f64),
    /// Walking starts at `depart` and arrives at `arrive`; the node
    /// then pauses until `depart` of the next leg.
    depart: SimTime,
    arrive: SimTime,
}

/// Random-waypoint mobility with disk ranges, quantized to a clock
/// tick: all queries inside one tick see the tick-start geometry.
#[derive(Clone, Debug)]
pub struct Waypoint {
    legs: Vec<Leg>,
    side: f64,
    comm2: f64,
    intf2: f64,
    speed: f64,
    pause: Duration,
    tick: Duration,
}

impl Waypoint {
    #[allow(clippy::too_many_arguments)]
    fn new(
        n: usize,
        seed: u64,
        side: f64,
        comm: f64,
        intf: f64,
        speed: f64,
        pause: Duration,
        tick: Duration,
    ) -> Waypoint {
        assert!(intf >= comm, "interference range must contain the communication range");
        assert!(speed > 0.0, "waypoint speed must be positive");
        assert!(tick > Duration::ZERO, "waypoint tick must be positive");
        let legs = (0..n)
            .map(|node| {
                // Golden-ratio stride decorrelates the per-node streams
                // while staying a pure function of (seed, node).
                let mut rng = StdRng::seed_from_u64(
                    seed ^ WAYPOINT_SALT
                        ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(node as u64 + 1),
                );
                let from = (rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                let mut leg = Leg {
                    rng,
                    from,
                    to: from,
                    depart: SimTime::ZERO,
                    arrive: SimTime::ZERO,
                };
                Self::next_leg(&mut leg, side, speed, SimTime::ZERO);
                leg
            })
            .collect();
        Waypoint {
            legs,
            side,
            comm2: comm * comm,
            intf2: intf * intf,
            speed,
            pause,
            tick,
        }
    }

    /// Starts a new leg from the current arrival point, departing at
    /// `depart`.
    fn next_leg(leg: &mut Leg, side: f64, speed: f64, depart: SimTime) {
        leg.from = leg.to;
        leg.to = (leg.rng.gen_range(0.0..side), leg.rng.gen_range(0.0..side));
        let (dx, dy) = (leg.to.0 - leg.from.0, leg.to.1 - leg.from.1);
        let dist = (dx * dx + dy * dy).sqrt();
        leg.depart = depart;
        leg.arrive = depart + Duration::from_secs_f64(dist / speed);
    }

    /// Quantizes `now` to the reachability tick.
    fn quantize(&self, now: SimTime) -> SimTime {
        let t = self.tick.as_nanos() as u64;
        SimTime::from_nanos(now.as_nanos() / t * t)
    }

    /// Advances node `node` to (quantized) time `q` and returns its
    /// position. Pure in `q` once the leg containing `q` is reached;
    /// queries never go backwards past a leg boundary because the
    /// simulator clock is monotonic.
    fn position(&mut self, node: NodeId, q: SimTime) -> (f64, f64) {
        let (side, speed, pause) = (self.side, self.speed, self.pause);
        let leg = &mut self.legs[node];
        while q >= leg.arrive + pause {
            let depart = leg.arrive + pause;
            Self::next_leg(leg, side, speed, depart);
        }
        if q <= leg.depart {
            leg.from
        } else if q >= leg.arrive {
            leg.to
        } else {
            let total = leg.arrive.saturating_since(leg.depart).as_secs_f64();
            let done = q.saturating_since(leg.depart).as_secs_f64();
            let frac = if total > 0.0 { done / total } else { 1.0 };
            (
                leg.from.0 + (leg.to.0 - leg.from.0) * frac,
                leg.from.1 + (leg.to.1 - leg.from.1) * frac,
            )
        }
    }

    fn dist2(&mut self, now: SimTime, a: NodeId, b: NodeId) -> f64 {
        let q = self.quantize(now);
        let (ax, ay) = self.position(a, q);
        let (bx, by) = self.position(b, q);
        let (dx, dy) = (ax - bx, ay - by);
        dx * dx + dy * dy
    }
}

impl Topology for Waypoint {
    fn hears(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        self.dist2(now, src, dst) <= self.comm2
    }
    fn interferes(&mut self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.dist2(now, src, dst) <= self.intf2
    }
    fn describe(&self) -> String {
        format!(
            "random waypoint (n={}, comm {:.0}m, intf {:.0}m, {:.1} m/s, tick {:?})",
            self.legs.len(),
            self.comm2.sqrt(),
            self.intf2.sqrt(),
            self.speed,
            self.tick
        )
    }
}

/// Snapshot of the reachability graph at one instant: per-node direct
/// neighbor count and connected-component id (smallest member index),
/// for stall diagnostics.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Connectivity {
    /// Direct neighbors each node hears.
    pub reachable: Vec<usize>,
    /// Connected-component id of each node (the smallest node index in
    /// the component, so ids are stable across runs).
    pub component: Vec<usize>,
}

/// Computes the reachability snapshot over `hears` at `now` (treated
/// as symmetric).
pub fn connectivity(topo: &mut dyn Topology, now: SimTime, n: usize) -> Connectivity {
    let mut reachable = vec![0usize; n];
    let mut component: Vec<usize> = (0..n).collect();
    for a in 0..n {
        for b in a + 1..n {
            if topo.hears(now, a, b) {
                reachable[a] += 1;
                reachable[b] += 1;
                // Union by relabeling: n is small and this runs only in
                // diagnostics paths.
                let (ra, rb) = (component[a], component[b]);
                if ra != rb {
                    let (keep, drop) = (ra.min(rb), ra.max(rb));
                    for c in component.iter_mut() {
                        if *c == drop {
                            *c = keep;
                        }
                    }
                }
            }
        }
    }
    Connectivity {
        reachable,
        component,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_domain_hears_everyone() {
        let mut t = SingleDomain;
        assert!(t.hears(SimTime::ZERO, 0, 5));
        assert!(t.interferes(SimTime::from_millis(10), 3, 3));
    }

    #[test]
    fn partition_splits_and_heals_on_schedule() {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new()
                .split_at(SimTime::from_millis(10), vec![vec![0, 1], vec![2, 3]])
                .heal_at(SimTime::from_millis(50)),
        );
        let mut t = spec.build(4, 7);
        // Before the split: connected.
        assert!(t.hears(SimTime::from_millis(9), 0, 3));
        // During: only same-group.
        assert!(t.hears(SimTime::from_millis(10), 0, 1));
        assert!(!t.hears(SimTime::from_millis(10), 0, 2));
        assert!(!t.interferes(SimTime::from_millis(30), 1, 3));
        assert!(t.interferes(SimTime::from_millis(30), 3, 3), "self-sense");
        // After the heal: connected again.
        assert!(t.hears(SimTime::from_millis(50), 0, 2));
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn partition_split_must_cover_all_nodes() {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new().split_at(SimTime::ZERO, vec![vec![0, 1]]),
        );
        let _ = spec.build(4, 0);
    }

    #[test]
    fn partition_describe_shows_shape_and_times() {
        let s = PartitionSchedule::new()
            .split_at(SimTime::from_millis(5), vec![vec![0, 1, 2], vec![3]])
            .heal_at(SimTime::from_millis(20));
        let d = s.describe();
        assert!(d.contains("split@"), "{d}");
        assert!(d.contains("3|1"), "{d}");
        assert!(d.contains("heal@"), "{d}");
        assert_eq!(PartitionSchedule::new().describe(), "no partition");
    }

    #[test]
    fn disk_hidden_terminal_line() {
        // A --- B --- C: A and C each hear B but not each other, and —
        // crucially — cannot carrier-sense each other either.
        let mut t = Disk::new(vec![(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)], 120.0, 150.0);
        assert!(t.hears(SimTime::ZERO, 0, 1));
        assert!(t.hears(SimTime::ZERO, 1, 2));
        assert!(!t.hears(SimTime::ZERO, 0, 2));
        assert!(!t.interferes(SimTime::ZERO, 0, 2), "hidden from each other");
        assert!(t.interferes(SimTime::ZERO, 0, 1));
    }

    #[test]
    fn spatial_positions_are_seed_deterministic() {
        let spec = TopologySpec::Spatial {
            side_m: 300.0,
            comm_range_m: 120.0,
            interference_range_m: 200.0,
        };
        let mut a = spec.build(8, 42);
        let mut b = spec.build(8, 42);
        let mut c = spec.build(8, 43);
        let snap = |t: &mut Box<dyn Topology>| {
            let mut v = Vec::new();
            for i in 0..8 {
                for j in 0..8 {
                    v.push(t.hears(SimTime::ZERO, i, j));
                }
            }
            v
        };
        assert_eq!(snap(&mut a), snap(&mut b), "same seed, same geometry");
        // A different seed must at least be *allowed* to differ; with 8
        // nodes in a 300 m square at 120 m range the graphs essentially
        // always do.
        assert_ne!(snap(&mut a), snap(&mut c), "seed changes the geometry");
    }

    #[test]
    fn waypoint_is_deterministic_and_moves() {
        let spec = TopologySpec::Waypoint {
            side_m: 500.0,
            comm_range_m: 150.0,
            interference_range_m: 200.0,
            speed_mps: 20.0,
            pause: Duration::from_millis(100),
            tick: Duration::from_millis(100),
        };
        let mut a = spec.build(6, 9);
        let mut b = spec.build(6, 9);
        let mut changed = false;
        let mut last: Option<Vec<bool>> = None;
        for step in 0..200u64 {
            let now = SimTime::from_millis(step * 100);
            let mut edges = Vec::new();
            for i in 0..6 {
                for j in 0..6 {
                    let h = a.hears(now, i, j);
                    assert_eq!(h, b.hears(now, i, j), "replica diverged at {now}");
                    edges.push(h);
                }
            }
            if let Some(prev) = &last {
                changed |= *prev != edges;
            }
            last = Some(edges);
        }
        assert!(changed, "20 m/s for 20 s must change some link");
    }

    #[test]
    fn waypoint_queries_within_a_tick_are_stable() {
        let spec = TopologySpec::Waypoint {
            side_m: 400.0,
            comm_range_m: 100.0,
            interference_range_m: 150.0,
            speed_mps: 50.0,
            pause: Duration::ZERO,
            tick: Duration::from_millis(250),
        };
        let mut t = spec.build(4, 3);
        let early = SimTime::from_nanos(250_000_000);
        let late = SimTime::from_nanos(499_999_999);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.hears(early, i, j), t.hears(late, i, j));
            }
        }
    }

    /// `hears_row` / `interferes_row` against the point queries, entry
    /// for entry, from every source at `now`.
    fn assert_rows_equal_points(t: &mut dyn Topology, n: usize, now: SimTime) {
        let mut row = vec![false; n];
        for src in 0..n {
            t.hears_row(now, src, &mut row);
            let points: Vec<bool> = (0..n).map(|dst| t.hears(now, src, dst)).collect();
            assert_eq!(row, points, "hears_row from {src} at {now} ({})", t.describe());
            // A row overwrites whatever the buffer held.
            row.iter_mut().for_each(|slot| *slot = !*slot);
            t.interferes_row(now, src, &mut row);
            let points: Vec<bool> = (0..n).map(|dst| t.interferes(now, src, dst)).collect();
            assert_eq!(row, points, "interferes_row from {src} at {now} ({})", t.describe());
        }
    }

    #[test]
    fn rows_equal_point_queries_on_every_topology() {
        let n = 9;
        let mut rng = StdRng::seed_from_u64(22);
        // Non-decreasing seeded instants over 20 s, as the simulator asks.
        let mut times: Vec<SimTime> =
            (0..40).map(|_| SimTime::from_nanos(rng.gen_range(0..20_000_000_000u64))).collect();
        times.sort();
        let specs = [
            TopologySpec::SingleDomain,
            // Whole before 2 s, three islands, healed at 6 s, two halves
            // from 9 s, healed at 15 s.
            TopologySpec::Partition(
                PartitionSchedule::new()
                    .split_at(SimTime::from_millis(2_000), vec![vec![0, 3, 4, 8], vec![1, 2], vec![5, 6, 7]])
                    .heal_at(SimTime::from_millis(6_000))
                    .split_at(SimTime::from_millis(9_000), vec![(0..5).collect(), (5..n).collect()])
                    .heal_at(SimTime::from_millis(15_000)),
            ),
            TopologySpec::Spatial {
                side_m: 300.0,
                comm_range_m: 110.0,
                interference_range_m: 170.0,
            },
            TopologySpec::Waypoint {
                side_m: 300.0,
                comm_range_m: 110.0,
                interference_range_m: 170.0,
                speed_mps: 30.0,
                pause: Duration::from_millis(200),
                tick: Duration::from_millis(100),
            },
        ];
        for spec in &specs {
            let mut t = spec.build(n, 5);
            for &now in &times {
                assert_rows_equal_points(t.as_mut(), n, now);
            }
        }
        // The partition's boundary instants exactly.
        let mut t = specs[1].build(n, 5);
        for ms in [1_999, 2_000, 5_999, 6_000, 8_999, 9_000, 14_999, 15_000] {
            assert_rows_equal_points(t.as_mut(), n, SimTime::from_millis(ms));
        }
    }

    #[test]
    fn connectivity_reports_components_and_degrees() {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new().split_at(SimTime::ZERO, vec![vec![0, 2], vec![1], vec![3, 4]]),
        );
        let mut t = spec.build(5, 0);
        let c = connectivity(t.as_mut(), SimTime::ZERO, 5);
        assert_eq!(c.reachable, vec![1, 0, 1, 1, 1]);
        assert_eq!(c.component, vec![0, 1, 0, 3, 3]);
        let mut full = SingleDomain;
        let all = connectivity(&mut full, SimTime::ZERO, 4);
        assert_eq!(all.reachable, vec![3; 4]);
        assert_eq!(all.component, vec![0; 4]);
    }
}
