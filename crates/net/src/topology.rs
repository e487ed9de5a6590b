//! Radio topology: which nodes share a broadcast domain at a given
//! instant.
//!
//! The paper evaluates one single-hop broadcast domain with static
//! membership (§3, §7) and folds interference and mobility into the
//! dynamic omissions of the communication-failure model
//! ([`crate::fault`]). The one topology beyond that domain is a
//! [`PartitionSchedule`]: the node set splits into groups at a simtime
//! and heals (or re-splits) at a simtime. Group membership *is* the
//! topology, and it answers one relation, "same group at `now`": a node
//! decodes and carrier-senses exactly the transmissions of its own
//! group's members, itself included (a transmitting radio deafens
//! itself). The single broadcast domain is the schedule with no
//! transitions. CSMA/CA, queues and retries stay in [`crate::medium`].
//!
//! No topology draws randomness: the relation is a pure function of the
//! schedule and the query time.

use crate::frame::NodeId;
use crate::time::SimTime;

/// Plain-data topology selector, carried by
/// [`crate::sim::SimConfig`]; [`TopologySpec::build`] compiles it into
/// the [`Topology`] the medium queries.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TopologySpec {
    /// Every node hears (and senses) every other node — the paper's
    /// one-hop broadcast domain and the default.
    #[default]
    SingleDomain,
    /// Scheduled partition: groups split at a simtime and heal at a
    /// simtime ([`PartitionSchedule`]).
    Partition(PartitionSchedule),
}

impl TopologySpec {
    /// Compiles the topology for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics when a partition split does not cover `0..n` exactly once.
    pub fn build(&self, n: usize) -> Topology {
        match self {
            TopologySpec::SingleDomain => Topology {
                describe: "single broadcast domain".into(),
                n,
                changes: Vec::new(),
            },
            TopologySpec::Partition(schedule) => schedule.build(n),
        }
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

    /// Compiles the schedule for `n` nodes: each split becomes the
    /// group leader (smallest member) of every node.
    ///
    /// # Panics
    ///
    /// Panics when a split does not cover `0..n` exactly once.
    fn build(&self, n: usize) -> Topology {
        let mut changes: Vec<(SimTime, Option<Vec<NodeId>>)> = self
            .transitions
            .iter()
            .map(|(at, grouping)| {
                let compiled = grouping.as_ref().map(|groups| {
                    let mut leader = vec![usize::MAX; n];
                    for members in groups {
                        let first = members.iter().copied().min().unwrap_or(usize::MAX);
                        for &node in members {
                            assert!(node < n, "partition group member {node} out of range");
                            assert_eq!(
                                leader[node],
                                usize::MAX,
                                "node {node} appears in more than one partition group"
                            );
                            leader[node] = first;
                        }
                    }
                    assert!(
                        leader.iter().all(|&g| g != usize::MAX),
                        "a partition split must cover every node: {leader:?}"
                    );
                    leader
                });
                (*at, compiled)
            })
            .collect();
        changes.sort_by_key(|(at, _)| *at);
        Topology {
            describe: self.describe(),
            n,
            changes,
        }
    }
}

/// A compiled [`TopologySpec`]: the grouping in force at each instant.
#[derive(Clone, Debug)]
pub struct Topology {
    describe: String,
    n: usize,
    /// Sorted transitions; the entry active at `now` is the last one
    /// with `at <= now` (fully connected before the first). A grouping
    /// maps each node to its group's leader, the smallest member.
    changes: Vec<(SimTime, Option<Vec<NodeId>>)>,
}

impl Topology {
    /// One-line human description for reports and stall diagnostics.
    pub fn describe(&self) -> &str {
        &self.describe
    }

    /// Group leader per node at `now`; `None` while fully connected.
    pub(crate) fn grouping(&self, now: SimTime) -> Option<&[NodeId]> {
        self.grouping_in(self.era(now))
    }

    /// Which grouping is in force at `now`: the number of transitions at
    /// or before it. Two instants of one era share a grouping.
    pub(crate) fn era(&self, now: SimTime) -> usize {
        self.changes.partition_point(|(at, _)| *at <= now)
    }

    /// Group leader per node in `era` (see [`Topology::era`]); `None`
    /// while fully connected.
    pub(crate) fn grouping_in(&self, era: usize) -> Option<&[NodeId]> {
        self.changes[..era].last().and_then(|(_, leader)| leader.as_deref())
    }

    /// The one relation, from `src` to every node at once:
    /// `row[dst]` says whether `dst` shares `src`'s group at `now` —
    /// whether it decodes `src`'s frames and carrier-senses `src`'s
    /// energy. `row[src]` is `true`. The medium asks one row per
    /// transmitter, into a buffer it owns.
    pub(crate) fn same_group_row(&self, now: SimTime, src: NodeId, row: &mut [bool]) {
        match self.grouping(now) {
            None => row.fill(true),
            Some(leader) => {
                let mine = leader[src];
                for (slot, &group) in row.iter_mut().zip(leader) {
                    *slot = group == mine;
                }
            }
        }
    }

    /// Reachability snapshot at `now`, read off the active grouping in
    /// O(n): each node reaches the rest of its group.
    pub(crate) fn connectivity(&self, now: SimTime) -> Connectivity {
        let component = match self.grouping(now) {
            None => vec![0; self.n],
            Some(leader) => leader.to_vec(),
        };
        let mut size = vec![0usize; self.n];
        for &leader in &component {
            size[leader] += 1;
        }
        let reachable = component.iter().map(|&leader| size[leader] - 1).collect();
        Connectivity {
            reachable,
            component,
        }
    }
}

/// Snapshot of the reachability graph at one instant: per-node direct
/// neighbor count and connected-component id (smallest member index),
/// for stall diagnostics.
#[derive(Clone, Debug, Eq, PartialEq)]
pub(crate) struct Connectivity {
    /// Direct neighbors each node hears.
    pub(crate) reachable: Vec<usize>,
    /// Connected-component id of each node (the smallest node index in
    /// the component, so ids are stable across runs).
    pub component: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: &Topology, now: SimTime, src: NodeId) -> Vec<bool> {
        let (mut row, mut stale) = (vec![false; t.n], vec![true; t.n]);
        t.same_group_row(now, src, &mut row);
        t.same_group_row(now, src, &mut stale);
        assert_eq!(row, stale, "a row overwrites whatever the buffer held");
        row
    }

    #[test]
    fn single_domain_hears_everyone() {
        let t = TopologySpec::SingleDomain.build(6);
        assert_eq!(row(&t, SimTime::ZERO, 0), vec![true; 6]);
        assert_eq!(row(&t, SimTime::from_millis(10), 3), vec![true; 6]);
        assert_eq!(t.describe(), "single broadcast domain");
    }

    #[test]
    fn partition_splits_and_heals_on_schedule() {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new()
                .split_at(SimTime::from_millis(10), vec![vec![0, 1], vec![2, 3]])
                .heal_at(SimTime::from_millis(50)),
        );
        let t = spec.build(4);
        // Before the split: connected.
        assert_eq!(row(&t, SimTime::from_millis(9), 0), vec![true; 4]);
        // During: only same-group, self included.
        assert_eq!(row(&t, SimTime::from_millis(10), 0), vec![true, true, false, false]);
        assert_eq!(row(&t, SimTime::from_millis(30), 3), vec![false, false, true, true]);
        // After the heal: connected again.
        assert_eq!(row(&t, SimTime::from_millis(50), 0), vec![true; 4]);
    }

    #[test]
    fn rows_follow_the_grouping_at_every_boundary() {
        let n = 9;
        // Whole before 2 s, three islands, healed at 6 s, two halves
        // from 9 s, healed at 15 s; pushed out of order on purpose.
        let t = TopologySpec::Partition(
            PartitionSchedule::new()
                .split_at(SimTime::from_millis(9_000), vec![(0..5).collect(), (5..n).collect()])
                .heal_at(SimTime::from_millis(15_000))
                .split_at(SimTime::from_millis(2_000), vec![vec![8, 3, 4, 0], vec![1, 2], vec![5, 6, 7]])
                .heal_at(SimTime::from_millis(6_000)),
        )
        .build(n);
        let islands = [0, 1, 1, 0, 0, 5, 5, 5, 0];
        let halves = [0, 0, 0, 0, 0, 5, 5, 5, 5];
        for (ms, leader) in [
            (1_999, None),
            (2_000, Some(islands)),
            (5_999, Some(islands)),
            (6_000, None),
            (8_999, None),
            (9_000, Some(halves)),
            (14_999, Some(halves)),
            (15_000, None),
        ] {
            let now = SimTime::from_millis(ms);
            assert_eq!(t.grouping(now), leader.as_ref().map(|l| &l[..]), "at {now}");
            for src in 0..n {
                let want: Vec<bool> = (0..n).map(|dst| leader.is_none_or(|l| l[dst] == l[src])).collect();
                assert_eq!(row(&t, now, src), want, "row from {src} at {now}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn partition_split_must_cover_all_nodes() {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new().split_at(SimTime::ZERO, vec![vec![0, 1]]),
        );
        let _ = spec.build(4);
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
        assert_eq!(TopologySpec::Partition(s.clone()).build(4).describe(), d);
    }

    #[test]
    fn connectivity_reports_components_and_degrees() {
        let spec = TopologySpec::Partition(
            PartitionSchedule::new().split_at(SimTime::ZERO, vec![vec![0, 2], vec![1], vec![3, 4]]),
        );
        let t = spec.build(5);
        let c = t.connectivity(SimTime::ZERO);
        assert_eq!(c.reachable, vec![1, 0, 1, 1, 1]);
        assert_eq!(c.component, vec![0, 1, 0, 3, 3]);
        let full = TopologySpec::SingleDomain.build(4);
        let all = full.connectivity(SimTime::ZERO);
        assert_eq!(all.reachable, vec![3; 4]);
        assert_eq!(all.component, vec![0; 4]);
    }
}
