//! The schedule model: a plain-data description of one adversarial
//! execution, plus the seeded generator that explores the space.
//!
//! A [`Schedule`] is everything needed to replay an execution
//! byte-for-byte: engine, group size, seeds, proposals, Byzantine
//! membership with per-receiver equivocation masks, and a list of
//! per-`(round, sender, receiver)` delivery [`Fault`]s active during the
//! adversarial `window`. Being plain data, schedules can be shrunk field
//! by field (see the `shrink` module) and serialized as replay fixtures
//! (see [`crate::replay`]).

use crate::drive::QUANTUM;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use turquois_core::Config;
use turquois_harness::Protocol;
use wireless_net::reliable::MIN_RTO;

/// What happens to one `(round, sender, receiver)` delivery edge.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum FaultKind {
    /// The message never arrives (a dynamic omission).
    Drop,
    /// Delivery is postponed by the given number of rounds (a reorder:
    /// the message arrives after younger traffic).
    Delay(u32),
    /// The message arrives twice, in consecutive rounds.
    Duplicate,
}

/// A first-class network split: a schedule *action* rather than a pile
/// of per-edge faults. Frames between correct processes on opposite
/// sides of the mask, sent in rounds `split_round..heal_round` (and
/// inside the adversarial window, like every fault), are dropped; the
/// baselines' transport retransmits them after the heal. Byzantine
/// processes straddle the split (a node at the partition boundary hears
/// both sides — the strongest equivocation position), so their edges
/// are never cut.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Partition {
    /// Side-A membership: bit `i` set puts process `i` on side A.
    pub mask: u64,
    /// First round (1-based, inclusive) in which the split is active.
    pub split_round: u32,
    /// First round in which the network is whole again (exclusive end;
    /// the heal is the action of *this* round).
    pub heal_round: u32,
}

impl Partition {
    /// Whether the split is active for messages sent in `round`.
    pub(crate) fn active(&self, round: u32) -> bool {
        (self.split_round..self.heal_round).contains(&round)
    }

    /// Whether a `from → to` delivery crosses the split boundary.
    pub(crate) fn crosses(&self, from: usize, to: usize) -> bool {
        (self.mask >> from & 1) != (self.mask >> to & 1)
    }
}

/// One injected delivery fault.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Fault {
    /// The round the message was *sent* in (1-based).
    pub round: u32,
    /// Sending process.
    pub from: usize,
    /// Receiving process.
    pub to: usize,
    /// What happens to the delivery.
    pub kind: FaultKind,
}

/// How a Byzantine process misbehaves.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum ByzStrategy {
    /// Runs two honest trackers with opposite proposals and shows each
    /// receiver the tracker selected by its mask bit — the strongest
    /// equivocator (Turquois), or mask-selected value-flip / signed
    /// round-1 equivocation for the baselines.
    SplitBrain,
    /// The paper's §7.2 value-flipping lie, told identically to every
    /// receiver (Turquois only; for the baselines this equals
    /// [`ByzStrategy::SplitBrain`] with an all-ones mask).
    Flip,
}

impl ByzStrategy {
    /// Stable name used in replay files.
    pub fn name(self) -> &'static str {
        match self {
            ByzStrategy::SplitBrain => "split",
            ByzStrategy::Flip => "flip",
        }
    }

    /// Parses [`ByzStrategy::name`] output.
    pub fn parse(s: &str) -> Option<ByzStrategy> {
        match s {
            "split" => Some(ByzStrategy::SplitBrain),
            "flip" => Some(ByzStrategy::Flip),
            _ => None,
        }
    }
}

/// One Byzantine process in a schedule.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct ByzSpec {
    /// Process id.
    pub id: usize,
    /// Per-receiver equivocation mask: bit `r` set means receiver `r`
    /// is shown the "A side" (split-brain) or the lying bytes
    /// (baselines).
    pub mask: u64,
    /// Behaviour.
    pub strategy: ByzStrategy,
}

/// A complete, replayable adversarial execution description.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Schedule {
    /// The engine under test.
    pub engine: Protocol,
    /// Group size.
    pub n: usize,
    /// Seed for per-process RNGs (coins) and key setup.
    pub seed: u64,
    /// Proposal of each process (length `n`).
    pub proposals: Vec<bool>,
    /// Byzantine processes (ids strictly distinct).
    pub byz: Vec<ByzSpec>,
    /// Faults apply only to messages sent in rounds `1..=window`.
    pub window: u32,
    /// Hard stop: the execution runs at most this many rounds.
    pub max_rounds: u32,
    /// Injected delivery faults.
    pub faults: Vec<Fault>,
    /// Optional split/heal action (see [`Partition`]).
    pub partition: Option<Partition>,
}

impl Schedule {
    /// Number of actually-faulty processes `t`.
    pub fn t(&self) -> usize {
        self.byz.len()
    }

    /// Whether `id` is Byzantine in this schedule.
    pub fn is_byz(&self, id: usize) -> bool {
        self.byz.iter().any(|b| b.id == id)
    }

    /// The paper-evaluation configuration for this group size (Turquois
    /// semantics; the baselines use the same `f = ⌊(n−1)/3⌋`).
    ///
    /// # Panics
    ///
    /// Panics on `n = 0` (the generator never produces it).
    pub fn config(&self) -> Config {
        Config::evaluation(self.n).expect("generator produces valid n")
    }

    /// Whether the schedule carries a liveness guarantee. For Turquois:
    /// in every round, the number of omissions of correct→correct
    /// transmissions (drops and delays — a delayed message is omitted in
    /// its own round) is at most `σ(t)` (§5). The baselines' transport
    /// retransmits whatever the window dropped, so every unpartitioned
    /// baseline schedule is eligible.
    pub fn within_sigma_budget(&self) -> bool {
        // A split cuts every cross-side correct↔correct edge on every
        // round it is active — past any per-round omission budget — so
        // partitioned schedules never carry a liveness guarantee.
        // (Post-heal decision is still asserted, by the sweep-level
        // `decided == explored` check and the partition fixtures.)
        if self.partition.is_some() {
            return false;
        }
        match self.engine {
            Protocol::Turquois => {
                let correct = |id: usize| !self.is_byz(id);
                let sigma = self.config().sigma(self.t());
                let mut per_round = std::collections::BTreeMap::new();
                for f in &self.faults {
                    if matches!(f.kind, FaultKind::Drop | FaultKind::Delay(_))
                        && correct(f.from)
                        && correct(f.to)
                    {
                        *per_round.entry(f.round).or_insert(0usize) += 1;
                    }
                }
                per_round.values().all(|&c| c <= sigma)
            }
            Protocol::Bracha | Protocol::Abba => true,
        }
    }
}

/// Parameters of one exploration batch; [`generate`] derives schedule
/// `index` deterministically from these.
#[derive(Clone, Copy, Debug)]
pub struct GenParams {
    /// Engine under test.
    pub engine: Protocol,
    /// Group size.
    pub n: usize,
    /// Base seed of the batch; schedule `index` mixes it in.
    pub base_seed: u64,
}

/// Adversarial window length used by generated schedules.
const WINDOW: u32 = 12;
/// Fault-free recovery rounds appended after the window: twelve
/// minimum retransmission timeouts. The baselines need the most — a
/// frame the window dropped is resent a minimum RTO later, and a Bracha
/// step then waits out delayed ACKs of Nagle-buffered segments, tens of
/// rounds a step, for as many coin rounds as a split takes. The
/// slowest schedule of the 10 000-schedule reference sweeps (Bracha,
/// n = 4, index 4431: six Bracha rounds) decides at round 357.
const RECOVERY: u32 = 12 * (MIN_RTO.as_nanos() / QUANTUM.as_nanos()) as u32;

/// Deterministically generates schedule `index` of a batch.
///
/// Four variants rotate by index:
///
/// 0. **light** — per-round random drops/delays/duplicates kept within
///    the σ budget (liveness-eligible);
/// 1. **heavy** — i.i.d. per-edge faults at ~25% (safety-only for
///    Turquois);
/// 2. **partition** — a first-class [`Partition`] action splits the
///    correct processes in two halves for the whole window while every
///    Byzantine process equivocates along the same split —
///    equivocation delivered to exactly one quorum;
/// 3. **targeted** — all traffic towards a victim subset is dropped
///    (asymmetric omission).
///
/// Every variant drops frames for every engine; the baselines' transport
/// recovers them after the window.
pub fn generate(params: &GenParams, index: u64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(
        params
            .base_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(7),
    );
    let n = params.n;
    let f = Config::evaluation(n).expect("generator takes a valid n").f();
    let variant = index % 4;

    // Byzantine membership: partitions always field the full f (that is
    // where equivocation bites); other variants draw 0..=f.
    let t = if variant == 2 {
        f
    } else {
        rng.gen_range(0..=f)
    };
    let mut ids: Vec<usize> = (0..n).collect();
    // Deterministic Fisher–Yates prefix.
    for i in 0..t {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    let mut byz_ids: Vec<usize> = ids[..t].to_vec();
    byz_ids.sort_unstable();

    let mut proposals: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let correct: Vec<usize> = (0..n).filter(|id| !byz_ids.contains(id)).collect();

    let mut faults: Vec<Fault> = Vec::new();
    let mut partition: Option<Partition> = None;
    let mut masks: Vec<u64> = byz_ids.iter().map(|_| rng.gen::<u64>()).collect();
    let window = WINDOW;

    match variant {
        0 => {
            // Light: stay within σ per round (Turquois) / delays only
            // (baselines).
            let budget = match params.engine {
                Protocol::Turquois => Config::evaluation(n)
                    .expect("valid n")
                    .sigma(t)
                    .min(2 * n),
                _ => n,
            };
            for round in 1..=window {
                let count = rng.gen_range(0..=budget);
                for _ in 0..count {
                    let from = correct[rng.gen_range(0..correct.len())];
                    let to = correct[rng.gen_range(0..correct.len())];
                    if from == to || has_fault(&faults, round, from, to) {
                        continue;
                    }
                    let kind = if rng.gen_bool(0.6) {
                        FaultKind::Drop
                    } else if rng.gen_bool(0.7) {
                        FaultKind::Delay(rng.gen_range(1..=3))
                    } else {
                        FaultKind::Duplicate
                    };
                    faults.push(Fault {
                        round,
                        from,
                        to,
                        kind,
                    });
                }
            }
        }
        1 => {
            // Heavy i.i.d. faults on every edge.
            for round in 1..=window {
                for &from in &correct {
                    for to in 0..n {
                        if from == to || !rng.gen_bool(0.25) {
                            continue;
                        }
                        let kind = if rng.gen_bool(0.4) {
                            FaultKind::Delay(rng.gen_range(1..=4))
                        } else if rng.gen_bool(0.8) {
                            FaultKind::Drop
                        } else {
                            FaultKind::Duplicate
                        };
                        faults.push(Fault {
                            round,
                            from,
                            to,
                            kind,
                        });
                    }
                }
            }
        }
        2 => {
            // Partition: side A = first half of the correct processes,
            // split for the whole window, healed at its end — as one
            // schedule action instead of O(window · |A| · |B|) faults.
            let split = correct.len().div_ceil(2);
            let mut mask = 0u64;
            for (i, &id) in correct.iter().enumerate() {
                proposals[id] = i >= split; // A proposes false, B true
                if i < split {
                    mask |= 1 << id;
                }
            }
            masks.fill(mask);
            partition = Some(Partition {
                mask,
                split_round: 1,
                heal_round: window + 1,
            });
        }
        _ => {
            // Targeted asymmetric omission against a victim subset.
            let victims = rng.gen_range(1..=correct.len().div_ceil(2));
            let victim_set: Vec<usize> = correct[..victims].to_vec();
            for round in 1..=window {
                for from in 0..n {
                    for &to in &victim_set {
                        if from == to {
                            continue;
                        }
                        faults.push(Fault {
                            round,
                            from,
                            to,
                            kind: FaultKind::Drop,
                        });
                    }
                }
            }
        }
    }

    let byz = byz_ids
        .iter()
        .zip(masks)
        .map(|(&id, mask)| ByzSpec {
            id,
            mask,
            strategy: if variant != 2 && rng.gen_bool(0.3) {
                ByzStrategy::Flip
            } else {
                ByzStrategy::SplitBrain
            },
        })
        .collect();

    Schedule {
        engine: params.engine,
        n,
        seed: rng.gen::<u64>(),
        proposals,
        byz,
        window,
        max_rounds: window + RECOVERY,
        faults,
        partition,
    }
}

fn has_fault(faults: &[Fault], round: u32, from: usize, to: usize) -> bool {
    faults
        .iter()
        .any(|f| f.round == round && f.from == from && f.to == to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let params = GenParams {
            engine: Protocol::Turquois,
            n: 4,
            base_seed: 9,
        };
        for index in 0..16 {
            assert_eq!(generate(&params, index), generate(&params, index));
        }
        assert_ne!(generate(&params, 0), generate(&params, 1));
    }

    #[test]
    fn light_variant_is_sigma_eligible() {
        let params = GenParams {
            engine: Protocol::Turquois,
            n: 7,
            base_seed: 3,
        };
        for index in (0..64).step_by(4) {
            let s = generate(&params, index);
            assert!(s.within_sigma_budget(), "light schedule {index} over budget");
        }
    }

    /// The baselines face in-window drops like Turquois does, and stay
    /// liveness-eligible unless partitioned: their transport must
    /// recover the loss.
    #[test]
    fn baseline_schedules_drop_correct_traffic_and_stay_eligible() {
        for engine in [Protocol::Bracha, Protocol::Abba] {
            let params = GenParams {
                engine,
                n: 4,
                base_seed: 5,
            };
            let mut dropping = 0;
            for index in 0..32 {
                let s = generate(&params, index);
                let eligible = s.within_sigma_budget();
                assert_eq!(eligible, s.partition.is_none(), "{} schedule {index}", engine.name());
                let drops = s.faults.iter().any(|f| {
                    f.kind == FaultKind::Drop && !s.is_byz(f.from) && !s.is_byz(f.to)
                });
                dropping += usize::from(drops && eligible);
            }
            assert!(dropping >= 8, "{}: {dropping} eligible schedules drop", engine.name());
        }
    }

    #[test]
    fn partition_variant_is_a_schedule_action() {
        for engine in [Protocol::Turquois, Protocol::Bracha] {
            let params = GenParams {
                engine,
                n: 7,
                base_seed: 13,
            };
            for index in 0..32 {
                let s = generate(&params, index);
                if index % 4 != 2 {
                    assert_eq!(s.partition, None, "variant {} got a partition", index % 4);
                    continue;
                }
                let p = s.partition.expect("partition variant carries the action");
                assert!(s.faults.is_empty(), "partition is an action, not a fault pile");
                assert_eq!((p.split_round, p.heal_round), (1, s.window + 1));
                assert!(!s.within_sigma_budget(), "partitioned schedules are ineligible");
                // Every Byzantine mask equivocates along the split, and
                // both sides hold at least one correct process.
                for b in &s.byz {
                    assert_eq!(b.mask, p.mask, "byz mask tracks the partition split");
                }
                let correct: Vec<usize> = (0..s.n).filter(|&id| !s.is_byz(id)).collect();
                let side_a = correct.iter().filter(|&&id| p.mask >> id & 1 == 1).count();
                assert!(side_a > 0 && side_a < correct.len(), "both sides populated");
            }
        }
    }

    #[test]
    fn byz_ids_distinct_and_in_range() {
        let params = GenParams {
            engine: Protocol::Turquois,
            n: 7,
            base_seed: 11,
        };
        for index in 0..64 {
            let s = generate(&params, index);
            let mut ids: Vec<usize> = s.byz.iter().map(|b| b.id).collect();
            assert!(ids.iter().all(|&id| id < 7));
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate byz id in schedule {index}");
            assert!(before <= 2, "more than f Byzantine at n=7");
        }
    }
}
