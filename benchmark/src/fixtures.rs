//! Ready-made inputs for the stand-alone probes: key material, engine
//! groups, a saturated medium, a pre-filled event queue.
//!
//! One place, so that a probe adds a name to the result rather than a
//! second copy of a fixture. (The criterion benches under
//! `crates/bench/benches/` still carry their own copies; moving them
//! here is left to the ROADMAP item-1 clean-up, because this change may
//! not touch files outside the benchmark's directory.)

use crate::jobs::scale_phy;
use crate::surface::{
    Abba, AbbaKeys, Addressing, Bracha, Bytes, EventQueue, Frame, KeyPairArray, Medium,
    OneTimeSignature, PartitionSchedule, SimTime, TopologySpec, Value, UDP_OVERHEAD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG for fixtures that need one.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A one-time key array for process 0, one of its signatures, and the
/// `(phase, value)` it signs.
pub fn one_time_signature() -> (KeyPairArray, u32, Value, OneTimeSignature) {
    let keys = KeyPairArray::generate(0, 64, 42);
    let sig = keys.sign(5, Value::One).expect("phase 5 is covered");
    (keys, 5, Value::One, sig)
}

/// `n` correct Bracha engines with divergent proposals.
pub fn bracha_group(n: usize, seed: u64) -> Vec<Bracha> {
    let f = (n - 1) / 3;
    (0..n)
        .map(|i| Bracha::new(n, f, i, i % 2 == 1, seed + 31 * i as u64))
        .collect()
}

/// `n` correct ABBA engines with divergent proposals.
pub fn abba_group(n: usize, seed: u64) -> Vec<Abba> {
    let f = (n - 1) / 3;
    AbbaKeys::trusted_setup(n, f, seed)
        .into_iter()
        .enumerate()
        .map(|(i, keys)| Abba::new(n, f, i, i % 2 == 1, keys, seed + 17 * i as u64))
        .collect()
}

/// A 100-byte UDP broadcast from `src`.
pub fn broadcast_frame(src: usize) -> Frame {
    Frame {
        src,
        addressing: Addressing::Broadcast,
        payload: Bytes::from(vec![0u8; 100]),
        transport_overhead: UDP_OVERHEAD,
    }
}

/// A medium of `n` nodes (population-scaled contention window) where
/// every node already has one broadcast queued. With `split`, the nodes
/// are partitioned into two halves from time zero on.
pub fn saturated_medium(n: usize, split: bool, rng: &mut StdRng) -> Medium {
    let topology = if split {
        TopologySpec::Partition(PartitionSchedule::new().split_at(
            SimTime::ZERO,
            vec![(0..n / 2).collect(), (n / 2..n).collect()],
        ))
    } else {
        TopologySpec::SingleDomain
    };
    let mut medium = Medium::with_topology(n, scale_phy(n), &topology, 7);
    for node in 0..n {
        assert!(
            medium.enqueue(broadcast_frame(node), rng),
            "empty queue accepts"
        );
    }
    medium
}

/// A delay drawn from the mix of horizons an 802.11b run schedules:
/// propagation and loopback (half of all events), contention windows,
/// frame airtimes, clock ticks, and retransmission time-outs.
pub fn mac_delay_ns(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..20u32) {
        0..=9 => 500 + rng.gen_range(0..4_500u64), // propagation, loopback
        10..=13 => 50_000 + 20_000 * rng.gen_range(0..32u64), // DIFS + backoff slots
        14..=16 => 300_000 + rng.gen_range(0..1_400_000u64), // airtime
        17..=18 => 10_000_000,                     // clock tick
        _ => 200_000_000 + rng.gen_range(0..2_800_000_000u64), // RTO and its back-off
    }
}

/// An event queue holding `depth` events drawn from [`mac_delay_ns`].
pub fn filled_queue(depth: usize, rng: &mut StdRng) -> EventQueue<u32> {
    let mut queue = EventQueue::new();
    for i in 0..depth {
        queue.push(mac_delay_ns(rng), i as u32);
    }
    queue
}
