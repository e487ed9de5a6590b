//! Integration: adversarial behaviour beyond the standard fault loads —
//! forged signatures, replayed statuses, fabricated justifications.

use turquois::core::config::Config;
use turquois::core::instance::{MessageOutcome, Turquois};
use turquois::core::message::{Envelope, Message, Status};
use turquois::core::{KeyRing, Value};
use turquois::crypto::otss::OneTimeSignature;

const PHASES: usize = 60;

fn make_group(n: usize, proposal: bool, seed: u64) -> Vec<Turquois> {
    let cfg = Config::evaluation(n).expect("valid n");
    KeyRing::trusted_setup(n, PHASES, seed)
        .into_iter()
        .enumerate()
        .map(|(i, ring)| Turquois::new(cfg, i, proposal, ring, seed + i as u64))
        .collect()
}

/// Runs lossless synchronous rounds until everyone decides.
fn run_to_decision(procs: &mut [Turquois]) {
    for _ in 0..30 {
        let msgs: Vec<_> = procs
            .iter_mut()
            .map(|p| p.on_tick().expect("keys cover phase"))
            .collect();
        for p in procs.iter_mut() {
            for m in &msgs {
                p.on_message(m);
            }
        }
        if procs.iter().all(|p| p.decision().is_some()) {
            return;
        }
    }
    panic!("no decision in 30 synchronous rounds");
}

#[test]
fn forged_one_time_signature_rejected() {
    let mut procs = make_group(4, true, 1);
    // Attacker fabricates a message from process 3 with a random
    // "signature".
    let forged = Message::bare(
        Envelope {
            sender: 3,
            phase: 1,
            value: Value::Zero,
            coin_flip: false,
            status: Status::Undecided,
        },
        OneTimeSignature([0xEE; 32]),
    );
    let receipt = procs[0].on_message(&forged.encode());
    assert_eq!(receipt.outcome, MessageOutcome::AuthFailed);
}

#[test]
fn signature_replay_under_other_value_rejected() {
    let mut procs = make_group(4, true, 2);
    let genuine = procs[1].on_tick().expect("keys cover phase");
    // Attacker reuses process 1's phase-1 signature for the opposite
    // value.
    let mut flipped = Message::decode(&genuine, procs[1].config()).expect("own encoding");
    flipped.envelope.value = flipped.envelope.value.flipped();
    let receipt = procs[0].on_message(&flipped.encode());
    assert_eq!(receipt.outcome, MessageOutcome::AuthFailed);
}

#[test]
fn status_replay_cannot_fake_a_decision() {
    // The §6.1 caveat: status is NOT covered by the one-time signature,
    // so an attacker can replay a genuine message with the status bit
    // flipped. The semantic validation must reject the fake `decided`.
    let mut procs = make_group(4, true, 3);
    let genuine = procs[1].on_tick().expect("keys cover phase");
    let mut replayed = Message::decode(&genuine, procs[1].config()).expect("own encoding");
    replayed.envelope.status = Status::Decided;
    let receipt = procs[0].on_message(&replayed.encode());
    assert!(
        matches!(receipt.outcome, MessageOutcome::SemanticFailed(_)),
        "got {:?}",
        receipt.outcome
    );
    assert_eq!(procs[0].decision(), None);
}

#[test]
fn status_replay_after_real_decision_is_harmless() {
    // Once a genuine decision exists, a replayed `decided` message is
    // semantically justified — and changes nothing (decisions are
    // write-once and the replay carries the same value).
    let mut procs = make_group(4, true, 4);
    run_to_decision(&mut procs);
    assert!(procs.iter().all(|p| p.decision() == Some(true)));
    let out = procs[1].on_tick().expect("keys cover phase");
    let mut replay = Message::decode(&out, procs[1].config()).expect("own encoding");
    replay.envelope.status = Status::Decided; // already decided; keep it
    let before = procs[0].decision();
    procs[0].on_message(&replay.encode());
    assert_eq!(procs[0].decision(), before);
}

#[test]
fn fabricated_justification_of_byzantine_only_messages_fails() {
    // A Byzantine process (id 3) signs phase-1 messages for value 0 and
    // attaches them as "justification" for a phase-2 lock on 0, while
    // every correct process proposed 1. The half-quorum can never be
    // met by f = 1 senders.
    let cfg = Config::evaluation(4).expect("valid");
    let rings = KeyRing::trusted_setup(4, PHASES, 5);
    let mut rings: Vec<KeyRing> = rings;
    let evil_ring = rings.pop().expect("ring 3");
    let mut p0 = Turquois::new(cfg, 0, true, rings.remove(0), 11);

    let evil_pv1 = evil_ring.sign(1, Value::Zero).expect("in range");
    let evil_pv2 = evil_ring.sign(2, Value::Zero).expect("in range");
    let lie = Message {
        envelope: Envelope {
            sender: 3,
            phase: 2,
            value: Value::Zero,
            coin_flip: false,
            status: Status::Undecided,
        },
        signature: evil_pv2,
        justification: vec![(
            Envelope {
                sender: 3,
                phase: 1,
                value: Value::Zero,
                coin_flip: false,
                status: Status::Undecided,
            },
            evil_pv1,
        )],
    };
    let receipt = p0.on_message(&lie.encode());
    assert!(
        matches!(receipt.outcome, MessageOutcome::SemanticFailed(_)),
        "got {:?}",
        receipt.outcome
    );
}

#[test]
fn equivocation_does_not_double_count() {
    // Process 3 equivocates at phase 1 (signs both values). Process 0
    // accepts both messages but the sender still counts once toward the
    // phase quorum: with only senders {0, 3} present the quorum (3 of
    // n=4, f=1) is not met.
    let cfg = Config::evaluation(4).expect("valid");
    let rings = KeyRing::trusted_setup(4, PHASES, 6);
    let mut rings: Vec<KeyRing> = rings;
    let evil_ring = rings.pop().expect("ring 3");
    let mut p0 = Turquois::new(cfg, 0, true, rings.remove(0), 13);

    let own = p0.on_tick().expect("keys cover phase");
    p0.on_message(&own); // loopback: sender counts itself

    for value in [Value::Zero, Value::One] {
        let sig = evil_ring.sign(1, value).expect("in range");
        let msg = Message::bare(
            Envelope {
                sender: 3,
                phase: 1,
                value,
                coin_flip: false,
                status: Status::Undecided,
            },
            sig,
        );
        let receipt = p0.on_message(&msg.encode());
        assert_eq!(receipt.outcome, MessageOutcome::Accepted);
        assert!(!receipt.phase_advanced, "two senders are not a quorum");
    }
    assert_eq!(p0.phase(), 1);
}

#[test]
fn byzantine_cannot_flip_unanimous_outcome_end_to_end() {
    // Full-stack check through the simulator for every group size: with
    // all correct processes proposing `false` and f value-flipping
    // Byzantine nodes, the decision must be `false`.
    use turquois::harness::{FaultLoad, Protocol, ProposalDistribution, Scenario};
    for n in [4usize, 7, 10] {
        let outcome = Scenario::new(Protocol::Turquois, n)
            .proposals(ProposalDistribution::Unanimous)
            .fault_load(FaultLoad::Byzantine)
            .seed(n as u64)
            .run_once()
            .expect("valid scenario");
        assert!(outcome.k_reached(), "n={n}");
        for i in 0..n {
            if !outcome.faulty[i] {
                if let Some(d) = outcome.decisions[i] {
                    assert!(d.value, "n={n}: validity requires deciding the unanimous value");
                }
            }
        }
    }
}

#[test]
fn baselines_survive_byzantine_load_across_seeds() {
    // Full-stack seed sweep for the two baselines under the §7.2
    // Byzantine load: Bracha's flipped frames are absorbed by echo/ready
    // amplification, ABBA's signed lies by the justification chain. For
    // every seed the run must reach k decisions, the decided correct
    // processes must agree, and a unanimous run must decide the
    // unanimous value. (The Turquois counterpart is the table test
    // above; the schedule explorer in `turquois-check` covers all three
    // engines sans simulator.)
    use turquois::harness::{FaultLoad, Protocol, ProposalDistribution, Scenario};
    for protocol in [Protocol::Bracha, Protocol::Abba] {
        for dist in [ProposalDistribution::Unanimous, ProposalDistribution::Divergent] {
            for seed in 0..8u64 {
                let outcome = Scenario::new(protocol, 4)
                    .proposals(dist)
                    .fault_load(FaultLoad::Byzantine)
                    .seed(seed)
                    .run_once()
                    .expect("valid scenario");
                let label = format!("{} {} seed {seed}", protocol.name(), dist.name());
                assert!(outcome.k_reached(), "{label}: k not reached");
                let decided: Vec<bool> = outcome
                    .correct()
                    .filter_map(|i| outcome.decisions[i].map(|d| d.value))
                    .collect();
                assert!(!decided.is_empty(), "{label}: no correct process decided");
                assert!(
                    decided.iter().all(|&d| d == decided[0]),
                    "{label}: agreement broken: {decided:?}"
                );
                if matches!(dist, ProposalDistribution::Unanimous) {
                    assert!(decided[0], "{label}: validity requires the unanimous value");
                }
            }
        }
    }
}

#[test]
fn corrupted_wire_bytes_never_panic() {
    let mut procs = make_group(4, true, 7);
    let genuine = procs[1].on_tick().expect("keys cover phase");
    // Flip every single byte position and feed the result.
    for i in 0..genuine.len() {
        let mut corrupted = genuine.to_vec();
        corrupted[i] ^= 0xFF;
        let _ = procs[0].on_message(&corrupted.into());
    }
    // Truncate at every length.
    for len in 0..genuine.len() {
        let _ = procs[0].on_message(&genuine.slice(..len));
    }
    // The process remains functional.
    let receipt = procs[0].on_message(&genuine);
    assert!(matches!(
        receipt.outcome,
        MessageOutcome::Accepted | MessageOutcome::Duplicate
    ));
}
