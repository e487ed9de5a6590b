//! Property-based tests over the protocol's core invariants.

use proptest::prelude::*;
use turquois::core::config::Config;
use turquois::core::instance::Turquois;
use turquois::core::message::{Envelope, Message, Status};
use turquois::core::{KeyRing, Value};
use turquois::crypto::otss::OneTimeSignature;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Zero),
        Just(Value::One),
        Just(Value::Bot)
    ]
}

fn arb_envelope(n: usize) -> impl Strategy<Value = Envelope> {
    (
        0..n,
        1u32..200,
        arb_value(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(sender, phase, value, coin_flip, decided)| Envelope {
            sender,
            phase,
            value,
            coin_flip,
            status: if decided {
                Status::Decided
            } else {
                Status::Undecided
            },
        })
}

fn arb_signature() -> impl Strategy<Value = OneTimeSignature> {
    any::<[u8; 32]>().prop_map(OneTimeSignature)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wire codec: decode(encode(m)) == m for arbitrary messages.
    #[test]
    fn message_codec_round_trip(
        env in arb_envelope(7),
        sig in arb_signature(),
        just in prop::collection::vec((arb_envelope(7), arb_signature()), 0..8),
    ) {
        let cfg = Config::new(7, 2, 5).expect("valid");
        let msg = Message { envelope: env, signature: sig, justification: just };
        let decoded = Message::decode(&msg.encode(), &cfg).expect("own encoding decodes");
        prop_assert_eq!(decoded, msg);
    }

    /// Arbitrary byte soup — and a valid encoding with a few bytes
    /// overwritten, which the decoder often accepts — never panics the
    /// decoder, never produces an out-of-range sender, and is accepted
    /// only in canonical form: re-encoding the parsed message
    /// reproduces the input byte for byte.
    #[test]
    fn decoder_total_on_garbage(
        soup in prop::collection::vec(any::<u8>(), 0..300),
        env in arb_envelope(7),
        sig in arb_signature(),
        just in prop::collection::vec((arb_envelope(7), arb_signature()), 0..4),
        overwrites in prop::collection::vec((0usize..10_000, any::<u8>()), 0..4),
    ) {
        let cfg = Config::new(7, 2, 5).expect("valid");
        let mut mutated = Message { envelope: env, signature: sig, justification: just }
            .encode()
            .to_vec();
        for (at, byte) in overwrites {
            let at = at % mutated.len();
            mutated[at] = byte;
        }
        for bytes in [soup, mutated] {
            if let Ok(msg) = Message::decode(&bytes, &cfg) {
                prop_assert!(msg.envelope.sender < 7);
                prop_assert!(msg.envelope.phase >= 1);
                prop_assert_eq!(&msg.encode()[..], &bytes[..]);
            }
        }
    }

    /// Quorum arithmetic: for every valid configuration, two quorums
    /// intersect in more than f senders, and the half-quorum exceeds f.
    #[test]
    fn quorum_lemmas(n in 1usize..60) {
        let Ok(cfg) = Config::evaluation(n) else { return Ok(()); };
        let q = cfg.quorum_min();
        prop_assert!(q <= n, "a quorum must be attainable");
        prop_assert!(2 * q - n > cfg.f(), "quorum intersection contains a correct process");
        prop_assert!(cfg.half_quorum_min() > cfg.f(), "half-quorum defeats f fabricators");
        // σ is monotonically non-increasing in t.
        let mut last = usize::MAX;
        for t in 0..=cfg.f() {
            if cfg.k() + t > cfg.n() { break; }
            let s = cfg.sigma(t);
            prop_assert!(s <= last);
            last = s;
        }
    }

    /// End-to-end (lossless, synchronous): agreement + validity for
    /// random proposal vectors and seeds, n = 4.
    #[test]
    fn synchronous_agreement_and_validity(
        proposals in prop::collection::vec(any::<bool>(), 4),
        seed in 0u64..1000,
    ) {
        let cfg = Config::evaluation(4).expect("valid");
        let rings = KeyRing::trusted_setup(4, 120, seed);
        let mut procs: Vec<Turquois> = rings
            .into_iter()
            .enumerate()
            .map(|(i, ring)| Turquois::new(cfg, i, proposals[i], ring, seed + 31 * i as u64))
            .collect();
        for _ in 0..40 {
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
                break;
            }
        }
        let decisions: Vec<Option<bool>> = procs.iter().map(|p| p.decision()).collect();
        prop_assert!(decisions.iter().all(|d| d.is_some()), "termination: {decisions:?}");
        let first = decisions[0].expect("checked");
        prop_assert!(decisions.iter().all(|d| *d == Some(first)), "agreement");
        if proposals.iter().all(|&p| p == proposals[0]) {
            prop_assert_eq!(first, proposals[0], "validity");
        }
    }

    /// Under random per-message loss (messages randomly withheld from
    /// random receivers), safety never breaks and no process panics.
    #[test]
    fn lossy_rounds_preserve_safety(
        proposals in prop::collection::vec(any::<bool>(), 4),
        seed in 0u64..500,
        loss_mask in prop::collection::vec(any::<u16>(), 25),
    ) {
        let cfg = Config::evaluation(4).expect("valid");
        let rings = KeyRing::trusted_setup(4, 120, seed ^ xloss_seed());
        let mut procs: Vec<Turquois> = rings
            .into_iter()
            .enumerate()
            .map(|(i, ring)| Turquois::new(cfg, i, proposals[i], ring, seed + 7 * i as u64))
            .collect();
        for mask in &loss_mask {
            let msgs: Vec<_> = procs
                .iter_mut()
                .map(|p| p.on_tick().expect("keys cover phase"))
                .collect();
            for (recv_idx, p) in procs.iter_mut().enumerate() {
                for (send_idx, m) in msgs.iter().enumerate() {
                    // Bit (recv, send) of the mask decides omission.
                    let bit = (mask >> ((recv_idx * 4 + send_idx) % 16)) & 1;
                    if bit == 0 || recv_idx == send_idx {
                        p.on_message(m);
                    }
                }
            }
        }
        let decided: Vec<bool> = procs
            .iter()
            .filter_map(|p| p.decision())
            .collect();
        if let Some(&first) = decided.first() {
            prop_assert!(decided.iter().all(|&d| d == first), "agreement under loss");
            if proposals.iter().all(|&p| p == proposals[0]) {
                prop_assert_eq!(first, proposals[0], "validity under loss");
            }
        }
    }
}

fn xloss_seed() -> u64 {
    0x1055
}

/// Builds a 4-group, advances p0 to phase 2 and returns a *justified*
/// rebroadcast from p0 (its second same-state tick attaches the
/// explicit-validation bundle) plus a fresh process with an empty store
/// that the bundle alone must convince.
fn justified_rebroadcast(proposals: &[bool], seed: u64) -> (Message, Turquois) {
    let cfg = Config::evaluation(4).expect("valid");
    let rings = KeyRing::trusted_setup(4, 120, seed);
    let mut procs: Vec<Turquois> = rings
        .into_iter()
        .enumerate()
        .map(|(i, ring)| Turquois::new(cfg, i, proposals[i], ring, seed + 13 * i as u64))
        .collect();
    let msgs: Vec<_> = procs
        .iter_mut()
        .map(|p| p.on_tick().expect("keys cover phase"))
        .collect();
    for m in &msgs {
        procs[0].on_message(m);
    }
    assert_eq!(procs[0].phase(), 2, "phase-1 quorum advances p0");
    let _bare = procs[0].on_tick().expect("keys cover phase");
    let justified = procs[0].on_tick().expect("keys cover phase");
    let justified = Message::decode(&justified, &cfg).expect("own encoding");
    assert!(
        !justified.justification.is_empty(),
        "same-state rebroadcast carries the bundle"
    );
    // A receiver that has seen nothing: only the bundle can justify
    // p0's phase-2 envelope.
    let fresh = KeyRing::trusted_setup(4, 120, seed).remove(3);
    (justified, Turquois::new(cfg, 3, proposals[3], fresh, seed + 999))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncating a justification bundle can only *reduce* what the
    /// message unlocks: the receiver never advances further on a
    /// truncated bundle than on the full one, and never panics.
    #[test]
    fn truncated_bundles_never_unlock_more(
        proposals in prop::collection::vec(any::<bool>(), 4),
        seed in 0u64..200,
        keep in 0usize..8,
    ) {
        let (full, _) = justified_rebroadcast(&proposals, seed);
        let (_, mut on_full) = justified_rebroadcast(&proposals, seed);
        on_full.on_message(&full.encode());
        let full_phase = on_full.phase();

        let mut truncated = full.clone();
        truncated.justification.truncate(keep.min(truncated.justification.len()));
        let (_, mut on_truncated) = justified_rebroadcast(&proposals, seed);
        on_truncated.on_message(&truncated.encode());
        prop_assert!(
            on_truncated.phase() <= full_phase,
            "truncation unlocked phase {} > {}",
            on_truncated.phase(),
            full_phase
        );
    }

    /// Message counting is per *distinct sender*: a bundle holding one
    /// attachment duplicated k times convinces the receiver of exactly
    /// as much as the single attachment alone.
    #[test]
    fn duplicated_bundle_senders_do_not_inflate_quorums(
        proposals in prop::collection::vec(any::<bool>(), 4),
        seed in 0u64..200,
        copies in 2usize..12,
    ) {
        let (full, _) = justified_rebroadcast(&proposals, seed);
        let first = full.justification[0];

        let mut single = full.clone();
        single.justification = vec![first];
        let (_, mut on_single) = justified_rebroadcast(&proposals, seed);
        let single_receipt = on_single.on_message(&single.encode());

        let mut duplicated = full.clone();
        duplicated.justification = vec![first; copies];
        let (_, mut on_dup) = justified_rebroadcast(&proposals, seed);
        let dup_receipt = on_dup.on_message(&duplicated.encode());

        prop_assert_eq!(on_dup.phase(), on_single.phase(), "duplicates added standing");
        prop_assert_eq!(dup_receipt.outcome, single_receipt.outcome);
        // The receiver still pays one verification per attachment — the
        // duplicates burn the *sender's* airtime, not the quorum math.
        prop_assert_eq!(
            dup_receipt.sig_verifications,
            1 + copies,
            "every attachment is authenticated"
        );
    }

    /// Attachments whose signature was minted for a different phase are
    /// inauthentic (one-time keys bind the phase): the receiver drops
    /// every such attachment and then rejects the now-unjustified
    /// envelope, staying at phase 1.
    #[test]
    fn wrong_phase_signatures_invalidate_the_bundle(
        proposals in prop::collection::vec(any::<bool>(), 4),
        seed in 0u64..200,
        bump in 1u32..4,
    ) {
        let (full, mut fresh) = justified_rebroadcast(&proposals, seed);
        let mut forged = full.clone();
        for (env, _) in &mut forged.justification {
            env.phase += bump;
        }
        let receipt = fresh.on_message(&forged.encode());
        prop_assert!(
            matches!(receipt.outcome, turquois::core::instance::MessageOutcome::SemanticFailed(_)),
            "got {:?}",
            receipt.outcome
        );
        prop_assert_eq!(fresh.phase(), 1, "no catch-up through a forged bundle");
        prop_assert!(fresh.decision().is_none());
    }
}

/// Promoted from `proptest_invariants.proptest-regressions` (seed
/// `0aae7c11…`, "shrinks to n = 1"): `quorum_lemmas` once shrank to the
/// degenerate single-process group, where `f = 0`, the process is its
/// own quorum (`q = 1`), and careless rearrangements of the
/// intersection lemma (`2q - n > f`) or the σ loop bound (`k + t > n`)
/// underflow `usize`. Kept as a named test so the case is documented
/// and runs even if the regression file is lost.
#[test]
fn quorum_lemmas_hold_at_the_degenerate_n1_group() {
    let cfg = Config::evaluation(1).expect("a single process is a valid group");
    assert_eq!(cfg.f(), 0);
    assert_eq!(cfg.k(), 1);
    let q = cfg.quorum_min();
    assert_eq!(q, 1, "the lone process is its own quorum");
    assert!(2 * q - 1 > cfg.f(), "intersection lemma at n = 1");
    assert!(cfg.half_quorum_min() > cfg.f());
    assert_eq!(cfg.sigma(0), 0, "no omissions are survivable with k = n");
}
