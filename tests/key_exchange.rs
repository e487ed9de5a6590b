//! Integration: the §6.1 key-exchange lifecycle — offline epoch 1, a
//! signed epoch-2 distribution mid-protocol, and exhaustion handling.

use turquois::core::config::Config;
use turquois::core::instance::Turquois;
use turquois::core::KeyRing;
use turquois::crypto::hashsig;

#[test]
fn rekey_mid_protocol_keeps_consensus_running() {
    // Tiny first epoch: only 6 phases — enough for a unanimous decision
    // (phase 3) but not for a long divergent run. Extend with epoch 2
    // and run a full divergent consensus.
    let n = 4;
    let cfg = Config::evaluation(n).expect("valid");
    let mut rings: Vec<KeyRing> = KeyRing::trusted_setup(n, 6, 77);
    let mut identities: Vec<hashsig::Keypair> = (0..n)
        .map(|i| hashsig::Keypair::generate(3, 500 + i as u64))
        .collect();

    // Every process prepares its epoch 2 (phases 7..=60) and the
    // bundles cross-install.
    let bundles: Vec<_> = rings
        .iter_mut()
        .zip(identities.iter_mut())
        .map(|(ring, identity)| {
            ring.begin_epoch(54, 900 + ring.id() as u64, identity)
                .expect("identity has leaves")
        })
        .collect();
    for (owner, bundle) in bundles.iter().enumerate() {
        for (i, ring) in rings.iter_mut().enumerate() {
            if i != owner {
                ring.install_epoch(bundle, identities[owner].public_key())
                    .expect("genuine bundle installs");
            }
        }
    }
    for ring in &rings {
        assert_eq!(ring.max_phase(), 60);
    }

    // Divergent proposals; synchronous lossless rounds.
    let mut procs: Vec<Turquois> = rings
        .into_iter()
        .enumerate()
        .map(|(i, ring)| Turquois::new(cfg, i, i % 2 == 1, ring, 77 + i as u64))
        .collect();
    for _ in 0..40 {
        let msgs: Vec<_> = procs
            .iter_mut()
            .map(|p| p.on_tick().expect("epochs cover the phase"))
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
    let first = procs[0].decision().expect("decides");
    assert!(procs.iter().all(|p| p.decision() == Some(first)));
}

#[test]
fn key_exhaustion_is_reported_not_panicked() {
    let n = 4;
    let cfg = Config::evaluation(n).expect("valid");
    // Epoch covers only phase 1–2: by phase 3 signing must fail
    // gracefully.
    let rings = KeyRing::trusted_setup(n, 2, 88);
    let mut procs: Vec<Turquois> = rings
        .into_iter()
        .enumerate()
        .map(|(i, ring)| Turquois::new(cfg, i, true, ring, 88 + i as u64))
        .collect();
    let mut exhausted = false;
    for _ in 0..10 {
        let mut msgs = Vec::new();
        for p in procs.iter_mut() {
            match p.on_tick() {
                Ok(out) => msgs.push(out),
                Err(e) => {
                    exhausted = true;
                    assert!(e.to_string().contains("exhausted"));
                }
            }
        }
        for p in procs.iter_mut() {
            for m in &msgs {
                p.on_message(m);
            }
        }
        if exhausted {
            break;
        }
    }
    assert!(exhausted, "phase 3 must outrun a 2-phase epoch");
}

#[test]
fn identity_key_leaves_bound_the_number_of_epochs() {
    let mut ring = KeyRing::trusted_setup(2, 3, 5).remove(0);
    // Height-1 identity: exactly two signatures.
    let mut identity = hashsig::Keypair::generate(1, 42);
    assert!(ring.begin_epoch(3, 1, &mut identity).is_ok());
    assert!(ring.begin_epoch(3, 2, &mut identity).is_ok());
    assert!(
        ring.begin_epoch(3, 3, &mut identity).is_err(),
        "third epoch exceeds the identity key's one-time leaves"
    );
}
