//! Ablation A4: host ns per operation of each cryptographic primitive.
//!
//! The paper's §6.1 argument is that a one-time signature verifies with
//! one hash, against RSA-class work for the baselines. [`table`] times
//! the reproduction's primitives: SHA-256, HMAC, one-time sign/verify,
//! Merkle–Lamport (the RSA stand-in) and the simulated threshold
//! operations. The simulator never reads these figures; it charges
//! `CostModel` per logical operation. Every figure depends on the
//! SHA-256 engine the CPU selects, which the `calibrate` binary prints.
//!
//! A row doubles its batch until one batch, set-up included, fills its
//! share of the budget, then times 11 batches. Inputs a call consumes
//! are made before a batch's clock starts and dropped after it stops.
//! The row reports the median and the minimum ns per operation.

use std::hint::black_box;
use std::time::{Duration, Instant};
use turquois_crypto::hashsig::Keypair;
use turquois_crypto::hmac::HmacKey;
use turquois_crypto::otss::{KeyPairArray, Value};
use turquois_crypto::sha256::sha256;
use turquois_crypto::threshold::Dealer;

/// Timed batches per row.
const BATCHES: usize = 11;

/// The per-row budget the `calibrate` binary uses: about 1 s in all.
pub const ROW_BUDGET: Duration = Duration::from_millis(50);

/// One primitive's host cost, in ns per operation over the batches.
#[derive(Clone, Debug)]
pub struct Row {
    /// The primitive, as EXPERIMENTS.md's A4 table names it.
    pub name: &'static str,
    /// The median batch.
    pub median_ns: f64,
    /// The fastest batch.
    pub min_ns: f64,
}

/// Times every primitive, each row in about `budget` of wall clock
/// (at least 11 calls, whatever the budget).
pub fn table(budget: Duration) -> Vec<Row> {
    let mut rows = Vec::new();
    for (size, name) in
        [(32, "sha256/32B"), (256, "sha256/256B"), (1024, "sha256/1024B"), (16384, "sha256/16384B")]
    {
        let data = vec![0xabu8; size];
        rows.push(timed(name, budget, || sha256(black_box(&data))));
    }
    let key = HmacKey::from_bytes(b"pairwise key");
    rows.push(timed("hmac_sha256_100B", budget, || key.mac(black_box(&[0x5a; 100]))));

    let keys = KeyPairArray::generate(0, 64, 42);
    let vk = keys.verification_keys().clone();
    let sig = keys.sign(5, Value::One).expect("in range");
    let sign = || keys.sign(black_box(5), Value::One).expect("in range");
    rows.push(timed("otss_sign", budget, sign));
    // A fresh array hashes nothing until a sign derives the phase's block.
    let mut seed = 42;
    let fresh = || {
        seed += 1;
        KeyPairArray::generate(0, 64, seed)
    };
    let first = |keys: &mut KeyPairArray| keys.sign(black_box(5), Value::One).expect("in range");
    rows.push(batched("otss_sign_first_touch", budget, fresh, first));
    rows.push(timed("otss_verify", budget, || vk.verify(5, Value::One, black_box(&sig))));

    rows.push(timed("hashsig_keygen_16_leaves", budget, || Keypair::generate(4, black_box(7))));
    let msg = b"verification keys for epoch 2";
    let mut kp = Keypair::generate(10, 7);
    let (sig, public) = (kp.sign(msg).expect("leaves available"), *kp.public_key());
    // A fresh keypair per call, so no batch runs out of leaves.
    let sign = |kp: &mut Keypair| kp.sign(black_box(msg)).expect("fresh leaves");
    rows.push(batched("hashsig_sign", budget, || Keypair::generate(4, 9), sign));
    rows.push(timed("hashsig_verify", budget, || public.verify(black_box(msg), &sig)));

    let (public, keys) = Dealer::deal(16, 11, 99);
    let msg = b"pre-vote 1 1";
    let shares: Vec<_> = keys.iter().take(11).map(|k| k.sign_share(msg)).collect();
    rows.push(timed("threshold_share_sign", budget, || keys[0].sign_share(black_box(msg))));
    let verify = || public.verify_share(black_box(msg), &shares[0]);
    rows.push(timed("threshold_share_verify", budget, verify));
    let combine = || public.combine(black_box(msg), &shares).expect("quorum");
    rows.push(timed("threshold_combine_11", budget, combine));
    rows
}

/// [`batched`] for a call that needs no input of its own.
fn timed<O>(name: &'static str, budget: Duration, mut op: impl FnMut() -> O) -> Row {
    batched(name, budget, || (), |()| op())
}

/// Times `op`, each call on an input `setup` made outside the clock.
fn batched<I, O>(
    name: &'static str,
    budget: Duration,
    mut setup: impl FnMut() -> I,
    mut op: impl FnMut(&mut I) -> O,
) -> Row {
    let mut batch = |iters: usize| {
        let mut inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in &mut inputs {
            black_box(op(input));
        }
        start.elapsed()
    };
    let share = budget / (BATCHES as u32 + 2);
    let mut iters = 1;
    loop {
        let wall = Instant::now();
        batch(iters);
        if wall.elapsed() >= share || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut per_op: Vec<f64> =
        (0..BATCHES).map(|_| batch(iters).as_nanos() as f64 / iters as f64).collect();
    per_op.sort_by(f64::total_cmp);
    Row { name, median_ns: per_op[BATCHES / 2], min_ns: per_op[0] }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_row_is_timed_in_order() {
        let rows = super::table(std::time::Duration::from_millis(1));
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "sha256/32B", "sha256/256B", "sha256/1024B", "sha256/16384B", "hmac_sha256_100B",
                "otss_sign", "otss_sign_first_touch", "otss_verify", "hashsig_keygen_16_leaves",
                "hashsig_sign", "hashsig_verify", "threshold_share_sign", "threshold_share_verify",
                "threshold_combine_11",
            ]
        );
        for row in &rows {
            let ok = row.min_ns.is_finite() && 0.0 < row.min_ns && row.min_ns <= row.median_ns;
            assert!(ok, "{row:?}");
        }
    }
}
