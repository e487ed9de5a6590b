//! Ablation A4: cryptographic micro-benchmarks (host wall-clock).
//!
//! The paper's §6.1 argument: one-time hash signatures cost a single
//! hash per verification, versus RSA-class public-key work for the
//! baselines. These micro-benchmarks measure the reproduction's actual
//! primitives on the host CPU: SHA-256, HMAC, one-time sign/verify,
//! Merkle–Lamport sign/verify (the RSA stand-in for key exchange), and
//! the simulated threshold operations.

use criterion::{criterion_group, Criterion, Throughput};
use turquois_crypto::hashsig::Keypair;
use turquois_crypto::hmac::HmacKey;
use turquois_crypto::otss::{KeyPairArray, Value};
use turquois_crypto::sha256::sha256;
use turquois_crypto::threshold::Dealer;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [32usize, 256, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let key = HmacKey::from_bytes(b"pairwise key");
    let msg = vec![0x5au8; 100];
    c.bench_function("hmac_sha256_100B", |b| {
        b.iter(|| key.mac(std::hint::black_box(&msg)))
    });
}

fn bench_otss(c: &mut Criterion) {
    let keys = KeyPairArray::generate(0, 64, 42);
    let vk = keys.verification_keys().clone();
    let sig = keys.sign(5, Value::One).expect("in range");
    c.bench_function("otss_sign", |b| {
        b.iter(|| {
            keys.sign(std::hint::black_box(5), Value::One)
                .expect("in range")
        })
    });
    c.bench_function("otss_verify", |b| {
        b.iter(|| vk.verify(5, Value::One, std::hint::black_box(&sig)))
    });
}

fn bench_hashsig(c: &mut Criterion) {
    c.bench_function("hashsig_keygen_16_leaves", |b| {
        b.iter(|| Keypair::generate(4, std::hint::black_box(7)))
    });
    let mut kp = Keypair::generate(10, 7);
    let msg = b"verification keys for epoch 2";
    let sig = kp.sign(msg).expect("leaves available");
    let public = *kp.public_key();
    c.bench_function("hashsig_sign", |b| {
        // Re-generate per batch to avoid leaf exhaustion mid-measurement.
        b.iter_batched(
            || Keypair::generate(4, 9),
            |mut kp| kp.sign(std::hint::black_box(msg)).expect("fresh leaves"),
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("hashsig_verify", |b| {
        b.iter(|| public.verify(std::hint::black_box(msg), &sig))
    });
}

fn bench_threshold(c: &mut Criterion) {
    let (public, keys) = Dealer::deal(16, 11, 99);
    let msg = b"pre-vote 1 1";
    let shares: Vec<_> = keys.iter().take(11).map(|k| k.sign_share(msg)).collect();
    c.bench_function("threshold_share_sign", |b| {
        b.iter(|| keys[0].sign_share(std::hint::black_box(msg)))
    });
    c.bench_function("threshold_share_verify", |b| {
        b.iter(|| public.verify_share(std::hint::black_box(msg), &shares[0]))
    });
    c.bench_function("threshold_combine_11", |b| {
        b.iter(|| {
            public
                .combine(std::hint::black_box(msg), &shares)
                .expect("quorum")
        })
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hmac,
    bench_otss,
    bench_hashsig,
    bench_threshold
);

fn main() {
    // Every figure here depends on which SHA-256 engine the CPU selects;
    // name it so a log of this bench says what it measured.
    println!("sha256 engine: {}", turquois_crypto::sha256::engine());
    benches();
}
