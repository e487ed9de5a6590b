//! Stand-alone probes: layers timed through their public functions,
//! with no simulator around them.
//!
//! Each probe repeats one operation in batches for a fixed slice of
//! time and reports the median batch, so a probe costs the same
//! whatever it measures and one disturbed batch does not move it.

use crate::fixtures::{
    abba_group, bracha_group, broadcast_frame, filled_queue, mac_delay_ns, one_time_signature, rng,
    saturated_medium,
};
use crate::jobs::{job_list, ConsensusJob, Job, Workload};
use crate::measure::median;
use crate::metrics::Values;
use crate::surface::{
    run_indexed, run_storm, sha256, sha256_many, Bytes, CompletedTx, FaultLoad, HmacKey, KeyRing,
    ProposalDistribution, Protocol, SimTime,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `op`, over batches that fill `slice`.
fn ns_per_op(slice: Duration, mut op: impl FnMut()) -> f64 {
    // Size a batch to about a twentieth of the slice.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        if t0.elapsed() * 20 >= slice || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let started = Instant::now();
    let mut samples = Vec::new();
    while started.elapsed() < slice || samples.is_empty() {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Median milliseconds per call of a slow `op` (at least three calls).
fn ms_per_call(slice: Duration, mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < slice {
        let t0 = Instant::now();
        op();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9)
}

/// `EventQueue` hold model: pop the earliest event, push it back a
/// random MAC-scale delay later, at a steady depth.
fn queue_hold_ns(slice: Duration, depth: usize) -> f64 {
    let mut r = rng(depth as u64);
    let mut queue = filled_queue(depth, &mut r);
    ns_per_op(slice, || {
        let (at, item) = queue.pop().expect("the hold model never drains");
        queue.push(at + mac_delay_ns(&mut r), item);
    })
}

/// `Medium` under saturation: every node always has a broadcast queued;
/// one op is one transmission taken through enqueue → contention
/// resolution → end of transmission, driven the way the simulator's
/// event loop drives it.
fn medium_tx_ns(slice: Duration, n: usize, split: bool) -> f64 {
    #[derive(Clone, Copy, Eq, PartialEq, Ord, PartialOrd)]
    enum Kind {
        Resolve(u64),
        TxEnd,
    }
    let mut r = rng(n as u64);
    let mut medium = saturated_medium(n, split, &mut r);
    let mut events: BinaryHeap<Reverse<(SimTime, u64, Kind)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut done: Vec<CompletedTx> = Vec::new();
    if let Some((at, epoch)) = medium.next_resolution(SimTime::ZERO) {
        events.push(Reverse((at, seq, Kind::Resolve(epoch))));
    }
    ns_per_op(slice, || {
        // Run events until one transmission group has completed.
        loop {
            let Reverse((at, _, kind)) = events.pop().expect("saturated: always an event");
            let mut completed = false;
            match kind {
                Kind::Resolve(epoch) => {
                    let Some(end) = medium.resolve(at, epoch) else {
                        continue; // stale: whatever bumped the epoch rescheduled
                    };
                    seq += 1;
                    events.push(Reverse((end, seq, Kind::TxEnd)));
                }
                Kind::TxEnd => {
                    medium.finish_tx_into(at, &mut done);
                    for tx in done.drain(..) {
                        medium.after_head_done(tx.node, &mut r);
                        medium.enqueue(broadcast_frame(tx.node), &mut r);
                    }
                    completed = true;
                }
            }
            if let Some((next, epoch)) = medium.next_resolution(at) {
                seq += 1;
                events.push(Reverse((next, seq, Kind::Resolve(epoch))));
            }
            if completed {
                return;
            }
        }
    })
}

/// Bare engines fed each other's `send` lists in lock-step: one op is
/// one `on_message`. The group is rebuilt whenever it runs dry.
fn lock_step_ns<E>(
    slice: Duration,
    build: impl Fn(u64) -> Vec<E>,
    start: impl Fn(&mut E) -> Vec<Bytes>,
    feed: impl Fn(&mut E, usize, &[u8]) -> Vec<Bytes>,
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut round = 0u64;
    while started.elapsed() < slice || samples.is_empty() {
        round += 1;
        let mut group = build(round);
        let mut inbox: Vec<(usize, Bytes)> = Vec::new();
        for (i, e) in group.iter_mut().enumerate() {
            inbox.extend(start(e).into_iter().map(|m| (i, m)));
        }
        let (mut calls, mut spent) = (0u64, Duration::ZERO);
        // A few thousand calls per group is plenty; groups that keep
        // talking after deciding are cut off.
        while !inbox.is_empty() && calls < 50_000 {
            let mut next = Vec::new();
            for (from, msg) in &inbox {
                for e in group.iter_mut() {
                    let t0 = Instant::now();
                    let out = feed(e, *from, msg);
                    spent += t0.elapsed();
                    calls += 1;
                    black_box(&out);
                    next.push(out);
                }
            }
            // Re-attribute: engine j's output is sent by j.
            let n = group.len();
            inbox = next
                .into_iter()
                .enumerate()
                .flat_map(|(k, out)| out.into_iter().map(move |m| (k % n, m)))
                .collect();
        }
        samples.push(spent.as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&samples)
}

fn build_ms(slice: Duration, job: ConsensusJob) -> f64 {
    let mut seed = 0u64;
    ms_per_call(slice, || {
        seed += 1;
        black_box(job.scenario(seed).build_sim().expect("valid size"));
    })
}

/// `runner::run_indexed` over one pass of `paper_tables`: wall at one
/// thread over wall at two.
fn runner_speedup_t2(seed: u64) -> f64 {
    let jobs: Vec<Job> = job_list(Workload::PaperTables, seed, 1, false).remove(0);
    let run = |threads: usize| {
        let t0 = Instant::now();
        let ends = run_indexed(threads, &jobs, |_, job| {
            let mut built = crate::drive::build_plain(job);
            crate::drive::drive_plain(job, &mut built);
            built.sim.now()
        });
        (t0.elapsed().as_secs_f64(), ends)
    };
    let (one, serial) = run(1);
    let (two, parallel) = run(2);
    assert_eq!(
        serial, parallel,
        "the runner's output depends on its thread count"
    );
    one / two
}

/// Runs every stand-alone probe, `slice` of host time each (the two
/// whole-pass probes take what they take). `smoke` skips those two.
pub fn run_all(slice: Duration, seed: u64, smoke: bool, out: &mut Values) {
    // net
    out.insert("net.queue_hold_d64_ns", queue_hold_ns(slice, 64));
    out.insert("net.queue_hold_d4096_ns", queue_hold_ns(slice, 4096));
    out.insert("net.medium_tx_ns", medium_tx_ns(slice, 16, false));
    out.insert("net.medium_tx_n256_ns", medium_tx_ns(slice, 256, false));
    out.insert("net.medium_tx_split_ns", medium_tx_ns(slice, 16, true));
    let horizon_ms = if smoke { 20 } else { 200 };
    let t0 = Instant::now();
    let events = run_storm(16, 42, horizon_ms);
    out.insert(
        "net.storm_events_per_s",
        events as f64 / t0.elapsed().as_secs_f64(),
    );

    // harness
    let turquois = |n| {
        ConsensusJob::new(
            Protocol::Turquois,
            n,
            ProposalDistribution::Divergent,
            FaultLoad::FailureFree,
        )
    };
    out.insert(
        "harness.build_turquois_n16_ms",
        build_ms(slice, turquois(16)),
    );
    out.insert(
        "harness.build_turquois_n96_ms",
        build_ms(slice, turquois(96)),
    );
    out.insert(
        "harness.build_abba_n16_ms",
        build_ms(
            slice,
            ConsensusJob::new(
                Protocol::Abba,
                16,
                ProposalDistribution::Divergent,
                FaultLoad::FailureFree,
            ),
        ),
    );
    out.insert(
        "harness.runner_speedup_t2",
        if smoke { 0.0 } else { runner_speedup_t2(seed) },
    );

    // baselines
    out.insert(
        "baselines.bracha_engine_ns",
        lock_step_ns(
            slice,
            |round| bracha_group(16, round),
            |e| e.on_start().send,
            |e, from, msg| e.on_message(from, msg).send,
        ),
    );
    out.insert(
        "baselines.abba_engine_ns",
        lock_step_ns(
            slice,
            |round| abba_group(16, round),
            |e| e.on_start().send,
            |e, from, msg| e.on_message(from, msg).send,
        ),
    );

    // crypto
    let block = vec![0xabu8; 64];
    out.insert(
        "crypto.sha256_64b_ns",
        ns_per_op(slice, || {
            black_box(sha256(black_box(&block)));
        }),
    );
    let big = vec![0xabu8; 16 * 1024];
    let ns = ns_per_op(slice, || {
        black_box(sha256(black_box(&big)));
    });
    out.insert("crypto.sha256_16k_mib_s", mib_per_s(big.len(), ns));
    let lanes: Vec<&[u8]> = (0..8).map(|_| &big[..]).collect();
    let ns = ns_per_op(slice, || {
        black_box(sha256_many(black_box(&lanes)));
    });
    out.insert("crypto.sha256_many_mib_s", mib_per_s(8 * big.len(), ns));
    let key = HmacKey::from_bytes(b"pairwise key");
    out.insert(
        "crypto.hmac_64b_ns",
        ns_per_op(slice, || {
            black_box(key.mac(black_box(&block)));
        }),
    );
    let (keys, phase, value, sig) = one_time_signature();
    let vk = keys.verification_keys().clone();
    out.insert(
        "crypto.otss_verify_ns",
        ns_per_op(slice, || {
            black_box(vk.verify(phase, value, black_box(&sig)));
        }),
    );
    let mut keygen_seed = 0u64;
    out.insert(
        "crypto.keygen_n16_ms",
        ms_per_call(slice, || {
            keygen_seed += 1;
            black_box(KeyRing::trusted_setup(16, 600, keygen_seed));
        }),
    );
}
