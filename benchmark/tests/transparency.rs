//! The tracer must be transparent: a job built from the benchmark's own
//! copy of the construction, wrapped and driven by the benchmark's own
//! loop, reproduces `Scenario::run_once` exactly — and the replay of
//! its recorded node lands on the live node's state. This is also what
//! catches drift between that copy and `Scenario::build_sim`.

use turquois_benchmark::drive::{build_plain, drive_plain, finish};
use turquois_benchmark::jobs::{grid, ConsensusJob, Job, JobKind, Workload};
use turquois_benchmark::layers::trace_job;
use turquois_benchmark::surface::{FaultLoad, ProposalDistribution, Protocol};

fn consensus(job: ConsensusJob, seed: u64) -> Job {
    Job {
        seed,
        kind: JobKind::Consensus(job),
    }
}

/// The traced run equals `Scenario::run_once` on everything simulated.
fn assert_transparent(job: &Job) {
    let JobKind::Consensus(c) = &job.kind else {
        panic!("consensus jobs only");
    };
    let reference = c.scenario(job.seed).run_once().expect("valid size");
    let traced = trace_job(job, false);
    let label = job.label();
    assert_eq!(traced.result.failure, None, "{label}");
    assert_eq!(
        traced.result.decisions, reference.decisions,
        "{label}: decisions"
    );
    assert_eq!(
        traced.result.end_nanos,
        reference.end.as_nanos(),
        "{label}: end time"
    );
    assert_eq!(
        traced.result.stats.events_processed, reference.stats.events_processed,
        "{label}: events processed"
    );
    assert_eq!(
        traced.result.latencies_ms,
        reference.latencies_ms(),
        "{label}"
    );
    // The untraced path of the benchmark is the same run again.
    let mut built = build_plain(job);
    let stop = drive_plain(job, &mut built);
    assert_eq!(
        finish(job, &built, stop).digest,
        traced.result.digest,
        "{label}: digest"
    );
    match (c.engine, &traced.replay) {
        (Protocol::Turquois, Some(replay)) => {
            assert!(
                replay.faithful,
                "{label}: replay missed the live node's state"
            );
            assert!(replay.frames > 0 && replay.on_tick.count > 0, "{label}");
        }
        (Protocol::Turquois, None) => panic!("{label}: no replay for a Turquois job"),
        (_, replay) => assert!(replay.is_none(), "{label}: replay of a baseline"),
    }
}

#[test]
fn paper_shape_is_transparent_for_every_engine_and_fault_load() {
    let cases = [
        (
            Protocol::Turquois,
            7,
            ProposalDistribution::Divergent,
            FaultLoad::Byzantine,
        ),
        (
            Protocol::Turquois,
            4,
            ProposalDistribution::Unanimous,
            FaultLoad::FailStop,
        ),
        (
            Protocol::Bracha,
            4,
            ProposalDistribution::Divergent,
            FaultLoad::FailureFree,
        ),
        (
            Protocol::Bracha,
            7,
            ProposalDistribution::Divergent,
            FaultLoad::Byzantine,
        ),
        (
            Protocol::Abba,
            7,
            ProposalDistribution::Unanimous,
            FaultLoad::Byzantine,
        ),
        (
            Protocol::Abba,
            4,
            ProposalDistribution::Divergent,
            FaultLoad::FailStop,
        ),
    ];
    for (i, (engine, n, proposals, load)) in cases.into_iter().enumerate() {
        assert_transparent(&consensus(
            ConsensusJob::new(engine, n, proposals, load),
            40 + i as u64,
        ));
    }
}

#[test]
fn scale_shape_is_transparent() {
    // Past n = 16 the tick and the contention window scale with n.
    for load in [FaultLoad::FailureFree, FaultLoad::Byzantine] {
        let job = ConsensusJob::new(
            Protocol::Turquois,
            24,
            ProposalDistribution::Divergent,
            load,
        );
        assert_ne!(job.phy, Default::default());
        assert_transparent(&consensus(job, 7));
    }
}

#[test]
fn partition_shape_is_transparent_for_every_engine() {
    // The smoke grid holds one keep and one break split per engine and size.
    for (i, kind) in grid(Workload::PartitionHeal, true).into_iter().enumerate() {
        let JobKind::Consensus(c) = kind else {
            panic!("partition_heal is a consensus workload");
        };
        assert!(c.split.is_some());
        assert_transparent(&consensus(c, 100 + i as u64));
    }
}

#[test]
fn radio_shape_is_transparent() {
    for (i, kind) in grid(Workload::RadioNull, true).into_iter().enumerate() {
        let job = Job {
            seed: 9 + i as u64,
            kind,
        };
        let mut built = build_plain(&job);
        let stop = drive_plain(&job, &mut built);
        let plain = finish(&job, &built, stop);
        let traced = trace_job(&job, false);
        assert_eq!(plain.failure, None);
        assert_eq!(traced.result.failure, None);
        assert_eq!(plain.digest, traced.result.digest, "{}", job.label());
        assert_eq!(plain.radio, traced.result.radio);
        assert!(plain.radio.heard > 0);
    }
}
