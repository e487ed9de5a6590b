//! The traced measurement: per-layer metrics of one workload.
//!
//! One untraced pass (the twin), the same pass traced, a replay of
//! every Turquois job's recorded node, and the stand-alone probes. The
//! twin gives the outcomes the traced runs must reproduce and the wall
//! time the tracer's overhead is measured against.

use crate::alloc;
use crate::calibrate::Calibrator;
use crate::drive::{digest_of, finish, JobResult, Watch};
use crate::jobs::{job_list, ConsensusJob, Job, JobKind, Workload, SCALE_N};
use crate::json::Json;
use crate::measure::{run_pass, Pass};
use crate::metrics::Values;
use crate::probes;
use crate::replay::{replay, Replay};
use crate::surface::{FaultLoad, ProposalDistribution, Protocol};
use crate::traced::{
    begin_job, build_traced, drive_traced, end_job, Fold, JobTrace, SpanKind, RECORDED_NODE,
};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The paper's Table 1 (failure-free latency, ms), as transcribed in
/// `EXPERIMENTS.md`: per engine, per size 4…16, `[unanimous, divergent]`.
const PAPER_TABLE_1: [(Protocol, [[f64; 2]; 5]); 3] = [
    (
        Protocol::Turquois,
        [
            [14.90, 28.67],
            [26.85, 54.38],
            [43.15, 71.75],
            [60.94, 128.07],
            [87.57, 236.31],
        ],
    ),
    (
        Protocol::Abba,
        [
            [74.70, 135.39],
            [125.81, 253.66],
            [277.90, 547.42],
            [693.39, 1722.44],
            [1914.54, 4309.51],
        ],
    ),
    (
        Protocol::Bracha,
        [
            [101.06, 127.39],
            [552.77, 715.15],
            [1361.90, 2282.23],
            [3459.10, 6276.91],
            [7321.41, 10420.00],
        ],
    ),
];

fn paper_latency_ms(c: &ConsensusJob) -> Option<f64> {
    if c.load != FaultLoad::FailureFree || c.split.is_some() {
        return None;
    }
    let size = [4, 7, 10, 13, 16].iter().position(|&n| n == c.n)?;
    let (_, rows) = PAPER_TABLE_1.iter().find(|(e, _)| *e == c.engine)?;
    Some(rows[size][(c.proposals == ProposalDistribution::Divergent) as usize])
}

/// What the traced measurement of one workload produced.
pub struct Layers {
    /// Every per-layer metric by name.
    pub values: Values,
    /// Runs attempted (twin + traced).
    pub attempted: u64,
    /// Why runs failed: a broken check, a traced run that diverged from
    /// its twin, a replay that missed the live node's state.
    pub failures: Vec<String>,
    /// Hash of the twin pass's outcomes.
    pub digest: u64,
    /// Where the trace file went.
    pub trace_file: PathBuf,
}

/// One job run under the tracer.
pub struct TracedJob {
    /// What the run produced, checked like any other.
    pub result: JobResult,
    /// The folded spans and the recorded callbacks.
    pub trace: JobTrace,
    /// The replay of the recorded node (Turquois jobs).
    pub replay: Option<Replay>,
    /// Host time of build + drive.
    pub wall: Duration,
    /// `(allocations, bytes)` during build + drive.
    pub allocs: (u64, u64),
}

/// Builds, drives and checks one job under the tracer, then replays
/// its recording.
pub fn trace_job(job: &Job, keep_spans: bool) -> TracedJob {
    begin_job(keep_spans);
    let before = alloc::totals();
    alloc::counting(true);
    let t0 = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let (mut built, engine_seed) = build_traced(job);
        let stop = drive_traced(job, &mut built);
        (built, engine_seed, stop)
    }));
    let wall = t0.elapsed();
    alloc::counting(false);
    let after = alloc::totals();
    let trace = end_job();
    let allocs = (after.0 - before.0, after.1 - before.1);
    let (result, replay) = match run {
        Err(_) => (JobResult::failed("panicked under the tracer".into()), None),
        Ok((built, engine_seed, stop)) => {
            let result = finish(job, &built, stop);
            let replay = engine_seed.map(|seed| {
                let Watch::Consensus(probe) = &built.watch else {
                    unreachable!("only consensus jobs have an engine seed");
                };
                let live = (
                    probe.borrow().final_phase[RECORDED_NODE],
                    built.sim.decisions()[RECORDED_NODE].map(|d| d.value),
                );
                replay(&seed, &trace.callbacks, live)
            });
            (result, replay)
        }
    };
    TracedJob {
        result,
        trace,
        replay,
        wall,
        allocs,
    }
}

/// Cost of a span with nothing inside it, ns: the floor under every
/// `*_ns` figure the tracer reports.
fn span_floor_ns() -> f64 {
    begin_job(false);
    for _ in 0..100_000 {
        crate::traced::empty_span();
    }
    end_job().folds[SpanKind::Progress as usize].mean_ns()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn fold_json(fold: &Fold) -> Json {
    Json::obj([
        ("count", Json::Num(fold.count as f64)),
        ("total_ns", Json::Num(fold.total_ns as f64)),
        ("self_ns", Json::Num(fold.self_ns as f64)),
        ("p50_ns", Json::Num(fold.hist.quantile(0.5))),
        ("p99_ns", Json::Num(fold.hist.quantile(0.99))),
    ])
}

/// Writes the per-job folds and the designated job's spans as JSON
/// lines.
fn write_trace(
    path: &Path,
    workload: Workload,
    seed: u64,
    jobs: &[Job],
    traced: &[TracedJob],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let header = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("jobs", Json::Num(jobs.len() as f64)),
    ]);
    writeln!(out, "{}", header.compact())?;
    for (i, (job, t)) in jobs.iter().zip(traced).enumerate() {
        let run = format!("{}#{i}", workload.name());
        let folds = Json::obj(
            SpanKind::ALL
                .iter()
                .map(|k| (k.name(), fold_json(&t.trace.folds[*k as usize]))),
        );
        let line = Json::obj([
            ("run", Json::str(run.clone())),
            ("job", Json::str(job.label())),
            ("folds", folds),
        ]);
        writeln!(out, "{}", line.compact())?;
        for span in &t.trace.spans {
            let mut fields = vec![
                ("run", Json::str(run.clone())),
                ("root", Json::Num(span.root as f64)),
                ("name", Json::str(span.kind.name())),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ];
            if span.node != u32::MAX {
                fields.push(("node", Json::Num(span.node as f64)));
            }
            writeln!(out, "{}", Json::obj(fields).compact())?;
        }
    }
    out.flush()
}

/// The job whose spans are kept in full: the first Turquois job of the
/// largest size, or the first job when the workload has no engine.
fn designated(jobs: &[Job]) -> usize {
    let size = |j: &Job| match &j.kind {
        JobKind::Consensus(c) if c.engine == Protocol::Turquois => c.n,
        _ => 0,
    };
    let largest = jobs.iter().map(size).max().unwrap_or(0);
    jobs.iter().position(|j| size(j) == largest).unwrap_or(0)
}

/// The traced pass folded per workload: everything the per-layer
/// metrics are computed from.
#[derive(Default)]
struct Sums {
    /// One fold per [`SpanKind::ALL`] entry, over every job.
    folds: [Fold; 8],
    /// `app.on_frame` split by who answers it: Turquois and null-radio
    /// jobs, Bracha jobs, ABBA jobs.
    on_frame_harness: Fold,
    on_frame_bracha: Fold,
    on_frame_abba: Fold,
    /// Callbacks at the recorded nodes of the replayed jobs.
    recorded_node: Fold,
    /// Replays: every Turquois job, the failure-free ones, the
    /// Byzantine ones.
    replay: Replay,
    replay_ff: Replay,
    replay_byz: Replay,
    /// Host seconds of build + drive.
    wall_s: f64,
    /// `(allocations, bytes)` during build + drive.
    allocs: (u64, u64),
}

impl Sums {
    fn over(jobs: &[Job], traced: &[TracedJob]) -> Sums {
        let mut sums = Sums::default();
        for (job, t) in jobs.iter().zip(traced) {
            for kind in SpanKind::ALL {
                sums.folds[kind as usize].merge(&t.trace.folds[kind as usize]);
            }
            let (engine, load) = match &job.kind {
                JobKind::Consensus(c) => (Some(c.engine), Some(c.load)),
                JobKind::Radio { .. } => (None, None),
            };
            let on_frame = &t.trace.folds[SpanKind::OnFrame as usize];
            match engine {
                Some(Protocol::Bracha) => sums.on_frame_bracha.merge(on_frame),
                Some(Protocol::Abba) => sums.on_frame_abba.merge(on_frame),
                Some(Protocol::Turquois) | None => sums.on_frame_harness.merge(on_frame),
            }
            if let Some(r) = &t.replay {
                sums.recorded_node.merge(&t.trace.recorded_node);
                sums.replay.merge(r);
                match load {
                    Some(FaultLoad::FailureFree) => sums.replay_ff.merge(r),
                    Some(FaultLoad::Byzantine) => sums.replay_byz.merge(r),
                    _ => {}
                }
            }
            sums.wall_s += t.wall.as_secs_f64();
            sums.allocs = (sums.allocs.0 + t.allocs.0, sums.allocs.1 + t.allocs.1);
        }
        sums
    }

    fn fold(&self, kind: SpanKind) -> &Fold {
        &self.folds[kind as usize]
    }

    fn wall_ns(&self) -> f64 {
        self.wall_s * 1e9
    }
}

fn net_metrics(v: &mut Values, twin: &Pass, sums: &Sums) {
    let sum = |f: fn(&crate::surface::NetStats) -> u64| -> f64 {
        twin.results.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
    };
    let frames_sent = sum(|s| s.frames_sent());
    let step = sums.fold(SpanKind::Step);
    v.insert("net.events", twin.events() as f64);
    v.insert("net.deliveries", twin.deliveries() as f64);
    v.insert("net.frames_sent", frames_sent);
    v.insert("net.queue_drops", sum(|s| s.queue_drops));
    v.insert("net.fault_drops", sum(|s| s.fault_drops));
    v.insert(
        "net.collision_rate",
        ratio(sum(|s| s.collisions), frames_sent),
    );
    v.insert(
        "net.step_self_ns",
        ratio(step.self_ns as f64, step.count as f64),
    );
    v.insert("net.step_self_p99_ns", step.hist.quantile(0.99));
    v.insert(
        "net.step_self_share",
        ratio(step.self_ns as f64, sums.wall_ns()),
    );
    v.insert(
        "net.fault_call_ns",
        sums.fold(SpanKind::FaultDrops).mean_ns(),
    );
    v.insert("net.events_per_s", ratio(twin.events() as f64, twin.wall_s));
}

fn harness_metrics(v: &mut Values, sums: &Sums) {
    let app_ns: u64 = SpanKind::ALL
        .iter()
        .filter(|k| k.is_app())
        .map(|k| sums.fold(*k).total_ns)
        .sum();
    v.insert("harness.on_frame_ns", sums.on_frame_harness.mean_ns());
    v.insert(
        "harness.on_frame_p99_ns",
        sums.on_frame_harness.hist.quantile(0.99),
    );
    v.insert(
        "harness.on_timer_ns",
        sums.fold(SpanKind::OnTimer).mean_ns(),
    );
    v.insert("harness.app_share", ratio(app_ns as f64, sums.wall_ns()));
    v.insert(
        "harness.adapter_self_ns",
        ratio(
            sums.recorded_node.total_ns as f64 - sums.replay.engine_ns() as f64,
            sums.recorded_node.count as f64,
        ),
    );
    // The traced callback of a baseline is adapter + reliable transport
    // + engine; from outside they cannot be told apart.
    v.insert(
        "baselines.bracha_on_frame_ns",
        sums.on_frame_bracha.mean_ns(),
    );
    v.insert("baselines.abba_on_frame_ns", sums.on_frame_abba.mean_ns());
}

fn core_metrics(v: &mut Values, sums: &Sums, unfaithful: u64) {
    let r = &sums.replay;
    let frames = r.frames as f64;
    v.insert("core.frames_replayed", frames);
    v.insert("core.replays_unfaithful", unfaithful as f64);
    v.insert("core.frame_bytes_mean", ratio(r.frame_bytes as f64, frames));
    v.insert(
        "core.just_entries_mean",
        ratio(r.just_entries as f64, frames),
    );
    v.insert("core.accept_rate", ratio(r.accepted as f64, frames));
    v.insert("core.on_message_ns", r.on_message.mean_ns());
    v.insert("core.on_message_p99_ns", r.on_message.hist.quantile(0.99));
    v.insert("core.on_message_ff_ns", sums.replay_ff.on_message.mean_ns());
    v.insert(
        "core.on_message_byz_ns",
        sums.replay_byz.on_message.mean_ns(),
    );
    v.insert("core.on_tick_ns", r.on_tick.mean_ns());
    v.insert("core.decode_ns", r.decode.mean_ns());
    v.insert("core.verify_ns", r.verify.mean_ns());
    v.insert("core.store_insert_ns", r.store_insert.mean_ns());
    let events = sums.fold(SpanKind::Step).count as f64;
    v.insert("alloc.count_per_event", ratio(sums.allocs.0 as f64, events));
    v.insert("alloc.bytes_per_event", ratio(sums.allocs.1 as f64, events));
    v.insert(
        "alloc.count_per_on_message",
        ratio(r.on_message_allocs as f64, frames),
    );
}

/// Simulated and deterministic, from the twin.
fn model_metrics(v: &mut Values, jobs: &[Job], twin: &Pass) {
    let mut latencies: Vec<f64> = twin
        .results
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p99 = latencies
        .get(latencies.len().saturating_sub(1) * 99 / 100)
        .copied()
        .unwrap_or(0.0);
    let phases: Vec<u32> = twin.results.iter().flat_map(|r| r.phases.clone()).collect();
    let frames_sent: u64 = twin.results.iter().map(|r| r.stats.frames_sent()).sum();
    v.insert("model.sim_latency_p99_ms", p99);
    v.insert(
        "model.phases_to_decide",
        ratio(phases.iter().sum::<u32>() as f64, phases.len() as f64),
    );
    v.insert(
        "model.frames_per_decision",
        ratio(frames_sent as f64, latencies.len() as f64),
    );
    let (mut log_sum, mut cells) = (0.0, 0u32);
    for (job, r) in jobs.iter().zip(&twin.results) {
        let JobKind::Consensus(c) = &job.kind else {
            continue;
        };
        if let (Some(paper), false) = (paper_latency_ms(c), r.latencies_ms.is_empty()) {
            let mean = r.latencies_ms.iter().sum::<f64>() / r.latencies_ms.len() as f64;
            log_sum += (mean / paper).ln();
            cells += 1;
        }
    }
    v.insert(
        "model.paper_ratio_t1",
        if cells == 0 {
            0.0
        } else {
            (log_sum / cells as f64).exp()
        },
    );
}

/// `harness.on_frame_n_exponent`: how `on_frame` grows with n, from one
/// extra traced failure-free job at n = 96 against the pass's own at
/// n = 64 — the slope that predicts what n = 256 costs.
fn on_frame_n_exponent(at_64: &TracedJob, seed: u64, failures: &mut Vec<String>) -> f64 {
    let big = Job {
        seed,
        kind: JobKind::Consensus(ConsensusJob::new(
            Protocol::Turquois,
            96,
            ProposalDistribution::Divergent,
            FaultLoad::FailureFree,
        )),
    };
    let at_96 = trace_job(&big, false);
    if let Some(f) = &at_96.result.failure {
        failures.push(format!("{} (traced): {f}", big.label()));
    }
    let mean = |t: &TracedJob| t.trace.folds[SpanKind::OnFrame as usize].mean_ns();
    ratio(
        (mean(&at_96) / mean(at_64)).ln(),
        (96.0 / SCALE_N as f64).ln(),
    )
}

impl Layers {
    /// Measures `workload`'s layers. `seconds` sizes the probes' time
    /// slices; `trace_dir` is where `trace_<workload>.jsonl` goes.
    pub fn take(
        workload: Workload,
        seed: u64,
        seconds: u64,
        smoke: bool,
        trace_dir: &Path,
    ) -> Layers {
        let jobs = job_list(workload, seed, 1, smoke).remove(0);
        let mut failures = Vec::new();
        let mut attempted = 2 * jobs.len() as u64;

        // The untraced twin, then the same pass traced.
        let twin: Pass = run_pass(&jobs, &mut Calibrator::default());
        let keep = designated(&jobs);
        let traced: Vec<TracedJob> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| trace_job(job, i == keep))
            .collect();
        let (mut twins_diverged, mut unfaithful) = (0u64, 0u64);
        for ((job, t), twin_result) in jobs.iter().zip(&traced).zip(&twin.results) {
            let label = job.label();
            if let Some(f) = &twin_result.failure {
                failures.push(format!("{label}: {f}"));
            }
            if let Some(f) = &t.result.failure {
                failures.push(format!("{label} (traced): {f}"));
            }
            if t.result.digest != twin_result.digest {
                twins_diverged += 1;
                failures.push(format!("{label}: traced run diverged from its twin"));
            }
            if t.replay.as_ref().is_some_and(|r| !r.faithful) {
                unfaithful += 1;
                failures.push(format!("{label}: replay missed the live node's state"));
            }
        }

        let sums = Sums::over(&jobs, &traced);
        let mut v = Values::new();
        net_metrics(&mut v, &twin, &sums);
        harness_metrics(&mut v, &sums);
        core_metrics(&mut v, &sums, unfaithful);
        model_metrics(&mut v, &jobs, &twin);
        let exponent = if workload == Workload::ScaleFanout && !smoke {
            attempted += 1;
            on_frame_n_exponent(&traced[0], jobs[0].seed, &mut failures)
        } else {
            0.0
        };
        v.insert("harness.on_frame_n_exponent", exponent);

        // The instrument itself, and what it ran on.
        let attributed: u64 = sums.folds.iter().map(|f| f.self_ns).sum();
        let spans: u64 = sums.folds.iter().map(|f| f.count).sum();
        v.insert("trace.overhead_ratio", ratio(sums.wall_s, twin.wall_s));
        v.insert("trace.spans", spans as f64);
        v.insert("trace.span_floor_ns", span_floor_ns());
        v.insert(
            "trace.attributed_share",
            ratio(attributed as f64, sums.wall_ns()),
        );
        v.insert("trace.twins_diverged", twins_diverged as f64);
        v.insert("host.speed", twin.speed);
        v.insert("host.pass_wall_s", twin.wall_s);
        v.insert("host.traced_wall_s", sums.wall_s);

        // Spans go out once the pass is over.
        let trace_file = trace_dir.join(format!("trace_{}.jsonl", workload.name()));
        if let Err(e) = write_trace(&trace_file, workload, seed, &jobs, &traced) {
            failures.push(format!("cannot write {}: {e}", trace_file.display()));
        }
        drop(traced);
        v.insert("trace.runs_failed", failures.len() as f64);

        // Stand-alone probes: a hundredth of the run each.
        let slice = Duration::from_millis((seconds * 10).clamp(5, 200));
        probes::run_all(slice, seed, smoke, &mut v);

        Layers {
            values: v,
            attempted,
            failures,
            digest: digest_of(twin.results.iter()),
            trace_file,
        }
    }
}
