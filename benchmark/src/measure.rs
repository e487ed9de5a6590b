//! The untraced measurement: end-to-end metrics of one workload.
//!
//! One process, one thread, a closed loop over the seeded job list.
//! Timings are taken per pass, scaled to the host's nominal speed
//! ([`crate::calibrate`]) and reported as the median over passes, so
//! one disturbed pass does not move the result; simulated figures are
//! sums over every pass and repeat exactly for a given
//! `(seed, seconds)`.

use crate::calibrate::Calibrator;
use crate::drive::{build_plain, digest_of, drive_plain, finish, JobResult};
use crate::jobs::{job_list, Job, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one pass over the grid cost and produced.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds for the whole pass, set-up included.
    pub wall_s: f64,
    /// The part of `wall_s` before each run's first event: building the
    /// simulator (key set-up, engines, adapters).
    pub setup_s: f64,
    /// `nominal / measured` host speed over the pass; times scale by it.
    pub speed: f64,
    /// One result per job, in grid order.
    pub results: Vec<JobResult>,
}

impl Pass {
    /// Frames delivered to applications over the pass.
    pub fn deliveries(&self) -> u64 {
        self.results.iter().map(|r| r.stats.deliveries).sum()
    }

    /// KiB of application payload the pass's applications handed to the
    /// network (`NetStats::payload_bytes_sent`).
    pub fn payload_kib(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.stats.payload_bytes_sent)
            .sum::<u64>() as f64
            / 1024.0
    }

    /// Simulator events processed over the pass.
    pub fn events(&self) -> u64 {
        self.results.iter().map(|r| r.stats.events_processed).sum()
    }
}

/// A result standing in for a job that panicked.
fn panicked(payload: Box<dyn std::any::Any + Send>) -> JobResult {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    JobResult::failed(format!("panicked: {msg}"))
}

/// Runs one pass the way the experiment binaries run their jobs.
pub fn run_pass(jobs: &[Job], calibrator: &mut Calibrator) -> Pass {
    let mut wall = Duration::ZERO;
    let mut setup_s = 0.0;
    let mut results = Vec::with_capacity(jobs.len());
    for job in jobs {
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut built = build_plain(job);
            let setup = t0.elapsed().as_secs_f64();
            let stop = drive_plain(job, &mut built);
            (setup, finish(job, &built, stop))
        }));
        let job_wall = t0.elapsed();
        wall += job_wall;
        match run {
            Ok((setup, result)) => {
                setup_s += setup;
                results.push(result);
            }
            Err(payload) => results.push(panicked(payload)),
        }
        calibrator.after(job_wall);
    }
    Pass {
        wall_s: wall.as_secs_f64(),
        setup_s,
        speed: calibrator.take(),
        results,
    }
}

/// Everything the untraced measurement of one workload produced.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The grid's cell labels, in run order.
    pub labels: Vec<String>,
    /// One entry per pass.
    pub passes: Vec<Pass>,
    /// `VmHWM` of this process when the last pass ended, MiB.
    pub peak_rss_mib: f64,
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// This process's peak resident set (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is not available.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Geometric mean over the grid's cells of each cell's mean simulated
/// latency, ms — consensus: decision − start over every correct decider
/// of every run of the cell (the paper's table metric, per cell);
/// radio: send → delivery delay over every frame heard. Cells weigh
/// equally so that Bracha's seconds do not drown Turquois's
/// milliseconds.
pub fn sim_latency_ms<'a>(
    cells: usize,
    results: impl Iterator<Item = (usize, &'a JobResult)>,
) -> f64 {
    let mut sum_ms = vec![0.0f64; cells];
    let mut count = vec![0u64; cells];
    for (cell, r) in results {
        sum_ms[cell] += r.latencies_ms.iter().sum::<f64>() + r.radio.delay_ns as f64 / 1e6;
        count[cell] += r.latencies_ms.len() as u64 + r.radio.heard;
    }
    let mut log_sum = 0.0;
    let mut measured = 0usize;
    for (s, c) in sum_ms.iter().zip(&count) {
        if *c > 0 {
            log_sum += (s / *c as f64).ln();
            measured += 1;
        }
    }
    if measured == 0 {
        0.0
    } else {
        (log_sum / measured as f64).exp()
    }
}

impl Measurement {
    /// Runs `workload` for `seconds` worth of passes.
    pub fn take(workload: Workload, seed: u64, seconds: u64, smoke: bool) -> Measurement {
        let lists = job_list(workload, seed, workload.passes(seconds), smoke);
        let mut calibrator = Calibrator::default();
        let passes = lists
            .iter()
            .map(|jobs| run_pass(jobs, &mut calibrator))
            .collect();
        Measurement {
            labels: lists[0].iter().map(Job::label).collect(),
            passes,
            peak_rss_mib: peak_rss_mib(),
        }
    }

    /// Every job result with its cell index.
    pub fn results(&self) -> impl Iterator<Item = (usize, &JobResult)> {
        self.passes
            .iter()
            .flat_map(|p| p.results.iter().enumerate())
    }

    /// Runs attempted.
    pub fn attempted(&self) -> u64 {
        self.results().count() as u64
    }

    /// Why runs failed their checks, one line per failed run.
    pub fn failures(&self) -> Vec<String> {
        self.results()
            .filter_map(|(cell, r)| {
                let reason = r.failure.as_ref()?;
                Some(format!("{}: {reason}", self.labels[cell]))
            })
            .collect()
    }

    fn median_over_passes(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    /// Calibrated host µs of wall (set-up included) per KiB of
    /// application payload sent: median over passes.
    pub fn host_us_per_kib_sent(&self) -> f64 {
        self.median_over_passes(|p| p.wall_s * p.speed * 1e6 / p.payload_kib().max(1.0))
    }

    /// The same, as the clock read it (not calibrated).
    pub fn raw_us_per_kib_sent(&self) -> f64 {
        self.median_over_passes(|p| p.wall_s * 1e6 / p.payload_kib().max(1.0))
    }

    /// Raw host seconds of one pass: median over passes. Depends on the
    /// seed through the amount of simulated work, so it is reported but
    /// not bounded.
    pub fn pass_wall_s(&self) -> f64 {
        self.median_over_passes(|p| p.wall_s)
    }

    /// Calibrated set-up seconds of one pass: median over passes.
    pub fn setup_s(&self) -> f64 {
        self.median_over_passes(|p| p.setup_s * p.speed)
    }

    /// `nominal / measured` host speed: median over passes.
    pub fn host_speed(&self) -> f64 {
        self.median_over_passes(|p| p.speed)
    }

    /// See [`sim_latency_ms`].
    pub fn sim_latency_ms(&self) -> f64 {
        sim_latency_ms(self.labels.len(), self.results())
    }

    /// Hash of every run's simulated outcome, in run order.
    pub fn digest(&self) -> u64 {
        digest_of(self.results().map(|(_, r)| r))
    }
}
