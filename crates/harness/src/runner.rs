//! Deterministic parallel job runner for the experiment harness.
//!
//! Every experiment in this crate decomposes into independent
//! `(cell, repetition)` jobs: each job seeds its own scenario, builds
//! its own single-threaded simulator, and returns plain data. This
//! module fans those jobs across a `std::thread::scope` worker pool and
//! merges the results **by job index**, so aggregation sees exactly the
//! sequence the legacy serial loop produced — rendered tables, stats,
//! and error reporting are byte-identical at any thread count.
//!
//! Thread-safety contract: only job *descriptions* (plain config data)
//! and job *results* (plain outcome data) cross threads. The simulator
//! itself (`wireless-net::sim`) stays single-threaded and `!Send`; each
//! worker constructs and drops its own instance inside the job closure.
//! Nothing here touches the protocol engines, which remain sans-io.
//!
//! Wall-clock timing lives here — in the driver — and only here; the
//! engines and the simulator never see a host clock.

use crate::env_guard::knob;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use wireless_net::StallReport;

/// Reads the worker-pool size from `TURQUOIS_THREADS`.
///
/// Unset ⇒ the host's available parallelism; `1` ⇒ the serial path (no
/// worker threads are spawned at all). Malformed values warn on stderr
/// and fall back to the default rather than failing silently.
pub fn threads_from_env() -> usize {
    knob("TURQUOIS_THREADS", "a positive integer", |raw| {
        raw.trim().parse().ok().filter(|&t| t >= 1)
    })
    .unwrap_or_else(default_threads)
}

pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Runs `f` over every job and returns the results **in job order**.
///
/// With `threads <= 1` this is a plain in-order loop (the legacy serial
/// path). Otherwise `min(threads, jobs.len())` scoped workers pull job
/// indices from a shared cursor and write results into per-index slots;
/// the merged vector is indistinguishable from the serial one.
///
/// # Panics
///
/// A panicking job (e.g. a safety assertion in an experiment binary)
/// panics the calling thread once all workers have been joined — a
/// violation on a worker is exactly as loud as on the serial path.
pub fn run_indexed<J, R, F>(threads: usize, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let workers = threads.min(jobs.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= jobs.len() {
                    break;
                }
                let result = f(idx, &jobs[idx]);
                *slots[idx].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index was claimed and completed")
        })
        .collect()
}

/// How a supervised job ended. See [`run_supervised`].
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome<R> {
    /// The job ran to completion. Its result may still carry a
    /// domain-level error (e.g. a safety violation) — completion only
    /// means the job neither stalled nor panicked.
    Ok(R),
    /// The job exhausted its simulated-time budget on the first attempt
    /// *and* on the escalated retry; the report is from the retry (the
    /// one with the larger budget).
    Stalled(StallReport),
    /// The job panicked; the payload is the panic message. Panics are
    /// never retried — a panicking job (assertion failure, overflow,
    /// protocol bug) is evidence, not noise.
    Panicked(String),
}

/// Which attempt of a supervised job is running, and with what budget.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Attempt {
    /// 0 for the first attempt, 1 for the escalated retry.
    pub index: usize,
    /// Factor to scale the job's simulated-time budget by (1 on the
    /// first attempt, [`RETRY_BUDGET_SCALE`] on the retry).
    pub budget_scale: u32,
}

/// Budget multiplier for the single stall retry: generous enough that a
/// merely *slow* run (an unlucky divergent tail) completes, small enough
/// that a genuinely *stuck* run fails the whole sweep promptly.
pub const RETRY_BUDGET_SCALE: u32 = 4;

/// Runs `f` over every job with panic isolation and stall supervision,
/// returning per-job [`JobOutcome`]s **in job order** (byte-identical
/// merge at any thread count, like [`run_indexed`]).
///
/// `f` returns `Ok(result)` on completion or `Err(report)` (boxed: the
/// report is ~10× the size of the happy path) when the run exhausted
/// its simulated-time budget. A stalled job is deterministically
/// retried exactly once on the same worker with
/// [`Attempt::budget_scale`] = [`RETRY_BUDGET_SCALE`] — distinguishing
/// slow from stuck — and reported [`JobOutcome::Stalled`] only if the
/// retry stalls too. A panic in `f` is caught, does **not** abort the
/// sweep's siblings, and surfaces as [`JobOutcome::Panicked`]; the caller
/// decides how loudly to fail. Safety violations must *not* be mapped to
/// `Err` — return them inside `R` (or panic) so they are never retried
/// or downgraded.
pub fn run_supervised<J, R, F>(threads: usize, jobs: &[J], f: F) -> Vec<JobOutcome<R>>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J, Attempt) -> Result<R, Box<StallReport>> + Sync,
{
    run_indexed(threads, jobs, |idx, job| supervise_one(idx, job, &f))
}

/// [`run_supervised`] plus wall-clock instrumentation: each outcome
/// comes back with the host time its job took (retry included), and the
/// [`RunnerReport`] accounts for the fan-out as a whole. The grid driver
/// ([`crate::grid`]) is the one caller.
pub fn run_supervised_timed<J, R, F>(
    threads: usize,
    jobs: &[J],
    f: F,
) -> (Vec<(JobOutcome<R>, Duration)>, RunnerReport)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J, Attempt) -> Result<R, Box<StallReport>> + Sync,
{
    let cpu_before = process_cpu_time();
    let started = Instant::now();
    let results = run_indexed(threads, jobs, |idx, job| {
        let t0 = Instant::now();
        let outcome = supervise_one(idx, job, &f);
        (outcome, t0.elapsed())
    });
    let elapsed = started.elapsed();
    let job_wall: Duration = results.iter().map(|(_, wall)| *wall).sum();
    // Prefer CPU time: per-job wall time over-counts whenever a worker
    // sits descheduled (more workers than cores), which would report a
    // phantom speedup. Capping by the job-wall sum keeps unrelated
    // threads of the process from inflating the estimate the other way.
    let busy = match (cpu_before, process_cpu_time()) {
        (Some(before), Some(after)) => after.saturating_sub(before).min(job_wall),
        _ => job_wall,
    };
    let report = RunnerReport {
        threads: threads.clamp(1, jobs.len().max(1)),
        jobs: jobs.len(),
        elapsed,
        busy,
    };
    (results, report)
}

fn supervise_one<J, R, F>(idx: usize, job: &J, f: &F) -> JobOutcome<R>
where
    F: Fn(usize, &J, Attempt) -> Result<R, Box<StallReport>>,
{
    let mut stall = None;
    for (index, budget_scale) in [(0, 1), (1, RETRY_BUDGET_SCALE)] {
        let attempt = Attempt {
            index,
            budget_scale,
        };
        match catch_unwind(AssertUnwindSafe(|| f(idx, job, attempt))) {
            Ok(Ok(result)) => return JobOutcome::Ok(result),
            Ok(Err(report)) => stall = Some(report),
            Err(payload) => return JobOutcome::Panicked(panic_message(payload)),
        }
    }
    JobOutcome::Stalled(*stall.expect("loop ran at least once"))
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Wall-clock accounting for one [`run_supervised_timed`] fan-out.
///
/// `busy` estimates the serial-equivalent cost of the jobs: process CPU
/// time consumed during the fan-out where the platform exposes it
/// (`/proc/self/stat`), capped by the summed per-job wall times — the
/// cap matters on an oversubscribed host, where a descheduled worker's
/// wait would otherwise count as work. `elapsed` is the wall time of
/// the whole fan-out; `busy / elapsed` is the achieved speedup
/// (≈ 1.0 on the serial path or a single-core host).
#[derive(Clone, Copy, Debug)]
pub struct RunnerReport {
    /// Worker threads actually used (`min(threads, jobs)`, at least 1).
    pub threads: usize,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Wall-clock time of the whole fan-out.
    pub elapsed: Duration,
    /// Summed wall-clock time spent inside jobs (serial-equivalent).
    pub busy: Duration,
}

impl RunnerReport {
    /// Achieved speedup: serial-equivalent time over elapsed time.
    pub fn speedup(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / elapsed
        }
    }

    /// One human-readable stderr line (never stdout — experiment stdout
    /// must stay byte-identical across thread counts).
    pub fn log(&self, label: &str) {
        eprintln!(
            "[runner] {label}: {} jobs on {} thread{} in {:.2}s \
             (serial-equivalent {:.2}s, speedup {:.2}x)",
            self.jobs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.elapsed.as_secs_f64(),
            self.busy.as_secs_f64(),
            self.speedup()
        );
    }
}

/// Process CPU time (user + system) from `/proc/self/stat`; `None` on
/// platforms without procfs. Used only for the telemetry report — the
/// simulated clocks never see host time.
fn process_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces; real fields start after ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / clk_tck() as f64))
}

/// Kernel tick rate (`USER_HZ`) that scales `/proc/self/stat` CPU
/// times, read from the ELF auxiliary vector (`AT_CLKTCK`). 100 is the
/// usual value but a configuration, not a constant; if the auxv is
/// unreadable we fall back to it — any residual error only skews the
/// telemetry estimate, which the caller caps by summed job wall time.
fn clk_tck() -> u64 {
    use std::sync::OnceLock;
    static TCK: OnceLock<u64> = OnceLock::new();
    const AT_CLKTCK: u64 = 17;
    *TCK.get_or_init(|| {
        std::fs::read("/proc/self/auxv")
            .ok()
            .and_then(|raw| {
                raw.chunks_exact(16).find_map(|pair| {
                    let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
                    let val = u64::from_ne_bytes(pair[8..].try_into().ok()?);
                    (key == AT_CLKTCK && val > 0).then_some(val)
                })
            })
            .unwrap_or(100)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_merge_in_job_order() {
        let jobs: Vec<usize> = (0..97).collect();
        let serial = run_indexed(1, &jobs, |i, &j| (i, j * 3));
        for threads in [2, 4, 9] {
            let parallel = run_indexed(threads, &jobs, |i, &j| (i, j * 3));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let jobs: Vec<usize> = (0..64).collect();
        run_indexed(8, &jobs, |_, &j| hits[j].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        let none: Vec<u8> = Vec::new();
        assert!(run_indexed(4, &none, |_, &j| j).is_empty());
        assert_eq!(run_indexed(4, &[41u8], |_, &j| j + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let jobs: Vec<usize> = (0..32).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(4, &jobs, |_, &j| {
                assert!(j != 17, "seeded safety violation in job {j}");
                j
            })
        }));
        assert!(outcome.is_err(), "a panicking worker must panic the caller");
    }

    fn dummy_stall(decided: usize) -> StallReport {
        use wireless_net::{sim::RunStatus, SimTime};
        StallReport {
            status: RunStatus::TimeLimit,
            now: SimTime::from_millis(100),
            limit: SimTime::from_millis(100),
            decided,
            target: Some(4),
            last_progress: SimTime::ZERO,
            fault: "test".into(),
            crashes: "no crashes".into(),
            topology: "single broadcast domain".into(),
            queue_drops: 0,
            nodes: Vec::new(),
        }
    }

    #[test]
    fn panicking_job_does_not_kill_siblings() {
        let jobs: Vec<usize> = (0..32).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let outcomes = run_supervised(4, &jobs, |_, &j, _| {
            if j == 17 {
                panic!("seeded violation in job {j}");
            }
            Ok::<usize, Box<StallReport>>(j * 2)
        });
        std::panic::set_hook(hook);
        assert_eq!(outcomes.len(), 32);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 17 {
                match outcome {
                    JobOutcome::Panicked(msg) => {
                        assert!(msg.contains("seeded violation"), "{msg}")
                    }
                    other => panic!("job 17 should have panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*outcome, JobOutcome::Ok(i * 2), "sibling {i} intact");
            }
        }
    }

    #[test]
    fn stalled_job_retries_once_with_escalated_budget() {
        let jobs = [(); 3];
        let attempts: Vec<Mutex<Vec<Attempt>>> =
            jobs.iter().map(|_| Mutex::new(Vec::new())).collect();
        let outcomes = run_supervised(1, &jobs, |idx, _, attempt| {
            attempts[idx].lock().unwrap().push(attempt);
            match idx {
                0 => Ok(0u32),                       // clean first try
                1 if attempt.index == 0 => Err(Box::new(dummy_stall(1))), // slow
                1 => Ok(1),
                _ => Err(Box::new(dummy_stall(idx))), // genuinely stuck
            }
        });
        assert_eq!(outcomes[0], JobOutcome::Ok(0));
        assert_eq!(outcomes[1], JobOutcome::Ok(1), "retry rescued the slow job");
        assert!(
            matches!(&outcomes[2], JobOutcome::Stalled(r) if r.decided == 2),
            "report comes from the escalated retry"
        );
        let seen: Vec<Vec<Attempt>> =
            attempts.iter().map(|a| a.lock().unwrap().clone()).collect();
        assert_eq!(seen[0].len(), 1, "clean job runs once");
        assert_eq!(seen[1].len(), 2, "stalled job retried exactly once");
        assert_eq!(seen[2].len(), 2, "no second retry for a stuck job");
        assert_eq!(seen[1][0], Attempt { index: 0, budget_scale: 1 });
        assert_eq!(
            seen[1][1],
            Attempt {
                index: 1,
                budget_scale: RETRY_BUDGET_SCALE
            }
        );
    }

    #[test]
    fn supervised_merge_is_order_stable_across_threads() {
        let jobs: Vec<usize> = (0..41).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = |threads| {
            run_supervised(threads, &jobs, |_, &j, _| {
                if j % 13 == 5 {
                    panic!("boom {j}");
                }
                if j % 7 == 3 {
                    return Err(Box::new(dummy_stall(j)));
                }
                Ok(j)
            })
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn timed_report_is_sane() {
        let jobs: Vec<u64> = (0..10).collect();
        let (results, report) = run_supervised_timed(3, &jobs, |_, &j, _| Ok(j * j));
        let squares: Vec<_> = results.iter().map(|(outcome, _)| outcome.clone()).collect();
        assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49, 64, 81].map(JobOutcome::Ok));
        let job_wall: Duration = results.iter().map(|(_, wall)| *wall).sum();
        assert!(report.busy <= job_wall, "busy is capped by the summed job walls");
        assert_eq!(report.jobs, 10);
        assert_eq!(report.threads, 3);
        assert!(report.speedup().is_finite() && report.speedup() >= 0.0);
        assert!(report.busy <= report.elapsed.max(Duration::from_secs(1)) * 3);
    }

    #[test]
    fn clk_tck_is_sane() {
        let hz = clk_tck();
        assert!((1..=100_000).contains(&hz), "USER_HZ={hz}");
    }
}
