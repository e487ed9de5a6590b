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
//! Besides the map, the module holds [`isolated`], the panic guard each
//! job runs under. What a job means — a grid run and its stall retry,
//! an explored schedule — is the caller's business.

use crate::env_guard::knob;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Runs `f`, turning a panic into `Err(message)`.
///
/// The one panic guard of the workspace: the grid and the explorer wrap
/// each job in it, so a panicking job (an assertion, an overflow, a
/// protocol bug) fails that job alone and its siblings still run.
pub fn isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
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

    /// Job 17 of 32 panics: under [`isolated`] it alone comes back as
    /// its message, and every sibling keeps its result, at any thread
    /// count.
    #[test]
    fn panicking_job_does_not_kill_siblings() {
        let jobs: Vec<usize> = (0..32).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        for threads in [1, 2, 4] {
            let outcomes = run_indexed(threads, &jobs, |_, &j| {
                isolated(|| {
                    assert!(j != 17, "seeded violation in job {j}");
                    j * 2
                })
            });
            assert_eq!(outcomes.len(), 32);
            for (i, outcome) in outcomes.iter().enumerate() {
                match outcome {
                    Err(msg) if i == 17 => assert!(msg.contains("seeded violation"), "{msg}"),
                    Ok(doubled) if i != 17 => assert_eq!(*doubled, i * 2, "sibling {i} intact"),
                    other => panic!("job {i} at {threads} threads: {other:?}"),
                }
            }
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn isolated_merge_is_order_stable_across_threads() {
        let jobs: Vec<usize> = (0..41).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = |threads| {
            run_indexed(threads, &jobs, |_, &j| {
                isolated(|| match j {
                    j if j % 13 == 5 => panic!("boom {j}"),
                    j if j % 7 == 3 => std::panic::panic_any(j),
                    j => j,
                })
            })
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
        std::panic::set_hook(hook);
        assert_eq!(serial[5], Err("boom 5".to_string()));
        assert_eq!(serial[3], Err("<non-string panic payload>".to_string()));
        assert_eq!(serial[4], Ok(4));
    }

    /// Panic isolation is written once: outside test modules, no file
    /// under `crates/*/src` but this one calls `catch_unwind`.
    #[test]
    fn isolation_lives_only_here() {
        use crate::group::tests::{rust_files, shipped};
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&crates).expect("crates directory") {
            let src = entry.expect("directory entry").path().join("src");
            if src.is_dir() {
                rust_files(&src, &mut files);
            }
        }
        assert!(files.iter().any(|f| f.ends_with("explore.rs")), "scanned {files:?}");
        let guarded: Vec<_> = files
            .iter()
            .filter(|f| {
                let source = std::fs::read_to_string(f).expect("readable source");
                shipped(&source).contains("catch_unwind")
            })
            .collect();
        assert_eq!(guarded.len(), 1, "catch_unwind outside `runner::isolated`: {guarded:?}");
        assert!(guarded[0].ends_with("harness/src/runner.rs"), "{guarded:?}");
    }
}
