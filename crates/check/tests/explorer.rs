//! Integration sweeps for the schedule explorer.
//!
//! The default sweep is 300 schedules per sweep test, a quick local
//! run; set `TURQUOIS_CHECK_SCHEDULES` for deeper sweeps — CI runs
//! 1000 under the test profile's debug assertions, and the reference
//! is 10 000 schedules per sweep with zero violations and every
//! schedule deciding (EXPERIMENTS.md, "Schedule exploration").
//!
//! The planted quorum bug these sweeps must survive, and which the
//! explorer must find, is the `quorum-plant-n5` / `quorum-plant-n8`
//! entries of `mutants/catalogue.txt`.

use turquois_check::explore::{explore, ExploreConfig};
use turquois_harness::runner::threads_from_env;
use turquois_harness::Protocol;

fn sweep_size() -> usize {
    match std::env::var("TURQUOIS_CHECK_SCHEDULES") {
        Ok(v) => v.parse().expect("TURQUOIS_CHECK_SCHEDULES must be a count"),
        Err(_) => 300,
    }
}

fn sweep(engine: Protocol, n: usize) -> ExploreConfig {
    ExploreConfig {
        engine,
        n,
        schedules: sweep_size(),
        base_seed: 20100628,
    }
}

/// Asserts a sweep is violation-free and that adversarial schedules
/// still let every correct process decide (the generator caps delays
/// and the driver runs a recovery tail past the window, so decision is
/// expected even beyond the σ budget).
#[track_caller]
fn assert_clean(cfg: ExploreConfig) {
    let report = explore(cfg, threads_from_env());
    assert_eq!(report.explored, cfg.schedules);
    assert!(
        report.violations.is_empty(),
        "{} n={} found violations:\n{}",
        cfg.engine.name(),
        cfg.n,
        report.text
    );
    assert_eq!(
        report.decided, report.explored,
        "{} n={}: undecided schedules without a reported violation",
        cfg.engine.name(),
        cfg.n
    );
    assert!(report.eligible > 0, "sweep generated no ≤ σ schedules");
}

#[test]
fn turquois_n4_sweep_is_clean() {
    assert_clean(sweep(Protocol::Turquois, 4));
}

#[test]
fn turquois_n7_sweep_is_clean() {
    assert_clean(sweep(Protocol::Turquois, 7));
}

/// First size past the paper's exploration shapes, exercising the
/// compact per-sender stores with `f = 2` and a 9-wide sender
/// bitmask (`n+f = 11` is odd, so the true quorum has slack and the
/// sweep must stay clean).
#[test]
fn turquois_n9_sweep_is_clean() {
    assert_clean(sweep(Protocol::Turquois, 9));
}

#[test]
fn bracha_n4_sweep_is_clean() {
    assert_clean(sweep(Protocol::Bracha, 4));
}

#[test]
fn abba_n4_sweep_is_clean() {
    assert_clean(sweep(Protocol::Abba, 4));
}

/// Even `n − f` (5 − 1 = 4): the class of the Bracha step-1 tie
/// deadlock, here with the reliable transport underneath.
#[test]
fn bracha_n5_sweep_is_clean() {
    assert_clean(sweep(Protocol::Bracha, 5));
}

#[test]
fn abba_n5_sweep_is_clean() {
    assert_clean(sweep(Protocol::Abba, 5));
}

/// The partition schedules that break the planted quorum bug must be
/// survivable by the real protocol: in-window both partition sides
/// stall below the true quorum, and the recovery tail reconciles them
/// to one decision.
#[test]
fn turquois_n5_partition_schedules_are_survived() {
    assert_clean(sweep(Protocol::Turquois, 5));
}

/// Report text must be byte-identical at any worker count — exploration
/// rides the same `run_indexed` fan-out as the experiment binaries.
#[test]
fn report_is_byte_identical_at_1_and_8_threads() {
    for (engine, n) in [
        (Protocol::Turquois, 4),
        (Protocol::Bracha, 4),
        (Protocol::Abba, 4),
    ] {
        let cfg = ExploreConfig {
            engine,
            n,
            schedules: 48,
            base_seed: 20100628,
        };
        let serial = explore(cfg, 1);
        let parallel = explore(cfg, 8);
        assert_eq!(serial.text, parallel.text, "{} n={n}", engine.name());
    }
}
