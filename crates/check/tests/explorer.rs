//! Integration sweeps for the schedule explorer.
//!
//! The default sweep is 300 schedules per sweep test, sized for CI;
//! set `TURQUOIS_CHECK_SCHEDULES` to run deeper local sweeps — the
//! reference is 10 000 schedules per sweep with zero violations and
//! every schedule deciding (EXPERIMENTS.md, "Schedule exploration").
//!
//! With `--features mutation-smoke` the planted quorum bug
//! (`2·count > n+f` weakened to `>=`) is live in `turquois-core`; the
//! [`mutation`] module then asserts the explorer finds and shrinks an
//! agreement violation. The bug only bites when `n+f` is even (the
//! paper's own sizes all give odd `n+f`), which is why the smoke runs
//! at `n = 5`.

use turquois_check::explore::{explore, ExploreConfig};
use turquois_check::schedule::EngineKind;
use turquois_harness::runner::threads_from_env;

fn sweep_size() -> usize {
    match std::env::var("TURQUOIS_CHECK_SCHEDULES") {
        Ok(v) => v.parse().expect("TURQUOIS_CHECK_SCHEDULES must be a count"),
        Err(_) => 300,
    }
}

fn sweep(engine: EngineKind, n: usize) -> ExploreConfig {
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

#[cfg(not(feature = "mutation-smoke"))]
mod clean {
    use super::*;

    #[test]
    fn turquois_n4_sweep_is_clean() {
        assert_clean(sweep(EngineKind::Turquois, 4));
    }

    #[test]
    fn turquois_n7_sweep_is_clean() {
        assert_clean(sweep(EngineKind::Turquois, 7));
    }

    /// First size past the paper's exploration shapes, exercising the
    /// compact per-sender stores with `f = 2` and a 9-wide sender
    /// bitmask (`n+f = 11` is odd, so the true quorum has slack and the
    /// sweep must stay clean).
    #[test]
    fn turquois_n9_sweep_is_clean() {
        assert_clean(sweep(EngineKind::Turquois, 9));
    }

    #[test]
    fn bracha_n4_sweep_is_clean() {
        assert_clean(sweep(EngineKind::Bracha, 4));
    }

    #[test]
    fn abba_n4_sweep_is_clean() {
        assert_clean(sweep(EngineKind::Abba, 4));
    }

    /// Even `n − f` (5 − 1 = 4): the class of the Bracha step-1 tie
    /// deadlock, here with the reliable transport underneath.
    #[test]
    fn bracha_n5_sweep_is_clean() {
        assert_clean(sweep(EngineKind::Bracha, 5));
    }

    #[test]
    fn abba_n5_sweep_is_clean() {
        assert_clean(sweep(EngineKind::Abba, 5));
    }

    /// The partition schedules that break the mutated quorum (see the
    /// `mutation` module) must be survivable by the real protocol:
    /// in-window both partition sides stall below the true quorum, and
    /// the recovery tail reconciles them to one decision.
    #[test]
    fn turquois_n5_partition_schedules_are_survived() {
        assert_clean(sweep(EngineKind::Turquois, 5));
    }
}

/// Report text must be byte-identical at any worker count — exploration
/// rides the same `run_indexed` fan-out as the experiment binaries.
#[test]
fn report_is_byte_identical_at_1_and_8_threads() {
    for (engine, n) in [
        (EngineKind::Turquois, 4),
        (EngineKind::Bracha, 4),
        (EngineKind::Abba, 4),
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

#[cfg(feature = "mutation-smoke")]
mod mutation {
    use super::*;
    use turquois_check::ViolationKind;

    /// The planted `>=` quorum bug lets two disjoint-but-for-the-
    /// equivocator 3-subsets of `n+f = 6` both clear the weakened
    /// threshold, so a split-brain Byzantine plus a partition drives the
    /// two sides to different decisions. The explorer must find that
    /// agreement violation within 10 000 schedules and shrink it to a
    /// minimal counterexample that still fails.
    #[test]
    fn planted_quorum_bug_is_found_and_shrunk() {
        const BUDGET: usize = 10_000;
        // The partition variant fires every 4th schedule; 64 is plenty
        // while keeping the smoke fast. BUDGET is the acceptance bound.
        let cfg = ExploreConfig {
            engine: EngineKind::Turquois,
            n: 5,
            schedules: 64,
            base_seed: 20100628,
        };
        let report = explore(cfg, threads_from_env());
        let first = report
            .violations
            .first()
            .expect("mutation smoke found no violation — quorum bug not detected");
        assert!(first.index < BUDGET, "first violation past the smoke budget");
        assert_eq!(first.violation.kind(), ViolationKind::Agreement);
        assert_eq!(first.shrunk_violation.kind(), ViolationKind::Agreement);
        // Shrinking must actually bite: the generated partition schedule
        // carries dozens of faults and a 12-round window.
        assert!(
            first.shrunk.faults.len() < 30,
            "shrunk schedule still has {} faults",
            first.shrunk.faults.len()
        );
        assert!(first.shrunk.window <= 6, "window not tightened: {}", first.shrunk.window);
        assert_eq!(first.shrunk.byz.len(), 1, "the single split-brain byz is load-bearing");
        assert!(
            first.fixture.contains("expect agreement-violation"),
            "fixture must record the violated property:\n{}",
            first.fixture
        );
    }

    /// Scale-shaped repeat of the smoke: `n = 8` gives `f = 2` and
    /// `n+f = 10` (even), so each partition side sees 3 correct + 2
    /// equivocating Byzantine = 5 distinct senders — exactly the
    /// weakened `2·5 ≥ 10` threshold, one short of the true quorum 6.
    /// This proves the compact per-sender stores (bitmask tallies, two
    /// Byzantine bits set in one mask word) still feed the quorum
    /// comparison exactly; a tally bug that over-counts would mask the
    /// planted off-by-one and this test would stop finding it.
    #[test]
    fn planted_quorum_bug_is_found_at_scale_shape() {
        let cfg = ExploreConfig {
            engine: EngineKind::Turquois,
            n: 8,
            schedules: 64,
            base_seed: 20100628,
        };
        let report = explore(cfg, threads_from_env());
        let first = report
            .violations
            .first()
            .expect("scale-shaped mutation smoke found no violation");
        assert_eq!(first.violation.kind(), ViolationKind::Agreement);
        assert_eq!(first.shrunk_violation.kind(), ViolationKind::Agreement);
    }
}
