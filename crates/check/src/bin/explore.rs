//! Command-line entry point for ad-hoc schedule sweeps.
//!
//! ```text
//! cargo run --release -p turquois-check --bin explore -- \
//!     [engine=turquois|bracha|abba] [n=N] [schedules=N] [seed=N]
//! ```
//!
//! Defaults sweep 1000 schedules per engine at the paper's smallest
//! size (n = 4), plus n = 7 for Turquois and n = 5 (even n − f) for the
//! baselines; `n` must lie in 1..=64. Thread count comes from
//! `TURQUOIS_THREADS` like every harness binary; output is
//! byte-identical at any setting.

use turquois_check::{explore, EngineKind, ExploreConfig};
use turquois_harness::runner::threads_from_env;

fn main() {
    let mut engines: Vec<(EngineKind, usize)> = vec![
        (EngineKind::Turquois, 4),
        (EngineKind::Turquois, 7),
        (EngineKind::Bracha, 4),
        (EngineKind::Bracha, 5),
        (EngineKind::Abba, 4),
        (EngineKind::Abba, 5),
    ];
    let mut schedules = 1000usize;
    let mut base_seed = 20100628u64; // DSN 2010 opening day.

    for arg in std::env::args().skip(1) {
        let Some((key, value)) = arg.split_once('=') else {
            eprintln!("ignoring argument `{arg}` (expected key=value)");
            continue;
        };
        match key {
            "engine" => match EngineKind::parse(value) {
                Some(e) => engines.retain(|(k, _)| *k == e),
                None => {
                    eprintln!("unknown engine `{value}`");
                    std::process::exit(2);
                }
            },
            "n" => {
                let Some(n) = value.parse().ok().filter(|n| (1..=64).contains(n)) else {
                    eprintln!("n must be a number in 1..=64, got `{value}`");
                    std::process::exit(2);
                };
                engines = engines
                    .iter()
                    .map(|&(e, _)| (e, n))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
            }
            "schedules" => schedules = value.parse().expect("schedules must be a number"),
            "seed" => base_seed = value.parse().expect("seed must be a number"),
            other => {
                eprintln!("unknown key `{other}`");
                std::process::exit(2);
            }
        }
    }

    let threads = threads_from_env();
    let mut failed = false;
    for (engine, n) in engines {
        let report = explore(
            ExploreConfig {
                engine,
                n,
                schedules,
                base_seed,
            },
            threads,
        );
        print!("{}", report.text);
        failed |= !report.violations.is_empty() || !report.panics.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}
