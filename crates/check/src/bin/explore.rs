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

use turquois_check::replay::parse_engine;
use turquois_check::{explore, ExploreConfig};
use turquois_harness::runner::threads_from_env;
use turquois_harness::Protocol;

/// What to sweep: the engine/size pairs, the schedule count and the
/// base seed.
#[derive(Debug, PartialEq)]
struct Args {
    engines: Vec<(Protocol, usize)>,
    schedules: usize,
    base_seed: u64,
}

/// Reads `key=value` arguments over the defaults. An argument without
/// `=` is ignored with a warning; an unknown key or a malformed value
/// is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        engines: vec![
            (Protocol::Turquois, 4),
            (Protocol::Turquois, 7),
            (Protocol::Bracha, 4),
            (Protocol::Bracha, 5),
            (Protocol::Abba, 4),
            (Protocol::Abba, 5),
        ],
        schedules: 1000,
        base_seed: 20100628, // DSN 2010 opening day.
    };
    for arg in args {
        let Some((key, value)) = arg.split_once('=') else {
            eprintln!("ignoring argument `{arg}` (expected key=value)");
            continue;
        };
        match key {
            "engine" => {
                let e = parse_engine(value).ok_or(format!("unknown engine `{value}`"))?;
                parsed.engines.retain(|(k, _)| *k == e);
            }
            "n" => {
                let n = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=64).contains(n))
                    .ok_or(format!("n must be a number in 1..=64, got `{value}`"))?;
                // An engine's sizes sit side by side, so one per engine
                // stays, in the default order.
                parsed.engines.iter_mut().for_each(|(_, size)| *size = n);
                parsed.engines.dedup();
            }
            "schedules" => {
                parsed.schedules = value
                    .parse()
                    .map_err(|_| format!("schedules must be a count, got `{value}`"))?;
            }
            "seed" => {
                parsed.base_seed = value
                    .parse()
                    .map_err(|_| format!("seed must be a number in 0..2^64, got `{value}`"))?;
            }
            other => return Err(format!("unknown key `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() {
    let Args {
        engines,
        schedules,
        base_seed,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });

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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn every_key_rejects_a_malformed_value() {
        for (arg, message) in [
            ("schedules=ten", "schedules must be a count, got `ten`"),
            ("seed=-1", "seed must be a number in 0..2^64, got `-1`"),
            ("n=0", "n must be a number in 1..=64, got `0`"),
            ("engine=paxos", "unknown engine `paxos`"),
            ("depth=3", "unknown key `depth`"),
        ] {
            assert_eq!(parse(&[arg]), Err(message.to_string()), "{arg}");
        }
    }

    #[test]
    fn keys_narrow_the_default_sweep() {
        let args = parse(&["engine=turquois", "n=5", "schedules=64", "seed=7"]).unwrap();
        assert_eq!(
            args,
            Args {
                engines: vec![(Protocol::Turquois, 5)],
                schedules: 64,
                base_seed: 7
            }
        );
        assert_eq!(parse(&[]).unwrap().engines.len(), 6);
        assert_eq!(
            parse(&["n=5"]).unwrap().engines,
            [(Protocol::Turquois, 5), (Protocol::Bracha, 5), (Protocol::Abba, 5)],
            "one sweep per engine, in the default order"
        );
    }
}
