//! Typo guard for `TURQUOIS_*` environment knobs.
//!
//! Every experiment binary calls [`warn_unknown_env_vars`] at startup.
//! A misspelled knob (`TURQUOIS_REPETITIONS`, `TURQUOIS_SIZE`, …) is
//! silently ignored by `std::env::var` lookups, which turns a typo into
//! a full-length default run — expensive and confusing. The guard
//! prints one stderr warning per unrecognized `TURQUOIS_`-prefixed
//! variable instead; it never aborts, because an unknown variable may
//! belong to a newer or older build of the same binaries.

/// Every `TURQUOIS_*` variable some binary or test in this workspace
/// reads. Keep in sync when adding or retiring a knob.
pub const KNOWN_ENV_VARS: &[&str] = &[
    "TURQUOIS_BENCH_JSON",
    "TURQUOIS_CHECK_SCHEDULES",
    "TURQUOIS_FM_FORCE_STALL",
    "TURQUOIS_HOTPATH_JSON",
    "TURQUOIS_HOTPATH_STATS",
    "TURQUOIS_NO_MEMO",
    "TURQUOIS_PARTITION_JSON",
    "TURQUOIS_REPS",
    "TURQUOIS_SABOTAGE",
    "TURQUOIS_SCALAR_SHA",
    "TURQUOIS_SIZES",
    "TURQUOIS_THREADS",
    "TURQUOIS_TIME_LIMIT",
];

/// Warns on stderr about any `TURQUOIS_*` environment variable that no
/// binary in this workspace reads, and returns the offending names.
/// Call once at the top of each experiment binary's `main`.
pub fn warn_unknown_env_vars() -> Vec<String> {
    let mut unknown: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TURQUOIS_") && !KNOWN_ENV_VARS.contains(&k.as_str()))
        .collect();
    unknown.sort();
    for name in &unknown {
        eprintln!(
            "warning: unrecognized environment variable {name} is ignored \
             (known TURQUOIS_* knobs: {})",
            KNOWN_ENV_VARS.join(", ")
        );
    }
    unknown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_typos_and_accepts_known_knobs() {
        // Set-and-inspect in one test: env mutation is process-global,
        // so keep every case in a single #[test] to avoid races with
        // parallel test threads touching TURQUOIS_* variables.
        let cases = [
            ("TURQUOIS_REPETITIONS", false),
            ("TURQUOIS_SCALER_SHA", false),
            // A retired knob left over in someone's shell must warn
            // rather than silently do nothing.
            ("TURQUOIS_LEGACY_CODEC", false),
            ("TURQUOIS_REPS", true),
            ("TURQUOIS_PARTITION_JSON", true),
            ("TURQUOIS_SCALAR_SHA", true),
        ];
        for (name, _) in cases {
            std::env::set_var(name, "1");
        }
        let unknown = warn_unknown_env_vars();
        for (name, _) in cases {
            std::env::remove_var(name);
        }
        for (name, known) in cases {
            assert_eq!(!unknown.contains(&name.to_string()), known, "{name}");
        }
    }

    #[test]
    fn known_list_is_sorted_and_deduped() {
        let mut sorted = KNOWN_ENV_VARS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, KNOWN_ENV_VARS, "keep KNOWN_ENV_VARS sorted");
    }
}
