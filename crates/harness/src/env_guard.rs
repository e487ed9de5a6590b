//! Typo guard for `TURQUOIS_*` environment knobs.
//!
//! Every experiment binary calls `warn_unknown_env_vars` at startup
//! (through `grid::Plan::from_env`) and reads each knob through
//! `knob`, so a bad *name* and a bad *value* both warn on stderr.
//! A misspelled knob (`TURQUOIS_REPETITIONS`, `TURQUOIS_SIZE`, …) is
//! silently ignored by `std::env::var` lookups, which turns a typo into
//! a full-length default run — expensive and confusing. The guard
//! prints one stderr warning per unrecognized `TURQUOIS_`-prefixed
//! variable instead; it never aborts, because an unknown variable may
//! belong to a newer or older build of the same binaries.

/// The prefix that makes an environment variable one of this
/// workspace's knobs.
pub const KNOB_PREFIX: &str = "TURQUOIS_";

/// Every `TURQUOIS_*` variable some binary or test in this workspace
/// reads; `known_list_is_exactly_what_the_source_reads` holds the list
/// to the source tree.
pub(crate) const KNOWN_ENV_VARS: &[&str] = &[
    "TURQUOIS_BENCH_JSON",
    "TURQUOIS_CHECK_SCHEDULES",
    "TURQUOIS_SIZES",
    "TURQUOIS_THREADS",
    "TURQUOIS_TIME_LIMIT",
];

/// Warns on stderr about any `TURQUOIS_*` environment variable that no
/// binary in this workspace reads, and returns the offending names.
/// Call once at the top of each experiment binary's `main`.
pub(crate) fn warn_unknown_env_vars() -> Vec<String> {
    let mut unknown: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX) && !KNOWN_ENV_VARS.contains(&k.as_str()))
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

/// Reads one knob through `parse`: `None` when `name` is unset — and,
/// after a stderr warning saying what was `expected`, when its value is
/// not UTF-8 or `parse` rejects it, so the caller's default never takes
/// over silently.
pub(crate) fn knob<T>(
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    match std::env::var(name) {
        Ok(raw) => {
            let parsed = parse(&raw);
            if parsed.is_none() {
                eprintln!("warning: ignoring malformed {name}={raw:?}: expected {expected}");
            }
            parsed
        }
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!("warning: ignoring non-UTF-8 {name}: expected {expected}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn flags_typos_and_accepts_known_knobs() {
        // Set-and-inspect in one test: env mutation is process-global,
        // so keep every case in a single #[test] to avoid races with
        // parallel test threads touching TURQUOIS_* variables.
        // Typos, and retired knobs left over in someone's shell (the
        // repetition count is now the binaries' first argument), must
        // warn rather than silently do nothing.
        let unknown_suffixes = [
            "REPETITIONS",
            "SIZE",
            "LEGACY_CODEC",
            "NO_MEMO",
            "SCALAR_SHA",
            "HOTPATH_STATS",
            "HOTPATH_JSON",
            "FM_FORCE_STALL",
            "PARTITION_JSON",
            "SABOTAGE",
            "REPS",
        ];
        let cases: Vec<(String, bool)> = unknown_suffixes
            .iter()
            .map(|suffix| (format!("{KNOB_PREFIX}{suffix}"), false))
            .chain(["TURQUOIS_SIZES", "TURQUOIS_BENCH_JSON"].map(|k| (k.to_string(), true)))
            .collect();
        for (name, _) in &cases {
            std::env::set_var(name, "1");
        }
        let unknown = warn_unknown_env_vars();
        let sizes = knob("TURQUOIS_SIZES", "a count", |raw| raw.parse::<usize>().ok());
        let rejected = knob("TURQUOIS_SIZES", "a bool", |raw| raw.parse::<bool>().ok());
        for (name, _) in &cases {
            std::env::remove_var(name);
        }
        for (name, known) in &cases {
            assert_eq!(!unknown.contains(name), *known, "{name}");
        }
        assert_eq!(sizes, Some(1), "a well-formed value parses");
        assert_eq!(rejected, None, "a malformed value falls back to the caller's default");
        assert_eq!(knob("TURQUOIS_SIZES", "a count", |_| Some(0)), None, "unset reads as None");
    }

    /// Every `"TURQUOIS_…"` string literal in `text`, each with the
    /// text that precedes it.
    fn knob_literals(text: &str) -> Vec<(&str, &str)> {
        let mut found = Vec::new();
        let mut at = 0;
        while let Some(hit) = text[at..].find("\"TURQUOIS_") {
            let start = at + hit + 1;
            let len = text[start..]
                .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                .unwrap_or(text.len() - start);
            at = start + len;
            if text[at..].starts_with('"') {
                found.push((&text[start..at], &text[..start - 1]));
            }
        }
        found
    }

    /// Adds to `read` the knobs the `.rs` files under `dir` read. In
    /// shipped code (a `src/` file up to its first `#[cfg(test)]`) any
    /// literal counts — a knob's name may sit in a const; in test code
    /// only a literal handed straight to `env::var`/`var_os` does, since
    /// tests also set knobs for child processes and spell typos on
    /// purpose.
    fn collect_knobs_read(dir: &Path, in_tests: bool, read: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if path.is_dir() {
                if name != "target" {
                    collect_knobs_read(&path, in_tests || name == "tests", read);
                }
            } else if name.ends_with(".rs") && !path.ends_with("harness/src/env_guard.rs") {
                let text = std::fs::read_to_string(&path).expect("UTF-8 source");
                let (shipped, tests) = match (in_tests, text.find("#[cfg(test)]")) {
                    (true, _) => ("", &text[..]),
                    (false, Some(cut)) => text.split_at(cut),
                    (false, None) => (&text[..], ""),
                };
                read.extend(knob_literals(shipped).iter().map(|(knob, _)| knob.to_string()));
                read.extend(
                    knob_literals(tests)
                        .iter()
                        .filter(|(_, before)| before.ends_with("var(") || before.ends_with("var_os("))
                        .map(|(knob, _)| knob.to_string()),
                );
            }
        }
    }

    #[test]
    fn known_list_is_exactly_what_the_source_reads() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut read = BTreeSet::new();
        for dir in ["crates", "src", "tests"] {
            collect_knobs_read(&root.join(dir), dir == "tests", &mut read);
        }
        let known: BTreeSet<String> = KNOWN_ENV_VARS.iter().map(|k| k.to_string()).collect();
        assert_eq!(read, known, "KNOWN_ENV_VARS must list exactly the knobs the code reads");
    }

    #[test]
    fn knob_literals_finds_whole_literals_only() {
        let text = r#"var("TURQUOIS_SIZES"); "TURQUOIS_lower" "TURQUOIS_* knobs" x("TURQUOIS_A_B")"#;
        let found: Vec<&str> = knob_literals(text).iter().map(|(knob, _)| *knob).collect();
        assert_eq!(found, ["TURQUOIS_SIZES", "TURQUOIS_A_B"]);
        assert!(knob_literals(text)[0].1.ends_with("var("));
    }

    #[test]
    fn known_list_is_sorted_and_deduped() {
        let mut sorted = KNOWN_ENV_VARS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, KNOWN_ENV_VARS, "keep KNOWN_ENV_VARS sorted");
    }
}
