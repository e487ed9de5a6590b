//! Replays every checked-in schedule fixture (`tests/fixtures/*.schedule`)
//! and asserts the outcome recorded on its `expect` line.
//!
//! Fixtures come from two sources: shrunk counterexamples produced by
//! the `turquois-check` explorer (minimal schedules that once violated
//! a property — with their planted bug, `quorum-plant-n5` or
//! `rto-expires-without-retransmit` of `mutants/catalogue.txt`, they
//! still do), and hand-written "interesting" schedules documenting the
//! replay format. The counterexample fixtures must replay clean: the
//! real protocol survives the exact schedule that breaks the planted
//! bug.

use std::path::PathBuf;
use turquois_check::drive::run_schedule;
use turquois_check::replay::{parse, to_text, Expectation};

fn fixture_paths() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/fixtures exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .schedule fixtures in {}", dir.display());
    paths
}

#[test]
fn fixtures_replay_to_their_recorded_expectation() {
    for path in fixture_paths() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable fixture");
        let (schedule, expect) = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = run_schedule(&schedule);
        match expect {
            Expectation::Clean => {
                assert!(
                    report.violation.is_none(),
                    "{name}: expected clean, got {}",
                    report.violation.unwrap()
                );
                // Clean fixtures additionally pin decision coverage:
                // every correct process decided within max_rounds.
                for id in (0..schedule.n).filter(|&id| !schedule.is_byz(id)) {
                    assert!(
                        report.decisions[id].is_some(),
                        "{name}: p{id} undecided after {} rounds",
                        report.rounds_used
                    );
                }
            }
            Expectation::Violation(kind) => {
                let v = report
                    .violation
                    .unwrap_or_else(|| panic!("{name}: expected a {kind:?} violation, ran clean"));
                assert_eq!(v.kind(), kind, "{name}: wrong violation kind: {v}");
            }
        }
    }
}

/// Fixtures must stay in canonical form: stripping comments, the body
/// is exactly what `to_text` renders, so `parse ∘ to_text` is the
/// identity and diffs against regenerated fixtures are clean.
#[test]
fn fixtures_are_canonical() {
    for path in fixture_paths() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable fixture");
        let (schedule, expect) = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let canonical = to_text(&schedule, expect, &[]);
        let body: String = text
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim_end())
            .filter(|l| !l.trim().is_empty())
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(body, canonical, "{name}: fixture body is not canonical");
    }
}
