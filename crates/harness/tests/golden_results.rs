//! The checked-in `results/*.txt` are the repository's behavioural
//! oracle: every experiment binary, run at the repetition count its
//! file was generated with, must reproduce that file byte for byte.
//! Simulated time, decisions, and every counter the tables print are a
//! pure function of the seeds, so any diff here is a behaviour change —
//! either a bug, or a deliberate change that must regenerate the file
//! in the same commit.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One `results/<bin>.txt`: the binary's path (Cargo builds the
/// package's binaries before its integration tests), the repetition
/// count the file was generated with, and the file name.
macro_rules! golden {
    ($bin:ident, $reps:expr) => {
        (
            env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
            $reps,
            concat!(stringify!($bin), ".txt"),
        )
    };
}

/// How each `results/<file>` was made: `(binary, reps, file)`. The rep
/// count is passed as the binary's first argument; everything else is
/// the binary's default grid. This table is the single record of those
/// counts — six of them are not the binary's default.
const GOLDEN: &[(&str, usize, &str)] = &[
    golden!(table1, 20),
    golden!(table2, 20),
    golden!(table3, 20),
    golden!(phases, 30),
    golden!(sigma_sweep, 20),
    golden!(loss_sweep, 10),
    golden!(msgcount, 5),
    golden!(cost_ablation, 15),
    golden!(tick_ablation, 15),
    golden!(fault_matrix, 20),
    golden!(partition_matrix, 10),
    golden!(table_scale, 3),
];

/// Regenerated in release builds only: its n = 256 cells take 140 s
/// under the test profile (2 threads, byte-identical), 42 s in release.
const RELEASE_ONLY: &str = "table_scale.txt";

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `exe reps`, with every `TURQUOIS_*` knob of this process removed
/// from the child's environment.
fn knobless(exe: &str, reps: usize) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg(reps.to_string());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TURQUOIS_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Runs `bin reps` with no `TURQUOIS_*` knob set, from the test's temp
/// dir (a binary that wrote a file unasked would dirty that, not
/// `results/`).
fn regenerate(exe: &str, reps: usize) -> String {
    let out = knobless(exe, reps)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap_or_else(|e| panic!("{exe} did not start: {e}"));
    assert!(
        out.status.success(),
        "{exe} {reps} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("experiment output is UTF-8")
}

/// The first row and column at which `got` departs from `want`, as a
/// three-line unified excerpt, or `None` when they are equal.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (mut w, mut g) = (want.lines(), got.lines());
    let mut row = 0;
    loop {
        row += 1;
        let (wl, gl) = (w.next(), g.next());
        if wl == gl && wl.is_some() {
            continue;
        }
        let (wl, gl) = (wl.unwrap_or("<end of file>"), gl.unwrap_or("<end of file>"));
        let col = wl
            .chars()
            .zip(gl.chars())
            .take_while(|(a, b)| a == b)
            .count();
        return Some(format!(
            "row {row}, column {}:\n-{wl}\n+{gl}\n {}^",
            col + 1,
            " ".repeat(col)
        ));
    }
}

#[test]
fn every_checked_in_result_regenerates_byte_identical() {
    let mut failures = Vec::new();
    for &(exe, reps, file) in GOLDEN {
        if cfg!(debug_assertions) && file == RELEASE_ONLY {
            continue;
        }
        let want = std::fs::read_to_string(results_dir().join(file))
            .unwrap_or_else(|e| panic!("results/{file}: {e}"));
        if let Some(diff) = first_difference(&want, &regenerate(exe, reps)) {
            failures.push(format!("`{exe} {reps}` != results/{file} at {diff}"));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

/// A binary's JSON report goes where `TURQUOIS_BENCH_JSON` says and
/// nowhere otherwise: a default path holds whichever binary ran last,
/// and under `results/` it overwrote a checked-in file on any shrunken
/// run. Checked on the smallest grid of a paper table and of the two
/// binaries that used to have such a default.
#[test]
fn runner_json_is_written_only_on_request() {
    let cases = [
        (env!("CARGO_BIN_EXE_table1"), "table1", "4"),
        (env!("CARGO_BIN_EXE_partition_matrix"), "partition_matrix", "4"),
        (env!("CARGO_BIN_EXE_table_scale"), "table_scale", "16"),
    ];
    for (exe, bin, sizes) in cases {
        let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{bin}_json_cwd"));
        let _ = std::fs::remove_dir_all(&cwd);
        std::fs::create_dir_all(&cwd).expect("temp cwd");
        let run = |json: Option<&Path>| {
            let mut cmd = knobless(exe, 1);
            cmd.current_dir(&cwd).env("TURQUOIS_SIZES", sizes);
            if let Some(path) = json {
                cmd.env("TURQUOIS_BENCH_JSON", path);
            }
            let out = cmd.output().unwrap_or_else(|e| panic!("{bin} did not start: {e}"));
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(stderr.contains(&format!("[runner] {bin}:")), "stderr report stays: {stderr}");
        };
        run(None);
        let left_behind: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
        assert!(left_behind.is_empty(), "an unasked {bin} run wrote {left_behind:?}");
        let json = cwd.join("asked.json");
        run(Some(&json));
        let report = std::fs::read_to_string(&json).expect("requested report written");
        assert!(report.contains(&format!("\"bin\": \"{bin}\"")), "{report}");
        assert!(report.contains("\"runner\": {") && report.contains("\"cells\": ["), "{report}");
    }
}

/// A binary whose runs all stall fails loudly: with a 2 ms budget
/// (retried once at 4×) every `fault_matrix` cell prints
/// `FAILED(stalled)`, the `[supervisor]` detail on stderr shows the
/// escalated retry's `budget 0.008000s`, and the exit status is not 0.
#[test]
fn a_stalled_grid_exits_nonzero_with_its_stall_reports() {
    let out = knobless(env!("CARGO_BIN_EXE_fault_matrix"), 1)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env("TURQUOIS_TIME_LIMIT", "0.002")
        .env("TURQUOIS_SIZES", "4")
        .output()
        .expect("fault_matrix starts");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        !out.status.success(),
        "a 2 ms budget exited 0:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("FAILED(stalled)"), "{stdout}");
    assert!(stderr.contains("budget 0.008000s"), "{stderr}");
}

#[test]
fn golden_table_covers_every_results_txt() {
    let mut listed: Vec<&str> = GOLDEN
        .iter()
        .map(|&(_, _, file)| file)
        .collect();
    listed.sort_unstable();
    let mut on_disk: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("readable entry").file_name().into_string().expect("UTF-8 name"))
        .filter(|name| name.ends_with(".txt"))
        .collect();
    on_disk.sort_unstable();
    assert_eq!(listed, on_disk, "GOLDEN must list every results/*.txt exactly once");
}

#[test]
fn first_difference_points_at_row_and_column() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
    let diff = first_difference("h\n S4 7 | 387.7\n", "h\n S4 7 | 387.8\n").expect("differs");
    assert!(diff.starts_with("row 2, column 13:"), "{diff}");
    let short = first_difference("a\nb\n", "a\n").expect("differs");
    assert!(short.contains("-b") && short.contains("+<end of file>"), "{short}");
}
