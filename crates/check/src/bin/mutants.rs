//! Runs the mutant catalogue against `HEAD`:
//!
//! ```text
//! cargo run --release -p turquois-check --bin mutants -- [id ...]
//! ```
//!
//! Unpacks `git archive HEAD` into a temporary directory once; then
//! plants each entry (those named, or all), runs its command there with
//! every `TURQUOIS_*` variable removed and one shared
//! `CARGO_TARGET_DIR`, and restores the file. Prints a kill table, and
//! exits 0 only if every entry was killed (2 on a setup error).

use std::fs::{self, File};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use turquois_check::mutants::{classify, parse, Mutant, Outcome, CATALOGUE, WALL_LIMIT};
use turquois_harness::env_guard::KNOB_PREFIX;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let dir = std::env::temp_dir().join(format!("turquois-mutants-{}", std::process::id()));
    let code = run(&ids, &dir).unwrap_or_else(|e| {
        eprintln!("mutants: {e}");
        2
    });
    let _ = fs::remove_dir_all(&dir);
    std::process::exit(code);
}

/// Runs the chosen entries: the exit code.
fn run(ids: &[String], dir: &Path) -> Result<i32, String> {
    let (tree, tar) = (dir.join("tree"), dir.join("head.tar"));
    fs::create_dir_all(&tree).map_err(|e| e.to_string())?;
    let (Some(to), Some(tar)) = (tree.to_str(), tar.to_str()) else {
        return Err("the temporary directory's path is not UTF-8".into());
    };
    let ok = |c: &mut Command| c.status().is_ok_and(|s| s.success());
    let git = ok(Command::new("git").args(["archive", "-o", tar, "HEAD"]));
    if !(git && ok(Command::new("tar").args(["-xf", tar, "-C", to]))) {
        return Err("could not unpack `git archive HEAD`".into());
    }
    let text = fs::read_to_string(tree.join(CATALOGUE)).map_err(|e| format!("{CATALOGUE}: {e}"))?;
    let catalogue = parse(&text)?;
    let chosen: Vec<&Mutant> = catalogue
        .iter()
        .filter(|m| ids.is_empty() || ids.contains(&m.id))
        .collect();
    if !ids.is_empty() && chosen.len() != ids.len() {
        return Err(format!("unknown id among {ids:?}"));
    }
    let (started, mut killed) = (Instant::now(), 0);
    println!("{:<40} {:<14} {:>7}", "mutant", "outcome", "wall s");
    for m in &chosen {
        let entry_started = Instant::now();
        let (outcome, output) = try_mutant(m, &tree, dir)?;
        let wall = entry_started.elapsed().as_secs_f64();
        println!("{:<40} {:<14} {wall:>7.1}", m.id, format!("{outcome:?}"));
        if outcome == Outcome::Killed {
            killed += 1;
            continue;
        }
        eprintln!("--- {} should fail with `{}`; output tail:", m.id, m.expect);
        let lines: Vec<&str> = output.lines().collect();
        for line in &lines[lines.len().saturating_sub(30)..] {
            eprintln!("    {line}");
        }
    }
    let total = started.elapsed().as_secs_f64();
    println!("{killed} of {} killed in {total:.0} s", chosen.len());
    Ok(if killed == chosen.len() { 0 } else { 1 })
}

/// Plants `m` in `tree`, runs its command and restores the file: the
/// outcome and the command's stdout and stderr.
fn try_mutant(m: &Mutant, tree: &Path, dir: &Path) -> Result<(Outcome, String), String> {
    let path = tree.join(&m.file);
    let original = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", m.file))?;
    let matches = original.matches(&m.find).count();
    if matches != 1 {
        let output = format!("`find` occurs {matches} times in {}", m.file);
        return Ok((classify(matches, false, "", &m.expect, false), output));
    }
    let write = |text: &str| fs::write(&path, text).map_err(|e| format!("{}: {e}", m.file));
    write(&original.replacen(&m.find, &m.replace, 1))?;
    let log = dir.join("output.txt");
    let ran = execute(&m.run, tree, &dir.join("target"), &log);
    write(&original)?;
    let (success, timed_out) = ran?;
    let output = String::from_utf8_lossy(&fs::read(&log).map_err(|e| e.to_string())?).into_owned();
    Ok((classify(1, success, &output, &m.expect, timed_out), output))
}

/// Runs `run` in `tree` under [`WALL_LIMIT`], stdout and stderr to
/// `log`: whether it exited 0, and whether it was stopped for time.
fn execute(run: &str, tree: &Path, target: &Path, log: &Path) -> Result<(bool, bool), String> {
    let mut words = run.split_whitespace();
    let mut command = Command::new(words.next().ok_or("empty `run`")?);
    let out = File::create(log).map_err(|e| e.to_string())?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let kept = std::env::vars_os().filter(|(k, _)| !k.to_string_lossy().starts_with(KNOB_PREFIX));
    command.args(words).current_dir(tree).env_clear().envs(kept);
    command.env("CARGO_TARGET_DIR", target);
    command.stdin(Stdio::null()).stdout(out).stderr(err);
    // Its own process group, so a timeout also stops what cargo started.
    command.process_group(0);
    let mut child = command.spawn().map_err(|e| format!("`{run}`: {e}"))?;
    let started = Instant::now();
    while started.elapsed() < WALL_LIMIT {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok((status.success(), false));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let group = format!("-{}", child.id());
    let _ = Command::new("kill").args(["-KILL", "--", &group]).status();
    let _ = child.kill();
    child.wait().map_err(|e| e.to_string())?;
    Ok((false, true))
}
