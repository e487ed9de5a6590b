//! The full run (`bench run` / `bench trace`), its record
//! (`results/latest.json`) and the comparison of two records
//! (`bench compare`).

use crate::calibrate::NOMINAL_NS_PER_STEP;
use crate::jobs::Workload;
use crate::json::Json;
use crate::measure::median;
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seed of a full run unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 2010;
/// Seconds measured per untraced repeat (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;
/// Untraced repeats per workload in a full run.
pub const DEFAULT_REPEATS: usize = 3;

/// Outcome digests of the full job lists at `DEFAULT_SEED` and
/// `DEFAULT_SECONDS`, frozen at the commit that defined the benchmark.
/// Every simulated nanosecond is meant to hold still this round; a run
/// that hashes differently prints `behaviour_changed`.
const FROZEN_DIGESTS: [(Workload, &str); 4] = [
    (Workload::PaperTables, "8cac0c4207ab3c14"),
    (Workload::ScaleFanout, "6271915ab72d814e"),
    (Workload::PartitionHeal, "6181394fb02e7de8"),
    (Workload::RadioNull, "e1508392f14962b0"),
];

/// Where the benchmark writes its records and traces: `results/` beside
/// this crate's manifest, in the checkout the binary was built from.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// What a full run does.
pub struct Plan {
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Benchmark seed.
    pub seed: u64,
    /// Seconds per measurement.
    pub seconds: u64,
    /// Untraced repeats per workload before the traced pass (0: traced
    /// pass only).
    pub repeats: usize,
    /// Tiny grids.
    pub smoke: bool,
    /// Where the record goes.
    pub out: PathBuf,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on and with.
fn context(plan: &Plan) -> Json {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    Json::obj([
        (
            "git_rev",
            Json::str(first_line_of(
                "git",
                &["-C", manifest_dir, "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64),
        ),
        ("cpu", Json::str(cpu_model())),
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds as f64)),
        ("repeats", Json::Num(plan.repeats as f64)),
        ("smoke", Json::Bool(plan.smoke)),
        ("nominal_ns_per_step", Json::Num(NOMINAL_NS_PER_STEP)),
    ])
}

/// The two JSON lines a measuring child prints last: info, then result.
struct ChildOutput {
    info: Json,
    result: Json,
}

/// Runs one measurement in a fresh process of this binary, so every
/// sample starts from a clean allocator and its own `VmHWM`.
fn measure_in_child(plan: &Plan, workload: Workload, trace: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if plan.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let info = lines.next().ok_or("child printed no info line")?;
    Ok(ChildOutput {
        info: Json::parse(info)?,
        result: Json::parse(result)?,
    })
}

/// Runs attempted and failed over a workload's children.
#[derive(Default)]
struct Tally {
    attempted: f64,
    failed: f64,
    failures: Vec<Json>,
}

impl Tally {
    fn add(&mut self, child: &ChildOutput) {
        let count = |key| child.result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        self.attempted += count("attempted");
        self.failed += count("failed");
        if let Some(list) = child.info.get("failures").and_then(Json::as_arr) {
            self.failures.extend(list.iter().cloned());
        }
    }
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
            (lo.min(*s), hi.max(*s))
        })
}

fn summary(unit: &str, samples: &[f64]) -> Json {
    let (min, max) = min_max(samples);
    Json::obj([
        ("unit", Json::str(unit)),
        ("median", Json::Num(median(samples))),
        ("min", Json::Num(min)),
        ("max", Json::Num(max)),
        (
            "samples",
            Json::Arr(samples.iter().map(|s| Json::Num(*s)).collect()),
        ),
    ])
}

fn behaviour(plan: &Plan, workload: Workload, digest: &str) -> &'static str {
    let frozen = !plan.smoke && plan.seed == DEFAULT_SEED && plan.seconds == DEFAULT_SECONDS;
    match FROZEN_DIGESTS.iter().find(|(w, _)| *w == workload) {
        Some((_, d)) if frozen && *d == digest => "unchanged",
        Some(_) if frozen => "behaviour_changed",
        _ => "not_frozen",
    }
}

/// Runs one workload of the plan and returns its record; prints every
/// metric by name as it goes.
fn run_workload(plan: &Plan, workload: Workload) -> Result<Json, String> {
    println!("== {}", workload.name());
    let mut record: BTreeMap<String, Json> = BTreeMap::new();
    let mut tally = Tally::default();

    if plan.repeats > 0 {
        let children = (0..plan.repeats)
            .map(|_| measure_in_child(plan, workload, false))
            .collect::<Result<Vec<_>, _>>()?;
        children.iter().for_each(|c| tally.add(c));
        let mut e2e = BTreeMap::new();
        for m in END_TO_END {
            let samples: Vec<f64> = children
                .iter()
                .map(|c| metric_value(&c.result, m.name).ok_or(format!("child omitted {}", m.name)))
                .collect::<Result<_, _>>()?;
            let (min, max) = min_max(&samples);
            println!(
                "  {:<24} {:>14.6} {:<6} (min {min:.6}, max {max:.6}, n={})",
                m.name,
                median(&samples),
                m.unit,
                samples.len()
            );
            e2e.insert(m.name.to_owned(), summary(m.unit, &samples));
        }
        record.insert("end_to_end".into(), Json::Obj(e2e));
        // Uncalibrated companions, reported but not bounded.
        let mut info = BTreeMap::new();
        for (name, unit) in [
            ("raw_us_per_kib_sent", "us"),
            ("pass_wall_s", "s"),
            ("host_speed", "ratio"),
        ] {
            let samples: Vec<f64> = children
                .iter()
                .filter_map(|c| c.info.get(name).and_then(Json::as_f64))
                .collect();
            if samples.len() == children.len() {
                println!(
                    "  {:<24} {:>14.6} {:<6} (informational)",
                    name,
                    median(&samples),
                    unit
                );
                info.insert(name.to_owned(), summary(unit, &samples));
            }
        }
        record.insert("informational".into(), Json::Obj(info));
        // Determinism: every repeat must hash to the same outcome.
        let digests: Vec<&str> = children
            .iter()
            .filter_map(|c| c.info.get("outcome_digest").and_then(Json::as_str))
            .collect();
        let digest = digests.first().copied().unwrap_or("").to_owned();
        if digests.iter().any(|d| *d != digest) {
            tally.failed += 1.0;
            tally
                .failures
                .push(Json::str("outcome digests differ between repeats"));
        }
        let verdict = behaviour(plan, workload, &digest);
        println!("  {:<24} {digest} ({verdict})", "outcome_digest");
        record.insert("outcome_digest".into(), Json::str(digest));
        record.insert("behaviour".into(), Json::str(verdict));
    }

    {
        let child = measure_in_child(plan, workload, true)?;
        tally.add(&child);
        let mut layers = BTreeMap::new();
        for m in PER_LAYER {
            let value =
                metric_value(&child.result, m.name).ok_or(format!("child omitted {}", m.name))?;
            println!("  {:<32} {:>16.4} {}", m.name, value, m.unit);
            layers.insert(
                m.name.to_owned(),
                Json::obj([("unit", Json::str(m.unit)), ("value", Json::Num(value))]),
            );
        }
        record.insert("per_layer".into(), Json::Obj(layers));
        if let Some(d) = child.info.get("outcome_digest") {
            record.insert("traced_pass_digest".into(), d.clone());
        }
    }

    println!(
        "  {:<24} {} of {}",
        "runs_failed", tally.failed, tally.attempted
    );
    for f in &tally.failures {
        println!("    failed: {}", f.as_str().unwrap_or("?"));
    }
    record.insert("runs_attempted".into(), Json::Num(tally.attempted));
    record.insert("runs_failed".into(), Json::Num(tally.failed));
    record.insert("failures".into(), Json::Arr(tally.failures));
    Ok(Json::Obj(record))
}

/// Executes a plan: every workload, in child processes; prints every
/// metric; writes the record. Returns whether every run passed.
pub fn run(plan: &Plan) -> Result<bool, String> {
    let mut workloads = BTreeMap::new();
    let mut clean = true;
    for &w in &plan.workloads {
        let record = run_workload(plan, w)?;
        clean &= record.get("runs_failed").and_then(Json::as_f64) == Some(0.0);
        workloads.insert(w.name().to_owned(), record);
    }
    let record = Json::obj([
        ("schema", Json::Num(1.0)),
        // This benchmark sets a baseline; it claims no gain.
        ("claim", Json::Null),
        ("context", context(plan)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = plan.out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&plan.out, record.pretty())
        .map_err(|e| format!("cannot write {}: {e}", plan.out.display()))?;
    println!("wrote {}", plan.out.display());
    Ok(clean)
}

/// The text of `BENCHMARK.json`, generated from the declarations in
/// [`crate::metrics`] and [`crate::jobs`] (`bench declare`). The schema
/// test holds the checked-in file to this.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--bin",
                "bench",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", crate::metrics::declaration(END_TO_END)),
        ("per_layer", crate::metrics::declaration(PER_LAYER)),
    ])
    .pretty()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(median, (max − min) / median)` of one end-to-end metric.
fn side(record: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = record
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let median = m.get("median")?.as_f64()?;
    let spread = (m.get("max")?.as_f64()? - m.get("min")?.as_f64()?) / median;
    Some((median, spread))
}

/// Metrics that repeat exactly for a seed: two records of one commit
/// must agree on them to the last digit.
fn is_exact(m: &Metric) -> bool {
    matches!(m.unit, "count" | "B")
        || m.name.starts_with("model.")
        || matches!(m.name, "net.collision_rate" | "core.accept_rate")
}

/// Compares record `b` against base `a`: per workload and end-to-end
/// metric both medians, the ratio, the bound, and a verdict — `ok`,
/// `worse` (past the bound) or `unresolved` (either side's own spread
/// is wider than the bound, so the comparison cannot tell). Returns
/// whether no pair was `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut none_worse = true;
    println!(
        "{:<15} {:<22} {:>13} {:>13} {:>9} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for w in Workload::ALL {
        for m in END_TO_END {
            let (Some((ma, sa)), Some((mb, sb))) =
                (side(&a, w.name(), m.name), side(&b, w.name(), m.name))
            else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let verdict = if sa > bound || sb > bound {
                "unresolved"
            } else if worse_by > bound {
                none_worse = false;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<15} {:<22} {:>13.6} {:>13.6} {:>9.4} {:>6.2}  {verdict} (spread a {:.1} %, b {:.1} %)",
                w.name(),
                m.name,
                ma,
                mb,
                mb / ma,
                bound,
                sa * 100.0,
                sb * 100.0
            );
        }
        let field = |r: &Json, key: &str| {
            r.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .and_then(|x| x.get(key))
                .cloned()
        };
        if let (Some(da), Some(db)) = (field(&a, "outcome_digest"), field(&b, "outcome_digest")) {
            let same = da == db;
            println!(
                "{:<15} {:<22} {}",
                w.name(),
                "outcome_digest",
                if same {
                    "identical"
                } else {
                    "DIFFERENT: simulated behaviour changed"
                }
            );
        }
        let mut moved = Vec::new();
        for m in PER_LAYER.iter().filter(|m| is_exact(m)) {
            let value = |r: &Json| {
                field(r, "per_layer").and_then(|l| {
                    l.get(m.name)
                        .and_then(|x| x.get("value"))
                        .and_then(Json::as_f64)
                })
            };
            if let (Some(va), Some(vb)) = (value(&a), value(&b)) {
                if va != vb {
                    moved.push(format!("{} {va} → {vb}", m.name));
                }
            }
        }
        if field(&a, "per_layer").is_some() && field(&b, "per_layer").is_some() {
            println!(
                "{:<15} {:<22} {}",
                w.name(),
                "exact counts",
                if moved.is_empty() {
                    "identical".to_owned()
                } else {
                    moved.join("; ")
                }
            );
        }
    }
    Ok(none_worse)
}
