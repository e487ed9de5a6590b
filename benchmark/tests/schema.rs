//! The benchmark's contract with its driver, exercised on tiny job
//! lists: `BENCHMARK.json` says what the code declares, every
//! measurement prints exactly the declared metrics with their units,
//! and no run fails.

use std::collections::BTreeSet;
use std::process::Command;
use turquois_benchmark::jobs::Workload;
use turquois_benchmark::json::Json;
use turquois_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use turquois_benchmark::report::{benchmark_json, compare};

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

fn checked_in() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_is_what_the_code_declares() {
    let declared = Json::parse(&benchmark_json()).expect("own output parses");
    assert_eq!(
        checked_in(),
        declared,
        "BENCHMARK.json drifted from the code: regenerate it with `bench declare`"
    );
    let keys: Vec<&str> = declared
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for w in declared
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}

/// Runs one smoke measurement and returns its result object.
fn smoke(workload: Workload, trace: bool) -> Json {
    let out = Command::new(BENCH)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "11",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("bench starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", workload.name());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn assert_result(result: &Json, declared: &[Metric], what: &str) {
    let keys: BTreeSet<&str> = result
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["attempted", "correct", "failed", "metrics"]),
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed"),
        Some(&Json::Num(0.0)),
        "{what}: runs_failed"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let expected: BTreeSet<&str> = declared.iter().map(|m| m.name).collect();
    assert_eq!(printed, expected, "{what}: metric names");
    for m in declared {
        let entry = &metrics[m.name];
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{what}: {}",
            m.name
        );
        let value = entry.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {} = {value:?}",
            m.name
        );
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics_and_fails_no_run() {
    let declared = checked_in();
    let names: Vec<&str> = declared
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name), "workload names");
    for w in Workload::ALL {
        let e2e = smoke(w, false);
        assert_result(&e2e, END_TO_END, w.name());
        for m in END_TO_END {
            let v = e2e
                .get("metrics")
                .and_then(|x| x.get(m.name))
                .and_then(|x| x.get("value"));
            assert!(
                v.and_then(Json::as_f64).expect("number") > 0.0,
                "{}: {} is 0",
                w.name(),
                m.name
            );
        }
        assert_result(&smoke(w, true), PER_LAYER, w.name());
    }
}

#[test]
fn a_turquois_variable_in_the_environment_is_refused_by_name() {
    let out = Command::new(BENCH)
        .args([
            "--workload",
            "radio_null",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("TURQUOIS_LEGACY_QUEUE", "1")
        .output()
        .expect("bench starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("TURQUOIS_LEGACY_QUEUE"));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "x"],
        &["--frobnicate"],
        &[],
    ] {
        let out = Command::new(BENCH)
            .args(args)
            .output()
            .expect("bench starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A record with one workload and one metric, three samples.
fn record(samples: [f64; 3], digest: &str) -> String {
    let mut sorted = samples;
    sorted.sort_by(f64::total_cmp);
    let metric = Json::obj([
        ("unit", Json::str("us")),
        ("median", Json::Num(sorted[1])),
        ("min", Json::Num(sorted[0])),
        ("max", Json::Num(sorted[2])),
    ]);
    Json::obj([(
        "workloads",
        Json::obj([(
            "radio_null",
            Json::obj([
                ("end_to_end", Json::obj([("host_us_per_kib_sent", metric)])),
                ("outcome_digest", Json::str(digest)),
            ]),
        )]),
    )])
    .pretty()
}

#[test]
fn compare_tells_ok_from_worse_from_unresolved() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("temp record");
        path.display().to_string()
    };
    let base = write("base.json", record([1.00, 1.02, 0.98], "aa"));
    let same = write("same.json", record([1.01, 1.03, 0.99], "aa"));
    let slow = write("slow.json", record([1.40, 1.42, 1.38], "aa"));
    let wild = write("wild.json", record([1.40, 2.00, 0.90], "aa"));
    assert_eq!(compare(&base, &same), Ok(true), "within the bound");
    assert_eq!(
        compare(&base, &slow),
        Ok(false),
        "40 % worse is past any bound"
    );
    assert_eq!(
        compare(&base, &wild),
        Ok(true),
        "too noisy to call: unresolved, not worse"
    );
    assert!(compare(&base, "/nonexistent.json").is_err());
}
