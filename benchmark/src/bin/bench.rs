//! The benchmark's command line.
//!
//! ```text
//! bench --workload W --seed S --seconds T --trace 0|1 [--smoke]
//!     One measurement in this process. The last line of standard
//!     output is the result object BENCHMARK.json's driver reads; the
//!     line before it carries what that object has no room for.
//! bench run   [--workload W] [--seed S] [--seconds T] [--repeats R] [--smoke]
//!     Every workload: R untraced repeats and one traced pass, each in
//!     a fresh child process; prints every metric; writes
//!     results/latest.json.
//! bench trace [--workload W] [--seed S] [--seconds T] [--smoke]
//!     The traced pass and the layer probes only; writes
//!     results/latest_trace.json.
//! bench compare A.json B.json
//!     Judges record B against base A, pair by pair.
//! bench declare
//!     Prints BENCHMARK.json as the code declares it.
//! ```

use std::process::ExitCode;
use turquois_benchmark::alloc::Counting;
use turquois_benchmark::jobs::Workload;
use turquois_benchmark::json::Json;
use turquois_benchmark::layers::Layers;
use turquois_benchmark::measure::Measurement;
use turquois_benchmark::metrics::{emit, Values, END_TO_END, PER_LAYER};
use turquois_benchmark::report::{
    benchmark_json, compare, results_dir, run, Plan, DEFAULT_REPEATS, DEFAULT_SECONDS, DEFAULT_SEED,
};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `--name value` options and bare flags, as given.
struct Options {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    repeats: Option<usize>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: None,
        seconds: None,
        repeats: None,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        let number = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                o.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => o.seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => o.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--repeats" => o.repeats = Some(number("--repeats", value("--repeats")?)? as usize),
            "--trace" => {
                o.trace = Some(match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                })
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Nobody benchmarks a legacy twin by accident: every `TURQUOIS_*`
/// variable selects or tunes something inside the code under test.
/// Found by scanning the environment, not by asking the gates
/// themselves (ROADMAP item 2 deletes those).
fn refuse_turquois_env() -> Result<(), String> {
    match std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("TURQUOIS_"))
    {
        Some(name) => Err(format!(
            "{name} is set; the benchmark measures the default configuration only — unset it"
        )),
        None => Ok(()),
    }
}

/// One measurement in this process: the driver's protocol. Runs that
/// fail their checks still end in a result line (`correct: false`), so
/// the driver can read it: only a bad invocation is an error.
fn measure(o: &Options) -> Result<(), String> {
    let workload = o.workload.ok_or("--workload is required")?;
    let seed = o.seed.ok_or("--seed is required")?;
    let seconds = o.seconds.ok_or("--seconds is required")?;
    let trace = o.trace.ok_or("--trace is required")?;
    // What the result object has no room for goes on the line before it.
    let (attempted, failures, digest, metrics, extra) = if trace {
        let layers = Layers::take(workload, seed, seconds, o.smoke, &results_dir());
        let trace_file = Json::str(layers.trace_file.display().to_string());
        (
            layers.attempted,
            layers.failures,
            layers.digest,
            emit(PER_LAYER, &layers.values),
            vec![("trace_file", trace_file)],
        )
    } else {
        let m = Measurement::take(workload, seed, seconds, o.smoke);
        let mut values = Values::new();
        values.insert("host_us_per_kib_sent", m.host_us_per_kib_sent());
        values.insert("setup_s", m.setup_s());
        values.insert("peak_rss_mib", m.peak_rss_mib);
        values.insert("sim_latency_ms", m.sim_latency_ms());
        (
            m.attempted(),
            m.failures(),
            m.digest(),
            emit(END_TO_END, &values),
            vec![
                ("raw_us_per_kib_sent", Json::Num(m.raw_us_per_kib_sent())),
                ("pass_wall_s", Json::Num(m.pass_wall_s())),
                ("host_speed", Json::Num(m.host_speed())),
                ("passes", Json::Num(m.passes.len() as f64)),
            ],
        )
    };
    for f in &failures {
        eprintln!("failed: {f}");
    }
    let mut info = vec![
        ("outcome_digest", Json::str(format!("{digest:016x}"))),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
    ];
    info.extend(extra);
    println!("{}", Json::obj(info).compact());
    let result = Json::obj([
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failures.len() as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.compact());
    Ok(())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let plan = |o: Options, repeats: usize, file: &str| Plan {
        workloads: o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed: o.seed.unwrap_or(DEFAULT_SEED),
        seconds: o
            .seconds
            .unwrap_or(if o.smoke { 1 } else { DEFAULT_SECONDS }),
        repeats,
        smoke: o.smoke,
        out: results_dir().join(file),
    };
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(a, b),
            _ => Err("usage: bench compare A.json B.json".into()),
        },
        Some("declare") => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Some("run") => {
            refuse_turquois_env()?;
            let o = parse_options(&args[1..])?;
            let repeats = o.repeats.unwrap_or(DEFAULT_REPEATS);
            run(&plan(o, repeats, "latest.json"))
        }
        Some("trace") => {
            refuse_turquois_env()?;
            let o = parse_options(&args[1..])?;
            run(&plan(o, 0, "latest_trace.json"))
        }
        _ => {
            refuse_turquois_env()?;
            measure(&parse_options(args)?).map(|()| true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
