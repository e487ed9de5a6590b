//! Every metric the benchmark reports, declared once.
//!
//! `BENCHMARK.json` at the repository root carries the same tables; the
//! schema test fails when the two disagree, and [`emit`] refuses to
//! print a result whose names differ from the declaration.

use crate::json::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may get worse.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the repository sees, per workload. Lower is better
/// for all. The bounds are sized to the reference box, whose speed
/// drifts by tens of percent over minutes (README, "Noise"): a tighter
/// bound would reject a commit for the weather.
pub const END_TO_END: &[Metric] = &[
    // Host time, set-up included, per KiB of application payload sent;
    // calibrated to the host's nominal speed; median over passes.
    e2e("host_us_per_kib_sent", "us", 0.25),
    // The part of a pass before each run's first event; calibrated;
    // median over passes.
    e2e("setup_s", "s", 0.25),
    // VmHWM of the measuring process.
    e2e("peak_rss_mib", "MiB", 0.10),
    // Geometric mean over cells of the cell's mean simulated latency.
    // Deterministic for a seed; the bound covers the spread between
    // seeds on the noisiest workload, the digest is the exact guard.
    e2e("sim_latency_ms", "ms", 0.25),
];

/// Single-layer metrics, from the traced pass and the stand-alone
/// probes. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // net (wireless-net): counts over the traced pass, then host time.
    lower("net.events", "count"),
    lower("net.deliveries", "count"),
    lower("net.frames_sent", "count"),
    lower("net.queue_drops", "count"),
    lower("net.fault_drops", "count"),
    lower("net.collision_rate", "ratio"),
    lower("net.step_self_ns", "ns"),
    lower("net.step_self_p99_ns", "ns"),
    lower("net.step_self_share", "ratio"),
    lower("net.fault_call_ns", "ns"),
    higher("net.events_per_s", "1/s"),
    lower("net.queue_hold_d64_ns", "ns"),
    lower("net.queue_hold_d4096_ns", "ns"),
    lower("net.medium_tx_ns", "ns"),
    lower("net.medium_tx_n256_ns", "ns"),
    lower("net.medium_tx_split_ns", "ns"),
    higher("net.storm_events_per_s", "1/s"),
    // harness (adapters, scenario, runner)
    lower("harness.on_frame_ns", "ns"),
    lower("harness.on_frame_p99_ns", "ns"),
    lower("harness.on_timer_ns", "ns"),
    lower("harness.app_share", "ratio"),
    lower("harness.adapter_self_ns", "ns"),
    lower("harness.on_frame_n_exponent", "ratio"),
    lower("harness.build_turquois_n16_ms", "ms"),
    lower("harness.build_turquois_n96_ms", "ms"),
    lower("harness.build_abba_n16_ms", "ms"),
    higher("harness.runner_speedup_t2", "ratio"),
    // core (turquois-core), on the replayed stream
    lower("core.frames_replayed", "count"),
    lower("core.replays_unfaithful", "count"),
    lower("core.frame_bytes_mean", "B"),
    lower("core.just_entries_mean", "count"),
    higher("core.accept_rate", "ratio"),
    lower("core.on_message_ns", "ns"),
    lower("core.on_message_p99_ns", "ns"),
    lower("core.on_message_ff_ns", "ns"),
    lower("core.on_message_byz_ns", "ns"),
    lower("core.on_tick_ns", "ns"),
    lower("core.decode_ns", "ns"),
    lower("core.verify_ns", "ns"),
    lower("core.store_insert_ns", "ns"),
    // baselines
    lower("baselines.bracha_on_frame_ns", "ns"),
    lower("baselines.abba_on_frame_ns", "ns"),
    lower("baselines.bracha_engine_ns", "ns"),
    lower("baselines.abba_engine_ns", "ns"),
    // crypto
    lower("crypto.sha256_64b_ns", "ns"),
    higher("crypto.sha256_16k_mib_s", "MiB/s"),
    higher("crypto.sha256_many_mib_s", "MiB/s"),
    lower("crypto.hmac_64b_ns", "ns"),
    lower("crypto.otss_verify_ns", "ns"),
    lower("crypto.keygen_n16_ms", "ms"),
    // alloc (the benchmark's counting allocator)
    lower("alloc.count_per_event", "count"),
    lower("alloc.bytes_per_event", "B"),
    lower("alloc.count_per_on_message", "count"),
    // model (simulated, deterministic): nothing may move these while
    // behaviour is meant to hold still.
    lower("model.sim_latency_p99_ms", "ms"),
    lower("model.phases_to_decide", "count"),
    lower("model.frames_per_decision", "count"),
    lower("model.paper_ratio_t1", "ratio"),
    // trace: the instrument itself
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.spans", "count"),
    lower("trace.span_floor_ns", "ns"),
    higher("trace.attributed_share", "ratio"),
    lower("trace.twins_diverged", "count"),
    lower("trace.runs_failed", "count"),
    // host: what the measurement ran on
    higher("host.speed", "ratio"),
    lower("host.pass_wall_s", "s"),
    lower("host.traced_wall_s", "s"),
];

/// Named values on their way to the result line.
pub type Values = BTreeMap<&'static str, f64>;

/// Builds the `metrics` object for `declared`, with units.
///
/// # Panics
///
/// Panics when `values` does not hold exactly the declared names: a
/// result that drifted from the declaration is a bug in the benchmark.
pub fn emit(declared: &[Metric], values: &Values) -> Json {
    for name in values.keys() {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "metric {name} is reported but not declared"
        );
    }
    Json::obj(declared.iter().map(|m| {
        let value = *values
            .get(m.name)
            .unwrap_or_else(|| panic!("metric {} is declared but not reported", m.name));
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The `end_to_end` / `per_layer` array of `BENCHMARK.json` for
/// `declared`.
pub fn declaration(declared: &[Metric]) -> Json {
    Json::Arr(
        declared
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.word())),
                ];
                if let Some(bound) = m.bound {
                    fields.push(("bound", Json::Num(bound)));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    #[should_panic(expected = "declared but not reported")]
    fn emit_refuses_a_missing_metric() {
        emit(END_TO_END, &Values::new());
    }
}
