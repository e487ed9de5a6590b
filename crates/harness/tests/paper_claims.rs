//! The paper's claims, as relations over the checked-in `results/*.txt`.
//!
//! `golden_results` proves the code regenerates those files byte for
//! byte. This suite says what they must keep showing when a change is
//! *meant* to move them: who wins, how gaps scale, where the effects
//! appear. Each test is named after the EXPERIMENTS.md section its
//! claim comes from and fails naming the claim. A deviation from the
//! paper that EXPERIMENTS.md records is asserted in its current
//! direction, so a change that fixes or worsens it is seen rather than
//! re-transcribed. Slack is stated where a figure is bounded.

use std::collections::BTreeMap;
use std::path::Path;

/// The contents of `results/<name>`.
fn results(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Fails unless `holds`, naming the claim.
#[track_caller]
fn claim(name: &str, holds: bool, detail: impl std::fmt::Display) {
    assert!(holds, "claim `{name}` no longer holds: {detail}");
}

/// The columns of Tables 1–3: an engine's unanimous column, and its
/// divergent one right after it.
const TURQUOIS: usize = 0;
const ABBA: usize = 2;
const BRACHA: usize = 4;
const ENGINES: [(usize, &str); 3] = [(TURQUOIS, "Turquois"), (ABBA, "ABBA"), (BRACHA, "Bracha")];
const UNANIMOUS: usize = 0;
const DIVERGENT: usize = 1;

/// A latency table: per `n`, each column's `(mean, 95 % CI)` in ms.
struct Latency(BTreeMap<usize, [(f64, f64); 6]>);

impl Latency {
    fn read(name: &str) -> Self {
        let mut rows = BTreeMap::new();
        for line in results(name).lines() {
            let Some((n, cells)) = line.split_once('|') else {
                continue;
            };
            let Ok(n) = n.trim().parse() else {
                continue;
            };
            let numbers: Vec<f64> = cells
                .split(['|', '±', ' '])
                .filter(|t| !t.is_empty())
                .map(|t| t.parse().unwrap_or_else(|_| panic!("{name}: {t:?} in {line:?}")))
                .collect();
            let pairs: Vec<(f64, f64)> = numbers.chunks(2).map(|c| (c[0], c[1])).collect();
            rows.insert(n, pairs.try_into().unwrap_or_else(|_| panic!("{name}: {line:?}")));
        }
        assert_eq!(rows.keys().copied().collect::<Vec<_>>(), [4, 7, 10, 13, 16], "{name}");
        Latency(rows)
    }

    /// Mean latency of `engine`'s `distribution` column at `n`.
    fn mean(&self, n: usize, engine: usize, distribution: usize) -> f64 {
        self.0[&n][engine + distribution].0
    }

    fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.keys().copied()
    }
}

// ---------------------------------------------------------------- Table 1

#[test]
fn table1_ordering_turquois_below_abba_below_bracha() {
    let t = Latency::read("table1.txt");
    for n in t.sizes() {
        for d in [UNANIMOUS, DIVERGENT] {
            let (tq, abba, bracha) = (t.mean(n, TURQUOIS, d), t.mean(n, ABBA, d), t.mean(n, BRACHA, d));
            claim(
                "table1_ordering_turquois_below_abba_below_bracha",
                tq < abba && abba < bracha,
                format!("n={n} column {d}: Turquois {tq}, ABBA {abba}, Bracha {bracha}"),
            );
        }
    }
}

/// Turquois : Bracha (unanimous) grows from ≈ 9× at n = 4 to ≈ 67× at
/// n = 16 (paper 7× → 84×), and Turquois : ABBA reaches ≈ 17× (paper
/// 22×): "more than an order of magnitude as the system scales". Slack:
/// both end ratios past 10×, the Bracha one at least 5× its n = 4 value.
#[test]
fn table1_gap_to_the_baselines_grows_past_an_order_of_magnitude() {
    let t = Latency::read("table1.txt");
    let ratio = |n, engine| t.mean(n, engine, UNANIMOUS) / t.mean(n, TURQUOIS, UNANIMOUS);
    let (bracha_4, bracha_16, abba_16) = (ratio(4, BRACHA), ratio(16, BRACHA), ratio(16, ABBA));
    claim(
        "table1_gap_to_the_baselines_grows_past_an_order_of_magnitude",
        bracha_16 > 10.0 && abba_16 > 10.0 && bracha_16 > 5.0 * bracha_4,
        format!("Bracha {bracha_4:.1}× at n=4, {bracha_16:.1}× at n=16; ABBA {abba_16:.1}× at n=16"),
    );
}

/// ABBA's divergent runs take 1.8–2.2× its unanimous ones (slack:
/// 1.5–2.5×).
#[test]
fn table1_divergence_penalty_about_2x_for_abba() {
    let t = Latency::read("table1.txt");
    for n in t.sizes() {
        let penalty = t.mean(n, ABBA, DIVERGENT) / t.mean(n, ABBA, UNANIMOUS);
        claim(
            "table1_divergence_penalty_about_2x_for_abba",
            (1.5..=2.5).contains(&penalty),
            format!("n={n}: {penalty:.2}×"),
        );
    }
}

/// Deviation: Turquois's divergence penalty has a heavier right tail
/// than the paper's (≤ 2.7×) from n = 10 up — 3.4–5.6× here.
#[test]
fn table1_deviation_turquois_divergence_tail_heavier_at_scale() {
    let t = Latency::read("table1.txt");
    for n in t.sizes().filter(|&n| n >= 10) {
        let penalty = t.mean(n, TURQUOIS, DIVERGENT) / t.mean(n, TURQUOIS, UNANIMOUS);
        claim(
            "table1_deviation_turquois_divergence_tail_heavier_at_scale",
            penalty > 3.0,
            format!("n={n}: {penalty:.2}×"),
        );
    }
}

// ---------------------------------------------------------------- Table 2

/// With exactly n − f processes left everyone hears the same set, so
/// Turquois's and Bracha's two columns are identical cells.
#[test]
fn table2_turquois_and_bracha_ignore_the_proposal_distribution() {
    let t = Latency::read("table2.txt");
    for n in t.sizes() {
        for (engine, name) in [ENGINES[0], ENGINES[2]] {
            let (u, d) = (t.0[&n][engine + UNANIMOUS], t.0[&n][engine + DIVERGENT]);
            claim(
                "table2_turquois_and_bracha_ignore_the_proposal_distribution",
                u == d,
                format!("n={n} {name}: {u:?} vs {d:?}"),
            );
        }
    }
}

/// Deviation: ABBA pays a coin round under divergent proposals when the
/// last f processes crash (≥ 1.5× its unanimous latency at every n).
#[test]
fn table2_deviation_abba_pays_a_coin_round_when_divergent() {
    let t = Latency::read("table2.txt");
    for n in t.sizes() {
        let penalty = t.mean(n, ABBA, DIVERGENT) / t.mean(n, ABBA, UNANIMOUS);
        claim(
            "table2_deviation_abba_pays_a_coin_round_when_divergent",
            penalty >= 1.5,
            format!("n={n}: {penalty:.2}×"),
        );
    }
}

/// Turquois fail-stop is slower than failure-free from n = 10 up (the
/// quorum is every live process); at n = 4 the contention relief wins.
#[test]
fn table2_turquois_fail_stop_slower_than_failure_free_from_n_10() {
    let (free, stop) = (Latency::read("table1.txt"), Latency::read("table2.txt"));
    for n in free.sizes().filter(|&n| n == 4 || n >= 10) {
        let (f, s) = (free.mean(n, TURQUOIS, UNANIMOUS), stop.mean(n, TURQUOIS, UNANIMOUS));
        claim(
            "table2_turquois_fail_stop_slower_than_failure_free_from_n_10",
            (s > f) == (n >= 10),
            format!("n={n}: failure-free {f}, fail-stop {s}"),
        );
    }
}

/// Deviation: the TCP baselines' unanimous runs are faster under
/// fail-stop than failure-free at n ≤ 7 (the paper saw the opposite
/// below n = 16) and flip to the paper's direction from n = 10 up.
#[test]
fn table2_deviation_tcp_baselines_faster_under_fail_stop_up_to_n_7() {
    let (free, stop) = (Latency::read("table1.txt"), Latency::read("table2.txt"));
    for n in free.sizes() {
        for (engine, name) in [ENGINES[1], ENGINES[2]] {
            let (f, s) = (free.mean(n, engine, UNANIMOUS), stop.mean(n, engine, UNANIMOUS));
            claim(
                "table2_deviation_tcp_baselines_faster_under_fail_stop_up_to_n_7",
                (s < f) == (n <= 7),
                format!("n={n} {name}: failure-free {f}, fail-stop {s}"),
            );
        }
    }
}

// ---------------------------------------------------------------- Table 3

/// Turquois (unanimous) under attack over failure-free: ≈ 1.2× at
/// n = 4, ≈ 2.1× at n = 16 (paper 3× → 6.7×, same direction). Every
/// larger n degrades more than n = 4, and none is faster under attack.
#[test]
fn table3_byzantine_degradation_grows_with_n() {
    let (free, byz) = (Latency::read("table1.txt"), Latency::read("table3.txt"));
    let degradation = |n| byz.mean(n, TURQUOIS, UNANIMOUS) / free.mean(n, TURQUOIS, UNANIMOUS);
    for n in free.sizes() {
        claim(
            "table3_byzantine_degradation_grows_with_n",
            degradation(n) >= 1.0 && (n == 4 || degradation(n) > degradation(4)),
            format!("n={n}: {:.2}× (n=4: {:.2}×)", degradation(n), degradation(4)),
        );
    }
}

/// Divergent ≈ 2× unanimous persists under attack (paper: "very
/// roughly doubling"): 1.8–4.7× for every engine from n = 7 up (slack:
/// 1.5–5×). At n = 4 Turquois's and Bracha's two cells coincide.
#[test]
fn table3_divergent_about_2x_unanimous_under_attack() {
    let t = Latency::read("table3.txt");
    for n in t.sizes() {
        for (engine, name) in ENGINES {
            let penalty = t.mean(n, engine, DIVERGENT) / t.mean(n, engine, UNANIMOUS);
            let holds = if n == 4 && engine != ABBA {
                penalty == 1.0
            } else {
                (1.5..=5.0).contains(&penalty)
            };
            claim(
                "table3_divergent_about_2x_unanimous_under_attack",
                holds,
                format!("n={n} {name}: {penalty:.2}×"),
            );
        }
    }
}

/// Turquois stays fastest under attack at every size, by 8–38× over
/// Bracha (slack: at least 7×).
#[test]
fn table3_turquois_fastest_under_attack() {
    let t = Latency::read("table3.txt");
    for n in t.sizes() {
        for d in [UNANIMOUS, DIVERGENT] {
            let tq = t.mean(n, TURQUOIS, d);
            let (abba, bracha) = (t.mean(n, ABBA, d), t.mean(n, BRACHA, d));
            claim(
                "table3_turquois_fastest_under_attack",
                tq < abba && bracha >= 7.0 * tq,
                format!("n={n} column {d}: Turquois {tq}, ABBA {abba}, Bracha {bracha}"),
            );
        }
    }
}

// --------------------------------------------------------------------- A1

/// `results/phases.txt`: per `(n, distribution)`, the share in percent
/// of decisions at each phase.
fn phases() -> Vec<(usize, String, BTreeMap<u32, u32>)> {
    let text = results("phases.txt");
    let rows: Vec<_> = text
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let n = words.next()?.strip_prefix("n=")?.parse().ok()?;
            let distribution = words.next()?.to_string();
            let shares = words
                .collect::<Vec<_>>()
                .chunks(2)
                .map(|pair| {
                    let phase = pair[0].trim_start_matches('φ').trim_end_matches(':');
                    let share = pair[1].trim_end_matches('%');
                    (phase.parse().expect("phase"), share.parse().expect("share"))
                })
                .collect();
            Some((n, distribution, shares))
        })
        .collect();
    assert_eq!(rows.len(), 8, "phases.txt: four sizes × two distributions");
    rows
}

/// Unanimous runs decide at phase 4, i.e. at the end of phase 3, in
/// ≈ 100 % of runs (slack: ≥ 95 %).
#[test]
fn a1_unanimous_runs_decide_at_the_end_of_phase_3() {
    for (n, distribution, shares) in phases().into_iter().filter(|r| r.1 == "unanimous") {
        let at_4 = shares.get(&4).copied().unwrap_or(0);
        claim(
            "a1_unanimous_runs_decide_at_the_end_of_phase_3",
            at_4 >= 95,
            format!("n={n} {distribution}: φ4 {at_4}%"),
        );
    }
}

/// Divergent runs decide at the end of phase 3 or 6 (φ4 or φ7; slack:
/// ≥ 75 % together). Deviation: the paper says "typically by the end of
/// phase 6", while our deterministic majority tie-break settles a
/// third or more of them in the first cycle.
#[test]
fn a1_deviation_divergent_runs_often_decide_in_the_first_cycle() {
    for (n, distribution, shares) in phases().into_iter().filter(|r| r.1 == "divergent") {
        let share = |phase| shares.get(&phase).copied().unwrap_or(0);
        claim(
            "a1_deviation_divergent_runs_often_decide_in_the_first_cycle",
            share(4) >= 30 && share(4) + share(7) >= 75,
            format!("n={n} {distribution}: φ4 {}%, φ7 {}%", share(4), share(7)),
        );
    }
}

// --------------------------------------------------------------------- A9

/// Every cell of the scale grid decides on every rep, and fail-stop is
/// the cheapest fault load at every size.
#[test]
fn a9_every_scale_cell_decides_and_fail_stop_is_cheapest() {
    let text = results("table_scale.txt");
    let mut mean: BTreeMap<(String, usize), f64> = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        let [load_n, decided, latency, ..] = fields[..] else {
            continue;
        };
        let Some((load, n)) = load_n.rsplit_once(' ') else {
            continue;
        };
        let Ok(n) = n.parse::<usize>() else {
            continue;
        };
        let (done, reps) = decided.split_once('/').expect("decided/reps");
        claim(
            "a9_every_scale_cell_decides_and_fail_stop_is_cheapest",
            done == reps,
            format!("{load} n={n}: {decided}"),
        );
        let ms = latency.split_whitespace().next().expect("mean ms");
        mean.insert((load.trim().to_string(), n), ms.parse().expect("mean ms"));
    }
    assert_eq!(mean.len(), 9, "table_scale.txt: three loads × three sizes");
    for n in [16, 64, 256] {
        let at = |load: &str| mean[&(load.to_string(), n)];
        claim(
            "a9_every_scale_cell_decides_and_fail_stop_is_cheapest",
            at("fail-stop") < at("failure-free") && at("fail-stop") < at("Byzantine"),
            format!("n={n}: fail-stop {} ms", at("fail-stop")),
        );
    }
}

// -------------------------------------------------------------------- A10

/// One row of `results/partition_matrix.txt`.
struct Split {
    engine: String,
    keep: bool,
    heal_ms: u32,
    n: usize,
    all_decided: bool,
    pre_heal: f64,
    rec_mean_ms: f64,
}

fn partition_matrix() -> Vec<Split> {
    let rows: Vec<Split> = results("partition_matrix.txt")
        .lines()
        .filter_map(|line| {
            let fields: Vec<Vec<&str>> =
                line.split('|').map(|f| f.split_whitespace().collect()).collect();
            let [head, decided, recovery, _] = &fields[..] else {
                return None;
            };
            let [engine, split, heal_ms, n] = head[..] else {
                return None;
            };
            let (done, reps) = decided[0].split_once('/')?;
            Some(Split {
                engine: engine.to_string(),
                keep: split == "keep",
                heal_ms: heal_ms.parse().ok()?,
                n: n.parse().ok()?,
                all_decided: done == reps,
                pre_heal: decided[1].parse().ok()?,
                rec_mean_ms: recovery[0].parse().ok()?,
            })
        })
        .collect();
    assert_eq!(rows.len(), 60, "partition_matrix.txt: 3 engines × 2 splits × 2 heals × 5 sizes");
    rows
}

/// The sub-quorum rule: no node of a `break` split decides before the
/// heal, a `keep` split's deciders are at most its n − f majority, and
/// every run decides in the end.
#[test]
fn a10_no_sub_quorum_component_decides_while_split() {
    for row in partition_matrix() {
        let majority = (row.n - (row.n - 1) / 3) as f64;
        let bound = if row.keep { majority } else { 0.0 };
        claim(
            "a10_no_sub_quorum_component_decides_while_split",
            row.all_decided && row.pre_heal <= bound,
            format!(
                "{} {} heal {} n={}: pre-heal {} (at most {bound})",
                row.engine,
                if row.keep { "keep" } else { "break" },
                row.heal_ms,
                row.n,
                row.pre_heal
            ),
        );
    }
}

/// A Turquois minority rejoins in milliseconds (keep rec-mean 3–14 ms;
/// slack: under 100 ms); the reliable-link baselines drain queued
/// retransmissions for at least 10× as long in the same cell.
#[test]
fn a10_turquois_minorities_rejoin_in_milliseconds() {
    let rows = partition_matrix();
    for tq in rows.iter().filter(|r| r.keep && r.engine == "Turquois") {
        let same_cell = |r: &&Split| r.keep && r.heal_ms == tq.heal_ms && r.n == tq.n;
        for base in rows.iter().filter(same_cell).filter(|r| r.engine != "Turquois") {
            claim(
                "a10_turquois_minorities_rejoin_in_milliseconds",
                tq.rec_mean_ms < 100.0 && base.rec_mean_ms >= 10.0 * tq.rec_mean_ms,
                format!(
                    "keep heal {} n={}: Turquois {} ms, {} {} ms",
                    tq.heal_ms, tq.n, tq.rec_mean_ms, base.engine, base.rec_mean_ms
                ),
            );
        }
    }
}

/// A longer outage costs the baselines (their heal-time drain grows:
/// break rec-mean at 3 s above 1 s at every n), while Turquois recovers
/// from a broken split in under a second whatever the outage.
#[test]
fn a10_longer_outages_cost_the_baselines() {
    let rows = partition_matrix();
    let rec = |engine: &str, heal_ms, n| {
        rows.iter()
            .find(|r| !r.keep && r.engine == engine && r.heal_ms == heal_ms && r.n == n)
            .expect("break cell")
            .rec_mean_ms
    };
    for n in [4, 7, 10, 13, 16] {
        for engine in ["Abba", "Bracha"] {
            let (short, long) = (rec(engine, 1000, n), rec(engine, 3000, n));
            claim(
                "a10_longer_outages_cost_the_baselines",
                long > short,
                format!("{engine} break n={n}: {short} ms after 1 s, {long} ms after 3 s"),
            );
        }
        for heal_ms in [1000, 3000] {
            let ms = rec("Turquois", heal_ms, n);
            claim(
                "a10_longer_outages_cost_the_baselines",
                ms < 1000.0,
                format!("Turquois break heal {heal_ms} n={n}: {ms} ms"),
            );
        }
    }
}
