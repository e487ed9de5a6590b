//! Serialization of schedules as replay fixtures.
//!
//! Shrunk counterexamples (and interesting clean schedules) are stored
//! as small line-based text files under `tests/fixtures/*.schedule` and
//! re-executed byte-for-byte by a plain `#[test]`. The format is meant
//! to be written and reviewed by humans:
//!
//! ```text
//! # free-form comment lines
//! engine turquois            # turquois | bracha | abba
//! n 5
//! seed 42
//! window 4
//! max-rounds 40
//! proposals 1 0 1 0 1        # one bit per process, in id order
//! byz 4 split 3              # id, strategy (split|flip), receiver mask
//! partition 7 1 13           # side-A mask, split round, heal round
//! fault drop 2 0 3           # round from to
//! fault delay 2 1 3 2        # round from to extra-rounds
//! fault dup 3 0 1            # round from to
//! expect clean               # clean | agreement-violation | ...
//! ```
//!
//! `expect` records what replaying the schedule must produce:
//! `clean` (no violation) or `<kind>-violation` with `kind` one of
//! `agreement`, `validity`, `liveness`. [`to_text`] and [`parse`]
//! round-trip exactly, so fixtures stay in canonical form.

use crate::drive::ViolationKind;
use crate::schedule::{ByzSpec, ByzStrategy, Fault, FaultKind, Partition, Schedule};
use turquois_harness::Protocol;

/// What replaying a fixture must produce.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Expectation {
    /// No violation.
    Clean,
    /// A violation of the given kind.
    Violation(ViolationKind),
}

impl Expectation {
    /// The `expect` line payload.
    pub fn as_str(&self) -> &'static str {
        match self {
            Expectation::Clean => "clean",
            Expectation::Violation(ViolationKind::Agreement) => "agreement-violation",
            Expectation::Violation(ViolationKind::Validity) => "validity-violation",
            Expectation::Violation(ViolationKind::Liveness) => "liveness-violation",
        }
    }

    fn parse(word: &str) -> Result<Expectation, String> {
        [
            Expectation::Clean,
            Expectation::Violation(ViolationKind::Agreement),
            Expectation::Violation(ViolationKind::Validity),
            Expectation::Violation(ViolationKind::Liveness),
        ]
        .into_iter()
        .find(|expect| expect.as_str() == word)
        .ok_or_else(|| format!("unknown expectation `{word}`"))
    }
}

/// The lowercase engine word of fixtures, reports and the `explore`
/// command line.
pub(crate) fn engine_word(engine: Protocol) -> &'static str {
    match engine {
        Protocol::Turquois => "turquois",
        Protocol::Bracha => "bracha",
        Protocol::Abba => "abba",
    }
}

/// Parses `engine_word` output.
pub fn parse_engine(word: &str) -> Option<Protocol> {
    Protocol::ALL.into_iter().find(|&p| engine_word(p) == word)
}

/// Renders a schedule in the canonical fixture format.
pub fn to_text(s: &Schedule, expect: Expectation, comments: &[&str]) -> String {
    let mut out = String::new();
    for c in comments {
        out.push_str("# ");
        out.push_str(c);
        out.push('\n');
    }
    out.push_str(&format!("engine {}\n", engine_word(s.engine)));
    out.push_str(&format!("n {}\n", s.n));
    out.push_str(&format!("seed {}\n", s.seed));
    out.push_str(&format!("window {}\n", s.window));
    out.push_str(&format!("max-rounds {}\n", s.max_rounds));
    let bits: Vec<&str> = s.proposals.iter().map(|&p| if p { "1" } else { "0" }).collect();
    out.push_str(&format!("proposals {}\n", bits.join(" ")));
    for b in &s.byz {
        out.push_str(&format!("byz {} {} {}\n", b.id, b.strategy.name(), b.mask));
    }
    if let Some(p) = &s.partition {
        out.push_str(&format!(
            "partition {} {} {}\n",
            p.mask, p.split_round, p.heal_round
        ));
    }
    for f in &s.faults {
        match f.kind {
            FaultKind::Drop => {
                out.push_str(&format!("fault drop {} {} {}\n", f.round, f.from, f.to))
            }
            FaultKind::Delay(by) => out.push_str(&format!(
                "fault delay {} {} {} {}\n",
                f.round, f.from, f.to, by
            )),
            FaultKind::Duplicate => {
                out.push_str(&format!("fault dup {} {} {}\n", f.round, f.from, f.to))
            }
        }
    }
    out.push_str(&format!("expect {}\n", expect.as_str()));
    out
}

/// Parses a fixture back into a schedule and its expectation.
///
/// Errors carry the offending line. Unknown keys are errors (fixtures
/// are checked in; silent tolerance would mask typos).
pub fn parse(text: &str) -> Result<(Schedule, Expectation), String> {
    let mut engine = None;
    let mut n = None;
    let mut seed = None;
    let mut window = None;
    let mut max_rounds = None;
    let mut proposals = None;
    let mut byz = Vec::new();
    let mut partition = None;
    let mut faults = Vec::new();
    let mut expect = None;

    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let key = words.next().expect("non-empty line has a first word");
        let rest: Vec<&str> = words.collect();
        let ctx = |e: String| format!("{e} in line `{raw}`");
        match key {
            "engine" => {
                let name = one(&rest).map_err(ctx)?;
                engine =
                    Some(parse_engine(name).ok_or_else(|| ctx(format!("unknown engine `{name}`")))?);
            }
            "n" => n = Some(num::<usize>(one(&rest).map_err(ctx)?).map_err(ctx)?),
            "seed" => seed = Some(num::<u64>(one(&rest).map_err(ctx)?).map_err(ctx)?),
            "window" => window = Some(num::<u32>(one(&rest).map_err(ctx)?).map_err(ctx)?),
            "max-rounds" => max_rounds = Some(num::<u32>(one(&rest).map_err(ctx)?).map_err(ctx)?),
            "proposals" => {
                let mut bits = Vec::new();
                for w in &rest {
                    bits.push(match *w {
                        "1" => true,
                        "0" => false,
                        other => return Err(ctx(format!("proposal bit `{other}`"))),
                    });
                }
                proposals = Some(bits);
            }
            "byz" => {
                if rest.len() != 3 {
                    return Err(ctx("byz needs `id strategy mask`".into()));
                }
                byz.push(ByzSpec {
                    id: num(rest[0]).map_err(ctx)?,
                    strategy: ByzStrategy::parse(rest[1])
                        .ok_or_else(|| ctx(format!("unknown strategy `{}`", rest[1])))?,
                    mask: num(rest[2]).map_err(ctx)?,
                });
            }
            "partition" => {
                if rest.len() != 3 {
                    return Err(ctx("partition needs `mask split-round heal-round`".into()));
                }
                if partition.is_some() {
                    return Err(ctx("duplicate partition line".into()));
                }
                partition = Some(Partition {
                    mask: num(rest[0]).map_err(ctx)?,
                    split_round: num(rest[1]).map_err(ctx)?,
                    heal_round: num(rest[2]).map_err(ctx)?,
                });
            }
            "fault" => {
                let (kind_word, args) = rest
                    .split_first()
                    .ok_or_else(|| ctx("fault needs a kind".into()))?;
                let (kind, expect_args) = match *kind_word {
                    "drop" => (FaultKind::Drop, 3),
                    "dup" => (FaultKind::Duplicate, 3),
                    "delay" => (FaultKind::Delay(0), 4),
                    other => return Err(ctx(format!("unknown fault kind `{other}`"))),
                };
                if args.len() != expect_args {
                    return Err(ctx(format!("fault {kind_word} needs {expect_args} args")));
                }
                let kind = if let FaultKind::Delay(_) = kind {
                    FaultKind::Delay(num(args[3]).map_err(ctx)?)
                } else {
                    kind
                };
                faults.push(Fault {
                    round: num(args[0]).map_err(ctx)?,
                    from: num(args[1]).map_err(ctx)?,
                    to: num(args[2]).map_err(ctx)?,
                    kind,
                });
            }
            "expect" => expect = Some(Expectation::parse(one(&rest).map_err(ctx)?).map_err(ctx)?),
            other => return Err(ctx(format!("unknown key `{other}`"))),
        }
    }

    let schedule = Schedule {
        engine: engine.ok_or("missing `engine` line")?,
        n: n.ok_or("missing `n` line")?,
        seed: seed.ok_or("missing `seed` line")?,
        proposals: proposals.ok_or("missing `proposals` line")?,
        byz,
        window: window.ok_or("missing `window` line")?,
        max_rounds: max_rounds.ok_or("missing `max-rounds` line")?,
        faults,
        partition,
    };
    let n = schedule.n;
    if !(1..=64).contains(&n) {
        return Err(format!("n = {n} outside 1..=64 (masks are 64-bit)"));
    }
    if schedule.proposals.len() != n {
        return Err(format!("proposals has {} bits but n = {n}", schedule.proposals.len()));
    }
    if let Some(b) = schedule.byz.iter().find(|b| b.id >= n) {
        return Err(format!("byz id {} out of range for n = {n}", b.id));
    }
    let mut ids: Vec<usize> = schedule.byz.iter().map(|b| b.id).collect();
    ids.sort_unstable();
    if let Some(pair) = ids.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(format!("byz id {} repeated", pair[0]));
    }
    let (t, f) = (schedule.t(), schedule.config().f());
    if t > f {
        return Err(format!("{t} Byzantine processes exceed f = {f} for n = {n}"));
    }
    if let Some(f) = schedule.faults.iter().find(|f| f.from.max(f.to) >= n) {
        return Err(format!("fault endpoint {} out of range for n = {n}", f.from.max(f.to)));
    }
    Ok((schedule, expect.ok_or("missing `expect` line")?))
}

fn one<'a>(rest: &[&'a str]) -> Result<&'a str, String> {
    match rest {
        [w] => Ok(w),
        _ => Err(format!("expected exactly one value, got {}", rest.len())),
    }
}

fn num<T: std::str::FromStr>(word: &str) -> Result<T, String> {
    word.parse().map_err(|_| format!("bad number `{word}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            engine: Protocol::Turquois,
            n: 5,
            seed: 12345,
            proposals: vec![true, false, true, false, true],
            byz: vec![ByzSpec {
                id: 4,
                mask: 0b00011,
                strategy: ByzStrategy::SplitBrain,
            }],
            window: 4,
            max_rounds: 40,
            faults: vec![
                Fault { round: 1, from: 0, to: 3, kind: FaultKind::Drop },
                Fault { round: 2, from: 1, to: 3, kind: FaultKind::Delay(2) },
                Fault { round: 3, from: 0, to: 1, kind: FaultKind::Duplicate },
            ],
            partition: None,
        }
    }

    #[test]
    fn round_trips_byte_for_byte() {
        let text = to_text(&sample(), Expectation::Clean, &["a comment"]);
        let (parsed, expect) = parse(&text).unwrap();
        assert_eq!(parsed, sample());
        assert_eq!(expect, Expectation::Clean);
        // Canonical: re-rendering the parse (minus comments) is stable.
        let text2 = to_text(&parsed, expect, &[]);
        let (parsed2, _) = parse(&text2).unwrap();
        assert_eq!(parsed2, parsed);
        assert_eq!(to_text(&parsed2, expect, &[]), text2);
        for engine in Protocol::ALL {
            let s = Schedule { engine, ..sample() };
            assert_eq!(parse(&to_text(&s, expect, &[])).unwrap().0, s, "{engine:?}");
        }
    }

    #[test]
    fn all_expectations_round_trip() {
        for e in [
            Expectation::Clean,
            Expectation::Violation(ViolationKind::Agreement),
            Expectation::Violation(ViolationKind::Validity),
            Expectation::Violation(ViolationKind::Liveness),
        ] {
            let text = to_text(&sample(), e, &[]);
            assert_eq!(parse(&text).unwrap().1, e);
        }
    }

    #[test]
    fn partition_line_round_trips() {
        let mut s = sample();
        s.partition = Some(Partition {
            mask: 0b00111,
            split_round: 1,
            heal_round: 9,
        });
        let text = to_text(&s, Expectation::Clean, &[]);
        assert!(text.contains("partition 7 1 9\n"), "{text}");
        let (parsed, _) = parse(&text).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(to_text(&parsed, Expectation::Clean, &[]), text);
    }

    #[test]
    fn rejects_malformed_fixtures() {
        assert!(parse("").is_err());
        assert!(parse("engine nope\n").is_err());
        let text = to_text(&sample(), Expectation::Clean, &[]);
        assert!(parse(&text.replace("expect clean", "expect sideways")).is_err());
        assert!(parse(&text.replace("n 5", "n 3")).is_err(), "proposal/n mismatch");
        assert!(parse(&(text.clone() + "wobble 3\n")).is_err(), "unknown key");
        assert!(
            parse(&(text.clone() + "partition 3 1\n")).is_err(),
            "partition arity"
        );
        assert!(
            parse(&(text.clone() + "partition 3 1 9\npartition 3 1 9\n")).is_err(),
            "duplicate partition"
        );
        let unbounded = |n: usize| {
            let proposals = vec!["1"; n].join(" ");
            let head = "engine turquois\nseed 1\nwindow 1\nmax-rounds 9\n";
            format!("{head}n {n}\nproposals {proposals}\nexpect clean\n")
        };
        assert!(parse(&unbounded(64)).is_ok(), "n = 64 is the widest mask");
        assert!(parse(&unbounded(65)).is_err(), "n past the 64-bit masks");
        assert!(parse(&unbounded(0)).is_err(), "zero processes");
        let n4 = Schedule { n: 4, proposals: vec![true; 4], byz: Vec::new(), ..sample() };
        let n4 = to_text(&n4, Expectation::Clean, &[]);
        let byz = |lines: &str| n4.replace("expect clean", &format!("{lines}expect clean"));
        assert!(parse(&byz("byz 3 flip 0\n")).is_ok());
        assert!(parse(&byz("byz 3 flip 0\nbyz 3 flip 0\n")).is_err(), "repeated byz id");
        assert!(parse(&byz("byz 2 flip 0\nbyz 3 flip 0\n")).is_err(), "t = 2 exceeds f = 1");
        let fault = |old: &str, new: &str| parse(&text.replace(old, new));
        assert!(fault("fault drop 1 0 3", "fault drop 1 0 5").is_err(), "fault receiver ≥ n");
        assert!(fault("fault dup 3 0 1", "fault dup 3 7 1").is_err(), "fault sender ≥ n");
    }
}
