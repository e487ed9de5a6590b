//! The mutant catalogue (`mutants/catalogue.txt`): planted bugs, each
//! with the command that must catch it. The `mutants` binary runs it;
//! the parser and the verdict live here, where the catalogue's own
//! tests share them.

use std::time::Duration;

/// Where the catalogue lives, relative to the repository root.
pub const CATALOGUE: &str = "mutants/catalogue.txt";

/// How long one entry's command may run, its build included.
pub const WALL_LIMIT: Duration = Duration::from_secs(600);

/// One planted bug and the command that must catch it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutant {
    /// Unique name; the binary's arguments select entries by it.
    pub id: String,
    /// The edited file, relative to the repository root.
    pub file: String,
    /// The text replaced; it must occur exactly once in `file`.
    pub find: String,
    /// What replaces it.
    pub replace: String,
    /// The command that must fail, split on whitespace (no shell).
    pub run: String,
    /// Text the failing command must print on stdout or stderr.
    pub expect: String,
}

/// What became of one mutant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The command failed and printed the expected text.
    Killed,
    /// The command succeeded: no guard noticed the edit.
    Survived,
    /// `find` did not occur exactly once, so nothing ran.
    DidNotApply,
    /// The command failed without the expected text (say, a build error).
    WrongMessage,
    /// The command ran past [`WALL_LIMIT`] and was killed.
    TimedOut,
}

/// The verdict on one mutant: `hits` is how often `find` occurred,
/// `passed` whether the command exited 0, `output` its stdout and
/// stderr.
pub fn classify(hits: usize, passed: bool, output: &str, expect: &str, timed_out: bool) -> Outcome {
    match (hits, timed_out, passed) {
        (m, _, _) if m != 1 => Outcome::DidNotApply,
        (_, true, _) => Outcome::TimedOut,
        (_, _, true) => Outcome::Survived,
        _ if output.contains(expect) => Outcome::Killed,
        _ => Outcome::WrongMessage,
    }
}

/// Parses the catalogue: records separated by blank lines, lines
/// starting with `#` comments, one `key value` line per field (`id`,
/// `file`, `find`, `replace`, `run`, `expect`, each exactly once). In
/// `find` and `replace`, `\n` is a line break and `\\` a backslash.
/// Ids must be unique.
pub fn parse(text: &str) -> Result<Vec<Mutant>, String> {
    let mut mutants: Vec<Mutant> = Vec::new();
    let mut fields = Vec::new();
    let lines = text.lines().chain([""]).enumerate();
    for (no, line) in lines.filter(|(_, l)| !l.starts_with('#')) {
        let at = |e: String| format!("{CATALOGUE}:{}: {e}", no + 1);
        if !line.trim().is_empty() {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| at("expected `key value`".into()))?;
            let value = value.trim_start_matches(' ');
            let value = match key {
                "find" | "replace" => unescape(value).map_err(at)?,
                _ => value.to_string(),
            };
            fields.push((key, value));
        } else if !fields.is_empty() {
            let mutant = record(std::mem::take(&mut fields)).map_err(at)?;
            if mutants.iter().any(|m| m.id == mutant.id) {
                return Err(at(format!("duplicate id `{}`", mutant.id)));
            }
            mutants.push(mutant);
        }
    }
    Ok(mutants)
}

/// One record from its `(key, value)` lines.
fn record(mut fields: Vec<(&str, String)>) -> Result<Mutant, String> {
    let mut take = |key: &str| {
        let hits: Vec<usize> = (0..fields.len()).filter(|&i| fields[i].0 == key).collect();
        match hits[..] {
            [at] => Ok(fields.remove(at).1),
            _ => Err(format!("record needs one `{key}` line, has {}", hits.len())),
        }
    };
    let m = Mutant {
        id: take("id")?,
        file: take("file")?,
        find: take("find")?,
        replace: take("replace")?,
        run: take("run")?,
        expect: take("expect")?,
    };
    if let Some((key, _)) = fields.first() {
        return Err(format!("unknown key `{key}` in `{}`", m.id));
    }
    if m.find.is_empty() || m.expect.is_empty() {
        return Err(format!("`{}` has an empty `find` or `expect`", m.id));
    }
    Ok(m)
}

/// Resolves `\\` and `\n`; any other backslash is an error.
fn unescape(value: &str) -> Result<String, String> {
    let parts: Vec<String> = value
        .split("\\\\")
        .map(|p| p.replace("\\n", "\n"))
        .collect();
    match parts.iter().find(|p| p.contains('\\')) {
        Some(part) => Err(format!("unknown escape in `{part}`")),
        None => Ok(parts.join("\\")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const RECORD: &str =
        "id a\nfile f.rs\nfind x > y\\n  z\nreplace x >= y\\\\\nrun cargo test\nexpect boom\n";

    #[test]
    fn a_record_parses_with_its_escapes() {
        let text = format!(
            "# header\n\n{RECORD}\n# between\n{}",
            RECORD.replace("id a", "id b")
        );
        let mutants = parse(&text).unwrap();
        assert_eq!(mutants.len(), 2);
        assert_eq!(mutants[0].find, "x > y\n  z");
        assert_eq!(mutants[0].replace, "x >= y\\");
        assert_eq!(
            (mutants[0].run.as_str(), mutants[1].id.as_str()),
            ("cargo test", "b")
        );
    }

    #[test]
    fn malformed_records_are_refused() {
        for (text, error) in [
            (format!("{RECORD}\n{RECORD}"), "duplicate id `a`"),
            (
                RECORD.replace("expect boom\n", ""),
                "one `expect` line, has 0",
            ),
            (format!("{RECORD}run again\n"), "one `run` line, has 2"),
            (format!("{RECORD}why not\n"), "unknown key `why`"),
            (
                RECORD.replace("y\\\\", "y\\t"),
                "unknown escape in `x >= y\\t`",
            ),
            (RECORD.replace("boom", ""), "empty `find` or `expect`"),
        ] {
            let err = parse(&text).unwrap_err();
            assert!(err.contains(error), "{err}");
        }
    }

    #[test]
    fn the_verdict_is_a_function_of_what_happened() {
        let expect = "decided while split";
        let failed = "test x ... FAILED\nmajority side decided while split\n";
        assert_eq!(classify(1, false, failed, expect, false), Outcome::Killed);
        assert_eq!(classify(1, true, "ok", expect, false), Outcome::Survived);
        assert_eq!(
            classify(0, false, failed, expect, false),
            Outcome::DidNotApply
        );
        assert_eq!(classify(2, true, "", expect, false), Outcome::DidNotApply);
        assert_eq!(
            classify(1, false, "error[E0308]", expect, false),
            Outcome::WrongMessage
        );
        assert_eq!(classify(1, false, failed, expect, true), Outcome::TimedOut);
    }

    /// The catalogue still applies to the working tree: every record
    /// parses and each `find` occurs exactly once in its file, so an
    /// edit that moves a guarded line fails here, not at the next full
    /// catalogue run.
    #[test]
    fn every_catalogue_entry_applies_to_the_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join(CATALOGUE)).expect("the catalogue");
        let mutants = parse(&text).unwrap();
        for id in ["quorum-plant-n5", "quorum-plant-n8", "paper-table-job-panics"] {
            assert!(
                mutants.iter().any(|m| m.id == id),
                "CI's mutation step runs `{id}`"
            );
        }
        for m in &mutants {
            let source = std::fs::read_to_string(root.join(&m.file))
                .unwrap_or_else(|e| panic!("{}: {}: {e}", m.id, m.file));
            let matches = source.matches(&m.find).count();
            assert_eq!(
                matches, 1,
                "{}: `find` occurs {matches} times in {}",
                m.id, m.file
            );
        }
    }
}
