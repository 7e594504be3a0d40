//! Known-answer verdicts, read from `expected.txt`.
//!
//! The file is written by hand from sources outside the code under test
//! (the paper's Table 3 bug list, the litmus allowed/forbidden matrix,
//! and which searches must exhaust cleanly), so a checker that starts
//! giving wrong answers fails the benchmark instead of speeding it up.

use std::collections::HashMap;

/// The answer file, compiled in so every checkout carries it.
const EXPECTED_TXT: &str = include_str!("../expected.txt");

/// How a search ended, in the file's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The search space was exhausted without an error.
    Clean,
    /// The execution budget ran out without an error.
    Budget,
    /// A safety violation (assertion or panic).
    Safety,
    /// A deadlock.
    Deadlock,
    /// A divergence: livelock or good-samaritan violation.
    Livelock,
    /// Anything else (time budget, cancellation, lost worker).
    Incomplete,
}

impl Kind {
    /// Parses a kind name.
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "clean" => Kind::Clean,
            "budget" => Kind::Budget,
            "safety" => Kind::Safety,
            "deadlock" => Kind::Deadlock,
            "livelock" => Kind::Livelock,
            "incomplete" => Kind::Incomplete,
            _ => return None,
        })
    }

    /// The kind's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Clean => "clean",
            Kind::Budget => "budget",
            Kind::Safety => "safety",
            Kind::Deadlock => "deadlock",
            Kind::Livelock => "livelock",
            Kind::Incomplete => "incomplete",
        }
    }

    /// The kind of a search outcome.
    pub fn of(outcome: &chess_core::SearchOutcome) -> Kind {
        use chess_core::{BudgetKind, SearchOutcome};
        match outcome {
            SearchOutcome::Complete => Kind::Clean,
            SearchOutcome::SafetyViolation(_) | SearchOutcome::Panic(_) => Kind::Safety,
            SearchOutcome::Deadlock(_) => Kind::Deadlock,
            SearchOutcome::Divergence(_) => Kind::Livelock,
            SearchOutcome::BudgetExhausted(BudgetKind::Executions) => Kind::Budget,
            SearchOutcome::BudgetExhausted(_) => Kind::Incomplete,
        }
    }
}

/// One expected verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// The required outcome kind.
    pub kind: Kind,
    /// The required execution count, when the file pins one.
    pub executions: Option<u64>,
}

/// Every expected verdict, keyed by `(workload, case)`.
#[derive(Debug, Clone)]
pub struct Expected {
    entries: HashMap<(String, String), Expect>,
}

impl Expected {
    /// The compiled-in answer file.
    pub fn load() -> Expected {
        Expected::parse(EXPECTED_TXT).expect("expected.txt is well-formed")
    }

    /// Parses the file format: `#` comments, then one verdict per line,
    /// `<workload> <case> <kind> [executions=<n>]`.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut entries = HashMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |why: &str| format!("expected.txt line {}: {why}: {raw:?}", i + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (workload, case, kind) = match fields[..] {
                [w, c, k] | [w, c, k, _] => (w, c, k),
                _ => return Err(bad("want 3 or 4 fields")),
            };
            let kind = Kind::parse(kind).ok_or_else(|| bad("unknown kind"))?;
            let executions = match fields.get(3) {
                None => None,
                Some(f) => Some(
                    f.strip_prefix("executions=")
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| bad("want executions=<n>"))?,
                ),
            };
            let key = (workload.to_string(), case.to_string());
            if entries.insert(key, Expect { kind, executions }).is_some() {
                return Err(bad("duplicate entry"));
            }
        }
        Ok(Expected { entries })
    }

    /// The expectation for one case, if the file has one.
    pub fn get(&self, workload: &str, case: &str) -> Option<Expect> {
        self.entries
            .get(&(workload.to_string(), case.to_string()))
            .copied()
    }

    /// Checks one verdict. A case the file does not list is a failure:
    /// every verdict the benchmark takes must have a known answer.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(
        &self,
        workload: &str,
        case: &str,
        kind: Kind,
        executions: u64,
    ) -> Result<(), String> {
        let Some(want) = self.get(workload, case) else {
            return Err(format!("{workload}/{case}: no expected verdict"));
        };
        if want.kind != kind {
            return Err(format!(
                "{workload}/{case}: expected {}, got {}",
                want.kind.name(),
                kind.name()
            ));
        }
        match want.executions {
            Some(n) if n != executions => Err(format!(
                "{workload}/{case}: expected {n} executions, got {executions}"
            )),
            _ => Ok(()),
        }
    }
}
