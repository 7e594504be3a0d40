//! Crash-safe search journals.
//!
//! A journal is a single JSON file that captures everything needed to
//! resume an interrupted search: the strategy's [`StrategySnapshot`]
//! (DFS/CB frontier stack or random-walk RNG state), the cumulative
//! [`SearchStats`] at the last execution boundary, and whatever run-level
//! context the caller embeds alongside (the CLI stores its workload and
//! flag set; the fuzz campaign stores its shard cursor).
//!
//! Writes are **atomic**: the document is serialized to `<path>.tmp` in
//! the same directory, fsynced, and renamed over the target, so a crash
//! — even `SIGKILL` — leaves either the previous complete journal or the
//! new complete journal, never a torn file. Transient write failures
//! (`ENOSPC`, `EINTR`, …) are retried with exponential backoff; after
//! [`WritePolicy::max_failures`] *consecutive* failed checkpoints the
//! writer degrades to in-memory-only mode and records a warning the
//! final report surfaces, rather than aborting or stalling the search.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use chess_core::{
    BudgetKind, Counterexample, CounterexampleKind, Divergence, DivergenceKind, FrameSnapshot,
    SearchCheckpoint, SearchOutcome, SearchReport, SearchStats, StrategySnapshot,
};
use chess_kernel::ThreadId;

use crate::json::{schedule_from_json, schedule_to_json, Json};

/// Journal format version, bumped on incompatible layout changes.
pub const JOURNAL_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------

/// Serializes cumulative search statistics.
pub fn stats_to_json(stats: &SearchStats) -> Json {
    Json::object([
        ("executions", Json::UInt(stats.executions)),
        ("transitions", Json::UInt(stats.transitions)),
        ("terminating", Json::UInt(stats.terminating)),
        ("nonterminating", Json::UInt(stats.nonterminating)),
        ("abandoned", Json::UInt(stats.abandoned)),
        ("deadlocks", Json::UInt(stats.deadlocks)),
        ("violations", Json::UInt(stats.violations)),
        ("divergences", Json::UInt(stats.divergences)),
        ("fair_cycles", Json::UInt(stats.fair_cycles)),
        ("unfair_cycles", Json::UInt(stats.unfair_cycles)),
        ("panics", Json::UInt(stats.panics)),
        ("worker_restarts", Json::UInt(stats.worker_restarts)),
        ("lost_to_restart", Json::UInt(stats.lost_to_restart)),
        (
            "first_error_execution",
            match stats.first_error_execution {
                Some(n) => Json::UInt(n),
                None => Json::Null,
            },
        ),
        ("max_depth", Json::UInt(stats.max_depth as u64)),
        ("wall_nanos", Json::UInt(stats.wall.as_nanos() as u64)),
    ])
}

fn field_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("journal: missing or non-integer field '{key}'"))
}

/// Parses statistics serialized by [`stats_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or ill-typed field.
pub fn stats_from_json(json: &Json) -> Result<SearchStats, String> {
    Ok(SearchStats {
        executions: field_u64(json, "executions")?,
        transitions: field_u64(json, "transitions")?,
        terminating: field_u64(json, "terminating")?,
        nonterminating: field_u64(json, "nonterminating")?,
        abandoned: field_u64(json, "abandoned")?,
        deadlocks: field_u64(json, "deadlocks")?,
        violations: field_u64(json, "violations")?,
        divergences: field_u64(json, "divergences")?,
        fair_cycles: field_u64(json, "fair_cycles")?,
        unfair_cycles: field_u64(json, "unfair_cycles")?,
        panics: field_u64(json, "panics")?,
        worker_restarts: field_u64(json, "worker_restarts")?,
        // Added after JOURNAL_VERSION 1 shipped; journals written before
        // it simply have no lost work on record, so parse leniently.
        lost_to_restart: json
            .get("lost_to_restart")
            .map(|v| v.as_u64().ok_or("journal: bad field 'lost_to_restart'"))
            .transpose()?
            .unwrap_or(0),
        first_error_execution: match json.get("first_error_execution") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or("journal: bad field 'first_error_execution'")?,
            ),
        },
        max_depth: field_u64(json, "max_depth")? as usize,
        wall: Duration::from_nanos(field_u64(json, "wall_nanos")?),
    })
}

fn rng_to_json(rng: &[u64; 4]) -> Json {
    Json::array(rng.iter().map(|&w| Json::UInt(w)))
}

fn rng_from_json(json: &Json) -> Result<[u64; 4], String> {
    let words = json
        .as_array()
        .ok_or("journal: rng state is not an array")?;
    if words.len() != 4 {
        return Err(format!(
            "journal: rng state has {} words, not 4",
            words.len()
        ));
    }
    let mut out = [0u64; 4];
    for (i, w) in words.iter().enumerate() {
        out[i] = w.as_u64().ok_or("journal: non-integer rng word")?;
    }
    Ok(out)
}

fn frames_to_json(stack: &[FrameSnapshot]) -> Json {
    Json::array(stack.iter().map(|f| {
        Json::object([
            ("options", schedule_to_json(&f.options)),
            ("index", Json::UInt(f.index as u64)),
        ])
    }))
}

fn frames_from_json(json: &Json) -> Result<Vec<FrameSnapshot>, String> {
    let items = json
        .as_array()
        .ok_or("journal: frame stack is not an array")?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let options = schedule_from_json(
            item.get("options")
                .ok_or_else(|| format!("journal: frame {i} has no options"))?,
        )?;
        let index = field_u64(item, "index")? as usize;
        out.push(FrameSnapshot { options, index });
    }
    Ok(out)
}

fn opt_usize_to_json(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::UInt(n as u64),
        None => Json::Null,
    }
}

fn opt_usize_from_json(json: Option<&Json>) -> Result<Option<usize>, String> {
    match json {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or("journal: bad optional integer".into()),
    }
}

/// Serializes a strategy snapshot (tagged by `kind`).
pub fn snapshot_to_json(snapshot: &StrategySnapshot) -> Json {
    match snapshot {
        StrategySnapshot::Dfs {
            stack,
            horizon,
            rng,
        } => Json::object([
            ("kind", Json::Str("dfs".into())),
            ("stack", frames_to_json(stack)),
            ("horizon", opt_usize_to_json(*horizon)),
            ("rng", rng_to_json(rng)),
        ]),
        StrategySnapshot::Cb {
            bound,
            budget,
            stack,
            horizon,
            rng,
            charge_fairness_switches,
        } => Json::object([
            ("kind", Json::Str("cb".into())),
            ("bound", Json::UInt(u64::from(*bound))),
            ("budget", Json::UInt(u64::from(*budget))),
            ("stack", frames_to_json(stack)),
            ("horizon", opt_usize_to_json(*horizon)),
            ("rng", rng_to_json(rng)),
            (
                "charge_fairness_switches",
                Json::Bool(*charge_fairness_switches),
            ),
        ]),
        StrategySnapshot::Random { seed, rng } => Json::object([
            ("kind", Json::Str("random".into())),
            ("seed", Json::UInt(*seed)),
            ("rng", rng_to_json(rng)),
        ]),
    }
}

/// Parses a snapshot serialized by [`snapshot_to_json`].
///
/// # Errors
///
/// Returns a message naming the unknown kind or the first bad field.
pub fn snapshot_from_json(json: &Json) -> Result<StrategySnapshot, String> {
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("journal: snapshot has no kind")?;
    let stack = |j: &Json| frames_from_json(j.get("stack").unwrap_or(&Json::Array(Vec::new())));
    match kind {
        "dfs" => {
            // Journals of older versions carry the continuation-first
            // ordering this search no longer has; resuming one that used
            // it would silently run a different search.
            if json.get("prefer_continuation").and_then(Json::as_bool) == Some(true) {
                return Err(
                    "journal: dfs snapshot uses the continuation-first ordering, \
                     which this version cannot resume"
                        .into(),
                );
            }
            Ok(StrategySnapshot::Dfs {
                stack: stack(json)?,
                horizon: opt_usize_from_json(json.get("horizon"))?,
                rng: rng_from_json(json.get("rng").ok_or("journal: dfs snapshot has no rng")?)?,
            })
        }
        "cb" => Ok(StrategySnapshot::Cb {
            bound: field_u64(json, "bound")? as u32,
            budget: field_u64(json, "budget")? as u32,
            stack: stack(json)?,
            horizon: opt_usize_from_json(json.get("horizon"))?,
            rng: rng_from_json(json.get("rng").ok_or("journal: cb snapshot has no rng")?)?,
            charge_fairness_switches: json
                .get("charge_fairness_switches")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        }),
        "random" => Ok(StrategySnapshot::Random {
            seed: field_u64(json, "seed")?,
            rng: rng_from_json(
                json.get("rng")
                    .ok_or("journal: random snapshot has no rng")?,
            )?,
        }),
        other => Err(format!("journal: unknown snapshot kind '{other}'")),
    }
}

/// Serializes a whole explorer checkpoint (version + strategy + stats).
pub fn checkpoint_to_json(ckpt: &SearchCheckpoint) -> Json {
    Json::object([
        ("version", Json::UInt(JOURNAL_VERSION)),
        ("strategy", snapshot_to_json(&ckpt.strategy)),
        ("stats", stats_to_json(&ckpt.stats)),
    ])
}

/// Parses a checkpoint serialized by [`checkpoint_to_json`].
///
/// # Errors
///
/// Rejects unknown versions and malformed strategy or stats sections.
pub fn checkpoint_from_json(json: &Json) -> Result<SearchCheckpoint, String> {
    let version = field_u64(json, "version")?;
    if version != JOURNAL_VERSION {
        return Err(format!(
            "journal: version {version} is not supported (expected {JOURNAL_VERSION})"
        ));
    }
    Ok(SearchCheckpoint {
        strategy: snapshot_from_json(json.get("strategy").ok_or("journal: no strategy section")?)?,
        stats: stats_from_json(json.get("stats").ok_or("journal: no stats section")?)?,
    })
}

// ---------------------------------------------------------------------
// Search-report codec
// ---------------------------------------------------------------------

fn counterexample_to_json(c: &Counterexample) -> Json {
    Json::object([
        ("message", Json::Str(c.message.clone())),
        ("schedule", schedule_to_json(&c.schedule)),
        ("execution", Json::UInt(c.execution)),
    ])
}

fn counterexample_from_json(
    json: &Json,
    kind: CounterexampleKind,
) -> Result<Counterexample, String> {
    Ok(Counterexample {
        kind,
        message: json
            .get("message")
            .and_then(Json::as_str)
            .ok_or("report: counterexample has no message")?
            .to_string(),
        schedule: schedule_from_json(
            json.get("schedule")
                .ok_or("report: counterexample has no schedule")?,
        )?,
        execution: field_u64(json, "execution")?,
    })
}

fn divergence_to_json(d: &Divergence) -> Json {
    let kind = match &d.kind {
        DivergenceKind::FairCycle {
            cycle_start,
            cycle_len,
        } => Json::object([
            ("kind", Json::Str("fair_cycle".into())),
            ("cycle_start", Json::UInt(*cycle_start as u64)),
            ("cycle_len", Json::UInt(*cycle_len as u64)),
        ]),
        DivergenceKind::UnfairCycle {
            cycle_start,
            cycle_len,
            starved,
        } => Json::object([
            ("kind", Json::Str("unfair_cycle".into())),
            ("cycle_start", Json::UInt(*cycle_start as u64)),
            ("cycle_len", Json::UInt(*cycle_len as u64)),
            ("starved", Json::UInt(starved.index() as u64)),
        ]),
        DivergenceKind::GoodSamaritanSuspect {
            thread,
            steps_without_yield,
        } => Json::object([
            ("kind", Json::Str("gs_suspect".into())),
            ("thread", Json::UInt(thread.index() as u64)),
            ("steps_without_yield", Json::UInt(*steps_without_yield)),
        ]),
        DivergenceKind::LivelockSuspect => {
            Json::object([("kind", Json::Str("livelock_suspect".into()))])
        }
    };
    Json::object([
        ("divergence", kind),
        ("schedule", schedule_to_json(&d.schedule)),
        ("execution", Json::UInt(d.execution)),
    ])
}

fn divergence_from_json(json: &Json) -> Result<Divergence, String> {
    let k = json
        .get("divergence")
        .ok_or("report: divergence has no kind object")?;
    let kind = match k.get("kind").and_then(Json::as_str) {
        Some("fair_cycle") => DivergenceKind::FairCycle {
            cycle_start: field_u64(k, "cycle_start")? as usize,
            cycle_len: field_u64(k, "cycle_len")? as usize,
        },
        Some("unfair_cycle") => DivergenceKind::UnfairCycle {
            cycle_start: field_u64(k, "cycle_start")? as usize,
            cycle_len: field_u64(k, "cycle_len")? as usize,
            starved: ThreadId::new(field_u64(k, "starved")? as usize),
        },
        Some("gs_suspect") => DivergenceKind::GoodSamaritanSuspect {
            thread: ThreadId::new(field_u64(k, "thread")? as usize),
            steps_without_yield: field_u64(k, "steps_without_yield")?,
        },
        Some("livelock_suspect") => DivergenceKind::LivelockSuspect,
        other => return Err(format!("report: unknown divergence kind {other:?}")),
    };
    Ok(Divergence {
        kind,
        schedule: schedule_from_json(
            json.get("schedule")
                .ok_or("report: divergence has no schedule")?,
        )?,
        execution: field_u64(json, "execution")?,
    })
}

fn budget_to_str(kind: BudgetKind) -> &'static str {
    match kind {
        BudgetKind::Executions => "executions",
        BudgetKind::Time => "time",
        BudgetKind::Cancelled => "cancelled",
        BudgetKind::WorkerPanicked => "worker_panicked",
    }
}

fn outcome_to_json(outcome: &SearchOutcome) -> Json {
    match outcome {
        SearchOutcome::Complete => Json::object([("kind", Json::Str("complete".into()))]),
        SearchOutcome::SafetyViolation(c) => Json::object([
            ("kind", Json::Str("safety_violation".into())),
            ("counterexample", counterexample_to_json(c)),
        ]),
        SearchOutcome::Deadlock(c) => Json::object([
            ("kind", Json::Str("deadlock".into())),
            ("counterexample", counterexample_to_json(c)),
        ]),
        SearchOutcome::Panic(c) => Json::object([
            ("kind", Json::Str("panic".into())),
            ("counterexample", counterexample_to_json(c)),
        ]),
        SearchOutcome::Divergence(d) => Json::object([
            ("kind", Json::Str("divergence".into())),
            ("divergence", divergence_to_json(d)),
        ]),
        SearchOutcome::BudgetExhausted(k) => Json::object([
            ("kind", Json::Str("budget_exhausted".into())),
            ("budget", Json::Str(budget_to_str(*k).into())),
        ]),
    }
}

fn outcome_from_json(json: &Json) -> Result<SearchOutcome, String> {
    let kind = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("report: outcome has no kind")?;
    let cex = |k: CounterexampleKind| {
        counterexample_from_json(
            json.get("counterexample")
                .ok_or("report: outcome has no counterexample")?,
            k,
        )
    };
    match kind {
        "complete" => Ok(SearchOutcome::Complete),
        "safety_violation" => Ok(SearchOutcome::SafetyViolation(cex(
            CounterexampleKind::Safety,
        )?)),
        "deadlock" => Ok(SearchOutcome::Deadlock(cex(CounterexampleKind::Deadlock)?)),
        "panic" => Ok(SearchOutcome::Panic(cex(CounterexampleKind::Panic)?)),
        "divergence" => Ok(SearchOutcome::Divergence(divergence_from_json(
            json.get("divergence")
                .ok_or("report: outcome has no divergence")?,
        )?)),
        "budget_exhausted" => match json.get("budget").and_then(Json::as_str) {
            Some("executions") => Ok(SearchOutcome::BudgetExhausted(BudgetKind::Executions)),
            Some("time") => Ok(SearchOutcome::BudgetExhausted(BudgetKind::Time)),
            Some("cancelled") => Ok(SearchOutcome::BudgetExhausted(BudgetKind::Cancelled)),
            Some("worker_panicked") => {
                Ok(SearchOutcome::BudgetExhausted(BudgetKind::WorkerPanicked))
            }
            other => Err(format!("report: unknown budget kind {other:?}")),
        },
        other => Err(format!("report: unknown outcome kind '{other}'")),
    }
}

/// Serializes a whole [`SearchReport`] — outcome (with counterexample or
/// divergence evidence, schedules included) plus statistics. This is how
/// shard workers ship their full reports to the campaign daemon, which
/// merges them with `chess_core::merge_contiguous_shards` /
/// `merge_seed_shards` into the report of the unsharded search.
pub fn report_to_json(report: &SearchReport) -> Json {
    Json::object([
        ("outcome", outcome_to_json(&report.outcome)),
        ("stats", stats_to_json(&report.stats)),
    ])
}

/// Parses a report serialized by [`report_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or ill-typed field.
pub fn report_from_json(json: &Json) -> Result<SearchReport, String> {
    Ok(SearchReport {
        outcome: outcome_from_json(json.get("outcome").ok_or("report: no outcome section")?)?,
        stats: stats_from_json(json.get("stats").ok_or("report: no stats section")?)?,
    })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Retry and degradation policy of a [`JournalWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritePolicy {
    /// Retries per write attempt (beyond the first try).
    pub retries: u32,
    /// Base backoff between retries, doubled each time.
    pub backoff: Duration,
    /// Consecutive failed checkpoints before the writer degrades to
    /// in-memory-only mode.
    pub max_failures: u32,
}

impl Default for WritePolicy {
    fn default() -> Self {
        WritePolicy {
            retries: 3,
            backoff: Duration::from_millis(10),
            max_failures: 3,
        }
    }
}

/// Atomically persists journal documents, retrying transient failures
/// and degrading gracefully when the disk stays unwritable.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    policy: WritePolicy,
    consecutive_failures: u32,
    degraded: bool,
    last: Option<Json>,
    warnings: Vec<String>,
}

impl JournalWriter {
    /// A writer targeting `path` with the default [`WritePolicy`].
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalWriter::with_policy(path, WritePolicy::default())
    }

    /// A writer with an explicit policy.
    pub fn with_policy(path: impl Into<PathBuf>, policy: WritePolicy) -> Self {
        JournalWriter {
            path: path.into(),
            policy,
            consecutive_failures: 0,
            degraded: false,
            last: Option::None,
            warnings: Vec::new(),
        }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the writer has given up on the disk; the latest document
    /// is still retained in memory ([`JournalWriter::last`]).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Warnings accumulated across writes (failed attempts, the
    /// degradation notice) for the final report.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The most recent document handed to [`JournalWriter::write`].
    pub fn last(&self) -> Option<&Json> {
        self.last.as_ref()
    }

    /// Persists `doc`, returning whether it reached the disk. In
    /// degraded mode the document is only retained in memory.
    pub fn write(&mut self, doc: &Json) -> bool {
        self.last = Some(doc.clone());
        if self.degraded {
            return false;
        }
        let text = doc.to_string_pretty();
        let mut backoff = self.policy.backoff;
        let mut last_err = String::new();
        for attempt in 0..=self.policy.retries {
            match write_atomic(&self.path, &text) {
                Ok(()) => {
                    self.consecutive_failures = 0;
                    return true;
                }
                Err(e) => {
                    last_err = e;
                    if attempt < self.policy.retries && !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    backoff = backoff.saturating_mul(2);
                }
            }
        }
        self.consecutive_failures += 1;
        self.warnings.push(format!(
            "checkpoint write to {} failed after {} attempts: {last_err}",
            self.path.display(),
            self.policy.retries + 1,
        ));
        if self.consecutive_failures >= self.policy.max_failures {
            self.degraded = true;
            self.warnings.push(format!(
                "journal degraded to in-memory mode after {} consecutive write failures; \
                 the search continues but is no longer resumable from disk",
                self.consecutive_failures,
            ));
        }
        false
    }
}

/// Writes `text` to `path` atomically: serialize to a sibling temp file,
/// fsync it, rename over the target.
///
/// # Errors
///
/// Returns a description of the failing syscall.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = sibling_tmp(path);
    let mut file = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    file.write_all(text.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(file);
    fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("journal"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Reads and parses a journal file.
///
/// # Errors
///
/// Returns a message for I/O failures and JSON syntax errors alike.
pub fn read_journal(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chess_core::Decision;
    use chess_kernel::ThreadId;

    fn d(t: usize, c: u32) -> Decision {
        Decision {
            thread: ThreadId::new(t),
            choice: c,
        }
    }

    fn sample_stats() -> SearchStats {
        SearchStats {
            executions: 12,
            transitions: 345,
            terminating: 10,
            nonterminating: 1,
            abandoned: 1,
            deadlocks: 2,
            violations: 3,
            divergences: 1,
            fair_cycles: 1,
            unfair_cycles: 0,
            panics: 1,
            worker_restarts: 2,
            lost_to_restart: 5,
            first_error_execution: Some(4),
            max_depth: 77,
            wall: Duration::from_millis(1234),
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = sample_stats();
        let back =
            stats_from_json(&Json::parse(&stats_to_json(&stats).to_string_pretty()).unwrap())
                .unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn snapshot_round_trips_every_kind() {
        let frames = vec![
            FrameSnapshot {
                options: vec![d(0, 0), d(1, 0)],
                index: 1,
            },
            FrameSnapshot {
                options: vec![d(2, 1)],
                index: 0,
            },
        ];
        let snapshots = [
            StrategySnapshot::Dfs {
                stack: frames.clone(),
                horizon: Some(30),
                rng: [1, 2, 3, 4],
            },
            StrategySnapshot::Cb {
                bound: 2,
                budget: 1,
                stack: frames,
                horizon: None,
                rng: [5, 6, 7, 8],
                charge_fairness_switches: false,
            },
            StrategySnapshot::Random {
                seed: 42,
                rng: [9, 10, 11, 12],
            },
        ];
        for snap in snapshots {
            let text = snapshot_to_json(&snap).to_string_pretty();
            let back = snapshot_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, snap);
        }
    }

    /// A dfs snapshot written before the continuation-first ordering was
    /// removed resumes when it did not use it and is refused when it did.
    #[test]
    fn dfs_snapshot_refuses_the_continuation_first_ordering() {
        let snap = StrategySnapshot::Dfs {
            stack: vec![FrameSnapshot {
                options: vec![d(0, 0), d(1, 0)],
                index: 1,
            }],
            horizon: None,
            rng: [1, 2, 3, 4],
        };
        let json = snapshot_to_json(&snap);
        assert!(json.get("prefer_continuation").is_none());
        let with = |flag: bool| {
            let Json::Object(mut pairs) = json.clone() else {
                panic!("a snapshot is an object")
            };
            pairs.push(("prefer_continuation".into(), Json::Bool(flag)));
            snapshot_from_json(&Json::Object(pairs))
        };
        assert_eq!(with(false), Ok(snap));
        let err = with(true).unwrap_err();
        assert!(err.contains("continuation-first"), "{err}");
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_future_versions() {
        let ckpt = SearchCheckpoint {
            strategy: StrategySnapshot::Random {
                seed: 7,
                rng: [1, 1, 2, 3],
            },
            stats: sample_stats(),
        };
        let json = checkpoint_to_json(&ckpt);
        let back = checkpoint_from_json(&json).unwrap();
        assert_eq!(back.stats, ckpt.stats);
        assert_eq!(back.strategy, ckpt.strategy);

        let Json::Object(mut pairs) = json else {
            panic!("checkpoint is an object")
        };
        pairs[0].1 = Json::UInt(999);
        let err = checkpoint_from_json(&Json::Object(pairs)).unwrap_err();
        assert!(err.contains("version 999"), "{err}");
    }

    #[test]
    fn report_round_trips_every_outcome() {
        let cex = Counterexample {
            kind: CounterexampleKind::Safety,
            message: "lost update: counter == 1".into(),
            schedule: vec![d(0, 0), d(1, 0), d(0, 1)],
            execution: 9,
        };
        let outcomes = [
            SearchOutcome::Complete,
            SearchOutcome::SafetyViolation(cex.clone()),
            SearchOutcome::Deadlock(Counterexample {
                kind: CounterexampleKind::Deadlock,
                ..cex.clone()
            }),
            SearchOutcome::Panic(Counterexample {
                kind: CounterexampleKind::Panic,
                ..cex.clone()
            }),
            SearchOutcome::Divergence(Divergence {
                kind: DivergenceKind::FairCycle {
                    cycle_start: 3,
                    cycle_len: 5,
                },
                schedule: vec![d(1, 0)],
                execution: 2,
            }),
            SearchOutcome::Divergence(Divergence {
                kind: DivergenceKind::UnfairCycle {
                    cycle_start: 0,
                    cycle_len: 2,
                    starved: ThreadId::new(2),
                },
                schedule: vec![],
                execution: 4,
            }),
            SearchOutcome::Divergence(Divergence {
                kind: DivergenceKind::GoodSamaritanSuspect {
                    thread: ThreadId::new(1),
                    steps_without_yield: 150,
                },
                schedule: vec![d(1, 1)],
                execution: 1,
            }),
            SearchOutcome::Divergence(Divergence {
                kind: DivergenceKind::LivelockSuspect,
                schedule: vec![],
                execution: 7,
            }),
            SearchOutcome::BudgetExhausted(BudgetKind::Executions),
            SearchOutcome::BudgetExhausted(BudgetKind::Time),
            SearchOutcome::BudgetExhausted(BudgetKind::Cancelled),
            SearchOutcome::BudgetExhausted(BudgetKind::WorkerPanicked),
        ];
        for outcome in outcomes {
            let report = SearchReport {
                outcome,
                stats: sample_stats(),
            };
            let text = report_to_json(&report).to_string_pretty();
            let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, report);
        }
    }

    #[test]
    fn report_codec_names_the_broken_field() {
        let err = report_from_json(&Json::parse("{}").unwrap()).unwrap_err();
        assert!(err.contains("no outcome"), "{err}");
        let err = report_from_json(
            &Json::parse(r#"{"outcome": {"kind": "weird"}, "stats": {}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown outcome kind"), "{err}");
        let err = report_from_json(
            &Json::parse(r#"{"outcome": {"kind": "budget_exhausted"}, "stats": {}}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("unknown budget kind"), "{err}");
    }

    #[test]
    fn writer_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("chess-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.json");
        let mut w = JournalWriter::new(&path);
        let doc = Json::object([("hello", Json::UInt(1))]);
        assert!(w.write(&doc));
        assert!(!w.degraded());
        assert!(w.warnings().is_empty());
        assert_eq!(read_journal(&path).unwrap(), doc);
        // Overwrite: the reader only ever sees a complete document.
        let doc2 = Json::object([("hello", Json::UInt(2))]);
        assert!(w.write(&doc2));
        assert_eq!(read_journal(&path).unwrap(), doc2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_degrades_after_repeated_failures() {
        // A path inside a directory that does not exist: every write
        // fails deterministically.
        let path = Path::new("/nonexistent-chess-dir/journal.json");
        let mut w = JournalWriter::with_policy(
            path,
            WritePolicy {
                retries: 1,
                backoff: Duration::ZERO,
                max_failures: 2,
            },
        );
        let doc = Json::object([("x", Json::UInt(1))]);
        assert!(!w.write(&doc));
        assert!(!w.degraded(), "one failure is not enough to degrade");
        assert!(!w.write(&doc));
        assert!(w.degraded(), "second consecutive failure degrades");
        // Degraded writes keep the latest document in memory only.
        let doc2 = Json::object([("x", Json::UInt(2))]);
        assert!(!w.write(&doc2));
        assert_eq!(w.last(), Some(&doc2));
        let warnings = w.warnings();
        assert!(
            warnings.iter().any(|w| w.contains("degraded")),
            "{warnings:?}"
        );
    }
}
