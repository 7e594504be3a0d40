//! Campaign manifests, verdicts, journals, reports, and the campaign
//! driver [`run_jobs`] — the machinery shared by the one-shot
//! `fair-chess serve` front end and the long-running daemon.
//!
//! A campaign is a JSON manifest with a `jobs` array. Each job reaches
//! exactly one terminal [`Verdict`], verdicts are journaled atomically
//! as they arrive, and the final report is rendered in manifest order
//! from deterministic per-job lines — which is what lets a resumed (or
//! cached) campaign reprint its report byte-for-byte.
//!
//! The workload table lives above this crate (in the CLI), so
//! everything that must check a job's semantics takes a *validator*
//! callback instead of hard-coding one.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chess_bench::{read_journal, write_atomic, JournalWriter, Json};
use chess_core::procpool::{
    AttemptFailure, JobOutcome, JobSpec, JobVerdict, PoolConfig, PoolStats, ProcessWorkerFactory,
    Supervisor,
};
use chess_core::{exitcode, SearchReport};

/// Campaign journal format version.
pub const CAMPAIGN_JOURNAL_VERSION: u64 = 1;

/// Validates one job object from a manifest without running it.
///
/// The canonical implementation is the CLI's `workercmd::validate_job`;
/// it is injected because the workload table is defined above this
/// crate.
pub type JobValidator = fn(&Json) -> Result<(), String>;

/// A validated campaign manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Jobs in manifest order; payload is the canonicalized job object.
    pub jobs: Vec<JobSpec>,
    /// FNV-1a digest of the canonicalized manifest text, stored in the
    /// journal so a resume rejects a journal from a different campaign
    /// and the daemon's store keys campaigns content-addressably.
    pub digest: u64,
}

/// A terminal job verdict as the campaign layer records it: failures
/// are kept as display strings so the journal round-trips them exactly
/// and a resumed report reprints byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The job id from the manifest.
    pub id: String,
    /// Attempts consumed to reach the terminal state.
    pub attempts: u32,
    /// What the job ended as.
    pub outcome: VerdictOutcome,
}

/// The two terminal states of a campaign job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictOutcome {
    /// The job produced a result payload (a serialized [`JobResult`]).
    Done {
        /// The worker's result payload.
        payload: String,
    },
    /// The job was quarantined after exhausting its attempts.
    Quarantined {
        /// One display string per failed attempt.
        failures: Vec<String>,
    },
}

impl Verdict {
    /// Converts a pool verdict into the journaled form.
    pub fn from_pool(v: &JobVerdict) -> Verdict {
        Verdict {
            id: v.id.clone(),
            attempts: v.attempts,
            outcome: match &v.outcome {
                JobOutcome::Done { payload } => VerdictOutcome::Done {
                    payload: payload.clone(),
                },
                JobOutcome::Quarantined { failures } => VerdictOutcome::Quarantined {
                    failures: failures.iter().map(|f| f.to_string()).collect(),
                },
            },
        }
    }
}

/// What one campaign job produced: the exit code its outcome maps to
/// under the documented 0–7 contract, a summary line with no wall-clock
/// field, and — for `check` jobs — the full search report, which is how
/// shard workers ship mergeable results to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Exit-code contribution of this job.
    pub code: u8,
    /// Deterministic one-line outcome summary.
    pub line: String,
    /// The full report, when the job was a search.
    pub report: Option<SearchReport>,
}

impl JobResult {
    /// Serializes the result as the pool's result payload.
    pub fn to_payload(&self) -> String {
        let mut fields = vec![
            ("code", Json::UInt(u64::from(self.code))),
            ("line", Json::Str(self.line.clone())),
        ];
        if let Some(report) = &self.report {
            fields.push(("report", chess_bench::report_to_json(report)));
        }
        Json::object(fields).to_string_pretty()
    }

    /// Parses a result payload written by [`JobResult::to_payload`] (or
    /// by older writers that never included a report).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_payload(payload: &str) -> Result<JobResult, String> {
        let json = Json::parse(payload).map_err(|e| format!("job result payload: {e}"))?;
        Ok(JobResult {
            code: json
                .get("code")
                .and_then(Json::as_u64)
                .ok_or("job result has no code")? as u8,
            line: json
                .get("line")
                .and_then(Json::as_str)
                .ok_or("job result has no line")?
                .to_string(),
            report: json
                .get("report")
                .map(chess_bench::report_from_json)
                .transpose()?,
        })
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// Parses and validates a manifest document. `origin` names the source
/// (a file path or the protocol peer) in error messages.
///
/// # Errors
///
/// Rejects manifests without a `jobs` array, jobs without a usable id
/// (empty, whitespace — ids travel in space-delimited protocol
/// headers), duplicate ids, and anything the validator rejects.
pub fn parse_manifest(
    doc: &Json,
    origin: &str,
    validate: JobValidator,
) -> Result<Manifest, String> {
    let Some(Json::Array(items)) = doc.get("jobs") else {
        return Err(format!("{origin}: manifest has no \"jobs\" array"));
    };
    let mut jobs = Vec::with_capacity(items.len());
    let mut seen = HashSet::new();
    for (i, item) in items.iter().enumerate() {
        let id = item
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{origin}: job #{i} has no \"id\""))?;
        if id.is_empty() || id.chars().any(char::is_whitespace) {
            return Err(format!(
                "{origin}: job id {id:?} is empty or contains whitespace"
            ));
        }
        if !seen.insert(id.to_string()) {
            return Err(format!("{origin}: duplicate job id {id:?}"));
        }
        validate(item).map_err(|e| format!("{origin}: job {id:?}: {e}"))?;
        jobs.push(JobSpec {
            id: id.to_string(),
            payload: item.to_string_pretty(),
        });
    }
    // Digest the re-serialized document, not the raw bytes, so
    // insignificant whitespace edits do not orphan a journal.
    Ok(Manifest {
        digest: fnv1a(&doc.to_string_pretty()),
        jobs,
    })
}

/// Reads, parses, and validates a manifest file.
///
/// # Errors
///
/// I/O and syntax errors, plus everything [`parse_manifest`] rejects.
pub fn load_manifest(path: &str, validate: JobValidator) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    parse_manifest(&doc, path, validate)
}

/// FNV-1a over `text` — the digest keying journals and the daemon's
/// content-addressed store.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Journal + status documents
// ---------------------------------------------------------------------

/// The campaign journal document: version, manifest digest, verdicts
/// in completion order.
pub fn journal_doc(digest: u64, verdicts: &[Verdict]) -> Json {
    Json::object([
        ("version", Json::UInt(CAMPAIGN_JOURNAL_VERSION)),
        ("manifest_digest", Json::UInt(digest)),
        (
            "verdicts",
            Json::array(verdicts.iter().map(verdict_to_json)),
        ),
    ])
}

/// Serializes one verdict for the journal.
pub fn verdict_to_json(v: &Verdict) -> Json {
    let outcome = match &v.outcome {
        VerdictOutcome::Done { payload } => Json::object([
            ("kind", Json::Str("done".to_string())),
            ("payload", Json::Str(payload.clone())),
        ]),
        VerdictOutcome::Quarantined { failures } => Json::object([
            ("kind", Json::Str("quarantined".to_string())),
            (
                "failures",
                Json::array(failures.iter().map(|f| Json::Str(f.clone()))),
            ),
        ]),
    };
    Json::object([
        ("id", Json::Str(v.id.clone())),
        ("attempts", Json::UInt(u64::from(v.attempts))),
        ("outcome", outcome),
    ])
}

/// Parses a verdict serialized by [`verdict_to_json`].
///
/// # Errors
///
/// Returns a message naming the first missing or ill-typed field.
pub fn verdict_from_json(json: &Json) -> Result<Verdict, String> {
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .ok_or("verdict has no id")?
        .to_string();
    let attempts = json
        .get("attempts")
        .and_then(Json::as_u64)
        .ok_or("verdict has no attempts")? as u32;
    let outcome = json.get("outcome").ok_or("verdict has no outcome")?;
    let outcome = match outcome.get("kind").and_then(Json::as_str) {
        Some("done") => VerdictOutcome::Done {
            payload: outcome
                .get("payload")
                .and_then(Json::as_str)
                .ok_or("done verdict has no payload")?
                .to_string(),
        },
        Some("quarantined") => {
            let Some(Json::Array(items)) = outcome.get("failures") else {
                return Err("quarantined verdict has no failures array".to_string());
            };
            let mut failures = Vec::with_capacity(items.len());
            for f in items {
                failures.push(f.as_str().ok_or("failure is not a string")?.to_string());
            }
            VerdictOutcome::Quarantined { failures }
        }
        other => return Err(format!("unknown verdict kind {other:?}")),
    };
    Ok(Verdict {
        id,
        attempts,
        outcome,
    })
}

/// Parses a journal document, checking version and — when `digest` is
/// given — that the journal belongs to that manifest.
///
/// # Errors
///
/// Rejects unknown versions, digest mismatches, and malformed verdicts.
pub fn parse_journal_doc(doc: &Json, digest: Option<u64>) -> Result<Vec<Verdict>, String> {
    let version = doc.get("version").and_then(Json::as_u64);
    if version != Some(CAMPAIGN_JOURNAL_VERSION) {
        return Err(format!("unsupported campaign journal version {version:?}"));
    }
    let recorded = doc.get("manifest_digest").and_then(Json::as_u64);
    if let Some(digest) = digest {
        if recorded != Some(digest) {
            return Err(format!(
                "journal was taken for a different manifest \
                 (digest {recorded:?}, expected {digest})"
            ));
        }
    }
    let Some(Json::Array(items)) = doc.get("verdicts") else {
        return Err("journal has no verdicts array".to_string());
    };
    items.iter().map(verdict_from_json).collect()
}

/// Loads a campaign journal file and returns its verdicts, checked
/// against the campaign's expanded jobs by [`pending_jobs`].
///
/// # Errors
///
/// I/O and parse failures and verdicts that are not the campaign's,
/// labeled with the path.
pub fn load_campaign_journal(
    path: &Path,
    digest: u64,
    expanded: &[JobSpec],
) -> Result<Vec<Verdict>, String> {
    let doc = read_journal(path)?;
    parse_journal_doc(&doc, Some(digest))
        .and_then(|verdicts| pending_jobs(expanded, &verdicts).map(|_| verdicts))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The at-a-glance progress document: totals only, cheap to poll. The
/// daemon streams the same shape as `watch` events.
pub fn status_doc(verdicts: &[Verdict], total: usize) -> Json {
    let done = verdicts
        .iter()
        .filter(|v| matches!(v.outcome, VerdictOutcome::Done { .. }))
        .count();
    Json::object([
        ("total", Json::UInt(total as u64)),
        ("done", Json::UInt(done as u64)),
        ("quarantined", Json::UInt((verdicts.len() - done) as u64)),
        ("pending", Json::UInt((total - verdicts.len()) as u64)),
    ])
}

/// Atomically rewrites the advisory status file, if one is configured.
/// A reader polling mid-rewrite always sees a complete document —
/// previous or next, never torn.
pub fn write_status(path: Option<&str>, verdicts: &[Verdict], total: usize) {
    let Some(path) = path else { return };
    let doc = status_doc(verdicts, total);
    if let Err(e) = write_atomic(Path::new(path), &doc.to_string_pretty()) {
        // Status is advisory; never fail a campaign over it.
        eprintln!("warning: status file: {e}");
    }
}

// ---------------------------------------------------------------------
// The campaign driver
// ---------------------------------------------------------------------

/// The worker processes a campaign runs on, and the in-process runner
/// that stands in for them when none can be spawned.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    /// Pool sizing and watchdog knobs.
    pub config: PoolConfig,
    /// The worker binary to re-exec for each pool slot.
    pub program: PathBuf,
    /// Arguments for the worker binary.
    pub args: Vec<String>,
    /// Runs one job in this process: takes the job payload, returns the
    /// result payload. The degraded path when no worker can be spawned.
    pub in_process: fn(&str) -> Result<String, String>,
}

/// What [`run_jobs`] hands back to its front end.
#[derive(Debug)]
pub struct CampaignRun {
    /// Every verdict: the resumed ones, then the new ones in completion
    /// order.
    pub verdicts: Vec<Verdict>,
    /// Pool, degradation and journal warnings, for the front end to
    /// print.
    pub warnings: Vec<String>,
    /// Pool counters.
    pub stats: PoolStats,
    /// Whether the stop flag ended the run before every job was decided.
    pub stopped: bool,
}

/// The expanded jobs that `decided` holds no verdict for, in expansion
/// order: the decided-job filter, and the one check every resumed
/// verdict list passes.
///
/// # Errors
///
/// A verdict for an id that is not an expanded job, or a second verdict
/// for one job: a journal like that would mark the campaign finished
/// while a job has no verdict.
pub fn pending_jobs(expanded: &[JobSpec], decided: &[Verdict]) -> Result<Vec<JobSpec>, String> {
    let ids: HashSet<&str> = expanded.iter().map(|j| j.id.as_str()).collect();
    let mut seen = HashSet::new();
    for v in decided {
        if !ids.contains(v.id.as_str()) {
            return Err(format!(
                "journal has a verdict for {:?}, which is not a job of this campaign",
                v.id
            ));
        }
        if !seen.insert(v.id.as_str()) {
            return Err(format!("journal has two verdicts for job {:?}", v.id));
        }
    }
    Ok(expanded
        .iter()
        .filter(|j| !seen.contains(j.id.as_str()))
        .cloned()
        .collect())
}

/// Runs the undecided jobs of a campaign on `pool` until every job has
/// a verdict or `stop` is raised: the one campaign loop of `serve` and
/// the daemon.
///
/// Each new verdict is appended to the list, shown to `on_verdict`
/// (which sees every verdict so far, the new one last), and then, when
/// `journal` names a file, journaled there with `digest`. If the pool
/// gives jobs back without a stop request, no worker could be kept
/// alive: the leftovers run one by one through `pool.in_process`, each
/// failure quarantined after its one attempt as a handler error.
///
/// # Errors
///
/// `resumed` fails [`pending_jobs`]; nothing has run then.
pub fn run_jobs(
    pool: &WorkerPool,
    digest: u64,
    expanded: &[JobSpec],
    resumed: Vec<Verdict>,
    journal: Option<PathBuf>,
    stop: &Arc<AtomicBool>,
    mut on_verdict: impl FnMut(&[Verdict]),
) -> Result<CampaignRun, String> {
    let todo = pending_jobs(expanded, &resumed)?;
    let mut verdicts = resumed;
    let mut journal = journal.map(JournalWriter::new);
    let mut record = |verdicts: &mut Vec<Verdict>, verdict: &JobVerdict| {
        verdicts.push(Verdict::from_pool(verdict));
        on_verdict(verdicts);
        if let Some(journal) = &mut journal {
            journal.write(&journal_doc(digest, verdicts));
        }
    };

    let factory = ProcessWorkerFactory::new(pool.program.clone(), pool.args.clone());
    let report = Supervisor::new(factory, pool.config.clone())
        .with_stop_flag(Arc::clone(stop))
        .run(todo, |v| record(&mut verdicts, v));
    let mut warnings = report.warnings;
    let mut stopped = report.stopped;
    if !stopped && !report.leftover.is_empty() {
        warnings.push(format!(
            "no worker process available; running {} leftover job(s) in-process \
             without isolation",
            report.leftover.len()
        ));
        for job in report.leftover {
            if stop.load(Ordering::Acquire) {
                stopped = true;
                break;
            }
            // A failure reads as a worker's handler error would.
            let outcome = match (pool.in_process)(&job.payload) {
                Ok(payload) => JobOutcome::Done { payload },
                Err(msg) => JobOutcome::Quarantined {
                    failures: vec![AttemptFailure::HandlerError(msg)],
                },
            };
            let verdict = JobVerdict {
                id: job.id,
                attempts: 1,
                outcome,
            };
            record(&mut verdicts, &verdict);
        }
    }
    if let Some(journal) = &journal {
        warnings.extend_from_slice(journal.warnings());
    }
    Ok(CampaignRun {
        verdicts,
        warnings,
        stats: report.stats,
        stopped,
    })
}

// ---------------------------------------------------------------------
// Final report
// ---------------------------------------------------------------------

/// Exit-code precedence for the campaign's worst job: an actual bug
/// outranks a deadlock outranks a livelock outranks a quarantine
/// outranks an exhausted budget outranks clean.
pub fn severity(code: u8) -> u8 {
    match code {
        exitcode::SAFETY_VIOLATION => 5,
        exitcode::DEADLOCK => 4,
        exitcode::LIVELOCK => 3,
        exitcode::INTERNAL => 2,
        exitcode::INCOMPLETE => 1,
        _ => 0,
    }
}

/// Renders the deterministic final report (manifest order, one line per
/// job, then a summary line) and the campaign exit code.
///
/// # Errors
///
/// Fails when a job has no verdict or a result payload is malformed —
/// both internal-consistency violations, not user errors.
pub fn render_report(manifest: &Manifest, verdicts: &[Verdict]) -> Result<(String, u8), String> {
    let by_id: HashMap<&str, &Verdict> = verdicts.iter().map(|v| (v.id.as_str(), v)).collect();
    let (mut done, mut quarantined) = (0usize, 0usize);
    let mut worst = exitcode::CLEAN;
    let mut out = String::new();
    for job in &manifest.jobs {
        let Some(v) = by_id.get(job.id.as_str()) else {
            return Err(format!("internal: job {:?} has no verdict", job.id));
        };
        let code = match &v.outcome {
            VerdictOutcome::Done { payload } => {
                let result =
                    JobResult::from_payload(payload).map_err(|e| format!("job {:?}: {e}", v.id))?;
                out.push_str(&format!("{}: {}\n", v.id, result.line));
                done += 1;
                result.code
            }
            VerdictOutcome::Quarantined { failures } => {
                out.push_str(&format!(
                    "{}: quarantined after {} attempts ({})\n",
                    v.id,
                    v.attempts,
                    failures.join("; ")
                ));
                quarantined += 1;
                exitcode::INTERNAL
            }
        };
        if severity(code) > severity(worst) {
            worst = code;
        }
    }
    out.push_str(&format!(
        "campaign: {done} of {} jobs done, {quarantined} quarantined\n",
        manifest.jobs.len()
    ));
    Ok((out, worst))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accept_all(_: &Json) -> Result<(), String> {
        Ok(())
    }

    fn sample_verdicts() -> Vec<Verdict> {
        vec![
            Verdict {
                id: "a".to_string(),
                attempts: 1,
                outcome: VerdictOutcome::Done {
                    payload: "{\"code\": 0, \"line\": \"search complete\"}".to_string(),
                },
            },
            Verdict {
                id: "b".to_string(),
                attempts: 3,
                outcome: VerdictOutcome::Quarantined {
                    failures: vec![
                        "worker died".to_string(),
                        "watchdog timeout".to_string(),
                        "protocol violation: \"!!\"".to_string(),
                    ],
                },
            },
        ]
    }

    #[test]
    fn journal_round_trips_verdicts() {
        let verdicts = sample_verdicts();
        let doc = journal_doc(7, &verdicts);
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        let back = parse_journal_doc(&parsed, Some(7)).unwrap();
        assert_eq!(back, verdicts);
        let err = parse_journal_doc(&parsed, Some(8)).unwrap_err();
        assert!(err.contains("different manifest"), "{err}");
    }

    #[test]
    fn severity_orders_the_exit_code_contract() {
        // 1 > 4 > 5 > 7 > 3 > 0
        let order = [
            exitcode::SAFETY_VIOLATION,
            exitcode::DEADLOCK,
            exitcode::LIVELOCK,
            exitcode::INTERNAL,
            exitcode::INCOMPLETE,
            exitcode::CLEAN,
        ];
        for pair in order.windows(2) {
            assert!(
                severity(pair[0]) > severity(pair[1]),
                "{} should outrank {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn manifest_digest_ignores_whitespace_but_not_content() {
        let a = Json::parse(r#"{"jobs": [{"id": "j1", "workload": "counter"}]}"#).unwrap();
        let b =
            Json::parse("{\n  \"jobs\": [ {\"id\": \"j1\",\n    \"workload\": \"counter\"} ]\n}")
                .unwrap();
        let c = Json::parse(r#"{"jobs": [{"id": "j1", "workload": "racy"}]}"#).unwrap();
        let da = parse_manifest(&a, "a", accept_all).unwrap().digest;
        let db = parse_manifest(&b, "b", accept_all).unwrap().digest;
        let dc = parse_manifest(&c, "c", accept_all).unwrap().digest;
        assert_eq!(da, db, "whitespace must not orphan a journal");
        assert_ne!(da, dc, "content changes must be detected");
    }

    #[test]
    fn manifest_rejects_bad_jobs() {
        let check = |text: &str, needle: &str| {
            let doc = Json::parse(text).unwrap();
            let err = parse_manifest(&doc, "m", accept_all).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        check(r#"{"work": []}"#, "no \"jobs\" array");
        check(r#"{"jobs": [{"workload": "counter"}]}"#, "no \"id\"");
        check(r#"{"jobs": [{"id": "a b"}]}"#, "whitespace");
        check(r#"{"jobs": [{"id": "x"}, {"id": "x"}]}"#, "duplicate");
        let doc = Json::parse(r#"{"jobs": [{"id": "x"}]}"#).unwrap();
        let err = parse_manifest(&doc, "m", |_| Err("nope".to_string())).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn job_result_payload_round_trips_with_and_without_report() {
        let bare = JobResult {
            code: 4,
            line: "deadlock: both forks held (execution 9) — 12 executions".to_string(),
            report: None,
        };
        assert_eq!(JobResult::from_payload(&bare.to_payload()).unwrap(), bare);
        let with_report = JobResult {
            code: 0,
            line: "search complete — 3 executions".to_string(),
            report: Some(SearchReport {
                outcome: chess_core::SearchOutcome::Complete,
                stats: chess_core::SearchStats {
                    executions: 3,
                    ..Default::default()
                },
            }),
        };
        assert_eq!(
            JobResult::from_payload(&with_report.to_payload()).unwrap(),
            with_report
        );
    }

    fn job(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            payload: format!("{{\"id\": \"{id}\"}}"),
        }
    }

    fn clean_payload() -> String {
        JobResult {
            code: 0,
            line: "search complete".to_string(),
            report: None,
        }
        .to_payload()
    }

    fn done(id: &str) -> Verdict {
        Verdict {
            id: id.to_string(),
            attempts: 1,
            outcome: VerdictOutcome::Done {
                payload: clean_payload(),
            },
        }
    }

    /// Stands in for a worker: jobs whose id starts with "bad" fail.
    fn fake_in_process(payload: &str) -> Result<String, String> {
        let json = Json::parse(payload).map_err(|e| e.to_string())?;
        if json
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("bad")
        {
            return Err("unknown workload 'nope'".to_string());
        }
        Ok(clean_payload())
    }

    fn unspawnable_pool() -> WorkerPool {
        WorkerPool {
            config: PoolConfig::default(),
            program: PathBuf::from("/nonexistent/fair-chess-worker"),
            args: Vec::new(),
            in_process: fake_in_process,
        }
    }

    #[test]
    fn leftover_jobs_run_in_process_and_failures_are_handler_errors() {
        let dir = std::env::temp_dir().join(format!("chess-run-jobs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.json");
        let expanded = vec![job("a"), job("bad"), job("c")];
        let mut seen = Vec::new();
        let run = run_jobs(
            &unspawnable_pool(),
            7,
            &expanded,
            vec![done("c")],
            Some(journal.clone()),
            &Arc::new(AtomicBool::new(false)),
            |verdicts| seen.push(verdicts.last().unwrap().id.clone()),
        )
        .unwrap();
        assert!(!run.stopped);
        assert!(run.stats.spawn_failures > 0, "{:?}", run.stats);
        assert!(
            run.warnings.iter().any(|w| w.contains("in-process")),
            "{:?}",
            run.warnings
        );
        // The resumed job is not rerun; each new verdict is seen once.
        assert_eq!(seen, ["a", "bad"]);
        let ids: Vec<&str> = run.verdicts.iter().map(|v| v.id.as_str()).collect();
        assert_eq!(ids, ["c", "a", "bad"]);
        assert_eq!(run.verdicts[1], done("a"));
        assert_eq!(
            run.verdicts[2],
            Verdict {
                id: "bad".to_string(),
                attempts: 1,
                outcome: VerdictOutcome::Quarantined {
                    failures: vec!["handler error: unknown workload 'nope'".to_string()],
                },
            }
        );
        // The journal holds every verdict exactly once.
        let journaled = load_campaign_journal(&journal, 7, &expanded).unwrap();
        assert_eq!(journaled, run.verdicts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_raised_stop_flag_ends_the_run_between_leftover_jobs() {
        let stop = Arc::new(AtomicBool::new(false));
        let run = run_jobs(
            &unspawnable_pool(),
            7,
            &[job("a"), job("b"), job("c")],
            Vec::new(),
            None,
            &stop,
            |_| stop.store(true, Ordering::Release),
        )
        .unwrap();
        assert!(run.stopped);
        assert_eq!(run.verdicts, [done("a")]);
    }

    #[test]
    fn resumed_verdicts_must_be_one_per_campaign_job() {
        let expanded = [job("a"), job("b")];
        let todo = pending_jobs(&expanded, &[done("b")]).unwrap();
        assert_eq!(todo, [job("a")]);
        for (decided, needle) in [
            (vec![done("a"), done("a")], "two verdicts for job \"a\""),
            (vec![done("a"), done("z")], "verdict for \"z\""),
        ] {
            let err = pending_jobs(&expanded, &decided).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
            // The driver refuses them before running anything.
            let mut ran = false;
            let err = run_jobs(
                &unspawnable_pool(),
                7,
                &expanded,
                decided,
                None,
                &Arc::new(AtomicBool::new(false)),
                |_| ran = true,
            )
            .unwrap_err();
            assert!(err.contains(needle), "{err:?}");
            assert!(!ran);
        }
    }

    #[test]
    fn report_renders_in_manifest_order_with_worst_code() {
        let doc = Json::parse(r#"{"jobs": [{"id": "a"}, {"id": "b"}]}"#).unwrap();
        let manifest = parse_manifest(&doc, "m", accept_all).unwrap();
        // Completion order b-then-a must not affect the printed order.
        let verdicts: Vec<Verdict> = sample_verdicts().into_iter().rev().collect();
        let (text, code) = render_report(&manifest, &verdicts).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("a: search complete"), "{text}");
        assert!(lines[1].starts_with("b: quarantined after 3"), "{text}");
        assert_eq!(lines[2], "campaign: 1 of 2 jobs done, 1 quarantined");
        assert_eq!(code, exitcode::INTERNAL);
    }
}
