//! End-to-end tests of the `serve` campaign runner: exit-code mapping,
//! fault injection (chaos workers, spawn failure, kill -9 of the
//! supervisor), and torn-journal diagnostics across every command that
//! resumes from a journal.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use chess_bench::Json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fair-chess"))
}

fn fair_chess(args: &[&str]) -> Output {
    bin().args(args).output().expect("failed to run fair-chess")
}

fn fair_chess_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = bin();
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("failed to run fair-chess")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fair-chess-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_manifest(name: &str, text: &str) -> PathBuf {
    let path = temp_dir().join(name);
    std::fs::write(&path, text).unwrap();
    path
}

const MIXED_MANIFEST: &str = r#"{"jobs": [
  {"id": "clean", "workload": "counter", "max_executions": 1000},
  {"id": "racy", "workload": "counter", "bug": "racy", "max_executions": 1000},
  {"id": "dead", "workload": "counter", "bug": "deadlock", "max_executions": 1000},
  {"id": "short", "workload": "philosophers", "max_executions": 5}
]}"#;

#[test]
fn campaign_reports_in_manifest_order_and_maps_the_worst_outcome() {
    let manifest = write_manifest("mixed.json", MIXED_MANIFEST);
    let out = fair_chess(&["serve", manifest.to_str().unwrap(), "--workers", "2"]);
    // Worst of {0, 1, 4, 3} under the documented precedence is the
    // safety violation.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    let order: Vec<usize> = ["clean:", "racy:", "dead:", "short:", "campaign:"]
        .iter()
        .map(|id| text.find(id).unwrap_or_else(|| panic!("no {id} in {text}")))
        .collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "manifest order: {text}"
    );
    assert!(text.contains("racy: safety violation"), "{text}");
    assert!(text.contains("dead: deadlock"), "{text}");
    assert!(text.contains("short: search incomplete"), "{text}");
    assert!(
        text.contains("campaign: 4 of 4 jobs done, 0 quarantined"),
        "{text}"
    );
}

#[test]
fn clean_campaign_exits_zero_and_maintains_the_status_file() {
    let manifest = write_manifest(
        "clean.json",
        r#"{"jobs": [{"id": "a", "workload": "counter", "max_executions": 100},
                     {"id": "b", "workload": "spinloop", "max_executions": 1000}]}"#,
    );
    let status = temp_dir().join("status.json");
    let out = fair_chess(&[
        "serve",
        manifest.to_str().unwrap(),
        "--status-file",
        status.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let status_text = std::fs::read_to_string(&status).unwrap();
    assert!(status_text.contains("\"done\": 2"), "{status_text}");
    assert!(status_text.contains("\"pending\": 0"), "{status_text}");
}

#[test]
fn chaos_abort_quarantines_the_job_and_exits_internal() {
    let manifest = write_manifest(
        "chaos-abort.json",
        r#"{"jobs": [{"id": "doomed", "workload": "counter", "max_executions": 100}]}"#,
    );
    let out = fair_chess_env(
        &["serve", manifest.to_str().unwrap(), "--max-attempts", "2"],
        &[("FAIR_CHESS_CHAOS", "abort:1")],
    );
    assert_eq!(
        out.status.code(),
        Some(7),
        "quarantine must exit 7: {out:?}"
    );
    let text = stdout(&out);
    assert!(
        text.contains("doomed: quarantined after 2 attempts (worker died; worker died)"),
        "{text}"
    );
    assert!(
        text.contains("campaign: 0 of 1 jobs done, 1 quarantined"),
        "{text}"
    );
}

#[test]
fn chaos_hang_trips_the_watchdog() {
    let manifest = write_manifest(
        "chaos-hang.json",
        r#"{"jobs": [{"id": "stuck", "workload": "counter", "max_executions": 100}]}"#,
    );
    let out = fair_chess_env(
        &[
            "serve",
            manifest.to_str().unwrap(),
            "--workers",
            "1",
            "--max-attempts",
            "2",
            "--heartbeat-timeout",
            "0.5",
        ],
        &[("FAIR_CHESS_CHAOS", "hang:1")],
    );
    assert_eq!(out.status.code(), Some(7), "{out:?}");
    assert!(
        stdout(&out).contains("(watchdog timeout; watchdog timeout)"),
        "hung workers must be killed by the watchdog: {out:?}"
    );
}

#[test]
fn chaos_garbage_is_a_protocol_violation() {
    let manifest = write_manifest(
        "chaos-garbage.json",
        r#"{"jobs": [{"id": "noisy", "workload": "counter", "max_executions": 100}]}"#,
    );
    let out = fair_chess_env(
        &["serve", manifest.to_str().unwrap(), "--max-attempts", "2"],
        &[("FAIR_CHESS_CHAOS", "garbage:1")],
    );
    assert_eq!(out.status.code(), Some(7), "{out:?}");
    assert!(stdout(&out).contains("protocol violation"), "{out:?}");
}

#[test]
fn spawn_failure_degrades_to_in_process_execution() {
    let manifest = write_manifest(
        "degraded.json",
        r#"{"jobs": [{"id": "r", "workload": "counter", "bug": "racy", "max_executions": 1000}]}"#,
    );
    let out = fair_chess_env(
        &["serve", manifest.to_str().unwrap()],
        &[("FAIR_CHESS_WORKER_BIN", "/nonexistent/fair-chess")],
    );
    // The campaign still completes — and still reports the bug.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).contains("r: safety violation"), "{out:?}");
    assert!(
        stderr(&out).contains("in-process"),
        "degradation must be loud: {out:?}"
    );
}

/// The acceptance test: `kill -9` the supervisor mid-campaign, resume
/// from its checkpoint, and require the final report byte-identical to
/// the uninterrupted run's.
#[cfg(unix)]
#[test]
fn kill_nine_then_resume_reprints_the_identical_report() {
    // Six jobs of a few hundred milliseconds each: enough runway to
    // kill the supervisor with some verdicts in and some pending.
    let jobs: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"id": "p{i}", "workload": "philosophers", "strategy": "random:{i}",
                    "max_executions": 8000}}"#
            )
        })
        .collect();
    let manifest = write_manifest(
        "kill9.json",
        &format!(r#"{{"jobs": [{}]}}"#, jobs.join(",\n")),
    );
    let manifest_s = manifest.to_str().unwrap();

    let full = fair_chess(&["serve", manifest_s, "--workers", "2"]);
    assert_eq!(full.status.code(), Some(3), "{full:?}");

    let journal = temp_dir().join("kill9-journal.json");
    let journal_s = journal.to_str().unwrap();
    let mut child = bin()
        .args([
            "serve",
            manifest_s,
            "--workers",
            "2",
            "--checkpoint",
            journal_s,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervisor");
    // Wait until at least one verdict is journaled, then SIGKILL: no
    // signal handler runs, so only the atomic rewrites protect state.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let verdicts = std::fs::read_to_string(&journal)
            .map(|t| t.matches("\"attempts\"").count())
            .unwrap_or(0);
        if verdicts >= 1 || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no verdict journaled in 60s");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = Command::new("sh")
        .args(["-c", &format!("kill -9 {}", child.id())])
        .status();
    let _ = child.wait();

    let resumed = fair_chess(&["serve", manifest_s, "--workers", "2", "--resume", journal_s]);
    assert_eq!(resumed.status.code(), Some(3), "{resumed:?}");
    assert!(stderr(&resumed).contains("resuming from"), "{resumed:?}");
    assert_eq!(
        stdout(&resumed),
        stdout(&full),
        "resumed report must be byte-identical"
    );
}

#[cfg(unix)]
#[test]
fn sigint_checkpoints_and_exits_interrupted() {
    // One slow job (a long time budget) so the interrupt lands mid-job.
    let manifest = write_manifest(
        "sigint.json",
        r#"{"jobs": [{"id": "slow", "workload": "miniboot-full", "time_budget_ms": 60000}]}"#,
    );
    let journal = temp_dir().join("sigint-journal.json");
    let mut child = bin()
        .args([
            "serve",
            manifest.to_str().unwrap(),
            "--workers",
            "1",
            "--checkpoint",
            journal.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn supervisor");
    std::thread::sleep(Duration::from_millis(1200));
    assert!(
        child.try_wait().expect("try_wait").is_none(),
        "supervisor finished before it could be interrupted"
    );
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -INT {}", child.id())])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let out = child.wait_with_output().expect("wait for supervisor");
    assert_eq!(
        out.status.code(),
        Some(6),
        "SIGINT must exit 6 (interrupted, resumable): {out:?}"
    );
    assert!(stderr(&out).contains("--resume"), "{out:?}");
}

/// Satellite of the status-file contract: the file is atomically
/// rewritten after every verdict, so a polling reader racing the
/// campaign must never observe a torn document — every successful read
/// parses as JSON with the full counter set.
#[test]
fn concurrent_status_file_reads_are_never_torn() {
    use chess_bench::Json;

    let jobs: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"id": "s{i}", "workload": "philosophers", "strategy": "random:{i}",
                    "max_executions": 6000}}"#
            )
        })
        .collect();
    let manifest = write_manifest(
        "status-poll.json",
        &format!(r#"{{"jobs": [{}]}}"#, jobs.join(",\n")),
    );
    let status = temp_dir().join("status-poll-status.json");
    let mut child = bin()
        .args([
            "serve",
            manifest.to_str().unwrap(),
            "--workers",
            "2",
            "--status-file",
            status.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervisor");

    // Poll as fast as the filesystem lets us while the campaign runs.
    let mut reads = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(text) = std::fs::read_to_string(&status) {
            reads += 1;
            let doc = Json::parse(&text)
                .unwrap_or_else(|e| panic!("torn status read #{reads}: {e}\n{text}"));
            for field in ["total", "done", "quarantined", "pending"] {
                assert!(
                    doc.get(field).and_then(Json::as_u64).is_some(),
                    "status read #{reads} lacks {field}: {text}"
                );
            }
        }
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "campaign did not finish in 120s");
    }
    assert!(reads > 0, "the reader never saw a status file");
    // The final document accounts for every job.
    let text = std::fs::read_to_string(&status).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc.get("total").and_then(Json::as_u64), Some(6), "{text}");
    assert_eq!(doc.get("pending").and_then(Json::as_u64), Some(0), "{text}");
}

// ---------------------------------------------------------------------
// Torn-journal diagnostics
// ---------------------------------------------------------------------

/// Truncates `journal` at several byte offsets and requires every
/// resume attempt to exit 2 with a diagnostic naming the file — and
/// never to panic.
fn assert_truncations_are_diagnosed(journal: &Path, resume: &[&str]) {
    let intact = std::fs::read(journal).unwrap();
    assert!(
        intact.len() > 40,
        "journal too small to truncate: {intact:?}"
    );
    let offsets = [
        0,
        1,
        17,
        intact.len() / 3,
        intact.len() / 2,
        intact.len() - 2,
    ];
    for &offset in &offsets {
        std::fs::write(journal, &intact[..offset]).unwrap();
        let out = fair_chess(resume);
        let err = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "truncation at byte {offset} must be a usage error: {out:?}"
        );
        assert!(
            !err.contains("panicked"),
            "truncation at byte {offset} must not panic: {err}"
        );
        assert!(
            err.contains(journal.file_name().unwrap().to_str().unwrap()),
            "diagnostic must name the journal file: {err}"
        );
        // A clean truncation is a syntax error with a byte offset; one
        // that tears a multi-byte character is a decoding error.
        assert!(
            err.contains("at byte") || err.contains("UTF-8") || err.contains("utf-8"),
            "diagnostic must locate the damage: {err}"
        );
    }
    std::fs::write(journal, &intact).unwrap();
}

#[test]
fn truncated_campaign_journal_is_diagnosed_not_panicked() {
    let manifest = write_manifest(
        "torn-serve.json",
        r#"{"jobs": [{"id": "a", "workload": "counter", "max_executions": 100},
                     {"id": "b", "workload": "counter", "bug": "racy", "max_executions": 100}]}"#,
    );
    let manifest_s = manifest.to_str().unwrap();
    let journal = temp_dir().join("torn-serve-journal.json");
    let journal_s = journal.to_str().unwrap();
    let out = fair_chess(&["serve", manifest_s, "--checkpoint", journal_s]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_truncations_are_diagnosed(&journal, &["serve", manifest_s, "--resume", journal_s]);
    // And with the journal intact again, resume works.
    let resumed = fair_chess(&["serve", manifest_s, "--resume", journal_s]);
    assert_eq!(resumed.status.code(), Some(1), "{resumed:?}");
}

#[test]
fn truncated_check_journal_is_diagnosed_not_panicked() {
    let journal = temp_dir().join("torn-check-journal.json");
    let journal_s = journal.to_str().unwrap();
    let out = fair_chess(&[
        "check",
        "counter",
        "--no-trace",
        "--max-executions",
        "2",
        "--checkpoint",
        journal_s,
    ]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert_truncations_are_diagnosed(
        &journal,
        &["check", "counter", "--no-trace", "--resume", journal_s],
    );
}

#[test]
fn truncated_fuzz_journal_is_diagnosed_not_panicked() {
    let journal = temp_dir().join("torn-fuzz-journal.json");
    let journal_s = journal.to_str().unwrap();
    let corpus = temp_dir().join("torn-fuzz-corpus");
    let corpus_s = corpus.to_str().unwrap();
    let out = fair_chess(&[
        "fuzz",
        "--systems",
        "2",
        "--seed",
        "3",
        "--max-states",
        "50000",
        "--corpus-dir",
        corpus_s,
        "--checkpoint",
        journal_s,
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_truncations_are_diagnosed(
        &journal,
        &[
            "fuzz",
            "--systems",
            "2",
            "--seed",
            "3",
            "--max-states",
            "50000",
            "--corpus-dir",
            corpus_s,
            "--resume",
            journal_s,
        ],
    );
}

#[test]
fn resume_rejects_a_journal_from_a_different_manifest() {
    let journal = temp_dir().join("foreign-journal.json");
    let journal_s = journal.to_str().unwrap();
    let first = write_manifest(
        "foreign-a.json",
        r#"{"jobs": [{"id": "a", "workload": "counter", "max_executions": 100}]}"#,
    );
    let out = fair_chess(&["serve", first.to_str().unwrap(), "--checkpoint", journal_s]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Same journal, materially different manifest: refused.
    let second = write_manifest(
        "foreign-b.json",
        r#"{"jobs": [{"id": "a", "workload": "counter", "max_executions": 200}]}"#,
    );
    let out = fair_chess(&["serve", second.to_str().unwrap(), "--resume", journal_s]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr(&out).contains("different manifest"), "{out:?}");
}

#[test]
fn malformed_manifest_is_a_usage_error_with_a_byte_offset() {
    let manifest = write_manifest("broken.json", r#"{"jobs": [{"id": "a", }"#);
    let out = fair_chess(&["serve", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = stderr(&out);
    assert!(
        err.contains("broken.json") && err.contains("at byte"),
        "{err}"
    );

    let missing = fair_chess(&["serve", "/nonexistent/campaign.json"]);
    assert_eq!(missing.status.code(), Some(2), "{missing:?}");
    assert!(stderr(&missing).contains("campaign.json"), "{missing:?}");
}

/// Rewrites the verdict list of a campaign journal in place.
fn edit_journal_verdicts(journal: &Path, edit: impl FnOnce(&mut Vec<Json>)) {
    let mut doc = Json::parse(&std::fs::read_to_string(journal).unwrap()).unwrap();
    let Json::Object(fields) = &mut doc else {
        panic!("journal is not an object")
    };
    let Some((_, Json::Array(verdicts))) = fields.iter_mut().find(|(k, _)| k == "verdicts") else {
        panic!("journal has no verdicts array")
    };
    edit(verdicts);
    std::fs::write(journal, doc.to_string_pretty()).unwrap();
}

/// A journal whose digest matches but whose verdicts are not one per
/// job of the campaign is refused, naming the journal and the job id,
/// instead of reporting a campaign that never ran a job.
#[test]
fn resume_rejects_repeated_and_foreign_verdicts() {
    let manifest = write_manifest(
        "two-jobs.json",
        r#"{"jobs": [{"id": "a", "workload": "counter", "max_executions": 100},
                     {"id": "b", "workload": "counter", "max_executions": 100}]}"#,
    );
    let manifest = manifest.to_str().unwrap();
    for (case, needle) in [
        ("repeated", "two verdicts for job \"a\""),
        ("foreign", "verdict for \"z\""),
    ] {
        let journal = temp_dir().join(format!("{case}-journal.json"));
        let journal_s = journal.to_str().unwrap();
        let out = fair_chess(&["serve", manifest, "--checkpoint", journal_s]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        edit_journal_verdicts(&journal, |verdicts| {
            let a = verdicts
                .iter()
                .find(|v| v.get("id").and_then(Json::as_str) == Some("a"))
                .unwrap()
                .clone();
            let mut extra = a.clone();
            if case == "foreign" {
                let Json::Object(fields) = &mut extra else {
                    panic!("verdict is not an object")
                };
                fields.iter_mut().find(|(k, _)| k == "id").unwrap().1 = Json::Str("z".into());
            } else {
                verdicts.retain(|v| v.get("id").and_then(Json::as_str) != Some("b"));
            }
            verdicts.push(extra);
        });
        let out = fair_chess(&["serve", manifest, "--resume", journal_s]);
        assert_eq!(out.status.code(), Some(2), "{case}: {out:?}");
        let err = stderr(&out);
        assert!(
            err.contains(journal_s) && err.contains(needle),
            "{case}: {err}"
        );
        assert!(stdout(&out).is_empty(), "{case}: {out:?}");
    }
}
