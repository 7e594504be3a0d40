//! End-to-end tests of the `fair-chess` binary.

use std::process::{Command, Output};

fn fair_chess(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fair-chess"))
        .args(args)
        .output()
        .expect("failed to run fair-chess")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn list_shows_workloads() {
    let out = fair_chess(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("philosophers"));
    assert!(text.contains("--bug aba"));
}

#[test]
fn help_on_no_args() {
    let out = fair_chess(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn check_finds_racy_counter() {
    let out = fair_chess(&["check", "counter", "--bug", "racy"]);
    assert_eq!(out.status.code(), Some(1), "violation must exit 1");
    let text = stdout(&out);
    assert!(text.contains("safety violation"), "{text}");
    assert!(text.contains("racy-inc"), "trace must be printed: {text}");
}

#[test]
fn check_clean_counter_exits_zero() {
    let out = fair_chess(&["check", "counter"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("search complete"));
}

#[test]
fn check_detects_livelock() {
    let out = fair_chess(&["check", "promise", "--bug", "stale-spin", "--no-trace"]);
    assert_eq!(out.status.code(), Some(5), "livelock must exit 5");
    assert!(stdout(&out).contains("livelock"));
}

#[test]
fn check_detects_deadlock() {
    let out = fair_chess(&["check", "counter", "--bug", "deadlock"]);
    assert_eq!(out.status.code(), Some(4), "deadlock must exit 4");
    assert!(stdout(&out).contains("deadlock"));
}

#[test]
fn execution_budget_exit_is_incomplete() {
    let out = fair_chess(&[
        "check",
        "philosophers",
        "--max-executions",
        "3",
        "--no-trace",
    ]);
    assert_eq!(out.status.code(), Some(3), "budget exhaustion must exit 3");
    assert!(stdout(&out).contains("execution budget exhausted"));
}

#[test]
fn time_budget_exit_is_incomplete() {
    let out = fair_chess(&[
        "check",
        "miniboot-full",
        "--time-budget",
        "0.05",
        "--no-trace",
    ]);
    assert_eq!(out.status.code(), Some(3), "time budget expiry must exit 3");
    assert!(stdout(&out).contains("time budget exhausted"));
}

#[test]
fn truth_reports_fair_cycle() {
    let out = fair_chess(&["truth", "philosophers", "--bug", "figure1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("livelock:           YES"), "{text}");
}

#[test]
fn cover_reports_percentage() {
    let out = fair_chess(&["cover", "spinloop"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("100.0%"));
}

#[test]
fn unknown_workload_exits_2() {
    let out = fair_chess(&["check", "nope"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_exits_2() {
    let out = fair_chess(&["check", "counter", "--wat"]);
    assert_eq!(out.status.code(), Some(2));
}

/// The final report line with the wall-clock duration stripped (the one
/// field that legitimately differs between two runs of the same search).
fn normalized_report(text: &str) -> String {
    let line = text
        .lines()
        .find(|l| l.contains(" executions, "))
        .unwrap_or_else(|| panic!("no report line in: {text}"));
    line.rsplit_once(',')
        .expect("report has a wall field")
        .0
        .to_string()
}

fn temp_journal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fair-chess-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn checkpoint_resume_converges_to_the_uninterrupted_report() {
    let journal = temp_journal("resume-counter.json");
    let journal = journal.to_str().unwrap();

    let full = fair_chess(&["check", "counter", "--no-trace"]);
    assert_eq!(full.status.code(), Some(0));

    // Stop early with a checkpoint (budget exhaustion emits a final one).
    let partial = fair_chess(&[
        "check",
        "counter",
        "--no-trace",
        "--max-executions",
        "2",
        "--checkpoint",
        journal,
    ]);
    assert_eq!(partial.status.code(), Some(3), "{partial:?}");

    // Resuming without the budget finishes the search; the report must
    // match the uninterrupted run's, wall-clock time excepted.
    let resumed = fair_chess(&["check", "counter", "--no-trace", "--resume", journal]);
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("resuming from"));
    assert_eq!(
        normalized_report(&stdout(&resumed)),
        normalized_report(&stdout(&full)),
    );
}

#[test]
fn resume_rejects_a_mismatched_run_context() {
    let journal = temp_journal("resume-mismatch.json");
    let journal = journal.to_str().unwrap();
    let partial = fair_chess(&[
        "check",
        "counter",
        "--no-trace",
        "--max-executions",
        "1",
        "--checkpoint",
        journal,
    ]);
    assert_eq!(partial.status.code(), Some(3));

    // Same journal, different strategy: refused as a usage error.
    let out = fair_chess(&[
        "check",
        "counter",
        "--no-trace",
        "--strategy",
        "cb:2",
        "--resume",
        journal,
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("strategy"));
}

#[cfg(unix)]
#[test]
fn sigint_checkpoints_and_exits_resumable() {
    use std::time::Duration;

    let journal = temp_journal("resume-sigint.json");
    let journal_s = journal.to_str().unwrap();
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_fair-chess"))
        .args([
            "check",
            "miniboot-full",
            "--no-trace",
            "--time-budget",
            "60",
            "--checkpoint",
            journal_s,
            "--checkpoint-every",
            "10",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn fair-chess");
    // Let the handler install and the search get going, then interrupt.
    std::thread::sleep(Duration::from_millis(800));
    let killed = std::process::Command::new("sh")
        .args(["-c", &format!("kill -INT {}", child.id())])
        .status()
        .expect("run kill");
    assert!(killed.success());
    let out = child.wait_with_output().expect("wait for fair-chess");
    assert_eq!(
        out.status.code(),
        Some(6),
        "SIGINT must exit 6 (interrupted, resumable): {out:?}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume"));
    assert!(journal.exists(), "the final checkpoint must be flushed");

    // The journal is live: resuming with a tiny budget proves the
    // recorded progress is readable and counted.
    let resumed = fair_chess(&[
        "check",
        "miniboot-full",
        "--no-trace",
        "--resume",
        journal_s,
        "--max-executions",
        "1",
    ]);
    assert_eq!(resumed.status.code(), Some(3), "{resumed:?}");
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("resuming from"));
}

#[test]
fn fuzz_inject_panic_minimizes_and_replays() {
    let dir = temp_journal("panic-corpus");
    let dir_s = dir.to_str().unwrap();
    let out = fair_chess(&[
        "fuzz",
        "--systems",
        "2",
        "--seed",
        "11",
        "--inject",
        "panic",
        "--corpus-dir",
        dir_s,
        "--max-states",
        "50000",
    ]);
    assert_eq!(out.status.code(), Some(0), "oracles must agree: {out:?}");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("panic-"))
        })
        .collect();
    assert!(
        !entries.is_empty(),
        "injected panics must produce corpus entries: {out:?}"
    );
    // Every minimized panic entry replays to the same outcome kind.
    for entry in &entries {
        let replayed = fair_chess(&["replay", entry.to_str().unwrap()]);
        assert_eq!(replayed.status.code(), Some(0), "{replayed:?}");
        assert!(stdout(&replayed).contains("reproduced: panic"));
    }
}

#[test]
fn fuzz_journal_resume_matches_uninterrupted_run() {
    let journal = temp_journal("fuzz-resume.json");
    let journal_s = journal.to_str().unwrap();
    let corpus = temp_journal("fuzz-resume-corpus");
    let corpus_s = corpus.to_str().unwrap();
    fn args<'a>(corpus: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
        let mut v = vec![
            "fuzz",
            "--systems",
            "4",
            "--seed",
            "5",
            "--inject",
            "deadlock",
            "--corpus-dir",
            corpus,
            "--max-states",
            "50000",
        ];
        v.extend_from_slice(extra);
        v
    }
    let full = fair_chess(&args(corpus_s, &[]));
    assert_eq!(full.status.code(), Some(0), "{full:?}");

    // Journal the campaign, then resume it from its own journal: every
    // system is replayed from the records, and the report matches.
    let journaled = fair_chess(&args(corpus_s, &["--checkpoint", journal_s]));
    assert_eq!(journaled.status.code(), Some(0), "{journaled:?}");
    let resumed = fair_chess(&args(corpus_s, &["--resume", journal_s]));
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert_eq!(stdout(&resumed), stdout(&full));
}

#[test]
fn budgeted_unfair_baseline_runs() {
    let out = fair_chess(&[
        "check",
        "philosophers",
        "--bug",
        "figure1",
        "--unfair",
        "--db",
        "30",
        "--depth-bound",
        "200",
        "--max-executions",
        "500",
        "--no-trace",
    ]);
    // The unfair baseline cannot detect the livelock: it completes or
    // exhausts its budget without reporting an error.
    assert!(matches!(out.status.code(), Some(0) | Some(3)), "{out:?}");
}

/// `--jobs N` runs the N root-slice shards of the very search `--jobs 1`
/// runs: the whole stdout — report line, counterexample trace, sleep-set
/// savings — is the same, wall clock aside.
#[test]
fn jobs_print_the_same_report_as_one_job() {
    let without_wall = |o: &Output| -> String {
        stdout(o)
            .lines()
            .map(|l| match l.rsplit_once(" nonterminating, ") {
                Some((head, _wall)) => head,
                None => l,
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    for workload in [&["boundedbuffer"][..], &["treiber", "--bug", "aba"]] {
        for search in [
            &["--strategy", "dfs"][..],
            &["--strategy", "cb:2"],
            &["--strategy", "cb:2", "--reduce", "sleep-sets"],
        ] {
            let run = |jobs: &str| {
                let mut args = vec!["check"];
                args.extend_from_slice(workload);
                args.extend_from_slice(search);
                args.extend_from_slice(&["--max-executions", "100000", "--jobs", jobs]);
                fair_chess(&args)
            };
            let (one, three) = (run("1"), run("3"));
            assert_eq!(
                one.status.code(),
                three.status.code(),
                "{workload:?} {search:?}"
            );
            assert_eq!(
                without_wall(&one),
                without_wall(&three),
                "{workload:?} {search:?}"
            );
        }
    }
}
