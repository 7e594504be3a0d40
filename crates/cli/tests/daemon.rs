//! End-to-end tests of the campaign daemon and its client verbs,
//! driving the real binary over a unix socket: sharded-vs-unsharded
//! report identity, cached resubmits, `kill -9` of the daemon with a
//! byte-identical resume from the persistent store, and protocol
//! garbage injection.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use chess_bench::Json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fair-chess"))
}

fn fair_chess(args: &[&str]) -> Output {
    bin().args(args).output().expect("failed to run fair-chess")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Per-test scratch dir: tests run concurrently in one process, so the
/// directory is keyed by test name, not just pid.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fair-chess-daemon-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_manifest(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

/// A running daemon child, SIGKILLed on drop so a failing test cannot
/// leak a listener into the next run.
struct Daemon {
    child: Child,
    sock: String,
    store: String,
}

impl Daemon {
    /// Spawns `fair-chess daemon` on a fresh unix socket over `store`
    /// and waits until it answers a `status` request.
    fn start(dir: &Path, store: &str) -> Daemon {
        Daemon::start_with_env(dir, store, &[])
    }

    /// As [`Daemon::start`], with extra environment variables; the
    /// daemon's stderr is appended to `<dir>/<store>.log`.
    fn start_with_env(dir: &Path, store: &str, env: &[(&str, &str)]) -> Daemon {
        let sock = dir.join("daemon.sock").to_str().unwrap().to_string();
        let log = std::fs::File::options()
            .create(true)
            .append(true)
            .open(dir.join(format!("{store}.log")))
            .expect("open daemon log");
        let store = dir.join(store).to_str().unwrap().to_string();
        let child = bin()
            .args([
                "daemon",
                "--listen",
                &sock,
                "--store",
                &store,
                "--workers",
                "2",
            ])
            .envs(env.iter().copied())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn daemon");
        let daemon = Daemon { child, sock, store };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let out = fair_chess(&["status", "--connect", &daemon.sock]);
            if out.status.code() == Some(0) {
                return daemon;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not come up in 60s: {out:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Restarts a daemon on this one's socket and store (after a kill).
    fn restart(&mut self) {
        let dir = Path::new(&self.sock).parent().unwrap().to_path_buf();
        let store_name = Path::new(&self.store)
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_string();
        *self = Daemon::start(&dir, &store_name);
    }

    fn kill_nine(&mut self) {
        let _ = Command::new("sh")
            .args(["-c", &format!("kill -9 {}", self.child.id())])
            .status();
        let _ = self.child.wait();
    }

    /// Clean shutdown through the protocol; asserts the process exits.
    fn shutdown(mut self) {
        let out = fair_chess(&["shutdown", "--connect", &self.sock]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.child.try_wait().expect("try_wait").is_none() {
            assert!(Instant::now() < deadline, "daemon ignored shutdown");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            self.kill_nine();
        }
    }
}

/// Extracts the campaign digest from a submit acknowledgment line
/// (`campaign <hex>: queued (3 jobs)` / `campaign <hex>: cached (...)`).
fn campaign_of(submit_stdout: &str) -> String {
    submit_stdout
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no campaign digest in {submit_stdout:?}"))
        .trim_end_matches(':')
        .to_string()
}

/// Polls `status <campaign>` until `pred` holds on the raw JSON text.
fn wait_for_status(sock: &str, campaign: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let out = fair_chess(&["status", campaign, "--connect", sock]);
        let text = stdout(&out);
        if out.status.code() == Some(0) && pred(&text) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "status condition not reached in 120s; last: {text}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// The acceptance criterion for sharding: a `"shards": K` check job
/// fanned across workers must merge to a report byte-identical to the
/// unsharded run of the same manifest.
#[test]
fn sharded_campaign_report_is_byte_identical_to_the_unsharded_one() {
    let dir = temp_dir("shards");
    // The sharded job is clean and exhausts its space: merge equality
    // with the sequential run is exact whenever every shard completes.
    // The racy job rides along (unsharded) so the campaign code is
    // nonzero.
    let sharded = write_manifest(
        &dir,
        "sharded.json",
        r#"{"jobs": [
          {"id": "w", "workload": "counter", "max_executions": 100000, "shards": 2},
          {"id": "r", "workload": "counter", "bug": "racy", "max_executions": 50000}
        ]}"#,
    );
    let unsharded = write_manifest(
        &dir,
        "unsharded.json",
        r#"{"jobs": [
          {"id": "w", "workload": "counter", "max_executions": 100000},
          {"id": "r", "workload": "counter", "bug": "racy", "max_executions": 50000}
        ]}"#,
    );
    // Reference: the unsharded one-shot runner.
    let reference = fair_chess(&["serve", &unsharded, "--workers", "2"]);
    assert_eq!(reference.status.code(), Some(1), "{reference:?}");

    let daemon = Daemon::start(&dir, "store");
    let submit = fair_chess(&["submit", &sharded, "--connect", &daemon.sock, "--watch"]);
    assert_eq!(
        submit.status.code(),
        Some(1),
        "watch must exit with the report code: {submit:?}"
    );
    let campaign = campaign_of(&stdout(&submit));
    let results = fair_chess(&["results", &campaign, "--connect", &daemon.sock]);
    assert_eq!(results.status.code(), Some(1), "{results:?}");
    assert_eq!(
        stdout(&results),
        stdout(&reference),
        "merged shard report must be byte-identical to the unsharded run"
    );
    // The watch stream printed per-shard verdicts along the way.
    assert!(stdout(&submit).contains("w#0:"), "{submit:?}");
    assert!(stdout(&submit).contains("w#1:"), "{submit:?}");
    daemon.shutdown();
}

/// Content addressing: resubmitting a completed manifest answers from
/// the store without re-execution, carrying the original verdict code.
#[test]
fn resubmit_of_a_completed_campaign_is_answered_from_the_store() {
    let dir = temp_dir("cached");
    let manifest = write_manifest(
        &dir,
        "cached.json",
        r#"{"jobs": [{"id": "r", "workload": "counter", "bug": "racy", "max_executions": 50000}]}"#,
    );
    let daemon = Daemon::start(&dir, "store");
    let first = fair_chess(&["submit", &manifest, "--connect", &daemon.sock, "--watch"]);
    assert_eq!(first.status.code(), Some(1), "{first:?}");
    assert!(stdout(&first).contains("queued"), "{first:?}");

    let again = fair_chess(&["submit", &manifest, "--connect", &daemon.sock]);
    assert_eq!(
        again.status.code(),
        Some(1),
        "a cached finished campaign must answer with its report code: {again:?}"
    );
    assert!(stdout(&again).contains("cached"), "{again:?}");

    // Equivalent-but-reformatted manifest text (same fields, same
    // order, different whitespace): same canonical digest, still
    // cached.
    let reformatted = write_manifest(
        &dir,
        "cached2.json",
        r#"{ "jobs" :
             [ { "id": "r", "workload": "counter", "bug": "racy", "max_executions": 50000 } ] }"#,
    );
    let third = fair_chess(&["submit", &reformatted, "--connect", &daemon.sock]);
    assert!(stdout(&third).contains("cached"), "{third:?}");
    daemon.shutdown();
}

/// The durability acceptance test: `kill -9` the daemon mid-campaign,
/// restart it over the same store, and require the resumed campaign's
/// final report byte-identical to an uninterrupted run's.
#[test]
fn kill_nine_of_the_daemon_resumes_the_campaign_byte_identically() {
    let dir = temp_dir("kill9");
    let jobs: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"id": "p{i}", "workload": "philosophers", "strategy": "random:{i}",
                    "max_executions": 8000}}"#
            )
        })
        .collect();
    let manifest = write_manifest(
        &dir,
        "kill9.json",
        &format!(r#"{{"jobs": [{}]}}"#, jobs.join(",\n")),
    );
    // Reference: the same campaign through the one-shot runner.
    let reference = fair_chess(&["serve", &manifest, "--workers", "2"]);
    assert_eq!(reference.status.code(), Some(3), "{reference:?}");

    let mut daemon = Daemon::start(&dir, "store");
    let submit = fair_chess(&["submit", &manifest, "--connect", &daemon.sock]);
    assert_eq!(submit.status.code(), Some(0), "{submit:?}");
    let campaign = campaign_of(&stdout(&submit));

    // Wait until some verdicts are in and some pending, then SIGKILL:
    // no destructor runs, so only the store's atomic journal protects
    // the campaign.
    wait_for_status(&daemon.sock, &campaign, |s| {
        !s.contains("\"done\": 0") && !s.contains("\"pending\": 0")
    });
    daemon.kill_nine();

    daemon.restart();
    let watch = fair_chess(&["watch", &campaign, "--connect", &daemon.sock]);
    assert_eq!(watch.status.code(), Some(3), "{watch:?}");
    let results = fair_chess(&["results", &campaign, "--connect", &daemon.sock]);
    assert_eq!(results.status.code(), Some(3), "{results:?}");
    assert_eq!(
        stdout(&results),
        stdout(&reference),
        "resumed report must be byte-identical to the uninterrupted run"
    );
    daemon.shutdown();
}

/// Chaos: a client that leads every request with protocol garbage must
/// get a structured error back (never a dropped connection), and the
/// daemon must keep serving other clients afterwards.
#[test]
fn protocol_garbage_gets_a_structured_error_and_the_daemon_survives() {
    let dir = temp_dir("garbage");
    let daemon = Daemon::start(&dir, "store");
    let out = bin()
        .args(["status", "--connect", &daemon.sock])
        .env("FAIR_CHESS_CHAOS", "garbage:1,seed:7")
        .output()
        .expect("run chaos client");
    assert_eq!(
        out.status.code(),
        Some(0),
        "garbage must be answered with a structured error, then the real \
         request must still succeed: {out:?}"
    );
    assert!(stderr(&out).contains("chaos garbage"), "{out:?}");
    // The daemon is unimpressed.
    let after = fair_chess(&["status", "--connect", &daemon.sock]);
    assert_eq!(after.status.code(), Some(0), "{after:?}");
    daemon.shutdown();
}

/// Two daemons never share a store: a second daemon on the same
/// `--store` (on its own socket) exits with a usage error naming the
/// first one's pid, and the first keeps serving.
#[test]
fn second_daemon_on_the_same_store_is_refused() {
    let dir = temp_dir("lock");
    let daemon = Daemon::start(&dir, "store");
    let other_sock = dir.join("other.sock");
    let out = fair_chess(&[
        "daemon",
        "--listen",
        other_sock.to_str().unwrap(),
        "--store",
        &daemon.store,
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let expected = format!("is in use by another daemon (pid {})", daemon.child.id());
    assert!(stderr(&out).contains(&expected), "{out:?}");
    assert!(!other_sock.exists(), "the refused daemon bound its socket");
    let after = fair_chess(&["status", "--connect", &daemon.sock]);
    assert_eq!(after.status.code(), Some(0), "{after:?}");
    daemon.shutdown();
}

/// Error surfaces: a manifest that fails validation is refused at
/// submit, and unknown campaign digests are structured errors.
#[test]
fn bad_submissions_and_unknown_campaigns_are_structured_errors() {
    let dir = temp_dir("errors");
    let daemon = Daemon::start(&dir, "store");
    let bad = write_manifest(
        &dir,
        "bad.json",
        r#"{"jobs": [{"id": "x", "kind": "bake"}]}"#,
    );
    let out = fair_chess(&["submit", &bad, "--connect", &daemon.sock]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr(&out).contains("unknown job kind"), "{out:?}");

    let out = fair_chess(&["results", "00000000deadbeef", "--connect", &daemon.sock]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr(&out).contains("unknown campaign"), "{out:?}");
    daemon.shutdown();
}

/// Sends one raw protocol line on a fresh connection and returns the
/// daemon's one-line reply.
fn raw_exchange(sock: &str, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut conn = std::os::unix::net::UnixStream::connect(sock).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    reply
}

/// Context-bounded, sleep-set reduced searches shard like dfs: the
/// merged verdict of a `"shards": 2` job is the unsharded one.
#[test]
fn sharded_cb_reduced_job_merges_to_the_unsharded_verdict() {
    let dir = temp_dir("cb-shards");
    let job = r#""id": "c", "workload": "wsq", "strategy": "cb:1", "reduce": true,
                 "max_executions": 100000"#;
    let sharded = write_manifest(
        &dir,
        "sharded.json",
        &format!(r#"{{"jobs": [{{{job}, "shards": 2}}]}}"#),
    );
    let unsharded = write_manifest(
        &dir,
        "unsharded.json",
        &format!(r#"{{"jobs": [{{{job}}}]}}"#),
    );
    let reference = fair_chess(&["serve", &unsharded, "--workers", "2"]);
    assert_eq!(reference.status.code(), Some(0), "{reference:?}");

    let daemon = Daemon::start(&dir, "store");
    let submit = fair_chess(&["submit", &sharded, "--connect", &daemon.sock, "--watch"]);
    assert_eq!(submit.status.code(), Some(0), "{submit:?}");
    let campaign = campaign_of(&stdout(&submit));
    let results = fair_chess(&["results", &campaign, "--connect", &daemon.sock]);
    assert_eq!(stdout(&results), stdout(&reference));
    assert!(stdout(&results).contains("1545 executions"), "{results:?}");
    daemon.shutdown();
}

/// Hostile input over the socket: a manifest field of the wrong type is
/// refused with a structured error naming it, and a line nested 100 000
/// levels deep is answered instead of overflowing the daemon's stack —
/// after both, a fresh connection still gets a normal status reply.
#[test]
fn wrongly_typed_and_deeply_nested_requests_get_structured_errors() {
    let dir = temp_dir("hostile");
    let daemon = Daemon::start(&dir, "store");
    let reply = raw_exchange(
        &daemon.sock,
        r#"{"v": 1, "op": "submit", "manifest": {"jobs": [{"id": "x", "workload": "counter", "reduce": "yes"}]}}"#,
    );
    assert!(reply.contains(r#""ok": false"#), "{reply}");
    assert!(reply.contains("'reduce' must be a boolean"), "{reply}");

    let reply = raw_exchange(&daemon.sock, &"[".repeat(100_000));
    assert!(reply.contains(r#""ok": false"#), "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");

    let status = raw_exchange(&daemon.sock, r#"{"v": 1, "op": "status"}"#);
    assert!(status.contains(r#""ok": true"#), "{status}");
    daemon.shutdown();
}

/// A client that sends 2 MiB with no newline gets a structured error
/// and is hung up on once the daemon has read its line limit (1 MiB),
/// so the rest of the write fails; a second client is still served.
#[test]
fn oversized_request_line_gets_a_structured_error_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Write};
    let dir = temp_dir("oversized");
    let daemon = Daemon::start(&dir, "store");
    let conn = std::os::unix::net::UnixStream::connect(&daemon.sock).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = conn.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(&vec![b'x'; 2 << 20]).is_ok());
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    assert!(reply.contains(r#""ok": false"#), "{reply}");
    assert!(reply.contains("longer than 1048576 bytes"), "{reply}");
    assert!(!sender.join().unwrap(), "the daemon read the whole line");

    let status = raw_exchange(&daemon.sock, r#"{"v": 1, "op": "status"}"#);
    assert!(status.contains(r#""ok": true"#), "{status}");
    daemon.shutdown();
}

/// With no worker spawnable, `serve` and the daemon both run the jobs
/// in-process through one driver, so one manifest prints one report:
/// the same text (a failing job quarantined as a handler error) and the
/// same exit code.
#[test]
fn degraded_serve_and_daemon_print_the_same_report() {
    let dir = temp_dir("degraded");
    let manifest = write_manifest(
        &dir,
        "degraded.json",
        r#"{"jobs": [
            {"id": "racy", "workload": "counter", "bug": "racy", "max_executions": 20000},
            {"id": "ghost", "workload": "no-such-workload"}
        ]}"#,
    );
    let env = [("FAIR_CHESS_WORKER_BIN", "/nonexistent/fair-chess")];
    let served = bin()
        .args(["serve", &manifest])
        .envs(env)
        .output()
        .expect("run serve");
    assert_eq!(served.status.code(), Some(1), "{served:?}");
    assert!(
        stdout(&served).contains("ghost: quarantined after 1 attempts (handler error: "),
        "{served:?}"
    );

    let daemon = Daemon::start_with_env(&dir, "store", &env);
    let submit = fair_chess(&["submit", &manifest, "--connect", &daemon.sock, "--watch"]);
    assert_eq!(submit.status.code(), Some(1), "{submit:?}");
    let campaign = campaign_of(&stdout(&submit));
    let results = fair_chess(&["results", &campaign, "--connect", &daemon.sock]);
    daemon.shutdown();
    assert_eq!(stdout(&results), stdout(&served));
    assert_eq!(results.status.code(), served.status.code());
}

/// A store journal that repeats one job's verdict and lacks another's
/// would mark the campaign finished with a job undecided; the startup
/// scan skips it with a warning naming the job instead.
#[test]
fn store_journal_with_a_repeated_verdict_is_skipped_at_startup() {
    let dir = temp_dir("repeated");
    let manifest = write_manifest(
        &dir,
        "two-jobs.json",
        r#"{"jobs": [{"id": "a", "workload": "counter", "max_executions": 100},
                     {"id": "b", "workload": "counter", "max_executions": 100}]}"#,
    );
    let daemon = Daemon::start(&dir, "store");
    let submit = fair_chess(&["submit", &manifest, "--connect", &daemon.sock, "--watch"]);
    assert_eq!(submit.status.code(), Some(0), "{submit:?}");
    let campaign = campaign_of(&stdout(&submit));
    daemon.shutdown();

    let journal = dir
        .join("store")
        .join("campaigns")
        .join(&campaign)
        .join("journal.json");
    let mut doc = Json::parse(&std::fs::read_to_string(&journal).unwrap()).unwrap();
    let Json::Object(fields) = &mut doc else {
        panic!("journal is not an object")
    };
    let Some((_, Json::Array(verdicts))) = fields.iter_mut().find(|(k, _)| k == "verdicts") else {
        panic!("journal has no verdicts array")
    };
    verdicts.retain(|v| v.get("id").and_then(Json::as_str) == Some("a"));
    verdicts.push(verdicts[0].clone());
    std::fs::write(&journal, doc.to_string_pretty()).unwrap();

    let daemon = Daemon::start(&dir, "store");
    let status = fair_chess(&["status", &campaign, "--connect", &daemon.sock]);
    let results = fair_chess(&["results", &campaign, "--connect", &daemon.sock]);
    daemon.shutdown();
    assert_eq!(status.status.code(), Some(2), "{status:?}");
    assert!(stderr(&status).contains("unknown campaign"), "{status:?}");
    assert_eq!(results.status.code(), Some(2), "{results:?}");
    let log = std::fs::read_to_string(dir.join("store.log")).unwrap();
    assert!(
        log.contains(&format!(
            "daemon: store: skipping store campaign {campaign}"
        )) && log.contains("two verdicts for job \"a\""),
        "{log}"
    );
}
