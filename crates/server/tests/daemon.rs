//! End-to-end daemon tests over a real unix socket: submit, watch,
//! results, content-addressed resubmit, restart-resume, and the
//! malformed-request contract.
//!
//! The pool's worker binary is deliberately unspawnable, so every job
//! runs through the daemon's in-process fallback — these tests cover
//! the daemon/store/protocol machinery; real multi-process campaigns
//! are exercised by the CLI's own test suite and `daemon_smoke.sh`.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use chess_bench::Json;
use chess_core::procpool::PoolConfig;
use chess_core::{SearchOutcome, SearchReport, SearchStats};
use chess_server::daemon::{run_daemon, DaemonConfig};
use chess_server::{expect_ok, Client, JobResult, Listen, Request, WorkerPool};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chess-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn accept_all(_: &Json) -> Result<(), String> {
    Ok(())
}

/// A deterministic stand-in for the worker: Complete reports whose
/// execution counts encode the shard index, so the merged numbers are
/// checkable.
fn fake_runner(payload: &str) -> Result<String, String> {
    let json = Json::parse(payload).map_err(|e| e.to_string())?;
    let executions = match json.get("shard_index").and_then(Json::as_u64) {
        Some(index) => 10 + index,
        None => 5,
    };
    let report = SearchReport {
        outcome: SearchOutcome::Complete,
        stats: SearchStats {
            executions,
            ..Default::default()
        },
    };
    Ok(JobResult {
        code: report.outcome.exit_code(),
        line: report.deterministic_line(),
        report: Some(report),
    }
    .to_payload())
}

fn start_daemon(listen: &Listen, store: &Path) -> std::thread::JoinHandle<()> {
    let config = DaemonConfig {
        listen: listen.clone(),
        store_dir: store.to_path_buf(),
        pool: WorkerPool {
            config: PoolConfig {
                workers: 2,
                heartbeat_timeout: Duration::from_millis(200),
                max_attempts: 2,
                ..PoolConfig::default()
            },
            program: PathBuf::from("/nonexistent/fair-chess-worker"),
            args: Vec::new(),
            in_process: fake_runner,
        },
        validator: accept_all,
    };
    std::thread::spawn(move || run_daemon(config).expect("daemon failed"))
}

fn connect_with_retry(listen: &Listen) -> Client {
    for _ in 0..200 {
        if let Ok(client) = Client::connect(listen) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon never came up on {listen}");
}

#[test]
fn daemon_runs_shards_streams_caches_and_resumes() {
    let store = tempdir("e2e");
    let sock = Listen::Unix(store.join("daemon.sock"));
    let daemon = start_daemon(&sock, &store);
    let mut client = connect_with_retry(&sock);

    // Submit: one plain job, one 3-way sharded job (4 pool jobs).
    let manifest = Json::parse(
        r#"{"jobs": [
            {"id": "solo", "workload": "counter"},
            {"id": "wide", "workload": "counter", "shards": 3}
        ]}"#,
    )
    .unwrap();
    let ack = expect_ok(
        client
            .request(&Request::Submit {
                manifest: manifest.clone(),
            })
            .unwrap(),
    )
    .unwrap();
    assert_eq!(ack.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(ack.get("jobs").and_then(Json::as_u64), Some(4));
    let digest =
        chess_server::parse_digest(ack.get("campaign").and_then(Json::as_str).unwrap()).unwrap();

    // Watch: the stream replays every verdict and ends with done.
    expect_ok(
        client
            .request(&Request::Watch { campaign: digest })
            .unwrap(),
    )
    .unwrap();
    let (mut verdicts, mut statuses, mut done_code) = (Vec::new(), 0usize, None);
    while let Some(ev) = client.read_event().unwrap() {
        match ev.get("event").and_then(Json::as_str) {
            Some("verdict") => {
                verdicts.push(ev.get("id").and_then(Json::as_str).unwrap().to_string());
            }
            Some("status") => statuses += 1,
            Some("done") => {
                done_code = ev.get("code").and_then(Json::as_u64);
                break;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    verdicts.sort();
    assert_eq!(verdicts, ["solo", "wide#0", "wide#1", "wide#2"]);
    assert!(statuses >= 1, "watch must interleave status events");
    assert_eq!(done_code, Some(0));

    // Results: manifest order, shard reports merged (10 + 11 + 12).
    let results = expect_ok(
        client
            .request(&Request::Results { campaign: digest })
            .unwrap(),
    )
    .unwrap();
    let report = results
        .get("report")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let lines: Vec<&str> = report.lines().collect();
    assert!(
        lines[0].starts_with("solo: ") && lines[0].contains("5 executions"),
        "{report}"
    );
    assert!(
        lines[1].starts_with("wide: ") && lines[1].contains("33 executions"),
        "{report}"
    );
    assert_eq!(lines[2], "campaign: 2 of 2 jobs done, 0 quarantined");
    assert_eq!(results.get("code").and_then(Json::as_u64), Some(0));

    // Content-addressed resubmit: cached, no re-execution.
    let again = expect_ok(client.request(&Request::Submit { manifest }).unwrap()).unwrap();
    assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(again.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(again.get("code").and_then(Json::as_u64), Some(0));

    // Cancelling a finished campaign is a no-op that reports its state.
    let cancel = expect_ok(
        client
            .request(&Request::Cancel { campaign: digest })
            .unwrap(),
    )
    .unwrap();
    assert_eq!(cancel.get("state").and_then(Json::as_str), Some("done"));

    // Unknown campaigns get structured errors.
    let err = expect_ok(client.request(&Request::Results { campaign: 1 }).unwrap());
    assert!(err.unwrap_err().contains("unknown campaign"));

    // Shut down, then restart on the same store: the report re-renders
    // byte-for-byte from the journal alone.
    expect_ok(client.request(&Request::Shutdown).unwrap()).unwrap();
    daemon.join().unwrap();
    let daemon = start_daemon(&sock, &store);
    let mut client = connect_with_retry(&sock);
    let reloaded = expect_ok(
        client
            .request(&Request::Results { campaign: digest })
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        reloaded.get("report").and_then(Json::as_str),
        Some(report.as_str()),
        "restarted daemon must reprint the identical report"
    );
    expect_ok(client.request(&Request::Shutdown).unwrap()).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn malformed_requests_get_structured_errors_not_hangups() {
    let store = tempdir("garbage");
    let sock = Listen::Unix(store.join("daemon.sock"));
    let daemon = start_daemon(&sock, &store);
    let _probe = connect_with_retry(&sock);

    // Raw connection: garbage lines, wrong versions, unknown ops — the
    // daemon must answer each with ok:false and keep the line open.
    let mut conn = sock.connect().unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut exchange = |line: &str| -> Json {
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        conn.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        Json::parse(response.trim_end()).unwrap()
    };
    for bad in [
        "!!chaos garbage!!",
        r#"{"op": "status"}"#,
        r#"{"v": 99, "op": "status"}"#,
        r#"{"v": 1, "op": "explode"}"#,
        r#"{"v": 1, "op": "submit", "manifest": {"jobs": [{"id": "a b"}]}}"#,
        r#"{"v": 1, "op": "submit", "manifest": {"jobs": [{"id": "x", "shards": 2, "kind": "fuzz"}]}}"#,
    ] {
        let response = exchange(bad);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{bad} should earn a structured error, got {}",
            response.to_string_pretty()
        );
        assert!(response.get("error").is_some());
    }
    // The same connection still serves real requests afterwards.
    let response = exchange(r#"{"v": 1, "op": "status"}"#);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    let mut client = connect_with_retry(&sock);
    expect_ok(client.request(&Request::Shutdown).unwrap()).unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}
