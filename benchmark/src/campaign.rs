//! The campaign workload: the real `fair-chess daemon` with two worker
//! processes on a fresh store, driven by one client connection over the
//! daemon's versioned (v=1) line protocol on a unix socket.
//!
//! Each pass submits one campaign and waits for every verdict and the
//! final report; then it times a cached resubmit of the same manifest
//! and five daemon restarts on the filled store. Job ids carry the seed
//! and the pass number, so every pass is new work to the store while
//! the work itself stays fixed and its execution count repeats exactly.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::expected::{Expected, Kind};
use crate::json::{number, quote, Value};
use crate::report::{peak_rss_kb, Report, PER_LAYER};
use crate::search::write_out;
use crate::stats::median;
use crate::Options;

/// Worker processes the daemon runs.
const WORKERS: u32 = 2;
/// Random hunts of wsq's unlocked-pop bug per campaign.
const HUNTS: u64 = 16;
/// Daemon restarts on the filled store after each pass.
const RESTARTS: usize = 5;
/// Daemon start-ups on a fresh store timed as the set-up; `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 9;
/// Longest the benchmark waits on the daemon for anything.
const PATIENCE: Duration = Duration::from_secs(120);

/// The manifest of pass `pass`: job ids are new each pass, the work is
/// not.
pub fn manifest(seed: u64, pass: u64) -> String {
    let p = format!("s{seed}p{pass}");
    let mut jobs: Vec<String> = (1..=HUNTS)
        .map(|i| {
            format!(
                "{{\"id\": \"{p}-hunt{i}\", \"workload\": \"wsq\", \"bug\": \"unlocked-pop\", \
                 \"strategy\": \"random:{i}\", \"max_executions\": 200000}}"
            )
        })
        .collect();
    jobs.push(format!(
        "{{\"id\": \"{p}-treiber-dfs\", \"workload\": \"treiber\", \"strategy\": \"dfs\", \
         \"max_executions\": 1000000, \"shards\": 4}}"
    ));
    jobs.push(format!(
        "{{\"id\": \"{p}-rwcache-dfs\", \"workload\": \"rwcache\", \"strategy\": \"dfs\", \
         \"max_executions\": 1000000, \"shards\": 2}}"
    ));
    jobs.push(format!(
        "{{\"id\": \"{p}-wsq-cb1-reduce\", \"workload\": \"wsq\", \"strategy\": \"cb:1\", \
         \"reduce\": true, \"max_executions\": 1000000}}"
    ));
    jobs.push(format!(
        "{{\"id\": \"{p}-fuzz\", \"kind\": \"fuzz\", \"seed\": 7, \"systems\": 20}}"
    ));
    format!("{{\"jobs\": [{}]}}", jobs.join(", "))
}

/// The `expected.txt` case of a job id: the id minus its pass prefix,
/// its shard suffix and the hunt number.
pub fn case_of(id: &str) -> &str {
    let id = id.split('#').next().unwrap_or(id);
    let case = id.split_once('-').map_or(id, |(_, rest)| rest);
    if case.starts_with("hunt") {
        "hunt"
    } else {
        case
    }
}

/// The outcome kind and execution count a campaign report line states
/// (the count is 0 for a fuzz job, which runs no search).
fn read_line(line: &str) -> (Kind, u64) {
    let kind = if line.starts_with("search complete") {
        Kind::Clean
    } else if line.starts_with("search incomplete (execution budget exhausted)") {
        Kind::Budget
    } else if line.starts_with("search incomplete") || line.starts_with("quarantined") {
        Kind::Incomplete
    } else if line.starts_with("safety violation") || line.starts_with("panic") {
        Kind::Safety
    } else if line.starts_with("deadlock") {
        Kind::Deadlock
    } else if let Some(rest) = line.strip_prefix("fuzz:") {
        if rest.contains(" 0 discrepancies") {
            Kind::Clean
        } else {
            Kind::Safety
        }
    } else {
        Kind::Livelock
    };
    let executions = line
        .rsplit_once(" — ")
        .and_then(|(_, tail)| tail.split_once(" executions"))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or(0);
    (kind, executions)
}

/// One request/response connection to the daemon.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let writer = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        writer
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(Conn { reader, writer })
    }

    fn recv(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Value::parse(&line).map_err(|e| format!("daemon sent bad JSON: {e}")),
            Err(e) => Err(format!("read from daemon: {e}")),
        }
    }

    /// Sends one request and returns its `"ok": true` response.
    fn request(&mut self, body: &str) -> Result<Value, String> {
        self.writer
            .write_all(format!("{{\"v\": 1, {body}}}\n").as_bytes())
            .map_err(|e| format!("write to daemon: {e}"))?;
        let response = self.recv()?;
        if response.get("ok").and_then(Value::as_bool) != Some(true) {
            let error = response.get("error").and_then(Value::as_str).unwrap_or("?");
            return Err(format!("daemon refused {body:?}: {error}"));
        }
        Ok(response)
    }
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon and waits until it answers `status`; returns it
    /// with the seconds that took.
    fn start(opts: &Options, dir: &Path) -> Result<(Daemon, f64), String> {
        let socket = dir.join("daemon.sock");
        let log = File::options()
            .create(true)
            .append(true)
            .open(dir.join("daemon.log"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let err_log = log.try_clone().map_err(|e| format!("daemon log: {e}"))?;
        let start = Instant::now();
        let child = Command::new(&opts.fair_chess)
            .arg("daemon")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err_log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.fair_chess.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        loop {
            if let Ok(mut conn) = Conn::open(&daemon.socket) {
                if conn.request("\"op\": \"status\"").is_ok() {
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
            }
            let child = daemon.child.as_mut().expect("running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "daemon exited at start-up ({status}); see {}",
                    dir.join("daemon.log").display()
                ));
            }
            if start.elapsed() > PATIENCE {
                return Err("daemon never answered status".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        Conn::open(&self.socket)?.request("\"op\": \"shutdown\"")?;
        let mut child = self.child.take().expect("running");
        let start = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if start.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What one pass observed.
#[derive(Debug, Default)]
struct Pass {
    start_s: f64,
    pass_s: f64,
    submit_s: f64,
    results_s: f64,
    cached_s: f64,
    restart_s: Vec<f64>,
    rtt_s: Vec<f64>,
    /// Shard-level verdicts: (id, seconds since submit, attempts).
    verdicts: Vec<(String, f64, u64)>,
    executions: u64,
    peak_rss_kb: f64,
}

/// Runs one campaign on `daemon` and checks its report.
fn campaign_pass(
    seed: u64,
    index: u64,
    daemon: &Daemon,
    expected: &Expected,
    report: &mut Report,
    t0: Instant,
) -> Result<Pass, String> {
    let manifest = manifest(seed, index);
    let submit = format!("\"op\": \"submit\", \"manifest\": {manifest}");
    let mut pass = Pass::default();
    let mut conn = Conn::open(&daemon.socket)?;

    let start = Instant::now();
    pass.start_s = start.duration_since(t0).as_secs_f64();
    let ack = conn.request(&submit)?;
    pass.submit_s = start.elapsed().as_secs_f64();
    if ack.get("cached").and_then(Value::as_bool) != Some(false) {
        return Err(format!(
            "pass {index}: a fresh manifest was answered from the store"
        ));
    }
    let campaign = ack
        .get("campaign")
        .and_then(Value::as_str)
        .ok_or("submit ack has no campaign")?
        .to_string();
    conn.request(&format!(
        "\"op\": \"watch\", \"campaign\": {}",
        quote(&campaign)
    ))?;
    loop {
        let event = conn.recv()?;
        match event.get("event").and_then(Value::as_str) {
            Some("verdict") => pass.verdicts.push((
                event
                    .get("id")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                start.elapsed().as_secs_f64(),
                event.get("attempts").and_then(Value::as_u64).unwrap_or(1),
            )),
            Some("done") => break,
            Some("status") => {}
            other => return Err(format!("unexpected watch event {other:?}")),
        }
    }
    let results_start = Instant::now();
    let results = conn.request(&format!(
        "\"op\": \"results\", \"campaign\": {}",
        quote(&campaign)
    ))?;
    pass.results_s = results_start.elapsed().as_secs_f64();
    pass.pass_s = start.elapsed().as_secs_f64();

    let text = results
        .get("report")
        .and_then(Value::as_str)
        .ok_or("results response has no report")?;
    let code = results.get("code").and_then(Value::as_u64);
    let mut jobs = 0;
    for line in text.lines().filter(|l| !l.starts_with("campaign:")) {
        let Some((id, body)) = line.split_once(": ") else {
            report.verdict(Err(format!("campaign/?: unreadable report line {line:?}")));
            continue;
        };
        jobs += 1;
        let (kind, executions) = read_line(body);
        pass.executions += executions;
        report.verdict(expected.check("campaign", case_of(id), kind, executions));
    }
    if jobs != HUNTS + 4 {
        report.verdict(Err(format!(
            "campaign: report has {jobs} job lines, expected {}",
            HUNTS + 4
        )));
    }
    // The hunts find a safety violation, which decides the exit code.
    if code != Some(1) {
        report.verdict(Err(format!("campaign: report code {code:?}, expected 1")));
    }

    let cached_start = Instant::now();
    let cached = conn.request(&submit)?;
    pass.cached_s = cached_start.elapsed().as_secs_f64();
    let hit = cached.get("cached").and_then(Value::as_bool) == Some(true)
        && cached.get("code").and_then(Value::as_u64) == code;
    report.verdict(if hit {
        Ok(())
    } else {
        Err(format!(
            "campaign: resubmit was not a cached hit: {cached:?}"
        ))
    });

    for _ in 0..RESTARTS {
        let rtt_start = Instant::now();
        conn.request("\"op\": \"status\"")?;
        pass.rtt_s.push(rtt_start.elapsed().as_secs_f64());
    }
    pass.peak_rss_kb = peak_rss_kb(Some(daemon.pid()))?;
    Ok(pass)
}

/// Total bytes of the files under `dir`, and of those named
/// `journal.json`.
fn store_bytes(dir: &Path) -> (u64, u64) {
    let (mut all, mut journals) = (0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (a, j) = store_bytes(&path);
            all += a;
            journals += j;
        } else if let Ok(meta) = entry.metadata() {
            all += meta.len();
            if path.file_name().is_some_and(|n| n == "journal.json") {
                journals += meta.len();
            }
        }
    }
    (all, journals)
}

/// Runs the campaign workload for `opts.seconds`.
pub fn run(opts: &Options) -> Result<Report, String> {
    let t0 = Instant::now();
    if !opts.fair_chess.is_file() {
        return Err(format!(
            "no fair-chess binary at {} (build it first, or pass --fair-chess)",
            opts.fair_chess.display()
        ));
    }
    let expected = Expected::load();
    let mut report = Report::default();
    let root = opts
        .out_dir
        .join(format!("campaign-{}", std::process::id()));
    let result = measure(opts, &root, &expected, &mut report, t0);
    let _ = std::fs::remove_dir_all(&root);
    result.map(|()| report)
}

fn measure(
    opts: &Options,
    root: &Path,
    expected: &Expected,
    report: &mut Report,
    t0: Instant,
) -> Result<(), String> {
    // Set-up: a daemon on a fresh store until it answers status, several
    // times; the last one serves the passes.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPEATS {
        let dir = root.join(format!("setup{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (d, secs) = Daemon::start(opts, &dir)?;
        setups.push(secs);
        if let Some(previous) = daemon.replace((d, dir)) {
            previous.0.shutdown()?;
        }
    }
    let (mut daemon, dir) = daemon.expect("set-up ran");

    let measuring = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut round_s: Vec<f64> = Vec::new();
    for index in 0.. {
        let round = Instant::now();
        let mut pass = campaign_pass(opts.seed, index, &daemon, expected, report, t0)?;
        for _ in 0..RESTARTS {
            daemon.shutdown()?;
            let (d, secs) = Daemon::start(opts, &dir)?;
            daemon = d;
            pass.restart_s.push(secs);
        }
        passes.push(pass);
        round_s.push(round.elapsed().as_secs_f64());
        if measuring.elapsed().as_secs_f64() + median(&round_s) > opts.seconds {
            break;
        }
    }
    daemon.shutdown()?;
    let (store_all, store_journals) = store_bytes(&dir.join("store"));

    if opts.trace {
        let n = passes.len() as f64;
        let all = |f: fn(&Pass) -> &[f64]| -> Vec<f64> {
            passes.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        let each = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
        for (name, _) in PER_LAYER {
            report.set(name, 0.0);
        }
        report.set("server.rtt_s", median(&all(|p| &p.rtt_s)));
        report.set("server.submit_s", median(&each(|p| p.submit_s)));
        report.set("server.results_s", median(&each(|p| p.results_s)));
        let jobs: f64 = passes.iter().map(|p| p.verdicts.len() as f64).sum();
        let retries: f64 = passes
            .iter()
            .flat_map(|p| p.verdicts.iter().map(|v| v.2.saturating_sub(1) as f64))
            .sum();
        report.set("procpool.jobs", jobs / n);
        report.set(
            "procpool.retry_frac",
            if jobs > 0.0 { retries / jobs } else { 0.0 },
        );
        let gaps: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                let mut times: Vec<f64> = p.verdicts.iter().map(|v| v.1).collect();
                times.insert(0, 0.0);
                times.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
            })
            .collect();
        report.set("procpool.verdict_gap_s", median(&gaps));
        report.set("store.bytes", store_all as f64 / n);
        report.set("store.journal_bytes", store_journals as f64 / n);
        let firsts = each(|p| p.verdicts.iter().map(|v| v.1).fold(f64::INFINITY, f64::min));
        report.set("campaign.first_verdict_s", median(&firsts));
        report.set("campaign.cached_s", median(&each(|p| p.cached_s)));
        report.set("campaign.restart_s", median(&all(|p| &p.restart_s)));
        report.notes.push(format!(
            "campaigns: {} ({} shard verdicts each)",
            passes.len(),
            jobs / n
        ));
        write_trace(opts, &passes)?;
    } else {
        report.set_summary("setup_s", "s", &setups);
        let walls: Vec<f64> = passes.iter().map(|p| p.pass_s).collect();
        report.set_summary("pass_s", "s", &walls);
        let verdicts: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.verdicts.iter().map(|v| v.1))
            .collect();
        report.set_verdict_times(&verdicts);
        let executions: Vec<f64> = passes.iter().map(|p| p.executions as f64).collect();
        report.set_summary("executions", "count", &executions);
        let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_kb).collect();
        report.set_summary("peak_rss_kb", "kB", &rss);
        let cached: Vec<f64> = passes.iter().map(|p| p.cached_s).collect();
        let restarts: Vec<f64> = passes.iter().flat_map(|p| p.restart_s.clone()).collect();
        report.notes.push(format!(
            "cached resubmit {} s, restart {} s (medians over {} and {})",
            median(&cached),
            median(&restarts),
            cached.len(),
            restarts.len()
        ));
    }
    Ok(())
}

/// Writes `trace-campaign.json`: each pass span with its request spans
/// and one span per shard verdict, from submit to verdict.
fn write_trace(opts: &Options, passes: &[Pass]) -> Result<(), String> {
    let rows: Vec<String> = passes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let jobs: Vec<String> = p
                .verdicts
                .iter()
                .map(|(id, t, attempts)| {
                    format!(
                        "{{\"id\": {}, \"dur_s\": {}, \"attempts\": {attempts}}}",
                        quote(id),
                        number(*t)
                    )
                })
                .collect();
            let list = |v: &[f64]| v.iter().map(|x| number(*x)).collect::<Vec<_>>().join(", ");
            format!(
                "{{\"pass\": {i}, \"start_s\": {}, \"dur_s\": {}, \"submit_s\": {}, \
                 \"results_s\": {}, \"cached_s\": {}, \"status_rtt_s\": [{}], \
                 \"restart_s\": [{}], \"jobs\": [{}]}}",
                number(p.start_s),
                number(p.pass_s),
                number(p.submit_s),
                number(p.results_s),
                number(p.cached_s),
                list(&p.rtt_s),
                list(&p.restart_s),
                jobs.join(", ")
            )
        })
        .collect();
    let text = format!(
        "{{\"workload\": \"campaign\", \"seed\": {}, \"workers\": {WORKERS}, \"passes\": [\n{}\n]}}\n",
        opts.seed,
        rows.join(",\n")
    );
    write_out(&opts.out_dir, "trace-campaign.json", &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_and_job_ids_map_to_expected_cases() {
        assert_eq!(
            read_line("search complete — 1545 executions, 117699 transitions, 0 nonterminating"),
            (Kind::Clean, 1545)
        );
        assert_eq!(
            read_line(
                "safety violation: verifier: assertion failed (execution 1482) — 1482 executions, \
                 113499 transitions, 0 nonterminating"
            ),
            (Kind::Safety, 1482)
        );
        assert_eq!(
            read_line(
                "fuzz: 20 systems (base seed 7) — 12 clean, 8 buggy, 0 skipped, 0 discrepancies"
            ),
            (Kind::Clean, 0)
        );
        assert_eq!(case_of("s1p0-hunt12"), "hunt");
        assert_eq!(case_of("s1p3-treiber-dfs#2"), "treiber-dfs");
        assert_eq!(case_of("s9p0-wsq-cb1-reduce"), "wsq-cb1-reduce");
    }
}
