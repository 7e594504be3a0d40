//! The hidden `worker` subcommand: the process `serve` and the daemon
//! re-exec for every pool slot, and [`worker_pool`], which builds that
//! pool for both.
//!
//! A worker speaks the `chess_core::procpool` line protocol over
//! stdin/stdout and runs one job at a time through the same workload
//! table as `check` (via [`crate::run::run_check_job`]) or a small
//! in-process differential-fuzz sweep. Heartbeats are emitted only
//! while the job's [`Progress`] counters advance, so a genuinely hung
//! search stalls the heartbeat and gets this process killed by the
//! supervisor's watchdog — the intended failure mode.
//!
//! # Job payloads
//!
//! A job is one JSON object from the campaign manifest's `jobs` array:
//!
//! ```json
//! {"id": "w1", "kind": "check", "workload": "wsq", "bug": "lost-tail",
//!  "strategy": "cb:2", "max_executions": 5000}
//! {"id": "f1", "kind": "fuzz", "seed": 5, "systems": 8,
//!  "inject": ["deadlock"]}
//! ```
//!
//! The result payload is `{"code": <0-7>, "line": "<summary>"}` —
//! plus, for check jobs, the full `report` (wall clock zeroed) so the
//! campaign layer can merge shard results. `line` carries no
//! wall-clock field — the supervisor's final report is assembled from
//! these lines, and their determinism is what makes a resumed campaign
//! reprint byte-for-byte. A check job may carry `shard_index`/
//! `shard_of` (written by the campaign layer's expansion of a
//! `"shards": K` job) to run one slice of the search. A field of the
//! wrong type (`"reduce": "yes"`) is rejected, never ignored, and a fuzz
//! job's generator knobs must lie in the ranges the `fuzz` flags allow.
//!
//! # Chaos injection
//!
//! Setting `FAIR_CHESS_CHAOS="abort:P,hang:P,garbage:P,seed:N"` makes
//! the worker misbehave at job start with the given probabilities:
//! `abort` calls `std::process::abort()`, `hang` sleeps forever without
//! ticking progress (exercising the watchdog), and `garbage` emits an
//! unparsable protocol line. Each decision is drawn from a hash of
//! (seed, job id, attempt), so retries re-roll deterministically and a
//! re-run (or resumed) campaign injects the identical fault sequence.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use chess_bench::Json;
use chess_core::procpool::{worker_main, PoolConfig};
use chess_core::{derive_seed, generate_system, Progress};
use chess_server::{JobResult, WorkerPool};
use chess_state::{differential_check_with_progress, OracleLimits, SystemOutcome};

use crate::exitcode;
use crate::fuzzcmd::fuzz_config;
use crate::opts::{self, FuzzOpts, PoolOpts, RunOpts, WorkerOpts};
use crate::run::run_check_job;

/// Runs the worker protocol loop until the supervisor shuts us down or
/// closes stdin.
pub fn do_worker(o: &WorkerOpts) -> ExitCode {
    let chaos = ChaosConfig::from_env();
    worker_main(
        std::io::stdin().lock(),
        std::io::stdout(),
        Duration::from_millis(o.heartbeat_millis),
        move |id, attempt, payload, progress| {
            chaos.inject(id, attempt);
            Ok(run_job(payload, progress)?.to_payload())
        },
    );
    ExitCode::SUCCESS
}

/// The pool `serve` and the daemon run campaigns on: this executable
/// (or `FAIR_CHESS_WORKER_BIN`, which the fault-injection tests point at
/// a nonexistent path to force the degraded path) re-exec'd as `worker`,
/// with [`run_job`] as the in-process stand-in.
pub fn worker_pool(o: &PoolOpts) -> Result<WorkerPool, String> {
    let program = std::env::var_os("FAIR_CHESS_WORKER_BIN")
        .map_or_else(std::env::current_exe, |p| Ok(PathBuf::from(p)))
        .map_err(|e| format!("cannot locate own executable: {e}"))?;
    // Workers heartbeat at a fraction of the watchdog deadline so a live
    // job always beats it.
    let heartbeat_ms = (o.heartbeat_timeout.as_millis() as u64 / 5).clamp(10, 500);
    Ok(WorkerPool {
        config: PoolConfig {
            workers: o.workers,
            heartbeat_timeout: o.heartbeat_timeout,
            max_attempts: o.max_attempts,
            jitter_seed: o.jitter_seed,
            ..PoolConfig::default()
        },
        program,
        args: vec![
            "worker".to_string(),
            "--heartbeat-millis".to_string(),
            heartbeat_ms.to_string(),
        ],
        in_process: |payload| {
            run_job(payload, &Arc::new(Progress::default())).map(|r| r.to_payload())
        },
    })
}

/// Parses and runs one job payload, in a worker or, when no worker can
/// be spawned, in the front end's own process.
pub fn run_job(payload: &str, progress: &Arc<Progress>) -> Result<JobResult, String> {
    let json = Json::parse(payload).map_err(|e| format!("job payload: {e}"))?;
    match job_kind(&json) {
        "check" => run_check_job(&check_opts_from_json(&json)?, progress),
        "fuzz" => Ok(run_fuzz_job(&fuzz_opts_from_json(&json)?, progress)),
        other => Err(format!("unknown job kind '{other}'")),
    }
}

/// Structural validation of a manifest job, without running it: the
/// supervisor calls this at load time so a malformed manifest fails
/// fast (exit 2), before any worker is spawned. Semantic problems a
/// worker discovers later (an unknown workload name, say) surface as
/// handler errors and quarantine the job with that evidence instead.
pub fn validate_job(json: &Json) -> Result<(), String> {
    match job_kind(json) {
        "check" => check_opts_from_json(json).map(|_| ()),
        "fuzz" => fuzz_opts_from_json(json).map(|_| ()),
        other => Err(format!("unknown job kind '{other}'")),
    }
}

fn job_kind(json: &Json) -> &str {
    json.get("kind").and_then(Json::as_str).unwrap_or("check")
}

/// Reads a job field with `get`. A present field of the wrong type is an
/// error naming the type it should have, never a silent fallback to the
/// default.
fn field<'a, T>(
    json: &'a Json,
    key: &str,
    want: &str,
    get: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => get(v)
            .map(Some)
            .ok_or_else(|| format!("{} job field '{key}' must be {want}", job_kind(json))),
    }
}

/// Builds the `check`-equivalent options from a check job object. Only
/// single-process knobs are honored: parallelism comes from the pool,
/// and journaling belongs to the supervisor, so `jobs`, `checkpoint`,
/// and `resume` stay at their defaults.
fn check_opts_from_json(json: &Json) -> Result<RunOpts, String> {
    let text = |key: &str| field(json, key, "a string", Json::as_str);
    let flag = |key: &str| field(json, key, "a boolean", Json::as_bool);
    let count = |key: &str| field(json, key, "a non-negative integer", Json::as_u64);

    let mut o = RunOpts {
        workload: text("workload")?
            .ok_or("check job has no 'workload'")?
            .to_string(),
        bug: text("bug")?.map(str::to_string),
        trace: false,
        ..RunOpts::default()
    };
    if let Some(m) = text("memory")? {
        o.memory = m.parse()?;
    }
    if let Some(s) = text("strategy")? {
        o.strategy = opts::parse_strategy(s).map_err(|e| e.0)?;
    }
    if let Some(r) = flag("reduce")? {
        o.reduce = r;
    }
    if let Some(v) = flag("validate_effects")? {
        o.validate_effects = v;
    }
    if let Some(f) = flag("fair")? {
        o.fair = f;
    }
    if let Some(k) = count("k")? {
        o.k = k;
    }
    if let Some(d) = count("depth_bound")? {
        o.depth_bound = d as usize;
    }
    o.max_executions = count("max_executions")?;
    if let Some(ms) = count("time_budget_ms")? {
        o.time_budget = Some(Duration::from_millis(ms));
    }
    // shard_index/shard_of are what the campaign layer's expansion of a
    // `"shards": K` job writes into each shard payload.
    match (count("shard_index")?, count("shard_of")?) {
        (None, None) => {}
        (Some(index), Some(of)) if of >= 1 && index < of => {
            o.shard = Some((index as usize, of as usize));
        }
        _ => {
            return Err(
                "shard_index/shard_of must appear together with 0 <= index < of".to_string(),
            )
        }
    }
    if o.reduce && matches!(o.strategy, opts::StrategyOpt::Random(_)) {
        return Err("a reduced search needs strategy dfs or cb:<N>".to_string());
    }
    Ok(o)
}

/// Builds the `fuzz`-equivalent options from a fuzz job object: the
/// generator knobs, the seed, the system count (10 unless given) and the
/// oracles' state cap. Knobs out of the `fuzz` flags' ranges and unknown
/// injections are rejected, so a bad job fails at load time.
fn fuzz_opts_from_json(json: &Json) -> Result<FuzzOpts, String> {
    let count = |key: &str| field(json, key, "a non-negative integer", Json::as_u64);
    let knob = |key: &str| -> Result<Option<u64>, String> {
        count(key)?
            .map(|v| opts::fuzz_knob(key, v).map_err(|why| format!("fuzz job field '{key}' {why}")))
            .transpose()
    };
    let d = FuzzOpts::default();
    let mut o = FuzzOpts {
        systems: count("systems")?.unwrap_or(10),
        seed: count("seed")?.unwrap_or(d.seed),
        max_states: count("max_states")?.map_or(d.max_states, |n| n as usize),
        max_threads: knob("max_threads")?.map_or(d.max_threads, |n| n as usize),
        max_ops: knob("max_ops")?.map_or(d.max_ops, |n| n as usize),
        yield_percent: knob("yield_percent")?.map_or(d.yield_percent, |p| p as u32),
        ..d
    };
    let inject = field(json, "inject", "an array of strings", Json::as_array)?;
    for kind in inject.unwrap_or_default() {
        let kind = kind
            .as_str()
            .ok_or("fuzz job field 'inject' must be an array of strings")?;
        o.inject(kind)?;
    }
    Ok(o)
}

/// A small in-process differential-fuzz sweep: `o.systems` generated
/// systems checked against the stateful oracles, one progress tick per
/// system. The summary line is deterministic (counts only).
fn run_fuzz_job(o: &FuzzOpts, progress: &Arc<Progress>) -> JobResult {
    let limits = OracleLimits {
        max_states: o.max_states,
        // The pool owns parallelism (and the cross-check's private
        // workers would not feed the heartbeat progress); keep each job
        // a single-threaded, fully progress-observed check.
        parallel_cross_check: false,
        ..OracleLimits::default()
    };
    let (mut clean, mut buggy, mut skipped, mut discrepancies) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..o.systems {
        let sys = generate_system(&fuzz_config(o, derive_seed(o.seed, i)));
        let verdict = differential_check_with_progress(|| sys.clone(), &limits, progress);
        match &verdict.outcome {
            SystemOutcome::Clean => clean += 1,
            SystemOutcome::Skipped(_) => skipped += 1,
            SystemOutcome::Buggy { .. } => buggy += 1,
        }
        discrepancies += verdict.discrepancies.len() as u64;
        progress.executions.fetch_add(1, Ordering::Relaxed);
    }
    let code = if discrepancies > 0 {
        exitcode::SAFETY_VIOLATION
    } else {
        exitcode::CLEAN
    };
    JobResult {
        code,
        line: format!(
            "fuzz: {} systems (base seed {}) — {clean} clean, {buggy} buggy, \
             {skipped} skipped, {discrepancies} discrepancies",
            o.systems, o.seed
        ),
        // A fuzz sweep has no search report to merge; only check jobs
        // shard.
        report: None,
    }
}

// ---------------------------------------------------------------------
// Chaos injection
// ---------------------------------------------------------------------

/// Fault injection knobs parsed from `FAIR_CHESS_CHAOS`. All-zero (the
/// default) injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ChaosConfig {
    abort: f64,
    hang: f64,
    garbage: f64,
    seed: u64,
}

impl ChaosConfig {
    fn from_env() -> ChaosConfig {
        let Ok(spec) = std::env::var("FAIR_CHESS_CHAOS") else {
            return ChaosConfig::default();
        };
        match ChaosConfig::parse(&spec) {
            Ok(c) => c,
            Err(e) => {
                // A worker must never die over a bad knob: report and
                // run un-sabotaged.
                eprintln!("worker: ignoring FAIR_CHESS_CHAOS ({e})");
                ChaosConfig::default()
            }
        }
    }

    fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut c = ChaosConfig::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| format!("expected key:value, got '{part}'"))?;
            let p = || -> Result<f64, String> {
                let p: f64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad probability '{value}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability '{value}' outside 0..=1"));
                }
                Ok(p)
            };
            match key.trim() {
                "abort" => c.abort = p()?,
                "hang" => c.hang = p()?,
                "garbage" => c.garbage = p()?,
                "seed" => {
                    c.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad seed '{value}'"))?;
                }
                other => return Err(format!("unknown chaos knob '{other}'")),
            }
        }
        Ok(c)
    }

    /// Rolls the dice for (job, attempt) and misbehaves accordingly.
    /// Deterministic: the same (seed, id, attempt) always rolls the
    /// same way, so a resumed campaign replays the original faults.
    fn inject(&self, id: &str, attempt: u32) {
        if self.abort == 0.0 && self.hang == 0.0 && self.garbage == 0.0 {
            return;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for b in id.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ u64::from(attempt)).wrapping_mul(0x0000_0100_0000_01b3);
        let mut roll = move |p: f64| {
            // splitmix64 step per roll: three independent decisions
            // from one hash without a full RNG.
            h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ((z % 1_000_000) as f64) < p * 1_000_000.0
        };
        if roll(self.abort) {
            eprintln!("worker: chaos abort (job {id}, attempt {attempt})");
            std::process::abort();
        }
        if roll(self.hang) {
            eprintln!("worker: chaos hang (job {id}, attempt {attempt})");
            loop {
                // No progress ticks, so no heartbeats: the supervisor's
                // watchdog will SIGKILL this process.
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        if roll(self.garbage) {
            eprintln!("worker: chaos garbage (job {id}, attempt {attempt})");
            // Deliberately unparsable: the supervisor must treat the
            // stream as unframeable and kill us.
            println!("!!chaos garbage!!");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let c = ChaosConfig::parse("abort:0.5,hang:0.25,garbage:0,seed:42").unwrap();
        assert_eq!(
            c,
            ChaosConfig {
                abort: 0.5,
                hang: 0.25,
                garbage: 0.0,
                seed: 42
            }
        );
        assert!(ChaosConfig::parse("abort:1.5").is_err());
        assert!(ChaosConfig::parse("explode:0.5").is_err());
        assert!(ChaosConfig::parse("abort").is_err());
        assert_eq!(ChaosConfig::parse("").unwrap(), ChaosConfig::default());
    }

    #[test]
    fn job_result_round_trips() {
        let r = JobResult {
            code: 4,
            line: "deadlock: both forks held (execution 9) — 12 executions".to_string(),
            report: None,
        };
        let back = JobResult::from_payload(&r.to_payload()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn shard_fields_map_onto_run_opts() {
        let json = Json::parse(
            r#"{"kind": "check", "workload": "counter",
                "shard_index": 1, "shard_of": 3}"#,
        )
        .unwrap();
        let o = check_opts_from_json(&json).unwrap();
        assert_eq!(o.shard, Some((1, 3)));

        // Reduced and context-bounded searches shard like dfs.
        let json = Json::parse(
            r#"{"workload": "counter", "shard_index": 0, "shard_of": 2,
                "strategy": "cb:2", "reduce": true}"#,
        )
        .unwrap();
        assert_eq!(check_opts_from_json(&json).unwrap().shard, Some((0, 2)));

        // Half a shard spec and an out-of-range index are malformed.
        for bad in [
            r#"{"workload": "counter", "shard_index": 0}"#,
            r#"{"workload": "counter", "shard_index": 3, "shard_of": 3}"#,
        ] {
            let err = check_opts_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains("together"), "{err:?}");
        }
    }

    /// A field of the wrong type is rejected with its name and the type
    /// it should have, instead of silently running with the default.
    #[test]
    fn fields_of_the_wrong_type_are_rejected() {
        for (bad, needle) in [
            (
                r#"{"workload": "counter", "reduce": "yes"}"#,
                "'reduce' must be a boolean",
            ),
            (
                r#"{"workload": "counter", "max_executions": "100"}"#,
                "'max_executions' must be a non-negative integer",
            ),
            (
                r#"{"workload": "counter", "strategy": 2}"#,
                "'strategy' must be a string",
            ),
        ] {
            let err = check_opts_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    /// Fuzz jobs are held to the `fuzz` flags' types and ranges at load
    /// time, instead of running with a default or failing in a worker.
    #[test]
    fn fuzz_jobs_out_of_the_flags_ranges_are_rejected() {
        for (bad, needle) in [
            (
                r#"{"kind": "fuzz", "systems": "100"}"#,
                "fuzz job field 'systems' must be a non-negative integer",
            ),
            (
                r#"{"kind": "fuzz", "yield_percent": 500}"#,
                "fuzz job field 'yield_percent' must be 0..=100",
            ),
            (
                r#"{"kind": "fuzz", "max_threads": 1}"#,
                "fuzz job field 'max_threads' needs at least 2",
            ),
            (
                r#"{"kind": "fuzz", "max_ops": 0}"#,
                "fuzz job field 'max_ops' needs at least 1",
            ),
            (
                r#"{"kind": "fuzz", "inject": ["explode"]}"#,
                "unknown injection 'explode'",
            ),
            (
                r#"{"kind": "fuzz", "inject": "deadlock"}"#,
                "fuzz job field 'inject' must be an array of strings",
            ),
        ] {
            let err = validate_job(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        // The shapes existing manifests use stay valid.
        for good in [
            r#"{"id": "f", "kind": "fuzz", "seed": 7, "systems": 20}"#,
            r#"{"id": "f", "kind": "fuzz", "seed": 7, "systems": 4,
                "inject": ["deadlock"], "max_states": 50000}"#,
            r#"{"kind": "fuzz", "max_threads": 2, "max_ops": 1, "yield_percent": 100}"#,
        ] {
            validate_job(&Json::parse(good).unwrap()).unwrap();
        }
        let o = fuzz_opts_from_json(&Json::parse(r#"{"kind": "fuzz"}"#).unwrap()).unwrap();
        assert_eq!((o.systems, o.seed, o.max_states), (10, 1, 200_000));
    }

    #[test]
    fn sharded_check_jobs_cover_the_space_and_merge_to_the_sequential_report() {
        // Run the same job unsharded and as 2 shards; the merged shard
        // reports must equal the unsharded report byte-for-byte.
        let progress = Arc::new(Progress::default());
        let solo = run_job(
            r#"{"workload": "counter", "max_executions": 100000}"#,
            &progress,
        )
        .unwrap();
        let mut reports = Vec::new();
        for index in 0..2 {
            let r = run_job(
                &format!(
                    r#"{{"workload": "counter", "max_executions": 100000,
                        "shard_index": {index}, "shard_of": 2}}"#
                ),
                &progress,
            )
            .unwrap();
            reports.push(r.report.expect("check jobs carry reports"));
        }
        let merged = chess_core::merge_contiguous_shards(&reports);
        assert_eq!(merged, solo.report.unwrap());
        assert_eq!(merged.deterministic_line(), solo.line);
    }

    #[test]
    fn check_job_payload_maps_onto_run_opts() {
        let json = Json::parse(
            r#"{"kind": "check", "workload": "wsq", "bug": "lost-tail",
                "strategy": "cb:2", "max_executions": 100, "fair": true,
                "k": 2, "depth_bound": 500, "time_budget_ms": 250}"#,
        )
        .unwrap();
        let o = check_opts_from_json(&json).unwrap();
        assert_eq!(o.workload, "wsq");
        assert_eq!(o.bug.as_deref(), Some("lost-tail"));
        assert_eq!(o.strategy, crate::opts::StrategyOpt::Cb(2));
        assert_eq!(o.max_executions, Some(100));
        assert_eq!(o.k, 2);
        assert_eq!(o.depth_bound, 500);
        assert_eq!(o.time_budget, Some(Duration::from_millis(250)));
        assert!(!o.trace, "job runs never print traces");

        let bad = Json::parse(r#"{"kind": "check"}"#).unwrap();
        assert!(check_opts_from_json(&bad).is_err(), "workload is required");
    }

    #[test]
    fn run_job_reports_a_seeded_bug_deterministically() {
        let payload = r#"{"kind": "check", "workload": "counter", "bug": "racy",
                          "max_executions": 2000}"#;
        let progress = Arc::new(Progress::default());
        let first = run_job(payload, &progress).unwrap();
        assert_eq!(first.code, exitcode::SAFETY_VIOLATION);
        assert!(first.line.contains("safety violation"), "{}", first.line);
        assert!(
            progress.tick() > 0,
            "the job must publish progress for the heartbeat loop"
        );
        // Byte-identical across runs: no wall-clock field in the line.
        let second = run_job(payload, &Arc::new(Progress::default())).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn run_job_rejects_unknown_workloads_as_handler_errors() {
        let progress = Arc::new(Progress::default());
        let err = run_job(r#"{"workload": "nope"}"#, &progress).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        let err = run_job("not json at all", &progress).unwrap_err();
        assert!(err.contains("job payload"), "{err}");
    }
}
