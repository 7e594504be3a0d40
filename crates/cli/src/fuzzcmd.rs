//! The `fuzz` and `replay` subcommands: differential fuzzing of the
//! fair stateless search against the exhaustive stateful reference,
//! plus corpus-file replay.
//!
//! Every checked system runs through
//! [`chess_state::differential_check`], which executes one oracle per
//! theorem of the paper. Errors (injected or organic) are ddmin-
//! minimized and persisted as corpus files; oracle disagreements fail
//! the run with exit code 1 and leave a `discrepancy-*.json` record
//! behind for the nightly artifact upload.
//!
//! # Corpus format (version 1)
//!
//! ```json
//! {
//!   "version": 1,
//!   "kind": "deadlock",
//!   "message": "deadlock: no thread enabled",
//!   "depth_bound": 10000,
//!   "config": { "seed": 42, "max_threads": 3, "...": "..." },
//!   "original_len": 31,
//!   "schedule": [[0, 0], [1, 0], [0, 0]]
//! }
//! ```
//!
//! `config` holds every generator knob, so `replay` can regenerate the
//! identical [`chess_core::FuzzSystem`] and drive it through a
//! [`FixedSchedule`] with the recorded decisions.

use std::collections::HashSet;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chess_bench::{read_journal, schedule_from_json, schedule_to_json, JournalWriter, Json};
use chess_core::strategy::FixedSchedule;
use chess_core::{
    derive_seed, generate_atomic_program, generate_system, Config, Explorer, FuzzConfig,
    OutcomeKind, Schedule, SearchOutcome,
};
use chess_kernel::MemoryModel;
use chess_state::{
    differential_check, memory_monotonicity_check, Discrepancy, MemoryLimits, OracleLimits,
    SystemOutcome, Verdict,
};

use crate::opts::{FuzzOpts, ReplayOpts};
use crate::{exitcode, signal};

/// Corpus file schema version.
const CORPUS_VERSION: u64 = 1;

/// One worker's record of a checked system.
struct SystemResult {
    index: u64,
    seed: u64,
    verdict: Verdict,
    /// Executions enumerated by the relaxed-memory pass in
    /// `[sc, tso, pso]` order; `None` when the pass did not run.
    memory_executions: Option<[u64; 3]>,
}

/// Runs `fair-chess fuzz`.
pub fn do_fuzz(o: &FuzzOpts) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&o.corpus_dir) {
        eprintln!("error: cannot create corpus dir '{}': {e}", o.corpus_dir);
        return ExitCode::from(exitcode::USAGE);
    }
    let limits = OracleLimits {
        max_states: o.max_states,
        reduce: o.reduce,
        ..OracleLimits::default()
    };

    // Crash-safe campaign journal: every checked system's verdict is
    // persisted as it completes, and `--resume` replays the journal
    // instead of re-checking those systems — the completed campaign's
    // report is identical to an uninterrupted run's.
    let stop = signal::install();
    let prior: Vec<SystemResult> = match &o.resume {
        Some(path) => match load_fuzz_journal(path, o) {
            Ok(prior) => {
                eprintln!(
                    "resuming from {path}: {} systems already checked",
                    prior.len()
                );
                prior
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(exitcode::USAGE);
            }
        },
        None => Vec::new(),
    };
    let done: HashSet<u64> = prior.iter().map(|r| r.index).collect();
    let writer: Option<Mutex<JournalWriter>> = o
        .checkpoint
        .as_ref()
        .map(|path| Mutex::new(JournalWriter::new(path)));

    let next = AtomicU64::new(0);
    let results: Mutex<Vec<SystemResult>> = Mutex::new(prior);
    std::thread::scope(|scope| {
        for _ in 0..o.jobs.max(1) {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= o.systems {
                    break;
                }
                if done.contains(&index) {
                    continue;
                }
                let seed = derive_seed(o.seed, index);
                let config = fuzz_config(o, seed);
                let sys = generate_system(&config);
                let mut verdict = differential_check(|| sys.clone(), &limits);
                let memory_executions = if o.memory.buffers() {
                    // Per-system relaxed-memory pass: enumerate one atomic
                    // program (same seed) under sc/tso/pso and require the
                    // terminal outcome sets to nest. A tight budget keeps
                    // the pass from dominating the campaign; blowups skip
                    // rather than fail.
                    let memory_limits = MemoryLimits {
                        max_executions: 20_000,
                        depth_bound: 1_000,
                    };
                    let prog = generate_atomic_program(&config);
                    let mv = memory_monotonicity_check(&prog, &memory_limits);
                    verdict.discrepancies.extend(mv.discrepancies);
                    Some(mv.executions)
                } else {
                    None
                };
                let doc = {
                    let mut all = results.lock().unwrap();
                    all.push(SystemResult {
                        index,
                        seed,
                        verdict,
                        memory_executions,
                    });
                    writer.as_ref().map(|_| fuzz_journal_doc(o, &all))
                };
                if let (Some(writer), Some(doc)) = (&writer, doc) {
                    writer.lock().unwrap().write(&doc);
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|r| r.index);

    if let Some(writer) = &writer {
        for warning in writer.lock().unwrap().warnings() {
            eprintln!("warning: {warning}");
        }
    }
    if signal::interrupted() && (results.len() as u64) < o.systems {
        eprintln!(
            "interrupted after {} of {} systems",
            results.len(),
            o.systems
        );
        match &o.checkpoint {
            Some(path) => {
                eprintln!("resume with --resume {path} (add --checkpoint to keep journaling)")
            }
            None => eprintln!(
                "progress was lost (pass --checkpoint <FILE> to make interruptions resumable)"
            ),
        }
        return ExitCode::from(exitcode::INTERRUPTED);
    }

    report_fuzz_run(o, &results)
}

/// Builds the generator configuration for one system (of a `fuzz` run
/// or a campaign fuzz job).
pub(crate) fn fuzz_config(o: &FuzzOpts, seed: u64) -> FuzzConfig {
    FuzzConfig {
        max_threads: o.max_threads,
        max_ops: o.max_ops,
        yield_percent: o.yield_percent,
        inject_safety: o.inject_safety,
        inject_deadlock: o.inject_deadlock,
        inject_livelock: o.inject_livelock,
        inject_panic: o.inject_panic,
        memory: o.memory,
        ..FuzzConfig::default().with_seed(seed)
    }
}

/// The campaign-level knobs a fuzz journal records, so `--resume` can
/// refuse a journal taken with different generator settings.
fn fuzz_context_json(o: &FuzzOpts) -> Json {
    Json::object([
        ("systems", Json::UInt(o.systems)),
        ("seed", Json::UInt(o.seed)),
        ("max_threads", Json::UInt(o.max_threads as u64)),
        ("max_ops", Json::UInt(o.max_ops as u64)),
        ("yield_percent", Json::UInt(u64::from(o.yield_percent))),
        ("inject_safety", Json::Bool(o.inject_safety)),
        ("inject_deadlock", Json::Bool(o.inject_deadlock)),
        ("inject_livelock", Json::Bool(o.inject_livelock)),
        ("inject_panic", Json::Bool(o.inject_panic)),
        ("memory", Json::Str(o.memory.as_str().to_string())),
        ("max_states", Json::UInt(o.max_states as u64)),
        ("reduce", Json::Bool(o.reduce)),
    ])
}

/// Serializes the whole campaign state: run context plus one verdict
/// record per checked system.
fn fuzz_journal_doc(o: &FuzzOpts, results: &[SystemResult]) -> Json {
    Json::object([
        ("version", Json::UInt(CORPUS_VERSION)),
        ("run", fuzz_context_json(o)),
        (
            "results",
            Json::array(results.iter().map(|r| {
                let mut fields = vec![
                    ("index", Json::UInt(r.index)),
                    ("seed", Json::UInt(r.seed)),
                    ("verdict", verdict_to_json(&r.verdict)),
                ];
                if let Some(m) = r.memory_executions {
                    fields.push((
                        "memory_executions",
                        Json::array(m.iter().map(|&x| Json::UInt(x))),
                    ));
                }
                Json::object(fields)
            })),
        ),
    ])
}

/// Loads a fuzz journal and validates it against the current options.
fn load_fuzz_journal(path: &str, o: &FuzzOpts) -> Result<Vec<SystemResult>, String> {
    let doc = read_journal(Path::new(path))?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}: fuzz journal has no version"))?;
    if version != CORPUS_VERSION {
        return Err(format!(
            "{path}: unsupported fuzz journal version {version}"
        ));
    }
    let run = doc
        .get("run")
        .ok_or_else(|| format!("{path}: fuzz journal has no run context"))?;
    let expect = fuzz_context_json(o);
    if run.to_string_pretty() != expect.to_string_pretty() {
        return Err(format!(
            "{path}: fuzz journal was taken with different options; resume must repeat the \
             original --systems/--seed/--inject/... flags\nrecorded: {}\ncurrent:  {}",
            run.to_string_pretty(),
            expect.to_string_pretty()
        ));
    }
    let Some(Json::Array(items)) = doc.get("results") else {
        return Err(format!("{path}: fuzz journal has no results array"));
    };
    items
        .iter()
        .map(|item| {
            let field = |name: &str| {
                item.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{path}: journal result is missing '{name}'"))
            };
            Ok(SystemResult {
                index: field("index")?,
                seed: field("seed")?,
                verdict: verdict_from_json(
                    item.get("verdict")
                        .ok_or_else(|| format!("{path}: journal result has no verdict"))?,
                )?,
                memory_executions: item.get("memory_executions").and_then(|j| match j {
                    Json::Array(v) if v.len() == 3 => {
                        let mut out = [0u64; 3];
                        for (slot, x) in out.iter_mut().zip(v) {
                            *slot = x.as_u64()?;
                        }
                        Some(out)
                    }
                    _ => None,
                }),
            })
        })
        .collect()
}

/// Serializes one differential verdict for the campaign journal.
fn verdict_to_json(v: &Verdict) -> Json {
    let outcome = match &v.outcome {
        SystemOutcome::Clean => Json::object([("kind", Json::Str("clean".into()))]),
        SystemOutcome::Skipped(why) => Json::object([
            ("kind", Json::Str("skipped".into())),
            ("why", Json::Str(why.clone())),
        ]),
        SystemOutcome::Buggy {
            kind,
            message,
            schedule,
            minimized,
        } => Json::object([
            ("kind", Json::Str("buggy".into())),
            ("bug", Json::Str(kind.as_str().into())),
            ("message", Json::Str(message.clone())),
            ("schedule", schedule_to_json(schedule)),
            ("minimized", schedule_to_json(minimized)),
        ]),
    };
    Json::object([
        ("graph_states", Json::UInt(v.graph_states as u64)),
        ("yield_free_states", Json::UInt(v.yield_free_states as u64)),
        ("covered_states", Json::UInt(v.covered_states as u64)),
        ("max_unrolling", Json::UInt(u64::from(v.max_unrolling))),
        ("dfs_executions", Json::UInt(v.dfs_executions)),
        ("sleep_executions", Json::UInt(v.sleep_executions)),
        ("outcome", outcome),
        (
            "discrepancies",
            Json::array(v.discrepancies.iter().map(|d| {
                Json::object([
                    ("oracle", Json::Str(d.oracle.into())),
                    ("detail", Json::Str(d.detail.clone())),
                ])
            })),
        ),
    ])
}

/// Parses a verdict serialized by [`verdict_to_json`].
fn verdict_from_json(json: &Json) -> Result<Verdict, String> {
    let num = |name: &str| {
        json.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("fuzz journal: verdict is missing '{name}'"))
    };
    let outcome_json = json
        .get("outcome")
        .ok_or("fuzz journal: verdict has no outcome")?;
    let text = |j: &Json, name: &str| j.get(name).and_then(Json::as_str).unwrap_or("").to_string();
    let outcome = match outcome_json.get("kind").and_then(Json::as_str) {
        Some("clean") => SystemOutcome::Clean,
        Some("skipped") => SystemOutcome::Skipped(text(outcome_json, "why")),
        Some("buggy") => SystemOutcome::Buggy {
            kind: outcome_json
                .get("bug")
                .and_then(Json::as_str)
                .and_then(OutcomeKind::parse)
                .ok_or("fuzz journal: buggy verdict has no recognizable bug kind")?,
            message: text(outcome_json, "message"),
            schedule: schedule_from_json(
                outcome_json
                    .get("schedule")
                    .ok_or("fuzz journal: buggy verdict has no schedule")?,
            )?,
            minimized: schedule_from_json(
                outcome_json
                    .get("minimized")
                    .ok_or("fuzz journal: buggy verdict has no minimized schedule")?,
            )?,
        },
        other => {
            return Err(format!(
                "fuzz journal: unknown verdict outcome kind {other:?}"
            ))
        }
    };
    let discrepancies = match json.get("discrepancies") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|d| Discrepancy {
                // The oracle id is `&'static str` in memory; a resumed
                // journal leaks these few bytes once per discrepancy.
                oracle: Box::leak(text(d, "oracle").into_boxed_str()),
                detail: text(d, "detail"),
            })
            .collect(),
        _ => Vec::new(),
    };
    // Absent in journals written before the reduction oracles existed.
    let lenient = |name: &str| json.get(name).and_then(Json::as_u64).unwrap_or(0);
    Ok(Verdict {
        graph_states: num("graph_states")? as usize,
        yield_free_states: num("yield_free_states")? as usize,
        covered_states: num("covered_states")? as usize,
        max_unrolling: num("max_unrolling")? as u32,
        dfs_executions: lenient("dfs_executions"),
        sleep_executions: lenient("sleep_executions"),
        outcome,
        discrepancies,
    })
}

/// Prints the aggregate report, writes corpus and discrepancy files,
/// and picks the exit code (1 iff any oracle disagreed).
fn report_fuzz_run(o: &FuzzOpts, results: &[SystemResult]) -> ExitCode {
    let mut clean = 0u64;
    let mut skipped = 0u64;
    let mut buggy: Vec<(&'static str, u64)> = Vec::new();
    let mut max_unrolling = 0u32;
    let mut max_states = 0usize;
    let mut discrepancies = 0usize;

    for r in results {
        max_unrolling = max_unrolling.max(r.verdict.max_unrolling);
        max_states = max_states.max(r.verdict.graph_states);
        match &r.verdict.outcome {
            SystemOutcome::Clean => clean += 1,
            SystemOutcome::Skipped(why) => {
                skipped += 1;
                eprintln!("note: system {} (seed {}) skipped: {why}", r.index, r.seed);
            }
            SystemOutcome::Buggy {
                kind,
                message,
                schedule,
                minimized,
            } => {
                match buggy.iter_mut().find(|(k, _)| *k == kind.as_str()) {
                    Some((_, n)) => *n += 1,
                    None => buggy.push((kind.as_str(), 1)),
                }
                let path =
                    Path::new(&o.corpus_dir).join(format!("{}-{}.json", kind.as_str(), r.seed));
                let doc = corpus_entry(o, r.seed, *kind, message, schedule, minimized);
                if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
                    eprintln!("error: cannot write corpus file {}: {e}", path.display());
                }
                println!(
                    "system {} (seed {}): {} — \"{message}\" minimized {} -> {} decisions, \
                     corpus {}",
                    r.index,
                    r.seed,
                    kind.as_str(),
                    schedule.len(),
                    minimized.len(),
                    path.display(),
                );
            }
        }
        if !r.verdict.discrepancies.is_empty() {
            discrepancies += r.verdict.discrepancies.len();
            for d in &r.verdict.discrepancies {
                eprintln!(
                    "DISCREPANCY system {} (seed {}) oracle {}: {}",
                    r.index, r.seed, d.oracle, d.detail
                );
            }
            let path = Path::new(&o.corpus_dir).join(format!("discrepancy-{}.json", r.seed));
            let doc = Json::object([
                ("version", Json::UInt(CORPUS_VERSION)),
                ("seed", Json::UInt(r.seed)),
                (
                    "oracles",
                    Json::array(r.verdict.discrepancies.iter().map(|d| {
                        Json::object([
                            ("oracle", Json::Str(d.oracle.into())),
                            ("detail", Json::Str(d.detail.clone())),
                        ])
                    })),
                ),
            ]);
            if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
                eprintln!(
                    "error: cannot write discrepancy file {}: {e}",
                    path.display()
                );
            }
        }
    }

    let buggy_total: u64 = buggy.iter().map(|(_, n)| n).sum();
    println!(
        "fuzzed {} systems (base seed {}): {clean} clean, {buggy_total} buggy, {skipped} skipped",
        results.len(),
        o.seed,
    );
    for (kind, n) in &buggy {
        println!("  {kind}: {n}");
    }
    println!("largest state graph: {max_states} states");
    println!("max per-execution unrolling: {max_unrolling} (Theorem 4 metric)");
    if o.memory.buffers() {
        let model_index = if o.memory == MemoryModel::Pso { 2 } else { 1 };
        let (programs, sc_execs, buffered_execs) = results
            .iter()
            .filter_map(|r| r.memory_executions)
            .fold((0u64, 0u64, 0u64), |(n, sc, buf), m| {
                (n + 1, sc + m[0], buf + m[model_index])
            });
        println!(
            "relaxed-memory oracle ({}): {programs} atomic programs, {buffered_execs} buffered \
             executions vs {sc_execs} under sc",
            o.memory
        );
    }
    if o.reduce {
        let checked = results
            .iter()
            .filter(|r| !matches!(r.verdict.outcome, SystemOutcome::Skipped(_)));
        let (plain, reduced) = checked.fold((0u64, 0u64), |(p, s), r| {
            (p + r.verdict.dfs_executions, s + r.verdict.sleep_executions)
        });
        let saved = if plain > 0 {
            100.0 * (plain as f64 - reduced as f64) / plain as f64
        } else {
            0.0
        };
        println!(
            "sleep-set reduction: {reduced} executions vs {plain} unreduced ({saved:.1}% fewer)"
        );
    }
    if discrepancies > 0 {
        eprintln!("FAIL: {discrepancies} oracle discrepancies");
        ExitCode::from(exitcode::SAFETY_VIOLATION)
    } else {
        println!("all theorem oracles agreed");
        ExitCode::from(exitcode::CLEAN)
    }
}

/// Serializes one corpus entry.
fn corpus_entry(
    o: &FuzzOpts,
    seed: u64,
    kind: OutcomeKind,
    message: &str,
    original: &Schedule,
    minimized: &Schedule,
) -> Json {
    let limits = OracleLimits::default();
    let config = fuzz_config(o, seed);
    Json::object([
        ("version", Json::UInt(CORPUS_VERSION)),
        ("kind", Json::Str(kind.as_str().into())),
        ("message", Json::Str(message.into())),
        ("depth_bound", Json::UInt(limits.depth_bound as u64)),
        (
            "config",
            Json::object([
                ("seed", Json::UInt(config.seed)),
                ("max_threads", Json::UInt(config.max_threads as u64)),
                ("max_ops", Json::UInt(config.max_ops as u64)),
                ("counters", Json::UInt(config.counters as u64)),
                ("locks", Json::UInt(config.locks as u64)),
                ("flags", Json::UInt(config.flags as u64)),
                ("yield_percent", Json::UInt(u64::from(config.yield_percent))),
                ("inject_safety", Json::Bool(config.inject_safety)),
                ("inject_deadlock", Json::Bool(config.inject_deadlock)),
                ("inject_livelock", Json::Bool(config.inject_livelock)),
                ("inject_panic", Json::Bool(config.inject_panic)),
                ("memory", Json::Str(config.memory.as_str().to_string())),
            ]),
        ),
        ("original_len", Json::UInt(original.len() as u64)),
        ("schedule", schedule_to_json(minimized)),
    ])
}

/// Runs `fair-chess replay`.
pub fn do_replay(o: &ReplayOpts) -> ExitCode {
    match replay_corpus_file(&o.file) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a corpus file, regenerates its system, and replays the
/// recorded schedule, requiring the recorded outcome kind.
fn replay_corpus_file(file: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read '{file}': {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("'{file}' is not valid JSON: {e}"))?;

    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("corpus file has no version")?;
    if version != CORPUS_VERSION {
        return Err(format!("unsupported corpus version {version}"));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .and_then(OutcomeKind::parse)
        .ok_or("corpus file has no recognizable kind")?;
    let schedule = schedule_from_json(doc.get("schedule").ok_or("corpus file has no schedule")?)?;
    let depth_bound = doc
        .get("depth_bound")
        .and_then(Json::as_u64)
        .unwrap_or(10_000) as usize;
    let config = parse_corpus_config(doc.get("config").ok_or("corpus file has no config")?)?;
    if config.memory.buffers() {
        return Err(format!(
            "corpus entry was recorded by a --memory {m} campaign; the schedule replayer \
             drives the regenerated system under sc semantics, so replaying it here would \
             silently change the memory model — re-run `fair-chess fuzz --memory {m}` with \
             the recorded seed instead",
            m = config.memory
        ));
    }

    let sys = generate_system(&config);
    println!(
        "replaying {} ({} decisions, seed {}):",
        kind.as_str(),
        schedule.len(),
        config.seed
    );
    let search = Config::fair().with_depth_bound(depth_bound);
    let report = Explorer::new(|| sys.clone(), FixedSchedule::new(schedule.clone()), search).run();
    match &report.outcome {
        SearchOutcome::SafetyViolation(cex)
        | SearchOutcome::Deadlock(cex)
        | SearchOutcome::Panic(cex) => {
            println!("{}", cex.render(|| sys.clone()));
        }
        other => println!("outcome: {other:?}"),
    }
    match OutcomeKind::of(&report.outcome) {
        Some(k) if k == kind => {
            println!("reproduced: {}", kind.as_str());
            Ok(())
        }
        got => Err(format!(
            "replay produced {:?}, corpus expected {}",
            got.map(OutcomeKind::as_str),
            kind.as_str()
        )),
    }
}

/// Reads the generator knobs back out of a corpus `config` object.
fn parse_corpus_config(json: &Json) -> Result<FuzzConfig, String> {
    let field = |name: &str| {
        json.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("corpus config is missing '{name}'"))
    };
    let flag = |name: &str| {
        json.get(name)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("corpus config is missing '{name}'"))
    };
    Ok(FuzzConfig {
        seed: field("seed")?,
        max_threads: field("max_threads")? as usize,
        max_ops: field("max_ops")? as usize,
        counters: field("counters")? as usize,
        locks: field("locks")? as usize,
        flags: field("flags")? as usize,
        yield_percent: field("yield_percent")? as u32,
        inject_safety: flag("inject_safety")?,
        inject_deadlock: flag("inject_deadlock")?,
        inject_livelock: flag("inject_livelock")?,
        // Absent in corpus files written before the panic knob existed.
        inject_panic: json
            .get("inject_panic")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        // Absent in corpus files written before the memory-model knob
        // existed; those campaigns necessarily ran under sc.
        memory: match json.get("memory").and_then(Json::as_str) {
            None => MemoryModel::Sc,
            Some(s) => s
                .parse()
                .map_err(|e: String| format!("corpus config: {e}"))?,
        },
    })
}
