//! Command execution: wiring the parsed options to the checker.

use std::cell::RefCell;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use chess_bench::{checkpoint_from_json, checkpoint_to_json, read_journal, JournalWriter, Json};
use chess_core::strategy::{ContextBounded, Dfs, RandomWalk, Strategy};
use chess_core::{
    BudgetKind, Config, Explorer, Progress, Reduction, Search, SearchOutcome, SearchReport,
    SearchStats, ShardRunner, ShardSpec,
};
use chess_kernel::{Capture, Kernel};
use chess_server::JobResult;
use chess_state::{CoverageTracker, StateGraph, StatefulError, StatefulLimits};
use chess_workloads::boundedbuffer::{bounded_buffer, BufferBug, BufferConfig};
use chess_workloads::bsp::{bsp, BspConfig};
use chess_workloads::channels::{fifo_pipeline, ChannelBug, FifoConfig};
use chess_workloads::litmus::{
    dekker, dekker_fenced, iriw, load_buffering, message_passing, store_buffering,
};
use chess_workloads::miniboot::{miniboot, BootConfig};
use chess_workloads::philosophers::{figure1, figure1_polite, philosophers, PhilosophersConfig};
use chess_workloads::promise::{figure8, promises, PromiseConfig};
use chess_workloads::rwcache::{rw_cache, RwCacheConfig};
use chess_workloads::simple::{deadlock_pair, locked_counter, racy_counter};
use chess_workloads::spinloop::{figure3, spinloop};
use chess_workloads::treiber::{treiber_stack, TreiberConfig};
use chess_workloads::workerpool::{figure7, worker_pool, PoolConfig};
use chess_workloads::wsq::{wsq, WsqBug, WsqConfig};

use crate::opts::{Command, RunOpts, StrategyOpt};
use crate::{exitcode, registry, signal};

/// Runs a parsed command.
pub fn execute(cmd: Command) -> ExitCode {
    match cmd {
        Command::Help => {
            println!("{}", crate::opts::USAGE);
            ExitCode::SUCCESS
        }
        Command::List => {
            print!("{}", registry::render_list());
            ExitCode::SUCCESS
        }
        Command::Check(o) => dispatch(&o, Mode::Check),
        Command::Cover(o) => dispatch(&o, Mode::Cover),
        Command::Truth(o) => dispatch(&o, Mode::Truth),
        Command::Fuzz(o) => crate::fuzzcmd::do_fuzz(&o),
        Command::Replay(o) => crate::fuzzcmd::do_replay(&o),
        Command::Serve(o) => crate::servecmd::do_serve(&o),
        Command::Daemon(o) => crate::daemoncmd::do_daemon(&o),
        Command::Client(o) => crate::daemoncmd::do_client(&o),
        Command::Worker(o) => crate::workercmd::do_worker(&o),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Check,
    Cover,
    Truth,
}

/// One monomorphized action over a resolved workload factory.
///
/// The (workload, bug) table in [`with_workload`] is the single source
/// of truth for what the CLI can run; `check`/`cover`/`truth` and the
/// campaign worker's job runner all enter through it with a different
/// visitor, so a workload added to the table is immediately availble to
/// every front end.
pub trait WorkloadVisitor {
    /// What the action produces (an exit code, a job result, ...).
    type Out;
    /// Called with the resolved factory; monomorphized per state type.
    fn visit<S, F>(self, factory: F) -> Self::Out
    where
        S: Capture + Clone + 'static,
        F: Fn() -> Kernel<S> + Copy + Sync;
    /// Called when the options name no runnable workload; `message` is
    /// the human-readable reason.
    fn reject(self, message: String) -> Self::Out;
}

/// Resolves `o` against the workload table and hands the factory to
/// `visitor` (wrapped with `--validate-effects` when requested).
pub fn with_workload<V: WorkloadVisitor>(o: &RunOpts, visitor: V) -> V::Out {
    if !o.memory.is_sc()
        && registry::find(&o.workload).is_some()
        && !registry::supports_relaxed(&o.workload)
    {
        return visitor.reject(format!(
            "workload '{}' does not use atomics, so --memory {} would not change \
             anything; relaxed models are supported by the litmus workloads \
             (see `fair-chess list`)",
            o.workload, o.memory
        ));
    }
    let memory = o.memory;
    macro_rules! go {
        ($factory:expr) => {{
            let inner = $factory;
            let validate = o.validate_effects;
            let factory = move || {
                let mut k = inner();
                if validate {
                    k.set_validate_effects(true);
                }
                k
            };
            visitor.visit(factory)
        }};
    }
    match (o.workload.as_str(), o.bug.as_deref()) {
        ("counter", None) => go!(|| locked_counter(2)),
        ("counter", Some("racy")) => go!(|| racy_counter(2)),
        ("counter", Some("deadlock")) => go!(deadlock_pair),
        ("spinloop", None) => go!(figure3),
        ("spinloop", Some("no-yield")) => go!(|| spinloop(1, false)),
        ("philosophers", None) => go!(|| philosophers(PhilosophersConfig::table2(3))),
        ("philosophers", Some("figure1")) => go!(figure1),
        ("philosophers", Some("figure1-polite")) => go!(figure1_polite),
        ("wsq", None) => go!(|| wsq(WsqConfig::table2(2))),
        ("wsq", Some("unlocked-pop")) => {
            go!(|| wsq(WsqConfig::with_bug(WsqBug::UnlockedConflictPop)))
        }
        ("wsq", Some("unsync-steal")) => {
            go!(|| wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal)))
        }
        ("wsq", Some("lost-tail")) => go!(|| wsq(WsqConfig::with_bug(WsqBug::LostTailRestore))),
        ("promise", None) => go!(|| promises(PromiseConfig::correct())),
        ("promise", Some("stale-spin")) => go!(figure8),
        ("workerpool", None) => go!(|| worker_pool(PoolConfig::correct())),
        ("workerpool", Some("figure7")) => go!(figure7),
        ("channels", None) => go!(|| fifo_pipeline(FifoConfig::correct_fanin())),
        ("channels", Some("credit-leak")) => {
            go!(|| fifo_pipeline(FifoConfig::with_bug(ChannelBug::CreditLeak)))
        }
        ("channels", Some("racy-seq")) => {
            go!(|| fifo_pipeline(FifoConfig::with_bug(ChannelBug::RacySequence)))
        }
        ("channels", Some("eager-shutdown")) => {
            go!(|| fifo_pipeline(FifoConfig::with_bug(ChannelBug::EagerShutdown)))
        }
        ("channels", Some("draining-shutdown")) => {
            go!(|| fifo_pipeline(FifoConfig::with_bug(ChannelBug::DrainingShutdown)))
        }
        ("boundedbuffer", None) => go!(|| bounded_buffer(BufferConfig::correct())),
        ("boundedbuffer", Some("if-bug")) => {
            go!(|| bounded_buffer(BufferConfig::with_bug(BufferBug::IfInsteadOfWhile)))
        }
        ("boundedbuffer", Some("lost-wakeup")) => {
            go!(|| bounded_buffer(BufferConfig::with_bug(BufferBug::SharedCondvarSignal)))
        }
        ("rwcache", None) => go!(|| rw_cache(RwCacheConfig::correct())),
        ("rwcache", Some("upgrade-race")) => go!(|| rw_cache(RwCacheConfig::upgrade_race())),
        ("bsp", None) => go!(|| bsp(BspConfig::correct())),
        ("bsp", Some("elided-barrier")) => go!(|| bsp(BspConfig::elided_barrier())),
        ("treiber", None) => go!(|| treiber_stack(TreiberConfig::correct())),
        ("treiber", Some("aba")) => go!(|| treiber_stack(TreiberConfig::aba())),
        ("miniboot", None) => go!(|| miniboot(BootConfig::small())),
        ("miniboot-full", None) => go!(|| miniboot(BootConfig::full())),
        ("sb", None) => go!(move || store_buffering(memory)),
        ("dekker", None) => go!(move || dekker(memory)),
        ("dekker-fenced", None) => go!(move || dekker_fenced(memory)),
        ("mp", None) => go!(move || message_passing(memory)),
        ("lb", None) => go!(move || load_buffering(memory)),
        ("iriw", None) => go!(move || iriw(memory)),
        (w, b) => visitor.reject(match b {
            Some(b) => format!("unknown workload/bug combination '{w}' / '{b}'"),
            None => format!("unknown workload '{w}'"),
        }),
    }
}

/// The interactive visitor: `check`/`cover`/`truth` with their printing
/// and exit-code behavior.
struct ModeVisitor<'a> {
    o: &'a RunOpts,
    mode: Mode,
}

impl WorkloadVisitor for ModeVisitor<'_> {
    type Out = ExitCode;

    fn visit<S, F>(self, factory: F) -> ExitCode
    where
        S: Capture + Clone + 'static,
        F: Fn() -> Kernel<S> + Copy + Sync,
    {
        match self.mode {
            Mode::Check => do_check(factory, self.o),
            Mode::Cover => do_cover(factory, self.o),
            Mode::Truth => do_truth(factory),
        }
    }

    fn reject(self, message: String) -> ExitCode {
        eprintln!("error: {message}");
        if message.starts_with("unknown workload") {
            eprintln!("\n{}", registry::render_list());
        }
        ExitCode::from(2)
    }
}

/// Monomorphized dispatch from (workload, bug) strings to factories.
fn dispatch(o: &RunOpts, mode: Mode) -> ExitCode {
    with_workload(o, ModeVisitor { o, mode })
}

// ---------------------------------------------------------------------
// The campaign job runner
// ---------------------------------------------------------------------

/// The visitor behind [`run_check_job`]: one shard (the whole search
/// unless the job names a slice) with live progress publication and a
/// structured result.
struct JobVisitor<'a> {
    o: &'a RunOpts,
    progress: &'a Arc<Progress>,
}

impl WorkloadVisitor for JobVisitor<'_> {
    type Out = Result<JobResult, String>;

    fn visit<S, F>(self, factory: F) -> Self::Out
    where
        S: Capture + Clone + 'static,
        F: Fn() -> Kernel<S> + Copy + Sync,
    {
        let o = self.o;
        let shard = o
            .shard
            .map_or(ShardSpec::WHOLE, |(index, of)| ShardSpec { index, of });
        let mut report = ShardRunner::new(factory, build_config(o), search_of(o))
            .with_progress(Arc::clone(self.progress))
            .run_shard(shard);
        // Result payloads are journaled and compared byte-for-byte
        // across runs; the wall clock is the one nondeterministic stat.
        report.stats.wall = std::time::Duration::default();
        Ok(JobResult {
            code: report.outcome.exit_code(),
            line: report.deterministic_line(),
            report: Some(report),
        })
    }

    fn reject(self, message: String) -> Self::Out {
        Err(message)
    }
}

/// Runs one campaign check job in this process, publishing progress to
/// `progress` so the worker protocol loop can heartbeat while the
/// search advances. Errors are option-level (unknown workload, bad
/// combination) — a found bug is a *successful* job whose result line
/// and code say so.
pub fn run_check_job(o: &RunOpts, progress: &Arc<Progress>) -> Result<JobResult, String> {
    with_workload(o, JobVisitor { o, progress })
}

fn build_strategy(o: &RunOpts) -> Box<dyn Strategy> {
    if o.reduce {
        // The parser rejects --reduce alongside --db and random walks.
        debug_assert!(o.db.is_none());
        return match o.strategy {
            StrategyOpt::Dfs => Box::new(Dfs::with_sleep_sets()),
            StrategyOpt::Cb(b) => Box::new(ContextBounded::with_sleep_sets(b)),
            StrategyOpt::Random(_) => unreachable!("rejected during option parsing"),
        };
    }
    match (o.strategy, o.db) {
        (StrategyOpt::Dfs, None) => Box::new(Dfs::new()),
        (StrategyOpt::Dfs, Some(db)) => Box::new(Dfs::with_horizon(db)),
        (StrategyOpt::Cb(b), None) => Box::new(ContextBounded::new(b)),
        (StrategyOpt::Cb(b), Some(db)) => Box::new(ContextBounded::with_horizon(b, db)),
        (StrategyOpt::Random(seed), _) => Box::new(RandomWalk::new(seed)),
    }
}

/// The search `check --jobs`/`--shard` and campaign jobs split. The
/// parser rejects `--db` alongside sharding and `--reduce` alongside
/// random walks.
fn search_of(o: &RunOpts) -> Search {
    let reduction = if o.reduce {
        Reduction::SleepSets
    } else {
        Reduction::None
    };
    match o.strategy {
        StrategyOpt::Dfs => Search::Dfs(reduction),
        StrategyOpt::Cb(bound) => Search::Cb(bound, reduction),
        StrategyOpt::Random(seed) => Search::Random(seed),
    }
}

fn build_config(o: &RunOpts) -> Config {
    let mut config = if o.fair {
        Config::fair().with_fairness_k(o.k)
    } else {
        Config::unfair()
    };
    config = config.with_depth_bound(o.depth_bound);
    if let Some(n) = o.max_executions {
        config = config.with_max_executions(n);
    }
    match o.time_budget {
        Some(t) => config = config.with_time_budget(t),
        // Stateless search spaces are routinely astronomical; never hang
        // an interactive session. Pass --time-budget to override.
        None if o.max_executions.is_none() => {
            eprintln!("note: no budget given; defaulting to --time-budget 60");
            config = config.with_time_budget(std::time::Duration::from_secs(60));
        }
        None => {}
    }
    config
}

fn do_check<S, F>(factory: F, o: &RunOpts) -> ExitCode
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy + Sync,
{
    let stop = signal::install();
    let mut warnings: Vec<String> = Vec::new();
    let run = if o.shard.is_some() || o.jobs > 1 {
        Ok(check_sharded(factory, o, stop))
    } else {
        check_sequential(factory, o, stop, &mut warnings)
    };
    let report = match run {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    println!("{report}");
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    if o.reduce && matches!(report.outcome, SearchOutcome::Complete) {
        report_savings(factory, o, report.stats.executions);
    }
    match &report.outcome {
        SearchOutcome::SafetyViolation(cex) | SearchOutcome::Panic(cex) => {
            if o.trace {
                println!("\n{}", cex.render(factory));
            }
            ExitCode::from(exitcode::SAFETY_VIOLATION)
        }
        SearchOutcome::Deadlock(cex) => {
            if o.trace {
                println!("\n{}", cex.render(factory));
            }
            ExitCode::from(exitcode::DEADLOCK)
        }
        SearchOutcome::Divergence(d) => {
            if o.trace {
                println!(
                    "\nschedule to the divergence ({} steps):\n  {}",
                    d.schedule.len(),
                    d.schedule
                        .iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
            ExitCode::from(exitcode::LIVELOCK)
        }
        SearchOutcome::Complete => ExitCode::from(exitcode::CLEAN),
        SearchOutcome::BudgetExhausted(BudgetKind::WorkerPanicked) => {
            eprintln!("error: a search worker was lost after repeated panics");
            ExitCode::from(exitcode::INTERNAL)
        }
        SearchOutcome::BudgetExhausted(kind) => {
            if signal::interrupted() {
                match &o.checkpoint {
                    Some(path) => eprintln!(
                        "interrupted; resume with --resume {path} (add --checkpoint to keep \
                         journaling)"
                    ),
                    None => eprintln!(
                        "interrupted; progress was lost (pass --checkpoint <FILE> to make \
                         interruptions resumable)"
                    ),
                }
                ExitCode::from(exitcode::INTERRUPTED)
            } else {
                debug_assert!(matches!(
                    kind,
                    BudgetKind::Executions | BudgetKind::Time | BudgetKind::Cancelled
                ));
                ExitCode::from(exitcode::INCOMPLETE)
            }
        }
    }
}

/// Re-runs a completed `--reduce` search without sleep sets and prints
/// how much the reduction saved. The comparison pass reuses the same
/// budgets, so it either completes too or honestly reports that the
/// unreduced space did not fit.
fn report_savings<S, F>(factory: F, o: &RunOpts, reduced: u64)
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy + Sync,
{
    let mut plain_opts = o.clone();
    plain_opts.reduce = false;
    if plain_opts.time_budget.is_none() && plain_opts.max_executions.is_none() {
        // Mirror build_config's default budget without re-printing its note.
        plain_opts.time_budget = Some(std::time::Duration::from_secs(60));
    }
    let report = Explorer::new(
        factory,
        build_strategy(&plain_opts),
        build_config(&plain_opts),
    )
    .run();
    if matches!(report.outcome, SearchOutcome::Complete) {
        let plain = report.stats.executions;
        let ratio = plain as f64 / reduced.max(1) as f64;
        println!("sleep-set reduction: {reduced} executions vs {plain} unreduced ({ratio:.2}x)");
    } else {
        println!(
            "sleep-set reduction: {reduced} executions; the unreduced comparison pass did \
             not finish within the same budget"
        );
    }
}

/// Sequential `check`, with optional crash-safe checkpointing and
/// resume. Journal-write warnings (retries, degradation) are appended to
/// `warnings` for the final report.
fn check_sequential<S, F>(
    factory: F,
    o: &RunOpts,
    stop: Arc<AtomicBool>,
    warnings: &mut Vec<String>,
) -> Result<SearchReport, String>
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy + Sync,
{
    let mut strategy = build_strategy(o);
    let mut initial = SearchStats::default();
    if let Some(path) = &o.resume {
        let doc = read_journal(Path::new(path))?;
        validate_run_context(&doc, o, path)?;
        let checkpoint = checkpoint_from_json(
            doc.get("checkpoint")
                .ok_or_else(|| format!("{path}: journal has no checkpoint"))?,
        )?;
        strategy.restore(&checkpoint.strategy)?;
        initial = checkpoint.stats;
        eprintln!(
            "resuming from {path}: {} executions already explored",
            initial.executions
        );
    }
    let mut explorer = Explorer::new(factory, strategy, build_config(o))
        .with_stop_flag(stop)
        .with_initial_stats(initial);
    let writer = o
        .checkpoint
        .as_ref()
        .map(|path| Rc::new(RefCell::new(JournalWriter::new(path))));
    if let Some(writer) = &writer {
        let writer = Rc::clone(writer);
        let run = run_context_json(o);
        explorer = explorer.with_checkpointing(o.checkpoint_every, move |checkpoint| {
            let doc = Json::object([
                ("run", run.clone()),
                ("checkpoint", checkpoint_to_json(checkpoint)),
            ]);
            writer.borrow_mut().write(&doc);
        });
    }
    let report = explorer.run();
    if let Some(writer) = &writer {
        warnings.extend(writer.borrow().warnings().iter().cloned());
    }
    Ok(report)
}

/// The run-level options a checkpoint journal records, so `--resume`
/// can refuse a journal taken under different search parameters.
fn run_context_json(o: &RunOpts) -> Json {
    Json::object([
        ("workload", Json::Str(o.workload.clone())),
        ("bug", o.bug.clone().map(Json::Str).unwrap_or(Json::Null)),
        ("strategy", Json::Str(strategy_label(o))),
        ("fair", Json::Bool(o.fair)),
        ("k", Json::UInt(o.k)),
        ("depth_bound", Json::UInt(o.depth_bound as u64)),
        ("memory", Json::Str(o.memory.as_str().to_string())),
    ])
}

/// Rejects a resume journal whose recorded run context differs from the
/// current command line: a DFS frontier only makes sense against the
/// exact same workload and search parameters.
fn validate_run_context(doc: &Json, o: &RunOpts, path: &str) -> Result<(), String> {
    let run = doc
        .get("run")
        .ok_or_else(|| format!("{path}: journal has no run context"))?;
    let expect = run_context_json(o);
    for key in [
        "workload",
        "bug",
        "strategy",
        "fair",
        "k",
        "depth_bound",
        "memory",
    ] {
        let recorded = match run.get(key).map(Json::to_string_pretty) {
            Some(v) => v,
            // Journals written before the memory-model knob existed carry
            // no "memory" key; they were necessarily taken under sc.
            None if key == "memory" => Json::Str("sc".into()).to_string_pretty(),
            None => String::new(),
        };
        let current = expect
            .get(key)
            .map(Json::to_string_pretty)
            .unwrap_or_default();
        if recorded != current {
            return Err(format!(
                "{path}: journal was taken with {key} = {recorded}, but this run has \
                 {key} = {current} (resume must use the original workload, bug, strategy, \
                 memory model, and fairness flags)"
            ));
        }
    }
    Ok(())
}

/// The strategy in its command-line spelling, for journal validation.
fn strategy_label(o: &RunOpts) -> String {
    match o.strategy {
        StrategyOpt::Dfs => "dfs".into(),
        StrategyOpt::Cb(b) => format!("cb:{b}"),
        StrategyOpt::Random(seed) => format!("random:{seed}"),
    }
}

/// Sharded `check`: `--shard I/K` runs slice I of K in this process,
/// and `--jobs N` runs all N slices on threads and merges them — the
/// same shards a campaign daemon runs for a `"shards": N` job. For `dfs`
/// and `cb:<B>` the merged report is the sequential one (budgets apply
/// per shard); random walks give shard i the seed + i and its share of
/// the execution budget.
fn check_sharded<S, F>(factory: F, o: &RunOpts, stop: Arc<AtomicBool>) -> SearchReport
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy + Sync,
{
    let runner = ShardRunner::new(factory, build_config(o), search_of(o)).with_stop_flag(stop);
    match o.shard {
        Some((index, of)) => runner.run_shard(ShardSpec { index, of }),
        None => runner.run_shards(o.jobs),
    }
}

fn do_cover<S, F>(factory: F, o: &RunOpts) -> ExitCode
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy,
{
    if o.jobs > 1 {
        eprintln!("note: --jobs applies to `check` only; covering sequentially");
    }
    let mut cov = CoverageTracker::new();
    let report = Explorer::new(factory, build_strategy(o), build_config(o)).run_observed(&mut cov);
    println!("{report}");
    let limits = StatefulLimits {
        max_states: 2_000_000,
    };
    match StateGraph::build(&factory(), limits) {
        Ok(g) => println!(
            "coverage: {} of {} reachable states ({:.1}%)",
            cov.distinct_states(),
            g.state_count(),
            cov.percent_of(g.state_count()),
        ),
        Err(StatefulError::StateLimitExceeded(_)) => println!(
            "coverage: {} distinct states (total unknown: state space exceeds the stateful limit)",
            cov.distinct_states()
        ),
    }
    ExitCode::SUCCESS
}

fn do_truth<S, F>(factory: F) -> ExitCode
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy,
{
    let limits = StatefulLimits {
        max_states: 2_000_000,
    };
    match StateGraph::build(&factory(), limits) {
        Ok(g) => {
            println!("reachable states:   {}", g.state_count());
            println!("deadlock states:    {}", g.deadlock_states().len());
            println!("violation states:   {}", g.violation_states().len());
            match g.find_fair_scc() {
                Some(scc) => println!(
                    "livelock:           YES — fair cycle through {} state(s)",
                    scc.len()
                ),
                None => println!("livelock:           no (no fair cycle)"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stateful search failed: {e}");
            ExitCode::from(3)
        }
    }
}
