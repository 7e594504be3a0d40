//! Hand-rolled argument parsing (the workspace deliberately has no CLI
//! dependency).

use std::fmt;
use std::time::Duration;

use chess_kernel::MemoryModel;

/// Usage text for `help` and parse errors.
pub const USAGE: &str = "\
fair-chess — fair stateless model checking (PLDI 2008) for the bundled workloads

USAGE:
    fair-chess list
        List workloads and their seedable bugs.

    fair-chess check <workload> [--bug <bug>] [options]
        Model-check the workload; print the outcome and, for errors, the
        reproducing trace.

    fair-chess cover <workload> [options]
        Measure distinct-state coverage of the search and compare with the
        stateful total (where feasible).

    fair-chess truth <workload> [--bug <bug>]
        Stateful ground truth: reachable states, deadlocks, violations,
        and the Streett fair-cycle (livelock) check.

    fair-chess fuzz [--systems <N>] [--seed <S>] [--jobs <J>] [options]
        Differential fuzzing: generate random transition systems, check
        the fair stateless search against the exhaustive stateful
        reference with one executable oracle per theorem, and write a
        minimized replayable corpus file for every error found. Exits
        nonzero iff any oracle disagreed.

    fair-chess replay <corpus-file>
        Re-run a corpus file written by `fuzz`: regenerate the system
        from its recorded seed and knobs and replay the minimized
        schedule, requiring the same outcome kind.

    fair-chess serve <manifest.json> [--workers <N>] [options]
        Run a campaign of check/fuzz jobs across supervised worker
        *processes* (the CLI re-execs itself through a hidden `worker`
        subcommand): idle workers steal the next ready job, a silent
        worker is killed by a watchdog and its job retried under
        exponential backoff, and a job that keeps killing workers is
        quarantined instead of looping forever. The exit code is the
        worst job outcome under the contract below (quarantine counts
        as 7). When no worker process can be spawned at all, the
        remaining jobs degrade to in-process execution with a warning.

    fair-chess daemon --listen <addr> --store <dir> [options]
        Long-running campaign daemon: accept manifests over a unix or
        TCP socket, run them through the worker pool one campaign at a
        time, and journal every verdict into a persistent
        content-addressed store. Campaigns are keyed by manifest
        content, so resubmitting a finished manifest returns the cached
        verdict without re-execution, and a daemon killed with -9 and
        restarted on the same --store resumes every in-flight campaign
        and re-answers finished ones byte-for-byte. Check jobs may
        declare \"shards\": K to fan out across the pool; shard reports
        are merged so the campaign report equals the unsharded run
        (byte-identically for dfs and cb:<N>, reduced or not;
        deterministically for random:<seed>).

    fair-chess submit <manifest.json> --connect <addr> [--watch]
        Submit a campaign manifest to a daemon. Prints the campaign id
        (the manifest digest). With --watch, stream verdicts as they
        land and exit with the campaign's final code.

    fair-chess status [<campaign>] --connect <addr>
        One campaign's progress counters, or — without an id — every
        campaign the daemon knows about.

    fair-chess watch <campaign> --connect <addr>
        Stream a campaign's verdicts (replayed from the start, so a
        late subscriber sees the full history) until it finishes; exit
        with its final code.

    fair-chess cancel <campaign> --connect <addr>
        Cancel a queued or running campaign. Idempotent; prints the
        campaign's state.

    fair-chess results <campaign> --connect <addr>
        Print a finished campaign's deterministic report and exit with
        its code.

    fair-chess shutdown --connect <addr>
        Ask the daemon to shut down. A running campaign is parked and
        resumes when the daemon next starts on the same store.

OPTIONS:
    --bug <name>          Seed a bug (see `fair-chess list`).
    --memory <m>          sc | tso | pso   [default: sc]. Memory model:
                          tso/pso give every thread a FIFO store buffer
                          (per-location FIFOs under pso) whose flushes are
                          scheduled like ordinary thread steps and never
                          charge the preemption budget. Only workloads
                          built on atomics support tso/pso; `fair-chess
                          list` marks them with their memory models.
    --strategy <s>        dfs | cb:<N> | random:<seed>   [default: dfs]
    --reduce <mode>       none | sleep-sets   [default: none]. Sleep-set
                          partial-order reduction for dfs and cb:<N>:
                          prune interleavings that provably commute with
                          an already-explored one (fairness-forced edges
                          are never pruned). Incompatible with
                          --strategy random:<seed>, with --db, and with
                          --checkpoint/--resume (a reduced search is not
                          snapshot-resumable).
    --validate-effects    Capture-diff validation of the guests' declared
                          read/write sets: diff the shared-state cells
                          around every step and report any mutation
                          outside the declared write set as a safety
                          violation. `check` and `cover`.
    --unfair              Disable the fair scheduler (baseline mode).
    --db <N>              Backtracking horizon with a random tail
                          (the paper's unfair baseline configuration).
    --depth-bound <N>     Max transitions per execution [default: 100000].
    --max-executions <N>  Execution budget.
    --time-budget <SECS>  Wall-clock budget [default: 60 when no
                          execution budget is given either].
    --k <N>               Fairness k parameter (process every k-th yield).
    --jobs <N>            Run the N shards --shard 0/N .. N-1/N on threads
                          and merge them [default: 1]. For dfs and cb:<N>,
                          with or without --reduce, the report equals the
                          --jobs 1 report; the execution budget applies
                          per shard. Random walks run seed + i with the
                          execution budget split across shards. Every
                          reported error is verified to replay
                          deterministically. `check` only.
    --shard <I/K>         Run shard I of K (0 <= I < K): this process
                          covers its contiguous slice of the root
                          decision frontier (dfs, cb:<N>) or its slice of
                          the seed/budget split (random:<seed>), so K
                          cooperating processes cover the space. dfs and
                          cb:<N> shard reports merge to the sequential
                          report. Requires --jobs 1; not combinable with
                          --db or --checkpoint/--resume. `check` only.
    --no-trace            Do not print the counterexample trace.
    --checkpoint <FILE>   Periodically persist the search frontier, RNG
                          state, and cumulative statistics to FILE
                          (atomically: temp file + rename). On SIGINT or
                          SIGTERM the search stops at the next execution
                          boundary, flushes a final checkpoint, and exits
                          with code 6 (interrupted, resumable). `check`
                          with --jobs 1 only.
    --checkpoint-every <N>
                          Checkpoint every N completed executions
                          [default: 1000].
    --resume <FILE>       Resume an interrupted `check` from a checkpoint
                          journal. The workload, bug, strategy, and
                          fairness flags must match the original run; the
                          resumed search converges to the same final
                          report as an uninterrupted one.

FUZZ OPTIONS:
    --systems <N>         Number of random systems to check [default: 100].
    --seed <S>            Base seed; system i uses derive_seed(S, i) [default: 1].
    --jobs <J>            Worker threads sharding the systems [default: 1].
    --max-threads <N>     Max base threads per system [default: 3].
    --max-ops <N>         Max operations per thread [default: 4].
    --yield-percent <P>   Yield/politeness density 0..=100 [default: 60].
    --inject <kinds>      Comma-separated bug injections applied to every
                          system: safety, deadlock, livelock, panic.
    --memory <m>          sc | tso | pso   [default: sc]. tso/pso add a
                          relaxed-memory pass per system: a generated
                          atomic program is enumerated under sc, tso and
                          pso and the terminal-outcome sets must nest
                          (SC \u{2286} TSO \u{2286} PSO); the report compares
                          buffered vs sc execution counts.
    --corpus-dir <DIR>    Where to write corpus files [default: fuzz-corpus].
    --max-states <N>      Stateful-reference state cap; larger systems are
                          skipped [default: 200000].
    --reduce <mode>       none | sleep-sets   [default: none]. Adds the
                          sleep-* oracles: sleep-set DFS must report the
                          same verdict as unreduced DFS on every system
                          while exploring a subset of the executions, and
                          the aggregate reduction is printed.
    --checkpoint <FILE>   Persist the fuzz shard cursor and per-system
                          verdicts to FILE; SIGINT/SIGTERM flushes a final
                          checkpoint and exits with code 6.
    --resume <FILE>       Resume an interrupted fuzz campaign: systems
                          already checked are replayed from the journal
                          instead of re-fuzzed, so the final report matches
                          an uninterrupted run.

SERVE OPTIONS:
    --workers <N>         Worker processes [default: 2].
    --checkpoint <FILE>   Persist every job verdict to FILE (atomically:
                          temp file + fsync + rename) as it lands, so a
                          SIGKILL'd supervisor loses nothing: resuming
                          reprints the identical final report.
    --resume <FILE>       Resume a campaign from its verdict journal;
                          completed jobs are replayed from the records,
                          not re-run. The journal must match the
                          manifest (a digest is recorded and checked).
    --status-file <FILE>  Atomically rewrite a JSON progress snapshot
                          (total/done/quarantined/pending) as the
                          campaign advances.
    --heartbeat-timeout <SECS>
                          Watchdog deadline: a worker with no protocol
                          traffic for this long is killed and its job
                          requeued [default: 10].
    --max-attempts <N>    Attempts before a job is quarantined as
                          poison [default: 3].
    --jitter-seed <N>     Seed for the deterministic retry-backoff
                          jitter [default: 0].

DAEMON OPTIONS:
    --listen <addr>       Required. unix:/path.sock | tcp:host:port; a
                          bare path (contains '/') means unix, anything
                          else means tcp.
    --store <dir>         Required. Campaign store directory (created
                          if missing). One directory per campaign,
                          keyed by manifest digest, holding the
                          manifest and its atomically-rewritten verdict
                          journal.
    --workers <N>         Worker processes [default: 2].
    --heartbeat-timeout <SECS>
                          Watchdog deadline, as for serve [default: 10].
    --max-attempts <N>    Attempts before quarantine [default: 3].
    --jitter-seed <N>     Retry-backoff jitter seed [default: 0].

CLIENT OPTIONS (submit/status/watch/cancel/results/shutdown):
    --connect <addr>      Required. The daemon's --listen address (same
                          spellings).
    --watch               After submit: stream progress and exit with
                          the campaign's final code.

EXIT CODES:
    0  clean — search complete (or all fuzz oracles agreed), no error
    1  safety violation found (assertion failure or workload panic)
    2  usage or configuration error
    3  search incomplete — execution/time budget exhausted
    4  deadlock found
    5  livelock found (fair nontermination / divergence)
    6  interrupted by SIGINT/SIGTERM — checkpoint flushed, resumable
    7  internal error — a search worker was lost after repeated panics
";

/// The strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyOpt {
    /// Exhaustive depth-first search.
    Dfs,
    /// Context-bounded search with the given preemption bound.
    Cb(u32),
    /// Random walk with the given seed.
    Random(u64),
}

/// Options shared by `check` and `cover`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub bug: Option<String>,
    pub memory: MemoryModel,
    pub strategy: StrategyOpt,
    pub reduce: bool,
    pub validate_effects: bool,
    pub fair: bool,
    pub db: Option<usize>,
    pub depth_bound: usize,
    pub max_executions: Option<u64>,
    pub time_budget: Option<Duration>,
    pub k: u64,
    pub jobs: usize,
    pub shard: Option<(usize, usize)>,
    pub trace: bool,
    pub checkpoint: Option<String>,
    pub checkpoint_every: u64,
    pub resume: Option<String>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            workload: String::new(),
            bug: None,
            memory: MemoryModel::Sc,
            strategy: StrategyOpt::Dfs,
            reduce: false,
            validate_effects: false,
            fair: true,
            db: None,
            depth_bound: 100_000,
            max_executions: None,
            time_budget: None,
            k: 1,
            jobs: 1,
            shard: None,
            trace: true,
            checkpoint: None,
            checkpoint_every: 1000,
            resume: None,
        }
    }
}

/// Options for `fuzz`.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    pub systems: u64,
    pub seed: u64,
    pub jobs: usize,
    pub max_threads: usize,
    pub max_ops: usize,
    pub yield_percent: u32,
    pub inject_safety: bool,
    pub inject_deadlock: bool,
    pub inject_livelock: bool,
    pub inject_panic: bool,
    pub memory: MemoryModel,
    pub corpus_dir: String,
    pub max_states: usize,
    pub reduce: bool,
    pub checkpoint: Option<String>,
    pub resume: Option<String>,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            systems: 100,
            seed: 1,
            jobs: 1,
            max_threads: 3,
            max_ops: 4,
            yield_percent: 60,
            inject_safety: false,
            inject_deadlock: false,
            inject_livelock: false,
            inject_panic: false,
            memory: MemoryModel::Sc,
            corpus_dir: "fuzz-corpus".into(),
            max_states: 200_000,
            reduce: false,
            checkpoint: None,
            resume: None,
        }
    }
}

/// Options for `replay`.
#[derive(Debug, Clone)]
pub struct ReplayOpts {
    pub file: String,
}

/// The worker-pool flags `serve` and `daemon` share.
#[derive(Debug, Clone)]
pub struct PoolOpts {
    pub workers: usize,
    pub heartbeat_timeout: Duration,
    pub max_attempts: u32,
    pub jitter_seed: u64,
}

impl Default for PoolOpts {
    fn default() -> Self {
        PoolOpts {
            workers: 2,
            heartbeat_timeout: Duration::from_secs(10),
            max_attempts: 3,
            jitter_seed: 0,
        }
    }
}

/// Options for `serve` (the process-pool campaign supervisor).
#[derive(Debug, Clone, Default)]
pub struct ServeOpts {
    pub manifest: String,
    pub checkpoint: Option<String>,
    pub resume: Option<String>,
    pub status_file: Option<String>,
    pub pool: PoolOpts,
}

/// Options for `daemon` (the long-running campaign daemon).
#[derive(Debug, Clone, Default)]
pub struct DaemonOpts {
    pub listen: String,
    pub store: String,
    pub pool: PoolOpts,
}

/// One daemon-client operation (the campaign id stays a string here;
/// the client parses it against the store's hex-digest grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// `fair-chess submit <manifest> [--watch]`
    Submit { manifest: String, watch: bool },
    /// `fair-chess status [<campaign>]`
    Status { campaign: Option<String> },
    /// `fair-chess watch <campaign>`
    Watch { campaign: String },
    /// `fair-chess cancel <campaign>`
    Cancel { campaign: String },
    /// `fair-chess results <campaign>`
    Results { campaign: String },
    /// `fair-chess shutdown`
    Shutdown,
}

/// Options shared by the daemon-client subcommands.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    pub op: ClientOp,
    pub connect: String,
}

/// Options for the hidden `worker` subcommand (the process a `serve`
/// supervisor re-execs; not documented in [`USAGE`]).
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// How often the protocol loop checks the job's progress counters
    /// and, if they advanced, emits a heartbeat.
    pub heartbeat_millis: u64,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            heartbeat_millis: 200,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// `fair-chess list`
    List,
    /// `fair-chess help`
    Help,
    /// `fair-chess check ...`
    Check(RunOpts),
    /// `fair-chess cover ...`
    Cover(RunOpts),
    /// `fair-chess truth <workload> [--bug ...]`
    Truth(RunOpts),
    /// `fair-chess fuzz ...`
    Fuzz(FuzzOpts),
    /// `fair-chess replay <file>`
    Replay(ReplayOpts),
    /// `fair-chess serve <manifest> ...`
    Serve(ServeOpts),
    /// `fair-chess daemon --listen ... --store ...`
    Daemon(DaemonOpts),
    /// `fair-chess submit/status/watch/cancel/results/shutdown ...`
    Client(ClientOpts),
    /// `fair-chess worker ...` (hidden: spawned by `serve` and `daemon`)
    Worker(WorkerOpts),
}

/// A parse failure with a human-readable message.
#[derive(Debug)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parses a strategy in its command-line spelling; also used by the
/// campaign job codec, which records strategies the same way.
pub(crate) fn parse_strategy(s: &str) -> Result<StrategyOpt, ParseError> {
    if s == "dfs" {
        return Ok(StrategyOpt::Dfs);
    }
    if let Some(n) = s.strip_prefix("cb:") {
        return match n.parse() {
            Ok(n) => Ok(StrategyOpt::Cb(n)),
            Err(_) => err(format!("invalid preemption bound in '{s}'")),
        };
    }
    if let Some(seed) = s.strip_prefix("random:") {
        return match seed.parse() {
            Ok(seed) => Ok(StrategyOpt::Random(seed)),
            Err(_) => err(format!("invalid seed in '{s}'")),
        };
    }
    err(format!(
        "unknown strategy '{s}' (expected dfs, cb:<N>, or random:<seed>)"
    ))
}

fn parse_reduce(s: &str) -> Result<bool, ParseError> {
    match s {
        "none" => Ok(false),
        "sleep-sets" => Ok(true),
        other => err(format!(
            "unknown reduction '{other}' (expected none or sleep-sets)"
        )),
    }
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, ParseError> {
    let mut opts = RunOpts::default();
    let mut it = args.iter();
    let Some(workload) = it.next() else {
        return err("missing workload name");
    };
    if workload.starts_with('-') {
        return err("the workload name must come before options");
    }
    opts.workload = workload.clone();

    let next_value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| ParseError(format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bug" => opts.bug = Some(next_value("--bug", &mut it)?),
            "--memory" => {
                opts.memory = next_value("--memory", &mut it)?
                    .parse()
                    .map_err(ParseError)?;
            }
            "--strategy" => {
                opts.strategy = parse_strategy(&next_value("--strategy", &mut it)?)?;
            }
            "--reduce" => opts.reduce = parse_reduce(&next_value("--reduce", &mut it)?)?,
            "--validate-effects" => opts.validate_effects = true,
            "--unfair" => opts.fair = false,
            "--db" => {
                opts.db = Some(parse_num("--db", &next_value("--db", &mut it)?)?);
            }
            "--depth-bound" => {
                opts.depth_bound =
                    parse_num("--depth-bound", &next_value("--depth-bound", &mut it)?)?;
            }
            "--max-executions" => {
                opts.max_executions = Some(parse_num(
                    "--max-executions",
                    &next_value("--max-executions", &mut it)?,
                )? as u64);
            }
            "--time-budget" => {
                let secs: f64 = next_value("--time-budget", &mut it)?
                    .parse()
                    .map_err(|_| ParseError("--time-budget needs seconds".into()))?;
                opts.time_budget = Some(Duration::from_secs_f64(secs));
            }
            "--k" => opts.k = parse_num("--k", &next_value("--k", &mut it)?)? as u64,
            "--jobs" => {
                opts.jobs = parse_num("--jobs", &next_value("--jobs", &mut it)?)?;
                if opts.jobs == 0 {
                    return err("--jobs needs at least 1 worker");
                }
            }
            "--shard" => {
                let v = next_value("--shard", &mut it)?;
                let Some((index, of)) = v.split_once('/') else {
                    return err(format!("--shard needs I/K (e.g. 0/4), got '{v}'"));
                };
                let index = parse_num("--shard", index)?;
                let of = parse_num("--shard", of)?;
                if of == 0 || index >= of {
                    return err(format!("--shard needs 0 <= I < K, got '{v}'"));
                }
                opts.shard = Some((index, of));
            }
            "--no-trace" => opts.trace = false,
            "--checkpoint" => opts.checkpoint = Some(next_value("--checkpoint", &mut it)?),
            "--checkpoint-every" => {
                opts.checkpoint_every = parse_num(
                    "--checkpoint-every",
                    &next_value("--checkpoint-every", &mut it)?,
                )? as u64;
                if opts.checkpoint_every == 0 {
                    return err("--checkpoint-every needs at least 1");
                }
            }
            "--resume" => opts.resume = Some(next_value("--resume", &mut it)?),
            other => return err(format!("unknown option '{other}'")),
        }
    }
    if (opts.checkpoint.is_some() || opts.resume.is_some()) && opts.jobs > 1 {
        return err("--checkpoint/--resume require --jobs 1 (the journal records one frontier)");
    }
    if opts.reduce {
        if opts.checkpoint.is_some() || opts.resume.is_some() {
            return err(
                "--reduce sleep-sets cannot be combined with --checkpoint/--resume \
                 (a reduced search is not snapshot-resumable)",
            );
        }
        if matches!(opts.strategy, StrategyOpt::Random(_)) {
            return err("--reduce sleep-sets needs a systematic strategy (dfs or cb:<N>)");
        }
        if opts.db.is_some() {
            return err(
                "--reduce sleep-sets cannot be combined with --db (the horizon's \
                 random tail defeats the explored-sibling bookkeeping)",
            );
        }
    }
    if opts.shard.is_some() {
        if opts.jobs > 1 {
            return err(
                "--shard requires --jobs 1 (each shard is one process; parallelism \
                 comes from running the other shards elsewhere)",
            );
        }
        if opts.checkpoint.is_some() || opts.resume.is_some() {
            return err("--shard cannot be combined with --checkpoint/--resume");
        }
    }
    if opts.db.is_some() && (opts.shard.is_some() || opts.jobs > 1) {
        return err(
            "--db cannot be combined with --shard or --jobs > 1 (the horizon's random \
             tail is sequential-only)",
        );
    }
    Ok(opts)
}

fn parse_num(flag: &str, s: &str) -> Result<usize, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("{flag} needs a number, got '{s}'")))
}

impl FuzzOpts {
    /// Turns on the injected bug `kind`; shared by `--inject` and
    /// campaign fuzz jobs.
    pub fn inject(&mut self, kind: &str) -> Result<(), String> {
        match kind {
            "safety" => self.inject_safety = true,
            "deadlock" => self.inject_deadlock = true,
            "livelock" => self.inject_livelock = true,
            "panic" => self.inject_panic = true,
            other => {
                return Err(format!(
                    "unknown injection '{other}' (expected safety, deadlock, livelock, or panic)"
                ))
            }
        }
        Ok(())
    }
}

/// Checks a fuzz generator knob (`max_threads`, `max_ops`,
/// `yield_percent`) against the range the `fuzz` flags enforce; campaign
/// fuzz jobs are held to the same ranges. `Err` says what the value
/// must be, for the caller to prefix with its spelling of the knob.
pub fn fuzz_knob(knob: &str, value: u64) -> Result<u64, &'static str> {
    match knob {
        "max_threads" if value < 2 => Err("needs at least 2"),
        "max_ops" if value == 0 => Err("needs at least 1"),
        "yield_percent" if value > 100 => Err("must be 0..=100"),
        _ => Ok(value),
    }
}

fn parse_fuzz_opts(args: &[String]) -> Result<FuzzOpts, ParseError> {
    let mut opts = FuzzOpts::default();
    let mut it = args.iter();
    let next_value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| ParseError(format!("{flag} needs a value")))
    };
    let knob = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        let value = parse_num(flag, &next_value(flag, it)?)? as u64;
        fuzz_knob(&flag[2..].replace('-', "_"), value)
            .map_err(|why| ParseError(format!("{flag} {why}")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--systems" => {
                opts.systems = parse_num("--systems", &next_value("--systems", &mut it)?)? as u64;
            }
            "--seed" => {
                let v = next_value("--seed", &mut it)?;
                opts.seed = v
                    .parse()
                    .map_err(|_| ParseError(format!("--seed needs a number, got '{v}'")))?;
            }
            "--jobs" => {
                opts.jobs = parse_num("--jobs", &next_value("--jobs", &mut it)?)?;
                if opts.jobs == 0 {
                    return err("--jobs needs at least 1 worker");
                }
            }
            "--max-threads" => opts.max_threads = knob(arg, &mut it)? as usize,
            "--max-ops" => opts.max_ops = knob(arg, &mut it)? as usize,
            "--yield-percent" => opts.yield_percent = knob(arg, &mut it)? as u32,
            "--inject" => {
                for kind in next_value("--inject", &mut it)?.split(',') {
                    opts.inject(kind.trim()).map_err(ParseError)?;
                }
            }
            "--memory" => {
                opts.memory = next_value("--memory", &mut it)?
                    .parse()
                    .map_err(ParseError)?;
            }
            "--corpus-dir" => opts.corpus_dir = next_value("--corpus-dir", &mut it)?,
            "--max-states" => {
                opts.max_states = parse_num("--max-states", &next_value("--max-states", &mut it)?)?;
            }
            "--reduce" => opts.reduce = parse_reduce(&next_value("--reduce", &mut it)?)?,
            "--checkpoint" => opts.checkpoint = Some(next_value("--checkpoint", &mut it)?),
            "--resume" => opts.resume = Some(next_value("--resume", &mut it)?),
            other => return err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

fn parse_serve_opts(args: &[String]) -> Result<ServeOpts, ParseError> {
    let mut opts = ServeOpts::default();
    let mut it = args.iter();
    let Some(manifest) = it.next() else {
        return err("serve needs a campaign manifest file");
    };
    if manifest.starts_with('-') {
        return err("the manifest file must come before options");
    }
    opts.manifest = manifest.clone();
    let next_value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| ParseError(format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--checkpoint" => opts.checkpoint = Some(next_value("--checkpoint", &mut it)?),
            "--resume" => opts.resume = Some(next_value("--resume", &mut it)?),
            "--status-file" => opts.status_file = Some(next_value("--status-file", &mut it)?),
            other => opts.pool.parse_flag(other, &mut it)?,
        }
    }
    Ok(opts)
}

impl PoolOpts {
    /// Parses one of the four pool flags, taking its value from `it`;
    /// any other flag is an unknown option.
    fn parse_flag(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<(), ParseError> {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| ParseError(format!("{flag} needs a value")))
        };
        match flag {
            "--workers" => {
                self.workers = parse_num(flag, &value()?)?;
                if self.workers == 0 {
                    return err("--workers needs at least 1 worker");
                }
            }
            "--heartbeat-timeout" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|_| ParseError("--heartbeat-timeout needs seconds".into()))?;
                if secs.is_nan() || secs <= 0.0 {
                    return err("--heartbeat-timeout must be positive");
                }
                self.heartbeat_timeout = Duration::from_secs_f64(secs);
            }
            "--max-attempts" => {
                self.max_attempts = parse_num(flag, &value()?)? as u32;
                if self.max_attempts == 0 {
                    return err("--max-attempts needs at least 1");
                }
            }
            "--jitter-seed" => {
                let v = value()?;
                self.jitter_seed = v
                    .parse()
                    .map_err(|_| ParseError(format!("--jitter-seed needs a number, got '{v}'")))?;
            }
            other => return err(format!("unknown option '{other}'")),
        }
        Ok(())
    }
}

fn parse_daemon_opts(args: &[String]) -> Result<DaemonOpts, ParseError> {
    let mut opts = DaemonOpts::default();
    let mut it = args.iter();
    let next_value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| ParseError(format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => opts.listen = next_value("--listen", &mut it)?,
            "--store" => opts.store = next_value("--store", &mut it)?,
            other => opts.pool.parse_flag(other, &mut it)?,
        }
    }
    if opts.listen.is_empty() {
        return err("daemon needs --listen <addr> (unix:/path.sock or tcp:host:port)");
    }
    if opts.store.is_empty() {
        return err("daemon needs --store <dir> (the persistent campaign store)");
    }
    Ok(opts)
}

fn parse_client_opts(op: &str, args: &[String]) -> Result<ClientOpts, ParseError> {
    let mut positional: Vec<String> = Vec::new();
    let mut connect: Option<String> = None;
    let mut watch = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                connect = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| ParseError("--connect needs a value".into()))?,
                );
            }
            "--watch" if op == "submit" => watch = true,
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => return err(format!("unknown option '{other}'")),
        }
    }
    let Some(connect) = connect else {
        return err(format!(
            "{op} needs --connect <addr> (the daemon's --listen address)"
        ));
    };
    let one = |what: &str| -> Result<String, ParseError> {
        match positional.as_slice() {
            [only] => Ok(only.clone()),
            [] => Err(ParseError(format!("{op} needs a {what}"))),
            _ => Err(ParseError(format!("{op} takes exactly one {what}"))),
        }
    };
    let op = match op {
        "submit" => ClientOp::Submit {
            manifest: one("manifest file")?,
            watch,
        },
        "status" => match positional.as_slice() {
            [] => ClientOp::Status { campaign: None },
            [only] => ClientOp::Status {
                campaign: Some(only.clone()),
            },
            _ => return err("status takes at most one campaign id"),
        },
        "watch" => ClientOp::Watch {
            campaign: one("campaign id")?,
        },
        "cancel" => ClientOp::Cancel {
            campaign: one("campaign id")?,
        },
        "results" => ClientOp::Results {
            campaign: one("campaign id")?,
        },
        "shutdown" => {
            if !positional.is_empty() {
                return err("shutdown takes no arguments");
            }
            ClientOp::Shutdown
        }
        other => return err(format!("unknown client command '{other}'")),
    };
    Ok(ClientOpts { op, connect })
}

fn parse_worker_opts(args: &[String]) -> Result<WorkerOpts, ParseError> {
    let mut opts = WorkerOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--heartbeat-millis" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseError("--heartbeat-millis needs a value".into()))?;
                opts.heartbeat_millis = v.parse().map_err(|_| {
                    ParseError(format!("--heartbeat-millis needs a number, got '{v}'"))
                })?;
                if opts.heartbeat_millis == 0 {
                    return err("--heartbeat-millis must be positive");
                }
            }
            other => return err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// Parses a full command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "check" => Ok(Command::Check(parse_run_opts(&args[1..])?)),
        "cover" => Ok(Command::Cover(parse_run_opts(&args[1..])?)),
        "truth" => Ok(Command::Truth(parse_run_opts(&args[1..])?)),
        "fuzz" => Ok(Command::Fuzz(parse_fuzz_opts(&args[1..])?)),
        "replay" => match args.get(1) {
            Some(file) if args.len() == 2 && !file.starts_with('-') => {
                Ok(Command::Replay(ReplayOpts { file: file.clone() }))
            }
            _ => err("replay needs exactly one corpus file argument"),
        },
        "serve" => Ok(Command::Serve(parse_serve_opts(&args[1..])?)),
        "daemon" => Ok(Command::Daemon(parse_daemon_opts(&args[1..])?)),
        "submit" | "status" | "watch" | "cancel" | "results" | "shutdown" => {
            Ok(Command::Client(parse_client_opts(cmd, &args[1..])?))
        }
        "worker" => Ok(Command::Worker(parse_worker_opts(&args[1..])?)),
        other => err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_check_with_options() {
        let cmd = parse(&s(&[
            "check",
            "wsq",
            "--bug",
            "bug2",
            "--strategy",
            "cb:2",
            "--max-executions",
            "100",
        ]))
        .unwrap();
        let Command::Check(o) = cmd else {
            panic!("expected check")
        };
        assert_eq!(o.workload, "wsq");
        assert_eq!(o.bug.as_deref(), Some("bug2"));
        assert_eq!(o.strategy, StrategyOpt::Cb(2));
        assert_eq!(o.max_executions, Some(100));
        assert!(o.fair);
    }

    #[test]
    fn parses_unfair_baseline() {
        let cmd = parse(&s(&["cover", "philosophers", "--unfair", "--db", "30"])).unwrap();
        let Command::Cover(o) = cmd else {
            panic!("expected cover")
        };
        assert!(!o.fair);
        assert_eq!(o.db, Some(30));
    }

    #[test]
    fn rejects_unknown_strategy() {
        assert!(parse(&s(&["check", "wsq", "--strategy", "bfs"])).is_err());
    }

    #[test]
    fn rejects_missing_workload() {
        assert!(parse(&s(&["check"])).is_err());
        assert!(parse(&s(&["check", "--bug", "x"])).is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn parses_jobs() {
        let cmd = parse(&s(&["check", "wsq", "--jobs", "4"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert_eq!(o.jobs, 4);
        assert!(parse(&s(&["check", "wsq", "--jobs", "0"])).is_err());
        assert!(parse(&s(&["check", "wsq", "--jobs"])).is_err());
    }

    #[test]
    fn parses_fuzz_options() {
        let cmd = parse(&s(&[
            "fuzz",
            "--systems",
            "500",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--inject",
            "safety,livelock",
            "--corpus-dir",
            "out",
        ]))
        .unwrap();
        let Command::Fuzz(o) = cmd else {
            panic!("expected fuzz")
        };
        assert_eq!(o.systems, 500);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 4);
        assert!(o.inject_safety);
        assert!(!o.inject_deadlock);
        assert!(o.inject_livelock);
        assert_eq!(o.corpus_dir, "out");
    }

    #[test]
    fn fuzz_rejects_bad_values() {
        assert!(parse(&s(&["fuzz", "--inject", "hang"])).is_err());
        assert!(parse(&s(&["fuzz", "--yield-percent", "120"])).is_err());
        assert!(parse(&s(&["fuzz", "--max-threads", "1"])).is_err());
        assert!(parse(&s(&["fuzz", "--jobs", "0"])).is_err());
    }

    #[test]
    fn parses_replay() {
        let cmd = parse(&s(&["replay", "corpus/safety-3.json"])).unwrap();
        let Command::Replay(o) = cmd else {
            panic!("expected replay")
        };
        assert_eq!(o.file, "corpus/safety-3.json");
        assert!(parse(&s(&["replay"])).is_err());
        assert!(parse(&s(&["replay", "a", "b"])).is_err());
    }

    #[test]
    fn parses_checkpoint_and_resume() {
        let cmd = parse(&s(&[
            "check",
            "wsq",
            "--checkpoint",
            "run.journal",
            "--checkpoint-every",
            "50",
        ]))
        .unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert_eq!(o.checkpoint.as_deref(), Some("run.journal"));
        assert_eq!(o.checkpoint_every, 50);

        let cmd = parse(&s(&["check", "wsq", "--resume", "run.journal"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert_eq!(o.resume.as_deref(), Some("run.journal"));

        assert!(parse(&s(&["check", "wsq", "--checkpoint-every", "0"])).is_err());
        // the journal records one sequential frontier
        assert!(parse(&s(&[
            "check",
            "wsq",
            "--jobs",
            "2",
            "--checkpoint",
            "x.journal"
        ]))
        .is_err());
        assert!(parse(&s(&[
            "check",
            "wsq",
            "--jobs",
            "2",
            "--resume",
            "x.journal"
        ]))
        .is_err());
    }

    #[test]
    fn parses_fuzz_panic_injection_and_journal() {
        let cmd = parse(&s(&[
            "fuzz",
            "--inject",
            "panic",
            "--checkpoint",
            "fuzz.journal",
            "--resume",
            "fuzz.journal",
        ]))
        .unwrap();
        let Command::Fuzz(o) = cmd else { panic!() };
        assert!(o.inject_panic);
        assert!(!o.inject_safety);
        assert_eq!(o.checkpoint.as_deref(), Some("fuzz.journal"));
        assert_eq!(o.resume.as_deref(), Some("fuzz.journal"));
    }

    #[test]
    fn parses_validate_effects() {
        let cmd = parse(&s(&["check", "counter", "--validate-effects"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert!(o.validate_effects);
        let cmd = parse(&s(&["cover", "counter"])).unwrap();
        let Command::Cover(o) = cmd else { panic!() };
        assert!(!o.validate_effects);
    }

    #[test]
    fn parses_reduce_modes() {
        let cmd = parse(&s(&["check", "wsq", "--reduce", "sleep-sets"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert!(o.reduce);
        let cmd = parse(&s(&["check", "wsq", "--reduce", "none"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert!(!o.reduce);
        let cmd = parse(&s(&["fuzz", "--reduce", "sleep-sets"])).unwrap();
        let Command::Fuzz(o) = cmd else { panic!() };
        assert!(o.reduce);
        assert!(parse(&s(&["check", "wsq", "--reduce", "dpor"])).is_err());
    }

    #[test]
    fn reduce_rejects_incompatible_combinations() {
        // A reduced search is not snapshot-resumable.
        assert!(parse(&s(&[
            "check",
            "wsq",
            "--reduce",
            "sleep-sets",
            "--checkpoint",
            "x.journal"
        ]))
        .is_err());
        assert!(parse(&s(&[
            "check",
            "wsq",
            "--reduce",
            "sleep-sets",
            "--resume",
            "x.journal"
        ]))
        .is_err());
        // The horizon's random tail defeats sibling bookkeeping.
        assert!(parse(&s(&["check", "wsq", "--reduce", "sleep-sets", "--db", "4"])).is_err());
        // Random walk has no backtracking tree to prune.
        assert!(parse(&s(&[
            "check",
            "wsq",
            "--reduce",
            "sleep-sets",
            "--strategy",
            "random:1"
        ]))
        .is_err());
        // Systematic strategies compose.
        assert!(parse(&s(&[
            "check",
            "wsq",
            "--reduce",
            "sleep-sets",
            "--strategy",
            "cb:2"
        ]))
        .is_ok());
    }

    #[test]
    fn parses_serve_options() {
        let cmd = parse(&s(&[
            "serve",
            "campaign.json",
            "--workers",
            "4",
            "--checkpoint",
            "verdicts.json",
            "--status-file",
            "status.json",
            "--heartbeat-timeout",
            "2.5",
            "--max-attempts",
            "5",
            "--jitter-seed",
            "9",
        ]))
        .unwrap();
        let Command::Serve(o) = cmd else {
            panic!("expected serve")
        };
        assert_eq!(o.manifest, "campaign.json");
        assert_eq!(o.pool.workers, 4);
        assert_eq!(o.checkpoint.as_deref(), Some("verdicts.json"));
        assert_eq!(o.status_file.as_deref(), Some("status.json"));
        assert_eq!(o.pool.heartbeat_timeout, Duration::from_secs_f64(2.5));
        assert_eq!(o.pool.max_attempts, 5);
        assert_eq!(o.pool.jitter_seed, 9);

        let cmd = parse(&s(&["serve", "c.json", "--resume", "verdicts.json"])).unwrap();
        let Command::Serve(o) = cmd else { panic!() };
        assert_eq!(o.resume.as_deref(), Some("verdicts.json"));
        assert_eq!(o.pool.workers, 2, "default worker count");

        assert!(parse(&s(&["serve"])).is_err(), "manifest is required");
        assert!(parse(&s(&["serve", "--workers", "2"])).is_err());
        assert!(parse(&s(&["serve", "c.json", "--workers", "0"])).is_err());
        assert!(parse(&s(&["serve", "c.json", "--max-attempts", "0"])).is_err());
        assert!(parse(&s(&["serve", "c.json", "--heartbeat-timeout", "0"])).is_err());
    }

    #[test]
    fn parses_hidden_worker_command() {
        let cmd = parse(&s(&["worker"])).unwrap();
        let Command::Worker(o) = cmd else {
            panic!("expected worker")
        };
        assert_eq!(o.heartbeat_millis, WorkerOpts::default().heartbeat_millis);
        let cmd = parse(&s(&["worker", "--heartbeat-millis", "50"])).unwrap();
        let Command::Worker(o) = cmd else { panic!() };
        assert_eq!(o.heartbeat_millis, 50);
        assert!(parse(&s(&["worker", "--heartbeat-millis", "0"])).is_err());
        assert!(parse(&s(&["worker", "--wat"])).is_err());
        // Hidden means hidden: the help text never mentions it.
        assert!(!USAGE.contains("fair-chess worker"));
    }

    #[test]
    fn usage_documents_serve() {
        assert!(USAGE.contains("fair-chess serve"));
        for flag in [
            "--workers",
            "--status-file",
            "--heartbeat-timeout",
            "--max-attempts",
            "--jitter-seed",
        ] {
            assert!(USAGE.contains(flag), "{flag} missing from USAGE");
        }
    }

    #[test]
    fn usage_documents_the_exit_code_contract() {
        for code in 0..=7 {
            assert!(
                USAGE.contains(&format!("\n    {code}  ")),
                "exit code {code} missing from USAGE"
            );
        }
    }

    #[test]
    fn parses_memory_models() {
        let cmd = parse(&s(&["check", "sb", "--memory", "tso"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert_eq!(o.memory, MemoryModel::Tso);

        let cmd = parse(&s(&["cover", "dekker", "--memory", "pso"])).unwrap();
        let Command::Cover(o) = cmd else { panic!() };
        assert_eq!(o.memory, MemoryModel::Pso);

        // sc is the default and is accepted explicitly.
        let cmd = parse(&s(&["check", "sb"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert_eq!(o.memory, MemoryModel::Sc);
        assert!(parse(&s(&["check", "sb", "--memory", "sc"])).is_ok());

        let cmd = parse(&s(&["fuzz", "--memory", "tso"])).unwrap();
        let Command::Fuzz(o) = cmd else { panic!() };
        assert_eq!(o.memory, MemoryModel::Tso);

        let e = parse(&s(&["check", "sb", "--memory", "arm"])).unwrap_err();
        assert!(e.0.contains("unknown memory model"), "{}", e.0);
        assert!(parse(&s(&["fuzz", "--memory"])).is_err());
    }

    #[test]
    fn parses_shard() {
        let cmd = parse(&s(&["check", "counter", "--shard", "1/4"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert_eq!(o.shard, Some((1, 4)));
        // Shape and range errors.
        assert!(parse(&s(&["check", "counter", "--shard", "3"])).is_err());
        assert!(parse(&s(&["check", "counter", "--shard", "4/4"])).is_err());
        assert!(parse(&s(&["check", "counter", "--shard", "0/0"])).is_err());
        // Incompatible combinations: one process per shard, and the
        // horizon's random tail is sequential-only.
        assert!(parse(&s(&["check", "counter", "--shard", "0/2", "--jobs", "2"])).is_err());
        assert!(parse(&s(&["check", "counter", "--shard", "0/2", "--db", "4"])).is_err());
        assert!(parse(&s(&["check", "counter", "--jobs", "2", "--db", "4"])).is_err());
        // Every systematic search shards, reduced or not.
        assert!(parse(&s(&[
            "check",
            "counter",
            "--shard",
            "0/2",
            "--strategy",
            "cb:2",
            "--reduce",
            "sleep-sets"
        ]))
        .is_ok());
        assert!(parse(&s(&[
            "check",
            "counter",
            "--shard",
            "0/2",
            "--checkpoint",
            "x.journal"
        ]))
        .is_err());
        assert!(parse(&s(&[
            "check",
            "counter",
            "--shard",
            "0/2",
            "--strategy",
            "random:7"
        ]))
        .is_ok());
    }

    #[test]
    fn parses_daemon_options() {
        let cmd = parse(&s(&[
            "daemon",
            "--listen",
            "unix:/tmp/d.sock",
            "--store",
            "store-dir",
            "--workers",
            "4",
            "--heartbeat-timeout",
            "2.5",
            "--max-attempts",
            "5",
            "--jitter-seed",
            "9",
        ]))
        .unwrap();
        let Command::Daemon(o) = cmd else {
            panic!("expected daemon")
        };
        assert_eq!(o.listen, "unix:/tmp/d.sock");
        assert_eq!(o.store, "store-dir");
        assert_eq!(o.pool.workers, 4);
        assert_eq!(o.pool.heartbeat_timeout, Duration::from_secs_f64(2.5));
        assert_eq!(o.pool.max_attempts, 5);
        assert_eq!(o.pool.jitter_seed, 9);
        // Both endpoints are required.
        assert!(parse(&s(&["daemon", "--store", "x"])).is_err());
        assert!(parse(&s(&["daemon", "--listen", "tcp:127.0.0.1:1"])).is_err());
        assert!(parse(&s(&[
            "daemon",
            "--listen",
            "a",
            "--store",
            "b",
            "--workers",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_client_commands() {
        let cmd = parse(&s(&[
            "submit",
            "campaign.json",
            "--connect",
            "unix:/tmp/d.sock",
            "--watch",
        ]))
        .unwrap();
        let Command::Client(o) = cmd else {
            panic!("expected client")
        };
        assert_eq!(o.connect, "unix:/tmp/d.sock");
        assert_eq!(
            o.op,
            ClientOp::Submit {
                manifest: "campaign.json".to_string(),
                watch: true
            }
        );

        let cmd = parse(&s(&["status", "--connect", "tcp:127.0.0.1:7979"])).unwrap();
        let Command::Client(o) = cmd else { panic!() };
        assert_eq!(o.op, ClientOp::Status { campaign: None });

        let cmd = parse(&s(&["results", "00ff00ff00ff00ff", "--connect", "a:1"])).unwrap();
        let Command::Client(o) = cmd else { panic!() };
        assert_eq!(
            o.op,
            ClientOp::Results {
                campaign: "00ff00ff00ff00ff".to_string()
            }
        );

        let cmd = parse(&s(&["shutdown", "--connect", "a:1"])).unwrap();
        let Command::Client(o) = cmd else { panic!() };
        assert_eq!(o.op, ClientOp::Shutdown);

        // --connect is mandatory, campaigns are one-per-command, and
        // --watch belongs to submit alone.
        assert!(parse(&s(&["submit", "campaign.json"])).is_err());
        assert!(parse(&s(&["watch", "--connect", "a:1"])).is_err());
        assert!(parse(&s(&["cancel", "x", "y", "--connect", "a:1"])).is_err());
        assert!(parse(&s(&["shutdown", "x", "--connect", "a:1"])).is_err());
        assert!(parse(&s(&["status", "x", "--watch", "--connect", "a:1"])).is_err());
    }

    #[test]
    fn usage_documents_the_daemon() {
        for needle in [
            "fair-chess daemon",
            "fair-chess submit",
            "fair-chess watch",
            "fair-chess results",
            "--listen",
            "--store",
            "--connect",
            "--shard",
        ] {
            assert!(USAGE.contains(needle), "{needle} missing from USAGE");
        }
    }

    #[test]
    fn random_strategy_seed() {
        let cmd = parse(&s(&["check", "miniboot", "--strategy", "random:42"])).unwrap();
        let Command::Check(o) = cmd else { panic!() };
        assert_eq!(o.strategy, StrategyOpt::Random(42));
    }
}
