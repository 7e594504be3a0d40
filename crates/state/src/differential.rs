//! Differential checking of the stateless fair explorer against the
//! stateful reference.
//!
//! [`differential_check`] drives one program through both engines and
//! cross-examines the results with an *executable oracle* per theorem of
//! the paper:
//!
//! | oracle | theorem | claim checked |
//! |---|---|---|
//! | `visited-unreachable` | — | every state the explorer visits exists in the state graph |
//! | `yield-free-coverage` | Thm 5 | every yield-free-reachable state is visited by the fair search |
//! | `deadlock-missed` / `deadlock-phantom` | Thm 3 | yield-free-reachable deadlocks are found; reported deadlocks exist |
//! | `violation-missed` / `violation-phantom` | Thm 3 | same for safety violations |
//! | `livelock-missed` / `livelock-phantom` | Thm 6 | fair cycles are found iff the graph has a fair SCC |
//! | `unrolling-bound` | Thm 4 | no program state recurs unboundedly within one execution |
//! | `error-pass-disagrees` | — | the stop-at-first-error pass agrees with the counting pass, and 2-shard DFS reproduces the error pass |
//! | `replay-*` | — | counterexamples replay deterministically and land on real graph states |
//! | `sleep-verdict` | — | sleep-set DFS reports the same verdict class as unreduced DFS |
//! | `sleep-executions` | — | sleep-set DFS explores a subset (never more executions) |
//! | `sleep-coverage` | Thm 5 | on violation-free systems the reduced search still covers every yield-free-reachable state |
//! | `sleep-terminal-states` | — | on error-free systems both searches reach exactly the same terminal states |
//! | `sleep-parallel-agreement` | — | 2-shard sleep-set DFS reproduces the sleep-set counting pass |
//! | `snapshot-agreement` | — | DFS and sleep-set DFS report, cover, terminate and unroll the same with prefix snapshots (pooling on) as replaying every execution (pooling off) |
//!
//! The `sleep-*` oracles run only when [`OracleLimits::reduce`] is set:
//! they compare the sleep-set counting pass R ([`Dfs::with_sleep_sets`])
//! against the unreduced pass A.
//!
//! The harness runs these stateless passes over the same program: pass A
//! counts every error without stopping (so the completeness oracles can
//! compare totals), pass R does the same with sleep sets, and pass B
//! stops at the first error (producing the counterexample that is
//! verified, cross-checked against the graph, minimized, and ultimately
//! persisted to the fuzzing corpus). Passes A and R resume from prefix
//! snapshots; `snapshot-agreement` reruns both with pooling off.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use chess_core::minimize::{minimize_schedule, reproduces, OutcomeKind};
use chess_core::strategy::{Dfs, FixedSchedule};
use chess_core::{
    replay, Config, Explorer, Observer, Progress, Reduction, Schedule, Search, SearchOutcome,
    SearchReport, ShardRunner, SystemStatus, TransitionSystem,
};

use crate::coverage::CoverageTracker;
use crate::stateful::{StateGraph, StatefulLimits};

/// Budgets protecting one differential check from state-space blowup.
/// Exceeding any of them yields [`SystemOutcome::Skipped`], never a
/// discrepancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleLimits {
    /// Maximum distinct states for the stateful reference.
    pub max_states: usize,
    /// Maximum executions for each stateless pass.
    pub max_executions: u64,
    /// Per-execution depth bound for the stateless passes.
    pub depth_bound: usize,
    /// Also re-run the error pass (and, with [`OracleLimits::reduce`],
    /// the sleep-set counting pass) as a 2-shard [`ShardRunner`] DFS and
    /// require the merged report to equal the sequential one.
    pub parallel_cross_check: bool,
    /// Run the `sleep-*` oracles: a third counting pass with sleep-set
    /// DFS must report the same verdict class as the unreduced pass while
    /// exploring no more executions.
    pub reduce: bool,
}

impl Default for OracleLimits {
    fn default() -> Self {
        OracleLimits {
            max_states: 200_000,
            max_executions: 500_000,
            depth_bound: 10_000,
            parallel_cross_check: true,
            reduce: false,
        }
    }
}

/// One oracle failure: the engines disagree about this program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discrepancy {
    /// Stable oracle identifier (see the module table).
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// What the differential check concluded about one program.
#[derive(Debug, Clone)]
pub enum SystemOutcome {
    /// A budget was exceeded before the oracles could run.
    Skipped(String),
    /// The program has no errors and every oracle passed.
    Clean,
    /// An error was found, verified against the graph, and minimized.
    Buggy {
        /// Kind of the first error found by pass B.
        kind: OutcomeKind,
        /// Human-readable message of the error.
        message: String,
        /// The schedule pass B recorded.
        schedule: Schedule,
        /// The ddmin-minimized schedule (reproduces the same kind).
        minimized: Schedule,
    },
}

/// Result of one differential check.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Distinct reachable states (ground truth).
    pub graph_states: usize,
    /// States reachable through yield-free transitions only (Theorem 5's
    /// mandatory coverage set).
    pub yield_free_states: usize,
    /// Distinct states visited by the stateless fair search.
    pub covered_states: usize,
    /// Largest number of times any single program state recurred within
    /// one execution (the Theorem 4 unrolling metric).
    pub max_unrolling: u32,
    /// Executions explored by the unreduced counting pass (pass A).
    pub dfs_executions: u64,
    /// Executions explored by the sleep-set counting pass; `0` unless
    /// [`OracleLimits::reduce`] was set.
    pub sleep_executions: u64,
    /// Classification of the program.
    pub outcome: SystemOutcome,
    /// Oracle failures; empty means the engines agree.
    pub discrepancies: Vec<Discrepancy>,
}

impl Verdict {
    /// Whether every oracle agreed (a skipped system counts as agreeing).
    pub fn agreed(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Coverage plus the Theorem 4 unrolling metric, observed in one pass.
///
/// Resumable: the current execution's fingerprints are a stack indexed
/// by depth, and a state at depth `d` first rolls the stack back to `d`.
/// So a fresh start (`d = 0`) and an execution resumed from a prefix
/// snapshot both count exactly the states of their own execution.
#[derive(Default)]
struct DifferentialObserver {
    coverage: CoverageTracker,
    /// Fingerprint of the current execution's state at each depth.
    path: Vec<u64>,
    /// How often each fingerprint occurs on `path`.
    in_execution: HashMap<u64, u32>,
    max_unrolling: u32,
    /// Distinct final states of executions that ran to clean termination,
    /// for the `sleep-terminal-states` oracle.
    terminal_states: HashSet<Vec<u8>>,
}

impl<P: TransitionSystem + ?Sized> Observer<P> for DifferentialObserver {
    fn resumable(&self) -> bool {
        true
    }

    fn on_state(&mut self, sys: &P, depth: usize) {
        self.coverage.on_state(sys, depth);
        for fp in self.path.drain(depth..) {
            if let Entry::Occupied(mut n) = self.in_execution.entry(fp) {
                *n.get_mut() -= 1;
                if *n.get() == 0 {
                    n.remove();
                }
            }
        }
        let fp = sys.fingerprint();
        self.path.push(fp);
        let n = self.in_execution.entry(fp).or_insert(0);
        *n += 1;
        self.max_unrolling = self.max_unrolling.max(*n);
    }

    fn on_execution_end(&mut self, sys: &P, _depth: usize) {
        if sys.status() == SystemStatus::Terminated {
            self.terminal_states.insert(sys.state_bytes());
        }
    }
}

/// One stateless DFS pass (sleep-set DFS with `reduce`) under a
/// [`DifferentialObserver`].
fn observed_pass<P, F>(
    factory: F,
    reduce: bool,
    config: &Config,
    progress: &Arc<Progress>,
) -> (SearchReport, DifferentialObserver)
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    let strategy = if reduce {
        Dfs::with_sleep_sets()
    } else {
        Dfs::new()
    };
    let mut obs = DifferentialObserver::default();
    let report = Explorer::new(factory, strategy, config.clone())
        .with_progress(Arc::clone(progress))
        .run_observed(&mut obs);
    (report, obs)
}

fn zero_wall(r: &SearchReport) -> SearchReport {
    let mut r = r.clone();
    r.stats.wall = Duration::ZERO;
    r
}

/// How a pass with prefix snapshots (pooling on) differs from the same
/// pass replaying every execution (pooling off), wall clock aside: in
/// its report, coverage set, terminal-state set or unrolling metric.
fn snapshot_disagreement(
    on: (&SearchReport, &DifferentialObserver),
    off: (&SearchReport, &DifferentialObserver),
) -> Option<String> {
    let (covered, covered_off) = (&on.1.coverage, &off.1.coverage);
    let same = zero_wall(on.0) == zero_wall(off.0)
        && covered.distinct_states() == covered_off.distinct_states()
        && covered.iter().all(|state| covered_off.contains(state))
        && on.1.terminal_states == off.1.terminal_states
        && on.1.max_unrolling == off.1.max_unrolling;
    let describe = |(r, o): (&SearchReport, &DifferentialObserver)| {
        format!(
            "{:?}, {} states, {} terminal states, max unrolling {}",
            zero_wall(r),
            o.coverage.distinct_states(),
            o.terminal_states.len(),
            o.max_unrolling
        )
    };
    (!same).then(|| {
        format!(
            "saw {} with snapshots, {} without",
            describe(on),
            describe(off)
        )
    })
}

/// How a 2-shard report differs from the sequential pass it splits,
/// wall clock aside. Shards spend their execution budget each, so only a
/// sequential pass that fit its budget is comparable — which every pass
/// reaching this check does, since each explores no more than the
/// counting pass that fit.
fn shard_disagreement(sequential: &SearchReport, sharded: &SearchReport) -> Option<String> {
    if matches!(sequential.outcome, SearchOutcome::BudgetExhausted(_)) {
        return None;
    }
    (zero_wall(sharded) != zero_wall(sequential)).then(|| {
        format!(
            "2-shard DFS reported {:?}, the sequential pass {:?}",
            zero_wall(sharded),
            zero_wall(sequential)
        )
    })
}

/// Runs the full differential check of one program.
///
/// `factory` must produce identical fresh instances on every call (the
/// stateless-checking contract). The `Sync` bound exists for the
/// parallel cross-check; it is trivially satisfied by closures over
/// immutable configuration.
pub fn differential_check<P, F>(factory: F, limits: &OracleLimits) -> Verdict
where
    P: TransitionSystem + Clone,
    F: Fn() -> P + Sync,
{
    differential_check_with_progress(factory, limits, &Arc::new(Progress::default()))
}

/// [`differential_check`] with live progress publication: the graph
/// build ticks `progress.transitions` per interned state and every
/// sequential stateless pass publishes its execution counters, so a
/// watchdog keyed on [`Progress::tick`] (the campaign runner's
/// heartbeat gate) sees a slow-but-live check advancing. The sharded
/// cross-check publishes nothing, so callers needing a pulse through
/// every phase should disable it via
/// [`OracleLimits::parallel_cross_check`].
pub fn differential_check_with_progress<P, F>(
    factory: F,
    limits: &OracleLimits,
    progress: &Arc<Progress>,
) -> Verdict
where
    P: TransitionSystem + Clone,
    F: Fn() -> P + Sync,
{
    let mut verdict = Verdict {
        graph_states: 0,
        yield_free_states: 0,
        covered_states: 0,
        max_unrolling: 0,
        dfs_executions: 0,
        sleep_executions: 0,
        outcome: SystemOutcome::Clean,
        discrepancies: Vec::new(),
    };
    let disc = |v: &mut Verdict, oracle: &'static str, detail: String| {
        v.discrepancies.push(Discrepancy { oracle, detail });
    };

    // Ground truth: the explicit state graph.
    let graph = match StateGraph::build_observed(
        &factory(),
        StatefulLimits {
            max_states: limits.max_states,
        },
        &mut || {
            progress.transitions.fetch_add(1, Ordering::Relaxed);
        },
    ) {
        Ok(g) => g,
        Err(e) => {
            verdict.outcome = SystemOutcome::Skipped(e.to_string());
            return verdict;
        }
    };
    verdict.graph_states = graph.state_count();
    let r0 = graph.yield_free_reachable();
    verdict.yield_free_states = r0.iter().filter(|&&b| b).count();

    // Pass A: count every error, never stop, observe coverage.
    let config_a = Config::fair()
        .with_stop_on_error(false)
        .with_max_executions(limits.max_executions)
        .with_depth_bound(limits.depth_bound);
    let (report_a, obs) = observed_pass(&factory, false, &config_a, progress);
    verdict.covered_states = obs.coverage.distinct_states();
    verdict.max_unrolling = obs.max_unrolling;
    verdict.dfs_executions = report_a.stats.executions;
    if let SearchOutcome::BudgetExhausted(k) = report_a.outcome {
        verdict.outcome = SystemOutcome::Skipped(format!("counting pass budget exhausted: {k:?}"));
        return verdict;
    }

    // Pass R: the sleep-set counting pass. Passes A and R resume from
    // prefix snapshots, so they are the snapshot side of the
    // `snapshot-agreement` oracle below.
    let (report_r, obs_r) = observed_pass(&factory, true, &config_a, progress);

    // Sleep-set reduction soundness (optional). The reduced search must
    // classify the system identically — same existence of violations,
    // deadlocks, and fair cycles — while exploring a subset of the
    // executions, and on violation-free systems it must still cover
    // every yield-free-reachable state (sleep sets prune redundant
    // *transitions*; every state stays visited via the commuted path).
    if limits.reduce {
        verdict.sleep_executions = report_r.stats.executions;
        if matches!(report_r.outcome, SearchOutcome::BudgetExhausted(_)) {
            // Unreachable in practice: the reduced search explores a
            // subset of pass A, which fit the budget. Flag rather than
            // skip so a regression cannot hide here.
            disc(
                &mut verdict,
                "sleep-executions",
                "reduced pass exhausted a budget the unreduced pass fit".into(),
            );
        }
        let classes = [
            (
                "violations",
                report_a.stats.violations,
                report_r.stats.violations,
            ),
            (
                "deadlocks",
                report_a.stats.deadlocks,
                report_r.stats.deadlocks,
            ),
            (
                "fair cycles",
                report_a.stats.fair_cycles,
                report_r.stats.fair_cycles,
            ),
        ];
        for (what, plain, reduced) in classes {
            if (plain > 0) != (reduced > 0) {
                disc(
                    &mut verdict,
                    "sleep-verdict",
                    format!("unreduced DFS saw {plain} {what}, sleep-set DFS saw {reduced}"),
                );
            }
        }
        if report_r.stats.executions > report_a.stats.executions {
            disc(
                &mut verdict,
                "sleep-executions",
                format!(
                    "sleep-set DFS explored {} executions, unreduced DFS {}",
                    report_r.stats.executions, report_a.stats.executions
                ),
            );
        }
        let errors_a =
            report_a.stats.violations + report_a.stats.deadlocks + report_a.stats.divergences;
        if errors_a == 0 {
            let missed_r = (0..graph.state_count())
                .filter(|&i| r0[i] && !obs_r.coverage.contains(graph.node_bytes(i)))
                .count();
            if missed_r > 0 {
                let total_r0 = verdict.yield_free_states;
                disc(
                    &mut verdict,
                    "sleep-coverage",
                    format!(
                        "{missed_r} of {total_r0} yield-free-reachable states not visited \
                         by the reduced search"
                    ),
                );
            }
            // Sleep sets prune redundant interleavings, never outcomes:
            // on an error-free system both searches must run every
            // execution to clean termination and agree exactly on the
            // set of terminal states reached.
            if obs_r.terminal_states != obs.terminal_states {
                let only_plain = obs
                    .terminal_states
                    .difference(&obs_r.terminal_states)
                    .count();
                let only_reduced = obs_r
                    .terminal_states
                    .difference(&obs.terminal_states)
                    .count();
                disc(
                    &mut verdict,
                    "sleep-terminal-states",
                    format!(
                        "terminal-state sets differ: {only_plain} states only in the \
                         unreduced search, {only_reduced} only in the reduced search"
                    ),
                );
            }
        }
    }

    // Oracle: soundness of visits — the stateless engine may not invent
    // states the reference cannot reach.
    let graph_set: HashSet<&[u8]> = (0..graph.state_count())
        .map(|i| graph.node_bytes(i))
        .collect();
    for sig in obs.coverage.iter() {
        if !graph_set.contains(sig.as_slice()) {
            disc(
                &mut verdict,
                "visited-unreachable",
                format!("stateless search visited a state absent from the graph: {sig:?}"),
            );
            break;
        }
    }

    // Oracle (Theorem 5): every yield-free-reachable state is covered.
    let mut missed = 0usize;
    for (i, &in_r0) in r0.iter().enumerate() {
        if in_r0 && !obs.coverage.contains(graph.node_bytes(i)) {
            missed += 1;
        }
    }
    if missed > 0 {
        let total_r0 = verdict.yield_free_states;
        disc(
            &mut verdict,
            "yield-free-coverage",
            format!(
                "{missed} of {total_r0} yield-free-reachable states not visited by the fair search"
            ),
        );
    }

    // Oracles (Theorem 3): deadlocks found iff real. Completeness is
    // required only for yield-free-reachable deadlocks — a deadlock
    // behind a yield is still guaranteed found by fair DFS, but Theorem 5
    // is the form we can state without a scheduler-completeness proof.
    let graph_deadlocks = graph.deadlock_states();
    let graph_violations = graph.violation_states();
    if report_a.stats.deadlocks > 0 && graph_deadlocks.is_empty() {
        disc(
            &mut verdict,
            "deadlock-phantom",
            format!(
                "stateless search reported {} deadlocks; graph has none",
                report_a.stats.deadlocks
            ),
        );
    }
    if graph_deadlocks.iter().any(|&i| r0[i]) && report_a.stats.deadlocks == 0 {
        disc(
            &mut verdict,
            "deadlock-missed",
            "graph has a yield-free-reachable deadlock; stateless search reported none".into(),
        );
    }
    if report_a.stats.violations > 0 && graph_violations.is_empty() {
        disc(
            &mut verdict,
            "violation-phantom",
            format!(
                "stateless search reported {} violations; graph has none",
                report_a.stats.violations
            ),
        );
    }
    if graph_violations.iter().any(|&i| r0[i]) && report_a.stats.violations == 0 {
        disc(
            &mut verdict,
            "violation-missed",
            "graph has a yield-free-reachable violation; stateless search reported none".into(),
        );
    }

    // Oracle (Theorem 6): livelocks. The Streett check on the graph
    // decides fair-cycle existence exactly; the fair stateless search
    // must agree in both directions.
    let fair_scc = graph.find_fair_scc();
    if fair_scc.is_some() && report_a.stats.fair_cycles == 0 {
        disc(
            &mut verdict,
            "livelock-missed",
            format!(
                "graph has a fair SCC of {} states; stateless search found no fair cycle",
                fair_scc.as_ref().map_or(0, Vec::len)
            ),
        );
    }
    if fair_scc.is_none() && report_a.stats.fair_cycles > 0 {
        disc(
            &mut verdict,
            "livelock-phantom",
            format!(
                "stateless search reported {} fair cycles; graph has no fair SCC",
                report_a.stats.fair_cycles
            ),
        );
    }

    // Oracle (Theorem 4): bounded unrolling. The theorem bounds unfair
    // cycle unrollings at two; executable form: within one execution no
    // program state recurs more than `4·threads + 4` times (slack covers
    // overlapping per-thread spin windows).
    let threads = factory().thread_count() as u32;
    if obs.max_unrolling > 4 * threads + 4 {
        disc(
            &mut verdict,
            "unrolling-bound",
            format!(
                "a program state recurred {} times within one execution (bound {})",
                obs.max_unrolling,
                4 * threads + 4
            ),
        );
    }

    // Oracle: prefix snapshots change nothing. Passes A and R resumed
    // from snapshots (pooling on); rerun them replaying every execution
    // from the initial state (pooling off).
    let config_off = config_a.clone().with_pooling(false);
    for (reduce, on) in [(false, (&report_a, &obs)), (true, (&report_r, &obs_r))] {
        let (off, off_obs) = observed_pass(&factory, reduce, &config_off, progress);
        if let Some(detail) = snapshot_disagreement(on, (&off, &off_obs)) {
            let what = if reduce { "sleep-set DFS" } else { "DFS" };
            disc(
                &mut verdict,
                "snapshot-agreement",
                format!("{what} {detail}"),
            );
        }
    }

    // Pass B: stop at the first error — the counterexample producer.
    let config_b = Config::fair()
        .with_max_executions(limits.max_executions)
        .with_depth_bound(limits.depth_bound);
    let report_b = Explorer::new(&factory, Dfs::new(), config_b.clone())
        .with_progress(Arc::clone(progress))
        .run();
    let errors_a =
        report_a.stats.violations + report_a.stats.deadlocks + report_a.stats.divergences;

    if limits.parallel_cross_check {
        // Sharding splits the root frontier without changing the search:
        // the merged 2-shard report must be the sequential one.
        let sharded = |reduction, config: &Config| {
            ShardRunner::new(&factory, config.clone(), Search::Dfs(reduction)).run_shards(2)
        };
        let par = sharded(Reduction::None, &config_b);
        if let Some(detail) = shard_disagreement(&report_b, &par) {
            disc(&mut verdict, "error-pass-disagrees", detail);
        }
        if limits.reduce {
            let red = sharded(Reduction::SleepSets, &config_a);
            if let Some(detail) = shard_disagreement(&report_r, &red) {
                disc(&mut verdict, "sleep-parallel-agreement", detail);
            }
        }
    }

    match &report_b.outcome {
        SearchOutcome::Complete => {
            if errors_a > 0 {
                disc(
                    &mut verdict,
                    "error-pass-disagrees",
                    format!("counting pass saw {errors_a} errors; error pass completed cleanly"),
                );
            }
            verdict.outcome = SystemOutcome::Clean;
        }
        SearchOutcome::BudgetExhausted(k) => {
            verdict.outcome = SystemOutcome::Skipped(format!("error pass budget exhausted: {k:?}"));
        }
        outcome => {
            if errors_a == 0 {
                disc(
                    &mut verdict,
                    "error-pass-disagrees",
                    format!("error pass found {outcome:?}; counting pass saw none"),
                );
            }
            let kind = OutcomeKind::of(outcome).expect("error outcome has a kind");
            let (schedule, message) = match outcome {
                SearchOutcome::SafetyViolation(c)
                | SearchOutcome::Deadlock(c)
                | SearchOutcome::Panic(c) => (c.schedule.clone(), c.message.clone()),
                SearchOutcome::Divergence(d) => (d.schedule.clone(), d.kind.to_string()),
                _ => unreachable!(),
            };

            // Replay determinism: two fixed-schedule replays must agree
            // with each other and with the original outcome kind.
            let replay_once = || {
                Explorer::new(
                    &factory,
                    FixedSchedule::new(schedule.clone()),
                    config_b.clone(),
                )
                .with_progress(Arc::clone(progress))
                .run()
                .outcome
            };
            let (r1, r2) = (replay_once(), replay_once());
            if r1 != r2 {
                disc(
                    &mut verdict,
                    "replay-nondeterministic",
                    format!("two replays disagree: {r1:?} vs {r2:?}"),
                );
            }
            if OutcomeKind::of(&r1) != Some(kind) {
                disc(
                    &mut verdict,
                    "replay-kind-changed",
                    format!("replay produced {r1:?}, expected kind {kind:?}"),
                );
            }

            // Graph cross-check of the counterexample itself.
            match kind {
                OutcomeKind::Safety | OutcomeKind::Deadlock => {
                    let mut sys = factory();
                    let status = replay(&mut sys, &schedule);
                    let final_bytes = sys.state_bytes();
                    let node = graph.state_index(&final_bytes);
                    let ok = match (kind, node) {
                        (OutcomeKind::Safety, Some(i)) => {
                            matches!(graph.nodes()[i].status, SystemStatus::Violation(..))
                        }
                        (OutcomeKind::Deadlock, Some(i)) => {
                            matches!(graph.nodes()[i].status, SystemStatus::Deadlock)
                        }
                        _ => false,
                    };
                    if !ok {
                        disc(
                            &mut verdict,
                            "replay-state-unreal",
                            format!(
                                "counterexample replays to {status:?} at graph node {node:?}, \
                                 which is not a matching terminal state"
                            ),
                        );
                    }
                }
                OutcomeKind::Panic => {
                    // A panic counterexample has no final state to look
                    // up — the unwind destroys it. Cross-check by direct
                    // replay (the schedule must make the bare system
                    // panic) and against the graph's synthetic nodes.
                    let replays_to_panic = chess_core::panics::catch_silent(|| {
                        let mut sys = factory();
                        replay(&mut sys, &schedule)
                    })
                    .is_err();
                    if !replays_to_panic {
                        disc(
                            &mut verdict,
                            "replay-state-unreal",
                            "panic counterexample did not panic on direct replay".into(),
                        );
                    }
                    if graph.panicked_states().is_empty() {
                        disc(
                            &mut verdict,
                            "violation-phantom",
                            "error pass reported a panic; graph has no panic node".into(),
                        );
                    }
                }
                OutcomeKind::FairCycle if fair_scc.is_none() => {
                    disc(
                        &mut verdict,
                        "livelock-phantom",
                        "error pass reported a fair cycle; graph has no fair SCC".into(),
                    );
                }
                _ => {}
            }

            // Shrink. The minimizer re-verifies reproduction internally;
            // double-check its contract here so a minimizer regression
            // surfaces as a discrepancy too.
            let minimized = minimize_schedule(&factory, &config_b, &schedule, kind);
            if !reproduces(&factory, &config_b, &minimized, kind) {
                disc(
                    &mut verdict,
                    "minimizer-broken",
                    format!(
                        "minimized schedule ({} of {} decisions) stopped reproducing {kind:?}",
                        minimized.len(),
                        schedule.len()
                    ),
                );
            }
            verdict.outcome = SystemOutcome::Buggy {
                kind,
                message,
                schedule,
                minimized,
            };
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use chess_core::fuzz::{derive_seed, generate_system, FuzzConfig};

    #[test]
    fn clean_fuzz_systems_agree() {
        for i in 0..10 {
            let cfg = FuzzConfig::default().with_seed(derive_seed(0xC1EA, i));
            let v = differential_check(|| generate_system(&cfg), &OracleLimits::default());
            assert!(v.agreed(), "seed {i}: {:?}", v.discrepancies);
            if let SystemOutcome::Clean = v.outcome {
                assert!(v.covered_states <= v.graph_states);
                assert!(v.yield_free_states <= v.graph_states);
            }
        }
    }

    #[test]
    fn sleep_reduction_oracles_pass_on_clean_systems() {
        let limits = OracleLimits {
            reduce: true,
            ..OracleLimits::default()
        };
        let mut pruned_somewhere = false;
        for i in 0..10 {
            let cfg = FuzzConfig::default().with_seed(derive_seed(0x51E3, i));
            let v = differential_check(|| generate_system(&cfg), &limits);
            assert!(v.agreed(), "seed {i}: {:?}", v.discrepancies);
            if matches!(v.outcome, SystemOutcome::Clean) {
                assert!(v.sleep_executions <= v.dfs_executions, "seed {i}");
                pruned_somewhere |= v.sleep_executions < v.dfs_executions;
            }
        }
        assert!(pruned_somewhere, "sleep sets pruned nothing on 10 systems");
    }

    #[test]
    fn sleep_reduction_oracles_pass_on_injected_bugs() {
        let limits = OracleLimits {
            reduce: true,
            ..OracleLimits::default()
        };
        for (i, mutate) in [
            (|c: &mut FuzzConfig| c.inject_safety = true) as fn(&mut FuzzConfig),
            |c| c.inject_deadlock = true,
            |c| c.inject_livelock = true,
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = FuzzConfig {
                yield_percent: 100,
                ..FuzzConfig::default().with_seed(derive_seed(0x51E4, i as u64))
            };
            mutate(&mut cfg);
            let v = differential_check(|| generate_system(&cfg), &limits);
            assert!(v.agreed(), "injection {i}: {:?}", v.discrepancies);
        }
    }

    #[test]
    fn injected_safety_bug_yields_minimized_counterexample() {
        let cfg = FuzzConfig {
            inject_safety: true,
            yield_percent: 100,
            ..FuzzConfig::default().with_seed(derive_seed(0xB06, 0))
        };
        let v = differential_check(|| generate_system(&cfg), &OracleLimits::default());
        assert!(v.agreed(), "{:?}", v.discrepancies);
        match v.outcome {
            SystemOutcome::Buggy {
                kind,
                ref minimized,
                ref schedule,
                ..
            } => {
                assert_eq!(kind, OutcomeKind::Safety);
                assert!(minimized.len() <= schedule.len());
            }
            ref o => panic!("expected a bug, got {o:?}"),
        }
    }

    #[test]
    fn injected_panic_yields_minimized_panic_counterexample() {
        let cfg = FuzzConfig {
            inject_panic: true,
            yield_percent: 100,
            ..FuzzConfig::default().with_seed(derive_seed(0x9A1C, 0))
        };
        let v = differential_check(|| generate_system(&cfg), &OracleLimits::default());
        assert!(v.agreed(), "{:?}", v.discrepancies);
        match v.outcome {
            SystemOutcome::Buggy {
                kind,
                ref message,
                ref minimized,
                ref schedule,
            } => {
                assert_eq!(kind, OutcomeKind::Panic);
                assert!(message.starts_with("injected panic"), "{message}");
                assert!(minimized.len() <= schedule.len());
            }
            ref o => panic!("expected a panic bug, got {o:?}"),
        }
    }

    #[test]
    fn injected_livelock_agrees_with_streett_check() {
        let cfg = FuzzConfig {
            inject_livelock: true,
            yield_percent: 100,
            ..FuzzConfig::default().with_seed(derive_seed(0x11FE, 0))
        };
        let v = differential_check(|| generate_system(&cfg), &OracleLimits::default());
        assert!(v.agreed(), "{:?}", v.discrepancies);
        assert!(
            matches!(
                v.outcome,
                SystemOutcome::Buggy { .. } | SystemOutcome::Skipped(_)
            ),
            "{:?}",
            v.outcome
        );
    }
}
