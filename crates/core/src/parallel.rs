//! The shard runner: the one way a search is split, whether the pieces
//! run on threads (`check --jobs`), in separate processes
//! (`check --shard`) or across a campaign daemon's worker pool.
//!
//! Every execution of a stateless search replays from the initial
//! state, so the schedule tree splits at the root into subtrees that
//! share nothing. A [`ShardSpec`] names a contiguous slice of the
//! depth-0 decision frontier, and a sharded [`Dfs`] or
//! [`ContextBounded`] search (plain or with sleep sets) applies it in
//! its root frame: roots before the slice count as already-explored
//! siblings, roots after it are dropped. Shard `i` therefore visits
//! exactly the executions the sequential search visits under its roots,
//! in the same order and with the same sleep sets, and
//! [`merge_contiguous_shards`] of the shard reports in shard order is
//! the sequential report (wall clock aside). A [`RandomWalk`] has no
//! tree to slice: shard `i` walks with `seed + i` and an even share of
//! the execution budget, merged by [`merge_seed_shards`].
//!
//! [`ShardRunner::run_shard`] runs one slice and
//! [`ShardRunner::run_shards`] runs `K` slices on scoped threads and
//! merges them. Each shard runs under a supervisor: a panic that escapes
//! the sequential explorer itself — a buggy strategy or factory, not a
//! workload panic, which surfaces as [`SearchOutcome::Panic`] — restarts
//! the shard up to [`MAX_WORKER_RESTARTS`] times, after which the shard
//! is abandoned as [`BudgetKind::WorkerPanicked`]: an incomplete search,
//! never a crash. Every counterexample a shard reports is first replayed
//! through a [`FixedSchedule`]. A shard that stops on an error cancels
//! only the shards above it, whose work the merge drops anyway.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use crate::explore::{Config, Explorer, Progress};
use crate::report::{BudgetKind, SearchOutcome, SearchReport, SearchStats};
use crate::strategy::{ContextBounded, Dfs, FixedSchedule, RandomWalk, Reduction, Strategy};
use crate::system::TransitionSystem;

/// One shard of a split search: shard `index` of `of` (indices `0..of`).
///
/// For [`Search::Dfs`] and [`Search::Cb`] the spec selects a contiguous
/// slice of the depth-0 decision frontier; for [`Search::Random`] it
/// selects a seed offset and a budget share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's position, `0 <= index < of`.
    pub index: usize,
    /// Total number of shards (≥ 1).
    pub of: usize,
}

impl ShardSpec {
    /// The one shard that is the whole search.
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, of: 1 };

    /// Creates a shard spec, or an error message when the pair is not a
    /// valid position (`of == 0` or `index >= of`).
    pub fn new(index: usize, of: usize) -> Result<ShardSpec, String> {
        if of == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= of {
            return Err(format!("shard index {index} out of range 0..{of}"));
        }
        Ok(ShardSpec { index, of })
    }

    /// The contiguous slice of `n` items this shard owns:
    /// `[index·n/of, (index+1)·n/of)`. Adjacent shards tile `0..n`
    /// without gaps or overlap, and every share differs in size by at
    /// most one.
    pub fn range(&self, n: usize) -> std::ops::Range<usize> {
        self.index * n / self.of..(self.index + 1) * n / self.of
    }
}

/// The search a [`ShardRunner`] splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// Exhaustive depth-first search ([`Dfs`]).
    Dfs(Reduction),
    /// Context-bounded search ([`ContextBounded`]) with this preemption
    /// bound.
    Cb(u32, Reduction),
    /// Random walk ([`RandomWalk`]) from this seed.
    Random(u64),
}

impl Search {
    /// The strategy that runs `shard` of this search.
    fn strategy(self, shard: ShardSpec) -> Box<dyn Strategy> {
        match self {
            Search::Dfs(Reduction::None) => Box::new(Dfs::new().sharded(shard)),
            Search::Dfs(Reduction::SleepSets) => Box::new(Dfs::with_sleep_sets().sharded(shard)),
            Search::Cb(bound, Reduction::None) => {
                Box::new(ContextBounded::new(bound).sharded(shard))
            }
            Search::Cb(bound, Reduction::SleepSets) => {
                Box::new(ContextBounded::with_sleep_sets(bound).sharded(shard))
            }
            Search::Random(seed) => {
                Box::new(RandomWalk::new(seed.wrapping_add(shard.index as u64)))
            }
        }
    }

    /// Merges the reports of all shards of this search, in shard order.
    fn merge(self, reports: &[SearchReport]) -> SearchReport {
        match self {
            Search::Random(_) => merge_seed_shards(reports),
            Search::Dfs(_) | Search::Cb(..) => merge_contiguous_shards(reports),
        }
    }
}

/// Runs shards of one [`Search`] over a program factory.
///
/// Execution budgets in the config apply to every dfs or cb shard
/// alike; a random walk's execution budget is the total across shards.
/// A time budget applies to every shard alike.
///
/// # Examples
///
/// ```
/// use chess_core::{Config, Explorer, Reduction, Search, ShardRunner};
/// use chess_core::strategy::Dfs;
/// use chess_kernel::{Effects, GuestThread, Kernel, OpDesc, OpResult};
///
/// #[derive(Clone)]
/// struct Step(bool);
/// impl GuestThread<()> for Step {
///     fn next_op(&self, _: &()) -> OpDesc {
///         if self.0 { OpDesc::Finished } else { OpDesc::Local }
///     }
///     fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {
///         self.0 = true;
///     }
///     fn box_clone(&self) -> Box<dyn GuestThread<()>> { Box::new(self.clone()) }
/// }
///
/// let factory = || {
///     let mut k = Kernel::new(());
///     k.spawn(Step(false));
///     k.spawn(Step(false));
///     k
/// };
/// let mut sharded = ShardRunner::new(factory, Config::fair(), Search::Dfs(Reduction::None))
///     .run_shards(2);
/// let mut sequential = Explorer::new(factory, Dfs::new(), Config::fair()).run();
/// sharded.stats.wall = Default::default();
/// sequential.stats.wall = Default::default();
/// assert_eq!(sharded, sequential);
/// ```
pub struct ShardRunner<F> {
    factory: F,
    config: Config,
    search: Search,
    stop: Option<Arc<AtomicBool>>,
    progress: Option<Arc<Progress>>,
}

impl<P, F> ShardRunner<F>
where
    P: TransitionSystem,
    F: Fn() -> P + Sync,
{
    /// Creates a runner for `search` over programs built by `factory`.
    pub fn new(factory: F, config: Config, search: Search) -> Self {
        ShardRunner {
            factory,
            config,
            search,
            stop: None,
            progress: None,
        }
    }

    /// Attaches an externally owned cancellation flag (e.g. raised by a
    /// SIGINT handler): raising it stops every shard at its next poll,
    /// and the interrupted shards report [`BudgetKind::Cancelled`].
    pub fn with_stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Attaches shared progress counters, published by
    /// [`ShardRunner::run_shard`] at every execution boundary — a
    /// process supervisor watches these as a liveness signal.
    pub fn with_progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Runs one shard sequentially. A dfs or cb shard whose slice of the
    /// root frontier is empty (more shards than roots) returns a
    /// zero-stats [`SearchOutcome::Complete`] report. A world with
    /// nothing schedulable at the root has no frontier to slice: shard 0
    /// runs the whole search and every other shard is empty.
    pub fn run_shard(&self, shard: ShardSpec) -> SearchReport {
        self.run_one(shard, None, self.progress.as_ref())
    }

    /// Runs all `of` shards on scoped threads and merges their reports
    /// with [`merge_contiguous_shards`], or [`merge_seed_shards`] for a
    /// random walk. With `of = 1` this is the sequential search.
    pub fn run_shards(&self, of: usize) -> SearchReport {
        let start = Instant::now();
        let cancels: Vec<Arc<AtomicBool>> = (0..of).map(|_| Arc::default()).collect();
        let reports: Vec<SearchReport> = thread::scope(|s| {
            let handles: Vec<_> = (0..of)
                .map(|index| {
                    let cancels = &cancels;
                    s.spawn(move || {
                        let report =
                            self.run_one(ShardSpec { index, of }, Some(&cancels[index]), None);
                        if self.config.stop_on_error && report.outcome.found_error() {
                            for cancel in &cancels[index + 1..] {
                                cancel.store(true, Ordering::Release);
                            }
                        }
                        report
                    })
                })
                .collect();
            handles
                .into_iter()
                // Shards are supervised; what escapes is a failed replay
                // verification, which must not be swallowed.
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let mut merged = self.search.merge(&reports);
        merged.stats.wall = start.elapsed();
        merged
    }

    fn run_one(
        &self,
        shard: ShardSpec,
        cancel: Option<&Arc<AtomicBool>>,
        progress: Option<&Arc<Progress>>,
    ) -> SearchReport {
        let mut config = self.config.clone();
        if let Search::Random(_) = self.search {
            config.max_executions = split_budget(config.max_executions, shard.of)[shard.index];
        } else if !self.owns_roots(shard) {
            return empty_shard_report();
        }
        let stops: Vec<&Arc<AtomicBool>> = self.stop.iter().chain(cancel).collect();
        let report = supervise(
            &self.factory,
            || self.search.strategy(shard),
            &config,
            &stops,
            progress,
        );
        verify_replay(&self.factory, &config, &report.outcome);
        report
    }

    /// Whether `shard` owns any of the depth-0 decisions. The frontier is
    /// the one the explorer presents at depth 0: a fresh fair scheduler
    /// has no priorities yet, so it is every enabled thread's branches.
    fn owns_roots(&self, shard: ShardSpec) -> bool {
        let sys = (self.factory)();
        let roots = if sys.status().is_running() {
            sys.enabled_set().iter().map(|t| sys.branching(t)).sum()
        } else {
            0
        };
        if roots == 0 {
            shard.index == 0
        } else {
            !shard.range(roots).is_empty()
        }
    }
}

/// Runs one sequential search under the supervisor loop: a panic that
/// escapes the explorer restarts the search from a fresh strategy, up to
/// [`MAX_WORKER_RESTARTS`] times. Restarting re-runs the shard, so a
/// failed attempt's counters are not merged into the report; its
/// boundary progress is kept in `lost_to_restart` instead.
fn supervise<P, F, St>(
    factory: &F,
    strategy: impl Fn() -> St,
    config: &Config,
    stops: &[&Arc<AtomicBool>],
    progress: Option<&Arc<Progress>>,
) -> SearchReport
where
    P: TransitionSystem,
    F: Fn() -> P,
    St: Strategy,
{
    let mut restarts = 0u64;
    let mut lost = 0u64;
    let mut report = loop {
        let progress = progress.cloned().unwrap_or_default();
        let mut explorer =
            Explorer::new(factory, strategy(), config.clone()).with_progress(Arc::clone(&progress));
        for stop in stops {
            explorer = explorer.with_stop_flag(Arc::clone(stop));
        }
        match crate::panics::catch_silent(move || explorer.run()) {
            Ok(report) => break report,
            Err(_) => {
                lost += progress.executions.load(Ordering::Relaxed);
                if restarts == MAX_WORKER_RESTARTS {
                    break lost_worker_report();
                }
                restarts += 1;
            }
        }
    };
    report.stats.worker_restarts += restarts;
    report.stats.lost_to_restart += lost;
    report
}

/// Replays an error's schedule through the sequential explorer with a
/// [`FixedSchedule`] and asserts the identical error reproduces.
///
/// # Panics
///
/// Panics if the replay reaches a different outcome — that would mean
/// the factory is nondeterministic (or the engine is broken), and a
/// counterexample that cannot be reproduced must not be reported.
fn verify_replay<P, F>(factory: &F, config: &Config, outcome: &SearchOutcome)
where
    P: TransitionSystem,
    F: Fn() -> P,
{
    let schedule = match outcome {
        SearchOutcome::SafetyViolation(c)
        | SearchOutcome::Deadlock(c)
        | SearchOutcome::Panic(c) => &c.schedule,
        SearchOutcome::Divergence(d) => &d.schedule,
        _ => return,
    };
    let report = Explorer::new(
        factory,
        FixedSchedule::new(schedule.clone()),
        config.clone(),
    )
    .run();
    match (outcome, &report.outcome) {
        (SearchOutcome::SafetyViolation(a), SearchOutcome::SafetyViolation(b))
        | (SearchOutcome::Deadlock(a), SearchOutcome::Deadlock(b))
        | (SearchOutcome::Panic(a), SearchOutcome::Panic(b)) => {
            assert_eq!(
                (&a.message, &a.schedule),
                (&b.message, &b.schedule),
                "shard counterexample failed deterministic replay"
            );
        }
        (SearchOutcome::Divergence(a), SearchOutcome::Divergence(b)) => {
            assert_eq!(
                (&a.kind, &a.schedule),
                (&b.kind, &b.schedule),
                "shard divergence failed deterministic replay"
            );
        }
        (original, replayed) => panic!(
            "shard error failed deterministic replay:\n  found:    \
             {original:?}\n  replayed: {replayed:?}"
        ),
    }
}

/// The report of a shard whose frontier slice is empty: zero work,
/// trivially complete.
fn empty_shard_report() -> SearchReport {
    SearchReport {
        outcome: SearchOutcome::Complete,
        stats: SearchStats::default(),
    }
}

/// Rebases a shard-local 1-based execution index in an error outcome to
/// the global sequence by adding the executions of all prior shards.
fn rebase_outcome(mut outcome: SearchOutcome, prior: u64) -> SearchOutcome {
    match &mut outcome {
        SearchOutcome::SafetyViolation(c)
        | SearchOutcome::Deadlock(c)
        | SearchOutcome::Panic(c) => c.execution += prior,
        SearchOutcome::Divergence(d) => d.execution += prior,
        _ => {}
    }
    outcome
}

/// Merges the reports of contiguous dfs or cb shards, in shard order,
/// into the report the sequential search over the same world produces.
///
/// The walk mirrors what the sequential search with `stop_on_error`
/// does: prior shards' statistics accumulate until the first shard that
/// found an error; that shard's error wins with its execution index
/// rebased by the accumulated prior executions, and everything after it
/// — work the sequential search would never have reached — is dropped.
/// With no error the outcome is `Complete` only if every shard
/// completed, otherwise the most limiting budget across shards.
///
/// Equality with the sequential report is exact (wall clock aside)
/// whenever no shard hit a budget before the winning error — in
/// particular whenever the sequential search itself fits the budget.
pub fn merge_contiguous_shards(reports: &[SearchReport]) -> SearchReport {
    let mut stats = SearchStats::default();
    let mut merged = SearchOutcome::Complete;
    for r in reports {
        let prior = stats.executions;
        let mut s = r.stats.clone();
        if let Some(e) = s.first_error_execution {
            s.first_error_execution = Some(e + prior);
        }
        stats.merge(&s);
        if r.outcome.found_error() {
            return SearchReport {
                outcome: rebase_outcome(r.outcome.clone(), prior),
                stats,
            };
        }
        if outcome_rank(&r.outcome) > outcome_rank(&merged) {
            merged = r.outcome.clone();
        }
    }
    SearchReport {
        outcome: merged,
        stats,
    }
}

/// Merges the reports of a seed-sharded random walk: all statistics
/// accumulate (every shard ran), and the outcome is the lowest-indexed
/// shard's error if any, otherwise the most limiting budget.
pub fn merge_seed_shards(reports: &[SearchReport]) -> SearchReport {
    let mut stats = SearchStats::default();
    for r in reports {
        stats.merge(&r.stats);
    }
    let outcome = reports
        .iter()
        .find(|r| r.outcome.found_error())
        .map(|r| r.outcome.clone())
        .unwrap_or_else(|| {
            reports
                .iter()
                .map(|r| &r.outcome)
                .max_by_key(|o| outcome_rank(o))
                .cloned()
                .unwrap_or(SearchOutcome::Complete)
        });
    SearchReport { outcome, stats }
}

/// How many times a panicked shard is restarted before it is abandoned
/// as [`BudgetKind::WorkerPanicked`].
pub(crate) const MAX_WORKER_RESTARTS: u64 = 2;

/// The report standing in for a shard abandoned after exhausting its
/// restarts: an incomplete search, not an error.
fn lost_worker_report() -> SearchReport {
    SearchReport {
        outcome: SearchOutcome::BudgetExhausted(BudgetKind::WorkerPanicked),
        stats: SearchStats::default(),
    }
}

/// Splits a total execution budget into per-shard shares summing to the
/// total (`None` stays unbounded for every shard).
fn split_budget(total: Option<u64>, shards: usize) -> Vec<Option<u64>> {
    match total {
        None => vec![None; shards],
        Some(n) => {
            let base = n / shards as u64;
            let extra = (n % shards as u64) as usize;
            (0..shards)
                .map(|i| Some(base + u64::from(i < extra)))
                .collect()
        }
    }
}

/// Severity ranking of error-free outcomes: a merged search is
/// `Complete` only if every shard completed, otherwise it reports the
/// most limiting budget across shards.
fn outcome_rank(o: &SearchOutcome) -> u8 {
    match o {
        SearchOutcome::BudgetExhausted(BudgetKind::WorkerPanicked) => 4,
        SearchOutcome::BudgetExhausted(BudgetKind::Time) => 3,
        SearchOutcome::BudgetExhausted(BudgetKind::Executions) => 2,
        SearchOutcome::BudgetExhausted(BudgetKind::Cancelled) => 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{SchedulePoint, Strategy};
    use crate::system::testsys::{Act, Script};
    use crate::trace::Decision;

    /// Three-step acyclic world: 3 interleavings, 9 transitions.
    fn two_step_scripts() -> Script {
        Script::new(vec![vec![Act::Step, Act::Step], vec![Act::Step]], 0)
    }

    /// A world where some interleavings deadlock: if thread 1 runs to
    /// completion first (its `Inc` consumed by its own `Dec`), thread 0
    /// blocks on `Dec` forever with nobody left to produce.
    fn sometimes_deadlocks() -> Script {
        Script::new(
            vec![
                vec![Act::Step, Act::Dec(0), Act::Inc(0)],
                vec![Act::Step, Act::Inc(0), Act::Dec(0)],
            ],
            1,
        )
    }

    /// A world with an independent pair (distinct counters) where sleep
    /// sets have something to prune, plus a dependent pair they must keep.
    fn prunable_scripts() -> Script {
        Script::new(
            vec![
                vec![Act::Inc(0), Act::Inc(2)],
                vec![Act::Inc(1)],
                vec![Act::Inc(2)],
            ],
            3,
        )
    }

    fn zero_wall(mut r: SearchReport) -> SearchReport {
        r.stats.wall = std::time::Duration::ZERO;
        r
    }

    fn runner<F: Fn() -> Script + Sync>(factory: F, search: Search) -> ShardRunner<F> {
        ShardRunner::new(factory, Config::fair(), search)
    }

    const DFS: Search = Search::Dfs(Reduction::None);
    const SLEEP_DFS: Search = Search::Dfs(Reduction::SleepSets);

    #[test]
    fn jobs_one_random_matches_sequential() {
        let config = Config::fair().with_max_executions(16);
        let sequential = Explorer::new(two_step_scripts, RandomWalk::new(7), config.clone()).run();
        let sharded = ShardRunner::new(two_step_scripts, config, Search::Random(7)).run_shards(1);
        assert_eq!(zero_wall(sharded), zero_wall(sequential));
    }

    #[test]
    fn jobs_one_dfs_matches_sequential() {
        let sequential = Explorer::new(two_step_scripts, Dfs::new(), Config::fair()).run();
        let sharded = runner(two_step_scripts, DFS).run_shards(1);
        assert_eq!(zero_wall(sharded), zero_wall(sequential));
    }

    #[test]
    fn parallel_dfs_visits_exactly_the_sequential_executions() {
        let sequential = Explorer::new(two_step_scripts, Dfs::new(), Config::fair()).run();
        for jobs in [2, 3, 4, 7] {
            let sharded = runner(two_step_scripts, DFS).run_shards(jobs);
            assert_eq!(
                zero_wall(sharded),
                zero_wall(sequential.clone()),
                "jobs={jobs}: shards must partition the tree, not duplicate it"
            );
        }
    }

    /// Roots before a shard's slice are explored siblings, so sharded
    /// sleep sets prune exactly what the sequential search prunes.
    #[test]
    fn reduced_parallel_dfs_agrees_and_explores_no_more() {
        let plain = Explorer::new(prunable_scripts, Dfs::new(), Config::fair()).run();
        let sequential =
            Explorer::new(prunable_scripts, Dfs::with_sleep_sets(), Config::fair()).run();
        assert_eq!(sequential.outcome, SearchOutcome::Complete);
        assert!(
            sequential.stats.executions < plain.stats.executions,
            "sleep sets pruned nothing ({} vs {})",
            sequential.stats.executions,
            plain.stats.executions,
        );
        for jobs in [1, 2, 3] {
            let reduced = runner(prunable_scripts, SLEEP_DFS).run_shards(jobs);
            assert_eq!(
                zero_wall(reduced),
                zero_wall(sequential.clone()),
                "jobs={jobs}"
            );
        }
    }

    /// Sharded sleep sets must not prune an error only some shards can
    /// see: the deadlocking world still deadlocks under reduction.
    #[test]
    fn reduced_parallel_dfs_still_finds_errors() {
        for jobs in [1, 2, 4] {
            let report = runner(sometimes_deadlocks, SLEEP_DFS).run_shards(jobs);
            assert!(
                matches!(report.outcome, SearchOutcome::Deadlock(_)),
                "jobs={jobs}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn first_error_wins_and_replays_sequentially() {
        let sequential = Explorer::new(sometimes_deadlocks, Dfs::new(), Config::fair()).run();
        for jobs in [1, 2, 4] {
            let report = runner(sometimes_deadlocks, DFS).run_shards(jobs);
            assert_eq!(zero_wall(report.clone()), zero_wall(sequential.clone()));
            let SearchOutcome::Deadlock(cex) = &report.outcome else {
                panic!("jobs={jobs}: expected a deadlock, got {:?}", report.outcome);
            };
            // verify_replay already ran inside the runner; check again
            // from the outside that the schedule alone pins the bug.
            let replay = Explorer::new(
                sometimes_deadlocks,
                FixedSchedule::new(cex.schedule.clone()),
                Config::fair(),
            )
            .run();
            let SearchOutcome::Deadlock(replayed) = replay.outcome else {
                panic!("jobs={jobs}: schedule did not replay to the deadlock");
            };
            assert_eq!(replayed.schedule, cex.schedule);
        }
    }

    #[test]
    fn parallel_random_splits_the_execution_budget() {
        let config = Config::fair().with_max_executions(16);
        let report = ShardRunner::new(two_step_scripts, config, Search::Random(3)).run_shards(4);
        assert_eq!(
            report.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::Executions)
        );
        assert_eq!(report.stats.executions, 16, "shares must sum to the total");
    }

    /// With one shard, every bound of the iterative context-bounding
    /// sweep is the cb search the shard runner runs.
    #[test]
    fn iterative_cb_jobs_one_matches_sequential() {
        let sweep = crate::explore::iterative_context_bounding(two_step_scripts, Config::fair(), 2);
        assert_eq!(sweep.len(), 3);
        for (bound, sequential) in sweep {
            let sharded =
                runner(two_step_scripts, Search::Cb(bound, Reduction::None)).run_shards(1);
            assert_eq!(zero_wall(sharded), zero_wall(sequential), "cb={bound}");
        }
    }

    /// At every bound, context-bounded shards, plain or reduced, merge to
    /// the sequential search with that bound: `--jobs` never changes
    /// which bound `cb:B` searches.
    #[test]
    fn iterative_cb_parallel_covers_every_bound() {
        for bound in 0..=2 {
            for reduction in [Reduction::None, Reduction::SleepSets] {
                let strategy = match reduction {
                    Reduction::None => ContextBounded::new(bound),
                    Reduction::SleepSets => ContextBounded::with_sleep_sets(bound),
                };
                for world in [two_step_scripts, sometimes_deadlocks, prunable_scripts] {
                    let sequential = Explorer::new(world, strategy.clone(), Config::fair()).run();
                    for jobs in 2..=4 {
                        let sharded = runner(world, Search::Cb(bound, reduction)).run_shards(jobs);
                        assert_eq!(
                            zero_wall(sharded),
                            zero_wall(sequential.clone()),
                            "cb={bound} {reduction:?} jobs={jobs}"
                        );
                    }
                }
            }
        }
    }

    /// A world where thread 0's second action panics: every interleaving
    /// eventually executes it, so the search must surface an isolated,
    /// replayable panic rather than crash.
    fn sometimes_panics() -> Script {
        Script::new(vec![vec![Act::Step, Act::Panic], vec![Act::Step]], 0)
    }

    #[test]
    fn parallel_workload_panic_is_isolated_and_replays() {
        for jobs in [1, 2, 4] {
            let report = runner(sometimes_panics, DFS).run_shards(jobs);
            let SearchOutcome::Panic(cex) = &report.outcome else {
                panic!(
                    "jobs={jobs}: expected a panic outcome, got {:?}",
                    report.outcome
                );
            };
            assert_eq!(cex.message, "scripted panic");
            assert!(report.stats.panics >= 1, "jobs={jobs}");
            let replay = Explorer::new(
                sometimes_panics,
                FixedSchedule::new(cex.schedule.clone()),
                Config::fair(),
            )
            .run();
            let SearchOutcome::Panic(replayed) = replay.outcome else {
                panic!("jobs={jobs}: schedule did not replay to the panic");
            };
            assert_eq!(replayed.schedule, cex.schedule);
            assert_eq!(replayed.message, cex.message);
        }
    }

    /// A strategy that panics in `on_execution_end` — that hook runs
    /// *outside* the explorer's per-execution panic guard, so the panic
    /// escapes the sequential search and exercises the supervisor.
    struct Dies(Dfs);

    impl Strategy for Dies {
        fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
            self.0.pick(point)
        }

        fn on_execution_end(&mut self) -> bool {
            panic!("strategy bug between executions");
        }

        fn name(&self) -> String {
            "dies".to_string()
        }
    }

    #[test]
    fn supervisor_restarts_then_abandons_a_panicking_worker() {
        let report = supervise(
            &two_step_scripts,
            || Dies(Dfs::new()),
            &Config::fair(),
            &[],
            None,
        );
        assert_eq!(
            report.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::WorkerPanicked)
        );
        assert_eq!(report.stats.worker_restarts, MAX_WORKER_RESTARTS);
        // Every failed attempt completed one execution before dying in
        // `on_execution_end`; the supervisor harvests those boundary
        // totals instead of dropping them (initial try + each restart).
        assert_eq!(report.stats.lost_to_restart, MAX_WORKER_RESTARTS + 1);
    }

    #[test]
    fn supervisor_report_renders_as_incomplete() {
        let report = lost_worker_report();
        assert!(!report.outcome.found_error());
        assert!(!report.outcome.is_exhaustive_pass());
        assert!(report.to_string().contains("worker lost"));
    }

    #[test]
    fn external_stop_cancels_every_shard() {
        let stop = Arc::new(AtomicBool::new(true));
        let report = runner(two_step_scripts, DFS)
            .with_stop_flag(stop)
            .run_shards(3);
        assert_eq!(
            report.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::Cancelled)
        );
        assert_eq!(report.stats.executions, 0);
    }

    #[test]
    fn shard_ranges_tile_without_gaps_or_overlap() {
        for n in 0..12usize {
            for of in 1..6usize {
                let mut covered = Vec::new();
                for index in 0..of {
                    let spec = ShardSpec::new(index, of).unwrap();
                    covered.extend(spec.range(n));
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} of={of}");
            }
        }
        assert!(ShardSpec::new(0, 0).is_err());
        assert!(ShardSpec::new(3, 3).is_err());
    }

    /// The acceptance property of the daemon's sharded `check`: running
    /// every contiguous shard independently and merging the reports
    /// reproduces the sequential report exactly (wall clock aside).
    #[test]
    fn merged_dfs_shards_equal_the_sequential_report() {
        for search in [DFS, SLEEP_DFS] {
            let sequential = runner(two_step_scripts, search).run_shard(ShardSpec::WHOLE);
            for of in [1, 2, 3, 4, 7] {
                let shards: Vec<SearchReport> = (0..of)
                    .map(|index| {
                        runner(two_step_scripts, search)
                            .run_shard(ShardSpec::new(index, of).unwrap())
                    })
                    .collect();
                let merged = search.merge(&shards);
                assert_eq!(zero_wall(merged), zero_wall(sequential.clone()), "of={of}");
            }
        }
    }

    /// Error rebasing: the merged error must carry the *global*
    /// execution index, matching the sequential first-error run even
    /// when the error lives in a later shard.
    #[test]
    fn merged_dfs_shards_rebase_the_error_execution() {
        let sequential = Explorer::new(sometimes_deadlocks, Dfs::new(), Config::fair()).run();
        assert!(matches!(sequential.outcome, SearchOutcome::Deadlock(_)));
        for of in [1, 2, 3, 5] {
            let shards: Vec<SearchReport> = (0..of)
                .map(|index| {
                    runner(sometimes_deadlocks, DFS).run_shard(ShardSpec::new(index, of).unwrap())
                })
                .collect();
            let merged = merge_contiguous_shards(&shards);
            assert_eq!(zero_wall(merged), zero_wall(sequential.clone()), "of={of}");
        }
    }

    /// Merged seed shards run one at a time reproduce the threaded
    /// random walk: same budget split, same seeds, same totals.
    #[test]
    fn merged_seed_shards_match_the_parallel_random_walk() {
        let config = Config::fair().with_max_executions(16);
        let of = 4;
        let random = ShardRunner::new(two_step_scripts, config, Search::Random(3));
        let shards: Vec<SearchReport> = (0..of)
            .map(|index| random.run_shard(ShardSpec::new(index, of).unwrap()))
            .collect();
        let merged = merge_seed_shards(&shards);
        assert_eq!(zero_wall(merged), zero_wall(random.run_shards(of)));
    }

    #[test]
    fn empty_shard_slices_merge_away() {
        // 2 roots in this world; 9 shards leaves most empty.
        let sequential = Explorer::new(two_step_scripts, Dfs::new(), Config::fair()).run();
        let shards: Vec<SearchReport> = (0..9)
            .map(|index| runner(two_step_scripts, DFS).run_shard(ShardSpec::new(index, 9).unwrap()))
            .collect();
        assert!(shards
            .iter()
            .any(|r| r.stats.executions == 0 && r.outcome == SearchOutcome::Complete));
        let merged = merge_contiguous_shards(&shards);
        assert_eq!(zero_wall(merged), zero_wall(sequential));
    }

    #[test]
    fn shard_progress_is_published() {
        let progress = Arc::new(Progress::default());
        let report = runner(two_step_scripts, DFS)
            .with_progress(Arc::clone(&progress))
            .run_shard(ShardSpec::new(0, 2).unwrap());
        assert!(report.stats.executions > 0);
        assert_eq!(
            progress.executions.load(Ordering::Relaxed),
            report.stats.executions
        );
    }

    #[test]
    fn split_budget_shares_sum_to_total() {
        assert_eq!(split_budget(None, 3), vec![None, None, None]);
        let shares = split_budget(Some(10), 4);
        assert_eq!(shares, vec![Some(3), Some(3), Some(2), Some(2)]);
        assert_eq!(
            split_budget(Some(2), 4),
            vec![Some(1), Some(1), Some(0), Some(0)]
        );
    }
}
