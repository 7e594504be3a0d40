//! The stateless explorer: repeatedly executes the program under the
//! control of a strategy (and optionally the fair scheduler), re-creating
//! the program from a factory for every execution — no visited-state set
//! is ever kept. With pooling on and a resumable observer, a `dfs` or
//! `cb` execution starts from a snapshot of a state on the prefix it
//! shares with the previous execution (a prefix snapshot, taken where the
//! search branches; DESIGN.md §12.4) instead of re-executing that prefix.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chess_kernel::TidSet;

use crate::fair::{FairScheduler, PenaltyScope};
use crate::observer::{NullObserver, Observer};
use crate::report::{
    BudgetKind, Divergence, DivergenceKind, SearchOutcome, SearchReport, SearchStats,
};
use crate::strategy::{SchedulePoint, Strategy, StrategySnapshot};
use crate::system::{SystemStatus, TransitionSystem};
use crate::trace::{Counterexample, CounterexampleKind, Decision};

/// A crash-safe capture of an in-flight search: the strategy's position
/// together with the cumulative statistics at an execution boundary.
///
/// Restoring the snapshot into a fresh strategy (see
/// [`Strategy::restore`]) and seeding a new explorer with the stats (see
/// [`Explorer::with_initial_stats`]) resumes the search exactly where
/// the checkpoint was taken: for the deterministic strategies (DFS,
/// context-bounded) the resumed run visits the very executions the
/// uninterrupted run would have visited, and the final report converges
/// to the same outcome and counters (wall-clock time excepted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchCheckpoint {
    /// The strategy's search position.
    pub strategy: StrategySnapshot,
    /// Cumulative statistics at the checkpointed boundary.
    pub stats: SearchStats,
}

/// Live progress counters shared with a supervisor (see
/// [`Explorer::with_progress`]). The explorer publishes its cumulative
/// execution/transition totals here at every execution boundary, so a
/// supervisor can harvest how much work an attempt did even when the
/// attempt itself dies before returning a report — and a process-level
/// watchdog can distinguish a hung worker from a slow one.
#[derive(Debug, Default)]
pub struct Progress {
    /// Executions completed so far (published at execution boundaries).
    pub executions: AtomicU64,
    /// Transitions executed so far (published at execution boundaries).
    pub transitions: AtomicU64,
    /// Transitions counted in `transitions` that were not re-executed
    /// because their execution resumed from a prefix snapshot (see
    /// [`Config::pooling`]). Kept out of [`SearchStats`] so reports do
    /// not depend on whether snapshots applied.
    pub steps_skipped: AtomicU64,
    /// Transitions of shared prefixes that were re-executed because no
    /// prefix snapshot sat at the depth the execution backtracked to:
    /// per execution, the strategy's replay depth minus the depth it
    /// resumed at.
    pub steps_replayed: AtomicU64,
    /// Prefix snapshots taken so far.
    pub snapshots: AtomicU64,
}

impl Progress {
    /// A monotone tick combining both counters; a watchdog that only
    /// cares about "did anything advance" can poll this single value.
    pub fn tick(&self) -> u64 {
        self.executions
            .load(Ordering::Relaxed)
            .wrapping_add(self.transitions.load(Ordering::Relaxed))
    }
}

/// The periodic-checkpoint sink attached to an [`Explorer`].
struct CheckpointSink {
    /// Emit after every `every`-th completed execution (plus once at
    /// every resumable stop).
    every: u64,
    emit: Box<dyn FnMut(&SearchCheckpoint)>,
}

/// Configuration of the fair scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairnessConfig {
    /// Process only every `k`-th yield of each thread (Section 3 end).
    /// `1` (the default) processes every yield.
    pub k: u64,
    /// Penalty-edge scope (ablation; default is the paper's rule).
    pub scope: PenaltyScope,
}

impl Default for FairnessConfig {
    fn default() -> Self {
        FairnessConfig {
            k: 1,
            scope: PenaltyScope::default(),
        }
    }
}

/// Explorer configuration.
///
/// Use [`Config::fair`] or [`Config::unfair`] for the two canonical
/// setups of the paper and adjust with the `with_*` methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Fair scheduling (Algorithm 1), or `None` for the unfair baseline.
    pub fairness: Option<FairnessConfig>,
    /// Maximum transitions per execution. With fairness this is the
    /// paper's "large bound, orders of magnitude above the expected
    /// execution length"; without fairness it caps the random tail.
    pub depth_bound: usize,
    /// Stop after this many executions.
    pub max_executions: Option<u64>,
    /// Stop after this much wall-clock time.
    pub time_budget: Option<Duration>,
    /// Return at the first error (violation/deadlock/divergence). When
    /// `false`, errors are counted and the search continues.
    pub stop_on_error: bool,
    /// Treat deadlocks as errors (the usual setting).
    pub deadlock_is_error: bool,
    /// Detect state revisits within an execution to report livelocks
    /// (fair cycles) precisely. Requires meaningful fingerprints.
    pub detect_cycles: bool,
    /// Consecutive non-yielding transitions of one thread after which a
    /// depth-bound hit is classified as a good-samaritan suspect.
    pub gs_threshold: u64,
    /// Reuse the previous execution's system allocations when building
    /// the next one (see [`TransitionSystem::reset_from`]), and resume
    /// executions of `dfs` and `cb` searches from prefix snapshots
    /// instead of re-executing the prefix they share with the previous
    /// execution, unless the search's observer refuses
    /// ([`Observer::resumable`]). On by default; disable to force the
    /// from-scratch reference path the equivalence tests compare
    /// against.
    pub pooling: bool,
}

impl Config {
    /// The paper's fair configuration: Algorithm 1 with `k = 1`, cycle
    /// detection on, a generous depth bound, errors stop the search.
    pub fn fair() -> Self {
        Config {
            fairness: Some(FairnessConfig::default()),
            depth_bound: 100_000,
            max_executions: None,
            time_budget: None,
            stop_on_error: true,
            deadlock_is_error: true,
            detect_cycles: true,
            gs_threshold: 100,
            pooling: true,
        }
    }

    /// The unfair baseline: no fairness, no cycle detection; executions
    /// that hit the depth bound are counted as *nonterminating* and the
    /// search moves on (Figure 2's metric).
    pub fn unfair() -> Self {
        Config {
            fairness: None,
            detect_cycles: false,
            ..Config::fair()
        }
    }

    /// Sets the per-execution depth bound.
    pub fn with_depth_bound(mut self, bound: usize) -> Self {
        self.depth_bound = bound;
        self
    }

    /// Sets the execution budget.
    pub fn with_max_executions(mut self, n: u64) -> Self {
        self.max_executions = Some(n);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_time_budget(mut self, d: Duration) -> Self {
        self.time_budget = Some(d);
        self
    }

    /// Sets whether the search stops at the first error.
    pub fn with_stop_on_error(mut self, stop: bool) -> Self {
        self.stop_on_error = stop;
        self
    }

    /// Sets whether deadlocks are errors.
    pub fn with_deadlock_is_error(mut self, err: bool) -> Self {
        self.deadlock_is_error = err;
        self
    }

    /// Enables or disables per-execution cycle detection.
    pub fn with_detect_cycles(mut self, on: bool) -> Self {
        self.detect_cycles = on;
        self
    }

    /// Sets the fairness `k` parameter (processing every `k`-th yield).
    pub fn with_fairness_k(mut self, k: u64) -> Self {
        let scope = self.fairness.map(|f| f.scope).unwrap_or_default();
        self.fairness = Some(FairnessConfig { k, scope });
        self
    }

    /// Sets the fairness penalty scope (ablation; see [`PenaltyScope`]).
    pub fn with_penalty_scope(mut self, scope: PenaltyScope) -> Self {
        let k = self.fairness.map(|f| f.k).unwrap_or(1);
        self.fairness = Some(FairnessConfig { k, scope });
        self
    }

    /// Enables or disables cross-execution allocation pooling.
    pub fn with_pooling(mut self, on: bool) -> Self {
        self.pooling = on;
        self
    }
}

/// Result of one execution, internal to the explorer.
enum ExecEnd {
    /// Execution finished without error (terminated, cut at the depth
    /// bound without fairness, abandoned, or non-error deadlock).
    Done,
    /// An error outcome to report.
    Error(SearchOutcome),
    /// The search was interrupted mid-execution: the wall-clock budget
    /// expired or the stop flag was raised.
    Interrupted(BudgetKind),
}

/// The stateless model checker: a factory producing fresh program
/// instances, a strategy, and a configuration.
///
/// # Examples
///
/// ```
/// use chess_core::{Config, Explorer};
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
/// let report = Explorer::new(factory, Dfs::new(), Config::fair()).run();
/// assert!(!report.outcome.found_error());
/// assert_eq!(report.stats.executions, 2); // two interleavings
/// ```
pub struct Explorer<P, F, St> {
    factory: F,
    strategy: St,
    config: Config,
    stop: Vec<Arc<AtomicBool>>,
    checkpoint: Option<CheckpointSink>,
    progress: Option<Arc<Progress>>,
    initial_stats: SearchStats,
    _marker: std::marker::PhantomData<fn() -> P>,
}

/// The execution-instance pool behind [`Config::pooling`]: a pristine
/// `template` built once from the factory, the previous execution's
/// instance (`spare`) awaiting a [`TransitionSystem::reset_from`], and
/// the system copies of the prefix snapshots.
///
/// Whether the system supports pooling is learned on the first reset
/// attempt; systems that return `false` permanently fall back to the
/// factory and take no snapshots. An instance the workload panicked out
/// of is never released back into the pool — the unwind drops it, and
/// the next execution starts from a snapshot copy or the factory.
struct SysPool<P> {
    enabled: bool,
    /// Whether a reset has succeeded, so the system supports copies.
    confirmed: bool,
    template: Option<P>,
    spare: Option<P>,
    /// The system copies of the prefix snapshots, indexed by
    /// `Snapshot::slot`.
    snapshots: Vec<P>,
}

// The factory is passed as a trait object and these methods are kept
// out of line: they are instantiated once per system type rather than
// once per explorer, and no call site inlines the workload's build.
impl<P: TransitionSystem> SysPool<P> {
    fn new(enabled: bool) -> Self {
        SysPool {
            enabled,
            confirmed: false,
            template: None,
            spare: None,
            snapshots: Vec::new(),
        }
    }

    /// A fresh-for-this-execution system: the reset spare when pooling is
    /// live, a factory product otherwise.
    #[inline(never)]
    fn acquire(&mut self, factory: &mut dyn FnMut() -> P) -> P {
        if !self.enabled {
            return factory();
        }
        if self.template.is_none() {
            self.template = Some(factory());
        }
        let template = self.template.as_ref().expect("template just installed");
        match self.spare.take() {
            Some(mut sys) => {
                if sys.reset_from(template) {
                    self.confirmed = true;
                    sys
                } else {
                    self.enabled = false;
                    self.template = None;
                    factory()
                }
            }
            None => factory(),
        }
    }

    /// Copies `sys` into snapshot slot `slot` (at most one past the last).
    #[inline(never)]
    fn save(&mut self, factory: &mut dyn FnMut() -> P, slot: usize, sys: &P) {
        if slot == self.snapshots.len() {
            self.snapshots.push(factory());
        }
        let copied = self.snapshots[slot].reset_from(sys);
        assert!(copied, "reset_from succeeded before, so it must now");
    }

    /// Snapshot slot `slot`'s system: taken out of the slot (the spare
    /// takes its place) when `take`, else a copy built in the spare.
    #[inline(never)]
    fn restore(&mut self, factory: &mut dyn FnMut() -> P, slot: usize, take: bool) -> P {
        let mut sys = self.spare.take().unwrap_or_else(factory);
        if take {
            std::mem::swap(&mut sys, &mut self.snapshots[slot]);
            return sys;
        }
        let copied = sys.reset_from(&self.snapshots[slot]);
        assert!(copied, "reset_from succeeded before, so it must now");
        sys
    }

    /// Returns a completed execution's instance to the pool.
    fn release(&mut self, sys: P) {
        if self.enabled {
            self.spare = Some(sys);
        }
    }
}

/// Pass-through hasher for the cycle-detection map: its keys are 64-bit
/// state fingerprints, already FNV-mixed, so piping them through the
/// default SipHash buys no distribution at a measurable per-step cost.
#[derive(Default)]
struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Unused for u64 keys; an FNV fold keeps the hasher total.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type FpBuildHasher = std::hash::BuildHasherDefault<FpHasher>;

/// The explorer's state within one execution, besides the system and
/// the cycle map: what a prefix snapshot saves and restores.
#[derive(Default)]
struct ExecState {
    depth: usize,
    /// The last program thread scheduled (flush lanes excluded).
    prev: Option<chess_kernel::ThreadId>,
    fair: Option<FairScheduler>,
    /// The enabled set of the current state.
    es: TidSet,
    /// Steps each thread has taken since its last yield, for the
    /// good-samaritan heuristic.
    steps_since_yield: Vec<u64>,
    /// Live entries of `ExecScratch::es_history`.
    hist_len: usize,
}

impl ExecState {
    /// Copies `src` field by field, reusing every allocation.
    fn copy_from(&mut self, src: &ExecState) {
        self.depth = src.depth;
        self.prev = src.prev;
        self.fair.clone_from(&src.fair);
        self.es.clone_from(&src.es);
        self.steps_since_yield.clone_from(&src.steps_since_yield);
        self.hist_len = src.hist_len;
    }
}

/// Most prefix snapshots live at once. Chosen by measurement
/// (DESIGN.md §12.4).
const MAX_SNAPSHOTS: usize = 6;

/// One live prefix snapshot; its system copy is in `SysPool` slot
/// `slot`.
struct Snapshot {
    slot: usize,
    st: ExecState,
}

/// The prefix-snapshot stack behind [`Config::pooling`]: the explorer's
/// state at the *open frames* of the current execution's prefix, the
/// depths where the strategy still has an untried alternative
/// ([`Strategy::revisits`]). A later execution of a `dfs` or `cb` search
/// backtracks to one of them ([`Strategy::replay_depth`]) and resumes
/// from its snapshot instead of re-executing the prefix from the
/// initial state.
///
/// An execution takes a snapshot at every open frame deeper than the
/// deepest live one. At most [`MAX_SNAPSHOTS`] live; a full stack drops
/// its shallowest. This bookkeeping is independent of the system type,
/// so it is compiled once; only the system copies are generic.
struct SnapshotStack {
    /// Snapshots may apply to this search: pooling is on and the
    /// observer is [`Observer::resumable`].
    allowed: bool,
    /// The strategy has reported a shared prefix, so snapshots pay off.
    armed: bool,
    /// Live snapshots, shallowest first; all lie on the prefix the next
    /// execution shares.
    live: Vec<Snapshot>,
    /// Dropped snapshots, kept for their slot and buffers.
    free: Vec<Snapshot>,
    /// Least depth at which the running execution may take a snapshot
    /// (`usize::MAX`: none).
    next: usize,
    /// The next execution is the last to resume at the deepest
    /// snapshot, so it takes the snapshot over instead of copying it.
    take_deepest: bool,
    /// Prefix snapshots taken, for [`Progress::snapshots`].
    taken: u64,
    /// Transitions resumed over, for [`Progress::steps_skipped`].
    skipped: u64,
    /// Shared-prefix transitions re-executed, for
    /// [`Progress::steps_replayed`].
    replayed: u64,
    /// What the next execution will add to `replayed`.
    to_replay: usize,
}

impl SnapshotStack {
    fn new(allowed: bool) -> Self {
        SnapshotStack {
            allowed,
            armed: false,
            live: Vec::new(),
            free: Vec::new(),
            next: usize::MAX,
            take_deepest: false,
            taken: 0,
            skipped: 0,
            replayed: 0,
            to_replay: 0,
        }
    }

    /// Makes room for one more snapshot, dropping the shallowest from a
    /// full stack, and returns the pool slot its system copy goes into.
    #[inline(never)]
    fn reserve(&mut self) -> usize {
        if self.live.len() == MAX_SNAPSHOTS {
            let shallowest = self.live.remove(0);
            self.free.push(shallowest);
        }
        self.free
            .last()
            .map_or(self.live.len() + self.free.len(), |s| s.slot)
    }

    /// Records a snapshot of `st` whose system was just saved in slot
    /// [`SnapshotStack::reserve`].
    #[inline(never)]
    fn commit(&mut self, slot: usize, st: &ExecState) {
        let mut snap = self.free.pop().unwrap_or_else(|| Snapshot {
            slot,
            st: ExecState::default(),
        });
        debug_assert_eq!(snap.slot, slot);
        snap.st.copy_from(st);
        self.live.push(snap);
        self.taken += 1;
        self.next = st.depth + 1;
    }

    /// Prepares for the next execution, whose first `replay_depth`
    /// decisions repeat the last execution's: drops the snapshots deeper
    /// than that and notes the steps the next execution will replay.
    /// `reopens` tells whether the frame at `replay_depth` has an
    /// alternative left after the one the next execution takes.
    #[inline(never)]
    fn after_execution(&mut self, replay_depth: usize, reopens: bool) {
        if !self.allowed {
            return;
        }
        self.armed |= replay_depth > 0;
        while self.live.last().is_some_and(|s| s.st.depth > replay_depth) {
            let dropped = self.live.pop().expect("checked non-empty");
            self.free.push(dropped);
        }
        let resumed = self.live.last().map(|s| s.st.depth);
        self.to_replay = replay_depth - resumed.unwrap_or(0);
        self.take_deepest = resumed == Some(replay_depth) && !reopens;
    }

    /// Starts an execution from the deepest live snapshot: restores it
    /// into `scratch`, rolling the cycle map back to its depth, and
    /// returns its slot and whether the snapshot was taken over (and so
    /// dropped from the stack). `None` means a start from the initial
    /// state.
    #[inline(never)]
    fn resume(&mut self, scratch: &mut ExecScratch) -> Option<(usize, bool)> {
        let take = std::mem::take(&mut self.take_deepest);
        let snap = self.live.last_mut()?;
        let slot = snap.slot;
        if take {
            std::mem::swap(&mut scratch.st, &mut snap.st);
            let taken = self.live.pop().expect("checked non-empty");
            self.free.push(taken);
        } else {
            scratch.st.copy_from(&snap.st);
        }
        let depth = scratch.st.depth;
        scratch.seen.retain(|_, &mut d| d <= depth);
        self.skipped += depth as u64;
        Some((slot, take))
    }

    /// Starts an execution: counts the steps it replays and lets it take
    /// snapshots deeper than the deepest live one, if snapshots apply
    /// and the system supports `copies`.
    fn start(&mut self, copies: bool) {
        self.replayed += std::mem::take(&mut self.to_replay) as u64;
        self.next = if self.allowed && self.armed && copies {
            // A snapshot of the initial state would save nothing.
            self.live.last().map_or(1, |s| s.st.depth + 1)
        } else {
            usize::MAX
        };
    }
}

/// Per-execution and per-step scratch buffers, hoisted out of the
/// execution loop so one search reuses their allocations across every
/// execution instead of re-allocating per schedule point.
#[derive(Default)]
struct ExecScratch {
    st: ExecState,
    seen: HashMap<u64, usize, FpBuildHasher>,
    /// Pooled per-step enabled sets for cycle classification; only the
    /// first `st.hist_len` entries are live.
    es_history: Vec<TidSet>,
    es_after: TidSet,
    schedulable: TidSet,
    options: Vec<Decision>,
    /// Pooled per-option footprints; only the first `n_fps` entries built
    /// this step are live.
    footprints: Vec<chess_kernel::Footprint>,
    flushes: Vec<bool>,
    fp: chess_kernel::Footprint,
}

impl ExecScratch {
    fn new(fairness: Option<FairnessConfig>) -> Self {
        let mut scratch = ExecScratch::default();
        scratch.st.fair = fairness.map(|fc| FairScheduler::with_k(0, fc.k).with_scope(fc.scope));
        scratch
    }

    /// Resets the execution state for a start from the initial state of
    /// a system with `n` threads (the enabled set is the caller's).
    #[inline(never)]
    fn start(&mut self, n: usize) {
        let st = &mut self.st;
        st.depth = 0;
        st.prev = None;
        st.hist_len = 0;
        if let Some(f) = st.fair.as_mut() {
            f.reset(n);
        }
        st.steps_since_yield.clear();
        st.steps_since_yield.resize(n, 0);
        self.seen.clear();
    }
}

impl<P, F, St> Explorer<P, F, St>
where
    P: TransitionSystem,
    F: FnMut() -> P,
    St: Strategy,
{
    /// Creates an explorer.
    pub fn new(factory: F, strategy: St, config: Config) -> Self {
        Explorer {
            factory,
            strategy,
            config,
            stop: Vec::new(),
            checkpoint: None,
            progress: None,
            initial_stats: SearchStats::default(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Attaches a shared cancellation flag. The explorer polls its flags
    /// between executions and every 4096 transitions within one
    /// (alongside the deadline poll); once any reads `true` the search
    /// stops with [`BudgetKind::Cancelled`]. A sharded search attaches
    /// two: the caller's interrupt flag and the flag a lower shard raises
    /// when it stops on an error.
    pub fn with_stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop.push(stop);
        self
    }

    /// Attaches a checkpoint sink: `emit` receives a [`SearchCheckpoint`]
    /// after every `every`-th completed execution and once more at every
    /// resumable stop (budget exhaustion, cancellation, interruption).
    ///
    /// An interruption that lands mid-execution checkpoints the
    /// statistics of the **last completed execution boundary** while the
    /// strategy snapshot still carries the in-flight replay prefix:
    /// resume re-runs the interrupted execution from the top, so no
    /// transition is counted twice and the resumed totals converge to
    /// the uninterrupted run's.
    ///
    /// Checkpoints are skipped silently when the strategy does not
    /// support snapshots (e.g. [`crate::strategy::FixedSchedule`]).
    pub fn with_checkpointing(
        mut self,
        every: u64,
        emit: impl FnMut(&SearchCheckpoint) + 'static,
    ) -> Self {
        self.checkpoint = Some(CheckpointSink {
            every,
            emit: Box::new(emit),
        });
        self
    }

    /// Attaches shared progress counters. The explorer publishes its
    /// cumulative execution/transition totals into them at every
    /// execution boundary. A supervisor reads them to harvest the work of
    /// an attempt that dies mid-search (the counters survive the panic;
    /// see `SearchStats::lost_to_restart`) and a process watchdog reads
    /// them as a liveness signal.
    pub fn with_progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Publishes the boundary totals of `stats` into the shared progress
    /// counters, if any.
    fn publish_progress(&self, stats: &SearchStats, snaps: &SnapshotStack) {
        if let Some(p) = &self.progress {
            p.executions.store(stats.executions, Ordering::Relaxed);
            p.transitions.store(stats.transitions, Ordering::Relaxed);
            p.steps_skipped.store(snaps.skipped, Ordering::Relaxed);
            p.steps_replayed.store(snaps.replayed, Ordering::Relaxed);
            p.snapshots.store(snaps.taken, Ordering::Relaxed);
        }
    }

    /// Seeds the search with statistics from a previous (checkpointed)
    /// run. Budgets expressed in executions count the combined total, and
    /// the final report's counters continue from these values; `wall`
    /// accumulates across runs.
    pub fn with_initial_stats(mut self, stats: SearchStats) -> Self {
        self.initial_stats = stats;
        self
    }

    fn stop_requested(&self) -> bool {
        self.stop.iter().any(|s| s.load(Ordering::Relaxed))
    }

    fn checkpoint_due(&self, executions: u64) -> bool {
        self.checkpoint
            .as_ref()
            .is_some_and(|s| s.every > 0 && executions.is_multiple_of(s.every))
    }

    /// Emits a checkpoint carrying `stats` (with up-to-date cumulative
    /// wall time) and the strategy's current position. A no-op without a
    /// sink or for non-snapshottable strategies.
    #[inline(never)]
    fn emit_checkpoint(&mut self, stats: &SearchStats, base_wall: Duration, start: Instant) {
        let Some(sink) = self.checkpoint.as_mut() else {
            return;
        };
        let Some(snapshot) = self.strategy.snapshot() else {
            return;
        };
        let mut stats = stats.clone();
        stats.wall = base_wall + start.elapsed();
        (sink.emit)(&SearchCheckpoint {
            strategy: snapshot,
            stats,
        });
    }

    /// Runs the search with no observer: [`Explorer::run_observed`]
    /// with a [`NullObserver`].
    pub fn run(&mut self) -> SearchReport {
        self.run_observed(&mut NullObserver)
    }

    /// Runs the search, reporting every executed state to `obs`.
    /// Executions of `dfs` and `cb` searches resume from prefix
    /// snapshots when [`Config::pooling`] is on and `obs` is
    /// [`Observer::resumable`]; otherwise every execution runs from the
    /// initial state and `obs` sees each state occurrence. The report is
    /// the same either way.
    pub fn run_observed(&mut self, obs: &mut dyn Observer<P>) -> SearchReport {
        self.search(obs)
    }

    fn search(&mut self, obs: &mut dyn Observer<P>) -> SearchReport {
        let start = Instant::now();
        let deadline = self.config.time_budget.map(|d| start + d);
        let base_wall = self.initial_stats.wall;
        let mut stats = self.initial_stats.clone();
        let mut snaps = SnapshotStack::new(self.config.pooling && obs.resumable());
        self.publish_progress(&stats, &snaps);
        // The schedule of the in-flight execution lives outside
        // `one_execution` so that it survives a workload panic: the
        // decisions pushed before the panicking step become the
        // counterexample's replay schedule. Its prefix also survives into
        // the next execution, which resumes inside it.
        let mut schedule_buf: Vec<Decision> = Vec::new();
        let mut pool = SysPool::new(self.config.pooling);
        let mut scratch = ExecScratch::new(self.config.fairness);
        let outcome = loop {
            if let Some(max) = self.config.max_executions {
                if stats.executions >= max {
                    self.emit_checkpoint(&stats, base_wall, start);
                    break SearchOutcome::BudgetExhausted(BudgetKind::Executions);
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                self.emit_checkpoint(&stats, base_wall, start);
                break SearchOutcome::BudgetExhausted(BudgetKind::Time);
            }
            if self.stop_requested() {
                self.emit_checkpoint(&stats, base_wall, start);
                break SearchOutcome::BudgetExhausted(BudgetKind::Cancelled);
            }
            // The last execution boundary: an interruption landing inside
            // the next execution checkpoints these stats, rolling the
            // partial execution back so resume re-runs it whole.
            let boundary = stats.clone();
            stats.executions += 1;
            let caught = crate::panics::catch_silent(|| {
                self.one_execution(
                    obs,
                    &mut stats,
                    deadline,
                    &mut schedule_buf,
                    (&mut pool, &mut snaps),
                    &mut scratch,
                )
            });
            let end = match caught {
                Ok(end) => end,
                Err(message) => {
                    // The workload panicked mid-transition. The schedule
                    // buffer already holds the panicking decision, so the
                    // counterexample replays deterministically. A panic is
                    // a safety violation with extra classification.
                    stats.violations += 1;
                    stats.panics += 1;
                    stats.max_depth = stats.max_depth.max(schedule_buf.len());
                    ExecEnd::Error(SearchOutcome::Panic(Counterexample {
                        kind: CounterexampleKind::Panic,
                        message,
                        schedule: error_schedule(self.config.stop_on_error, &mut schedule_buf),
                        execution: stats.executions,
                    }))
                }
            };
            // Publish before the strategy callbacks below run: if one of
            // them panics and kills the attempt, the supervisor can still
            // harvest everything up to and including this execution.
            self.publish_progress(&stats, &snaps);
            let more = match end {
                ExecEnd::Error(outcome) => {
                    if stats.first_error_execution.is_none() {
                        stats.first_error_execution = Some(stats.executions);
                    }
                    if self.config.stop_on_error {
                        break outcome;
                    }
                    self.strategy.on_execution_end()
                }
                ExecEnd::Done => self.strategy.on_execution_end(),
                ExecEnd::Interrupted(kind) => {
                    self.emit_checkpoint(&boundary, base_wall, start);
                    break SearchOutcome::BudgetExhausted(kind);
                }
            };
            if !more {
                break SearchOutcome::Complete;
            }
            let replay_depth = self.strategy.replay_depth();
            snaps.after_execution(replay_depth, self.strategy.revisits(replay_depth));
            if self.checkpoint_due(stats.executions) {
                self.emit_checkpoint(&stats, base_wall, start);
            }
        };
        stats.wall = base_wall + start.elapsed();
        SearchReport { outcome, stats }
    }

    /// Builds the system for the next execution and its start state in
    /// `scratch`: a copy of the deepest live prefix snapshot, or the
    /// initial state.
    fn begin_execution(
        &mut self,
        (pool, snaps): (&mut SysPool<P>, &mut SnapshotStack),
        scratch: &mut ExecScratch,
    ) -> P {
        if let Some((slot, take)) = snaps.resume(scratch) {
            snaps.start(true);
            self.strategy.resume_at(scratch.st.depth);
            return pool.restore(&mut self.factory, slot, take);
        }
        let sys = pool.acquire(&mut self.factory);
        snaps.start(pool.confirmed);
        scratch.start(sys.thread_count());
        sys.enabled_set_into(&mut scratch.st.es);
        sys
    }

    fn one_execution(
        &mut self,
        obs: &mut dyn Observer<P>,
        stats: &mut SearchStats,
        deadline: Option<Instant>,
        schedule: &mut Vec<Decision>,
        (pool, snaps): (&mut SysPool<P>, &mut SnapshotStack),
        scratch: &mut ExecScratch,
    ) -> ExecEnd {
        let execution = stats.executions;
        let mut sys = self.begin_execution((pool, snaps), scratch);
        // A resumed execution counts the transitions it skipped: the
        // report describes the logical search, not the work done.
        let resumed = scratch.st.depth;
        stats.transitions += resumed as u64;
        schedule.truncate(resumed);
        if resumed == 0 {
            obs.on_state(&sys, 0);
            if self.config.detect_cycles {
                // Cycle detection: (program ⊕ scheduler) fingerprint →
                // step index, plus per-state enabled sets to classify
                // detected cycles.
                let fp = self.combined_fingerprint(&sys, scratch.st.fair.as_ref());
                scratch.seen.insert(fp, 0);
            }
        }
        let mut status = sys.status_with_enabled(&scratch.st.es);

        let end = loop {
            let depth = scratch.st.depth;
            match status {
                SystemStatus::Running => {}
                SystemStatus::Terminated => {
                    stats.terminating += 1;
                    break ExecEnd::Done;
                }
                SystemStatus::Deadlock => {
                    stats.deadlocks += 1;
                    if self.config.deadlock_is_error {
                        let blocked: Vec<String> = (0..sys.thread_count())
                            .map(chess_kernel::ThreadId::new)
                            .filter(|&t| !sys.enabled(t))
                            .map(|t| sys.thread_name(t))
                            .collect();
                        break ExecEnd::Error(SearchOutcome::Deadlock(Counterexample {
                            kind: CounterexampleKind::Deadlock,
                            message: format!("no thread enabled; blocked: {blocked:?}"),
                            schedule: error_schedule(self.config.stop_on_error, schedule),
                            execution,
                        }));
                    }
                    stats.terminating += 1;
                    break ExecEnd::Done;
                }
                SystemStatus::Violation(t, message) => {
                    stats.violations += 1;
                    break ExecEnd::Error(SearchOutcome::SafetyViolation(Counterexample {
                        kind: CounterexampleKind::Safety,
                        message: format!("{}: {message}", sys.thread_name(t)),
                        schedule: error_schedule(self.config.stop_on_error, schedule),
                        execution,
                    }));
                }
            }

            if depth >= self.config.depth_bound {
                if self.config.fairness.is_some() {
                    // Under fairness, a bound hit is a divergence warning:
                    // classify it heuristically (Section 2's outcomes 2/3).
                    // It counts toward `divergences`, not `nonterminating`
                    // — that counter is the unfair baseline's wasted-cut
                    // metric (Figure 2), and counting the same hit in both
                    // would double-book one event.
                    let kind = bound_kind(&scratch.st.steps_since_yield, self.config.gs_threshold);
                    stats.divergences += 1;
                    break ExecEnd::Error(SearchOutcome::Divergence(Divergence {
                        kind,
                        schedule: error_schedule(self.config.stop_on_error, schedule),
                        execution,
                    }));
                }
                stats.nonterminating += 1;
                break ExecEnd::Done;
            }

            if depth % 4096 == 4095 {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break ExecEnd::Interrupted(BudgetKind::Time);
                }
                if self.stop_requested() {
                    break ExecEnd::Interrupted(BudgetKind::Cancelled);
                }
            }

            let st = &mut scratch.st;
            let es = &st.es;
            let schedulable: &TidSet = match &st.fair {
                Some(f) => {
                    f.schedulable_into(es, &mut scratch.schedulable);
                    &scratch.schedulable
                }
                None => es,
            };
            debug_assert_eq!(
                schedulable.is_empty(),
                es.is_empty(),
                "Theorem 3: T empty iff ES empty"
            );
            scratch.options.clear();
            // Per-option footprints, computed only for strategies that
            // apply partial-order reduction. Yielding options are forced
            // universal: a yield mutates the fair scheduler's priority
            // state, so it commutes with nothing and must never sleep.
            // The footprint buffers persist across steps; only the first
            // `n_fps` are live this step.
            let want_fps = self.strategy.wants_footprints();
            let mut n_fps = 0usize;
            // Flush flags parallel to `options`, materialized only when a
            // flusher lane is actually schedulable (never under SC): the
            // strategies treat an empty slice as all-false.
            scratch.flushes.clear();
            let mut any_flush = false;
            for t in schedulable.iter() {
                if want_fps {
                    if sys.is_yielding(t) {
                        scratch.fp.make_universal();
                    } else {
                        // Every transition writes its own thread's state
                        // (pc, locals), so decisions of one thread are
                        // pairwise dependent — without this, the two
                        // branches of a data choice would look independent
                        // and sleep sets would prune one of them.
                        sys.footprint_into(t, &mut scratch.fp);
                        scratch.fp.push(
                            chess_kernel::ObjectRef::Thread(t),
                            chess_kernel::AccessKind::Write,
                        );
                    }
                }
                let is_flush = sys.is_flush(t);
                any_flush |= is_flush;
                for c in 0..sys.branching(t) {
                    scratch.options.push(Decision {
                        thread: t,
                        choice: c as u32,
                    });
                    scratch.flushes.push(is_flush);
                    if want_fps {
                        if let Some(slot) = scratch.footprints.get_mut(n_fps) {
                            slot.clone_from(&scratch.fp);
                        } else {
                            scratch.footprints.push(scratch.fp.clone());
                        }
                        n_fps += 1;
                    }
                }
            }
            if !any_flush {
                scratch.flushes.clear();
            }
            let prev = st.prev;
            let point = SchedulePoint {
                depth,
                options: &scratch.options,
                footprints: &scratch.footprints[..n_fps],
                prev,
                prev_enabled: prev.is_some_and(|p| es.contains(p)),
                prev_schedulable: prev.is_some_and(|p| schedulable.contains(p)),
                fairness_filtered: schedulable.len() != es.len(),
                flushes: &scratch.flushes,
            };
            let Some(d) = self.strategy.pick(&point) else {
                stats.abandoned += 1;
                break ExecEnd::Done;
            };
            debug_assert!(
                scratch.options.contains(&d),
                "strategy picked unavailable {d:?}"
            );
            // A frame the strategy will come back to: snapshot its state
            // (still the pre-step one) unless a live snapshot is as deep.
            if depth >= snaps.next && self.strategy.revisits(depth) {
                let slot = snaps.reserve();
                pool.save(&mut self.factory, slot, &sys);
                snaps.commit(slot, st);
            }

            // Commit the decision to the schedule *before* stepping: if
            // the workload panics inside `step`, the caller reports the
            // panic with the triggering decision already on record, so
            // replaying the schedule re-triggers it deterministically.
            schedule.push(d);
            let kind = sys.step(d.thread, d.choice);
            sys.enabled_set_into(&mut scratch.es_after);
            if let Some(f) = st.fair.as_mut() {
                f.grow(sys.thread_count());
                f.on_scheduled(d.thread, &st.es, &scratch.es_after, kind.is_yield());
            }
            st.steps_since_yield.resize(sys.thread_count(), 0);
            if kind.is_yield() {
                st.steps_since_yield[d.thread.index()] = 0;
            } else {
                st.steps_since_yield[d.thread.index()] += 1;
            }
            stats.transitions += 1;
            let depth = depth + 1;
            st.depth = depth;
            // Flush steps are transparent to continuation tracking: `prev`
            // keeps pointing at the last *program* thread, so a buffer
            // drain between two steps of one thread does not make the
            // continuation look like a paid preemption under CB.
            if !sys.is_flush(d.thread) {
                st.prev = Some(d.thread);
            }
            obs.on_state(&sys, depth);
            status = sys.status_with_enabled(&scratch.es_after);

            if self.config.detect_cycles && status.is_running() {
                // Only running states can extend a cycle. A violating
                // transition may leave the captured state unchanged (the
                // violation aborts the step before the guest observes it),
                // and treating that repeat as a cycle would misreport the
                // safety violation as a divergence.
                if let Some(slot) = scratch.es_history.get_mut(st.hist_len) {
                    slot.clone_from(&st.es);
                } else {
                    scratch.es_history.push(st.es.clone());
                }
                st.hist_len += 1;
                let fp = self.combined_fingerprint(&sys, st.fair.as_ref());
                if let Some(&start_idx) = scratch.seen.get(&fp) {
                    // Transitions start_idx..depth form a repeatable cycle.
                    let kind = cycle_kind(
                        &schedule[start_idx..depth],
                        &scratch.es_history[start_idx..depth],
                        start_idx,
                        stats,
                    );
                    break ExecEnd::Error(SearchOutcome::Divergence(Divergence {
                        kind,
                        schedule: error_schedule(self.config.stop_on_error, schedule),
                        execution,
                    }));
                }
                scratch.seen.insert(fp, depth);
            }
            // The post-step enabled set is the next state's.
            std::mem::swap(&mut st.es, &mut scratch.es_after);
        };
        stats.max_depth = stats.max_depth.max(scratch.st.depth);
        obs.on_execution_end(&sys, scratch.st.depth);
        pool.release(sys);
        end
    }

    fn combined_fingerprint(&self, sys: &P, fair: Option<&FairScheduler>) -> u64 {
        let prog = sys.fingerprint();
        match fair {
            Some(f) => prog ^ f.state_fingerprint().rotate_left(1),
            None => prog,
        }
    }
}

// The classification helpers below do not depend on the system type:
// kept out of the generic execution loop, they are compiled once.

/// The schedule of a counterexample ending the current execution: moved
/// out when the search stops at it, copied when the search runs on,
/// since the next execution may resume inside its prefix.
#[inline(never)]
fn error_schedule(stop_on_error: bool, schedule: &mut Vec<Decision>) -> Vec<Decision> {
    if stop_on_error {
        std::mem::take(schedule)
    } else {
        schedule.clone()
    }
}

/// Classifies a depth-bound hit under fairness (Section 2's outcomes
/// 2/3): the thread that went longest without yielding, if that is at
/// least `gs_threshold` steps, is a good-samaritan suspect.
#[inline(never)]
fn bound_kind(steps_since_yield: &[u64], gs_threshold: u64) -> DivergenceKind {
    steps_since_yield
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s >= gs_threshold)
        .max_by_key(|&(_, &s)| s)
        .map(|(i, &s)| DivergenceKind::GoodSamaritanSuspect {
            thread: chess_kernel::ThreadId::new(i),
            steps_without_yield: s,
        })
        .unwrap_or(DivergenceKind::LivelockSuspect)
}

/// Classifies the repeatable cycle starting at depth `start` whose
/// decisions and pre-step enabled sets are given, booking it in `stats`:
/// fair when every thread enabled in it was scheduled in it.
#[inline(never)]
fn cycle_kind(
    cycle: &[Decision],
    enabled: &[TidSet],
    start: usize,
    stats: &mut SearchStats,
) -> DivergenceKind {
    stats.divergences += 1;
    let scheduled: TidSet = cycle.iter().map(|d| d.thread).collect();
    let mut enabled_in_cycle = TidSet::new();
    for e in enabled {
        enabled_in_cycle.union_with(e);
    }
    let cycle_len = cycle.len();
    match enabled_in_cycle.difference(&scheduled).first() {
        None => {
            stats.fair_cycles += 1;
            DivergenceKind::FairCycle {
                cycle_start: start,
                cycle_len,
            }
        }
        Some(starved) => {
            stats.unfair_cycles += 1;
            DivergenceKind::UnfairCycle {
                cycle_start: start,
                cycle_len,
                starved,
            }
        }
    }
}

/// Iterative context bounding (Section 4): runs searches with preemption
/// bounds `0..=max_bound` in order, stopping early at the first error.
/// Returns the report for each bound that ran.
pub fn iterative_context_bounding<P, F>(
    factory: F,
    config: Config,
    max_bound: u32,
) -> Vec<(u32, SearchReport)>
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    iterative_context_bounding_resumable(factory, config, max_bound, 0, |_, _| {})
}

/// [`iterative_context_bounding`] with crash-safe progress: the sweep
/// starts at `start_bound` (0 for a fresh run, `b + 1` to resume after a
/// journal recorded bound `b` as finished) and `on_bound_complete` fires
/// after each bound's search returns — the hook where a caller persists
/// bound-level progress. Running the remaining bounds of an interrupted
/// sweep produces exactly the reports the uninterrupted sweep would have
/// produced for those bounds.
pub fn iterative_context_bounding_resumable<P, F>(
    mut factory: F,
    config: Config,
    max_bound: u32,
    start_bound: u32,
    mut on_bound_complete: impl FnMut(u32, &SearchReport),
) -> Vec<(u32, SearchReport)>
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    let mut reports = Vec::new();
    for bound in start_bound..=max_bound {
        let strategy = crate::strategy::ContextBounded::new(bound);
        let report = Explorer::new(&mut factory, strategy, config.clone()).run();
        let stop = report.outcome.found_error();
        on_bound_complete(bound, &report);
        reports.push((bound, report));
        if stop {
            break;
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{Dfs, RandomWalk};
    use crate::system::testsys::{Act, Script};

    /// Figure 3's program: t sets x, u spins (check; yield) until x != 0.
    /// Modeled as: u loops on WaitNonZero? No — the spin must be
    /// nonblocking. We emulate with an unbounded yield loop cut by the
    /// wait: u alternates Step/Yield while counter 0 is zero... The
    /// Script type has no loops, so for explorer tests we use the kernel
    /// workloads in integration tests and keep Script tests acyclic.
    fn two_step_scripts() -> Script {
        Script::new(vec![vec![Act::Step, Act::Step], vec![Act::Step]], 0)
    }

    #[test]
    fn dfs_counts_all_interleavings() {
        let mut ex = Explorer::new(two_step_scripts, Dfs::new(), Config::fair());
        let report = ex.run();
        assert_eq!(report.outcome, SearchOutcome::Complete);
        // Interleavings of aab with one b: positions for b = 3.
        assert_eq!(report.stats.executions, 3);
        assert_eq!(report.stats.terminating, 3);
        assert_eq!(report.stats.transitions, 9);
        assert_eq!(report.stats.max_depth, 3);
    }

    #[test]
    fn deadlock_reported_with_schedule() {
        let factory = || Script::new(vec![vec![Act::Step, Act::Dec(0)]], 1);
        let mut ex = Explorer::new(factory, Dfs::new(), Config::fair());
        let report = ex.run();
        match report.outcome {
            SearchOutcome::Deadlock(cex) => {
                assert_eq!(cex.schedule.len(), 1);
                assert_eq!(cex.execution, 1);
            }
            o => panic!("expected deadlock, got {o:?}"),
        }
    }

    #[test]
    fn deadlock_tolerated_when_configured() {
        let factory = || Script::new(vec![vec![Act::Step, Act::Dec(0)]], 1);
        let config = Config::fair().with_deadlock_is_error(false);
        let mut ex = Explorer::new(factory, Dfs::new(), config);
        let report = ex.run();
        assert_eq!(report.outcome, SearchOutcome::Complete);
        assert_eq!(report.stats.deadlocks, 1);
    }

    #[test]
    fn execution_budget_respected() {
        let factory = two_step_scripts;
        let config = Config::fair().with_max_executions(2);
        let mut ex = Explorer::new(factory, Dfs::new(), config);
        let report = ex.run();
        assert_eq!(
            report.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::Executions)
        );
        assert_eq!(report.stats.executions, 2);
    }

    #[test]
    fn random_walk_terminates_via_budget() {
        let config = Config::fair().with_max_executions(16);
        let mut ex = Explorer::new(two_step_scripts, RandomWalk::new(3), config);
        let report = ex.run();
        assert_eq!(report.stats.executions, 16);
    }

    #[test]
    fn observer_sees_every_state_occurrence() {
        let mut obs = crate::observer::CountingObserver::default();
        let mut ex = Explorer::new(two_step_scripts, Dfs::new(), Config::fair());
        let report = ex.run_observed(&mut obs);
        // Each execution reports initial + 3 = 4 occurrences.
        assert_eq!(obs.states_seen, 4 * report.stats.executions);
        assert_eq!(obs.executions, report.stats.executions);
    }

    /// A depth-bound hit is booked once: as a `divergences` warning under
    /// fairness, never also as an unfair-baseline `nonterminating` cut.
    #[test]
    fn fair_bound_hit_is_divergence_not_nonterminating() {
        let config = Config::fair().with_depth_bound(2).with_stop_on_error(false);
        let mut ex = Explorer::new(two_step_scripts, Dfs::new(), config);
        let report = ex.run();
        assert!(report.stats.divergences > 0, "{:?}", report.stats);
        assert_eq!(report.stats.nonterminating, 0);
        assert_eq!(
            report.stats.divergences, report.stats.executions,
            "every execution of the 3-step script hits the bound at depth 2"
        );
    }

    /// The same bound hit without fairness is a counted cut, not an error.
    #[test]
    fn unfair_bound_hit_is_nonterminating_not_divergence() {
        let config = Config::unfair().with_depth_bound(2);
        let mut ex = Explorer::new(two_step_scripts, Dfs::new(), config);
        let report = ex.run();
        assert_eq!(report.stats.divergences, 0);
        assert_eq!(report.stats.nonterminating, report.stats.executions);
    }

    #[test]
    fn iterative_cb_runs_increasing_bounds() {
        let reports = iterative_context_bounding(two_step_scripts, Config::fair(), 2);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|(_, r)| !r.outcome.found_error()));
        // Larger bounds explore at least as many executions.
        assert!(reports[0].1.stats.executions <= reports[2].1.stats.executions);
    }

    /// Resuming an iterative-CB sweep at a recorded bound yields exactly
    /// the reports the uninterrupted sweep produced for those bounds.
    #[test]
    fn iterative_cb_resumes_at_recorded_bound() {
        let zero_wall = |mut r: SearchReport| {
            r.stats.wall = Duration::ZERO;
            r
        };
        let full = iterative_context_bounding(two_step_scripts, Config::fair(), 2);
        let mut completed = Vec::new();
        iterative_context_bounding_resumable(two_step_scripts, Config::fair(), 2, 0, |b, _| {
            completed.push(b)
        });
        assert_eq!(completed, vec![0, 1, 2]);
        // Simulate a crash after bound 0 finished: resume at bound 1.
        let resumed =
            iterative_context_bounding_resumable(two_step_scripts, Config::fair(), 2, 1, |_, _| {});
        assert_eq!(resumed.len(), 2);
        for ((b_full, r_full), (b_res, r_res)) in full[1..].iter().zip(&resumed) {
            assert_eq!(b_full, b_res);
            assert_eq!(zero_wall(r_full.clone()), zero_wall(r_res.clone()));
        }
    }

    /// A panicking workload becomes a replayable `Outcome::Panic`, never
    /// an aborted search.
    #[test]
    fn workload_panic_is_isolated_and_replayable() {
        let factory = || Script::new(vec![vec![Act::Step, Act::Step], vec![Act::Panic]], 0);
        let mut ex = Explorer::new(factory, Dfs::new(), Config::fair());
        let report = ex.run();
        let SearchOutcome::Panic(cex) = &report.outcome else {
            panic!("expected panic outcome, got {:?}", report.outcome);
        };
        assert_eq!(cex.kind, CounterexampleKind::Panic);
        assert_eq!(cex.message, "scripted panic");
        assert_eq!(report.stats.panics, 1);
        assert_eq!(report.stats.violations, 1);
        assert_eq!(
            report.stats.first_error_execution,
            Some(cex.execution),
            "panic must be booked like any other error"
        );
        // The panicking decision is on the schedule: replay re-triggers it.
        assert!(!cex.schedule.is_empty());
        assert!(crate::minimize::reproduces(
            factory,
            &Config::fair(),
            &cex.schedule,
            crate::minimize::OutcomeKind::Panic,
        ));
    }

    /// With `stop_on_error` off, every panicking schedule is counted and
    /// the enumeration still completes.
    #[test]
    fn panics_counted_without_stopping() {
        let factory = || Script::new(vec![vec![Act::Step], vec![Act::Panic]], 0);
        let config = Config::fair().with_stop_on_error(false);
        let mut ex = Explorer::new(factory, Dfs::new(), config);
        let report = ex.run();
        assert_eq!(report.outcome, SearchOutcome::Complete);
        assert_eq!(report.stats.executions, 2);
        assert_eq!(report.stats.panics, 2, "{:?}", report.stats);
    }

    /// Render of a panic counterexample must not re-abort: the replayed
    /// panic is caught and printed.
    #[test]
    fn panic_counterexample_renders() {
        let factory = || Script::new(vec![vec![Act::Panic]], 0);
        let report = Explorer::new(factory, Dfs::new(), Config::fair()).run();
        let SearchOutcome::Panic(cex) = report.outcome else {
            panic!("expected panic");
        };
        let rendered = cex.render(factory);
        assert!(
            rendered.contains("panic (1 steps): scripted panic"),
            "{rendered}"
        );
        assert!(
            rendered.contains("=>  panic in s0: scripted panic"),
            "{rendered}"
        );
    }

    /// A search stopped by the wall-clock budget reports incomplete —
    /// never an exhaustive pass.
    #[test]
    fn time_budget_expiry_is_reported_incomplete() {
        let config = Config::fair().with_time_budget(Duration::ZERO);
        let mut ex = Explorer::new(two_step_scripts, Dfs::new(), config);
        let report = ex.run();
        assert_eq!(
            report.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::Time)
        );
        assert!(!report.outcome.is_exhaustive_pass());
        let text = report.to_string();
        assert!(
            text.contains("search incomplete (time budget exhausted)"),
            "{text}"
        );
        assert!(!text.contains("search complete"), "{text}");
    }

    /// Checkpoint cadence: `every = 2` over a 3-execution space emits
    /// exactly one periodic checkpoint (no final one — the search
    /// completed, so there is nothing to resume).
    #[test]
    fn periodic_checkpoints_fire_on_cadence() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<SearchCheckpoint>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let mut ex = Explorer::new(two_step_scripts, Dfs::new(), Config::fair())
            .with_checkpointing(2, move |c| sink.borrow_mut().push(c.clone()));
        let report = ex.run();
        assert_eq!(report.outcome, SearchOutcome::Complete);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].stats.executions, 2);
        assert!(matches!(
            seen[0].strategy,
            crate::strategy::StrategySnapshot::Dfs { .. }
        ));
    }

    /// Kill-at-boundary convergence: stop after one execution, emit the
    /// final checkpoint, resume into a fresh explorer — the final report
    /// matches the uninterrupted run exactly (wall time zeroed).
    #[test]
    fn boundary_checkpoint_resume_converges() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let zero_wall = |mut r: SearchReport| {
            r.stats.wall = Duration::ZERO;
            r
        };
        let full = Explorer::new(two_step_scripts, Dfs::new(), Config::fair()).run();

        let seen: Rc<RefCell<Vec<SearchCheckpoint>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let interrupted = Explorer::new(
            two_step_scripts,
            Dfs::new(),
            Config::fair().with_max_executions(1),
        )
        .with_checkpointing(0, move |c| sink.borrow_mut().push(c.clone()))
        .run();
        assert_eq!(
            interrupted.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::Executions)
        );
        let ckpt = seen.borrow().last().cloned().expect("final checkpoint");
        assert_eq!(ckpt.stats.executions, 1);

        let mut strategy = Dfs::new();
        strategy.restore(&ckpt.strategy).unwrap();
        let resumed = Explorer::new(two_step_scripts, strategy, Config::fair())
            .with_initial_stats(ckpt.stats)
            .run();
        assert_eq!(zero_wall(resumed), zero_wall(full));
    }

    /// Mid-execution interruption rolls the partial execution back to the
    /// last boundary; resume re-runs it whole and converges.
    #[test]
    fn mid_execution_interrupt_resume_converges() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Observer that raises the stop flag once the execution passes
        /// the given depth, forcing the explorer's in-execution poll (at
        /// depth 4095) to interrupt mid-execution.
        struct StopAtDepth {
            stop: Arc<AtomicBool>,
            depth: usize,
        }
        impl Observer<Script> for StopAtDepth {
            fn on_state(&mut self, _: &Script, depth: usize) {
                if depth >= self.depth {
                    self.stop.store(true, Ordering::Relaxed);
                }
            }
            fn on_execution_end(&mut self, _: &Script, _: usize) {}
        }

        let deep = || Script::new(vec![vec![Act::Step; 5000]], 0);
        let zero_wall = |mut r: SearchReport| {
            r.stats.wall = Duration::ZERO;
            r
        };
        let full = Explorer::new(deep, Dfs::new(), Config::fair()).run();
        assert_eq!(full.outcome, SearchOutcome::Complete);
        assert_eq!(full.stats.transitions, 5000);

        let stop = Arc::new(AtomicBool::new(false));
        let seen: Rc<RefCell<Vec<SearchCheckpoint>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let mut obs = StopAtDepth {
            stop: Arc::clone(&stop),
            depth: 100,
        };
        let interrupted = Explorer::new(deep, Dfs::new(), Config::fair())
            .with_stop_flag(stop)
            .with_checkpointing(0, move |c| sink.borrow_mut().push(c.clone()))
            .run_observed(&mut obs);
        assert_eq!(
            interrupted.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::Cancelled)
        );
        // Interrupted at depth 4095 of execution 1: the checkpoint rolled
        // back to the boundary (zero completed executions), while the
        // snapshot keeps the in-flight prefix for replay.
        let ckpt = seen.borrow().last().cloned().expect("final checkpoint");
        assert_eq!(ckpt.stats.executions, 0);
        assert_eq!(ckpt.stats.transitions, 0);

        let mut strategy = Dfs::new();
        strategy.restore(&ckpt.strategy).unwrap();
        let resumed = Explorer::new(deep, strategy, Config::fair())
            .with_initial_stats(ckpt.stats)
            .run();
        assert_eq!(zero_wall(resumed), zero_wall(full));
    }
}
