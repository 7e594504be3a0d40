//! Prefix snapshots never change a search. With `Config::pooling` on,
//! `Explorer::run` (and `run_observed` with a resumable observer)
//! resumes each `dfs` or `cb` execution from a snapshot inside the
//! prefix it shares with the previous execution; with pooling off, every
//! execution replays from the initial state. For every kernel workload
//! (the litmus tests under every memory model), under dfs, cb:1 and
//! cb:2, plain and with sleep sets, stopping at the first error and
//! running on, the two reports must be equal, wall clock aside. Searches
//! too large to exhaust are capped at a fixed execution budget, which
//! both sides spend identically.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use chess_core::strategy::{ContextBounded, Dfs, RandomWalk, Strategy};
use chess_core::{
    Config, CountingObserver, Explorer, NullObserver, Observer, Progress, Reduction, Search,
    SearchCheckpoint, SearchOutcome, SearchReport, ShardRunner, SystemStatus, TransitionSystem,
};
use chess_kernel::{
    Effects, Footprint, GuestThread, Kernel, MemoryModel, OpDesc, OpResult, StateWriter, StepKind,
    ThreadId, TidSet,
};
use chess_state::{CoverageTracker, FingerprintCoverage};
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

/// Executions per search: enough for deep backtracking, thinning and
/// roll-back, small enough for the whole matrix to run in seconds.
const BUDGET: u64 = 3_000;

fn strategy(search: Search) -> Box<dyn Strategy> {
    match search {
        Search::Dfs(Reduction::None) => Box::new(Dfs::new()),
        Search::Dfs(Reduction::SleepSets) => Box::new(Dfs::with_sleep_sets()),
        Search::Cb(bound, Reduction::None) => Box::new(ContextBounded::new(bound)),
        Search::Cb(bound, Reduction::SleepSets) => Box::new(ContextBounded::with_sleep_sets(bound)),
        Search::Random(seed) => Box::new(RandomWalk::new(seed)),
    }
}

fn zero_wall(mut r: SearchReport) -> SearchReport {
    r.stats.wall = Duration::ZERO;
    r
}

/// Runs one search and returns its report and progress counters.
fn run<P, F>(factory: F, search: Search, config: &Config) -> (SearchReport, Arc<Progress>)
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    run_observed(factory, search, config, &mut NullObserver)
}

/// Runs one search under `obs` and returns its report and progress
/// counters.
fn run_observed<P, F>(
    factory: F,
    search: Search,
    config: &Config,
    obs: &mut dyn Observer<P>,
) -> (SearchReport, Arc<Progress>)
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    let progress = Arc::new(Progress::default());
    let report = Explorer::new(factory, strategy(search), config.clone())
        .with_progress(Arc::clone(&progress))
        .run_observed(obs);
    (report, progress)
}

fn skipped(p: &Progress) -> u64 {
    p.steps_skipped.load(Ordering::Relaxed)
}

/// Asserts that `search` under `config` reports the same with snapshots
/// (pooling on) as without (pooling off). Returns the snapshot run's
/// progress counters.
fn agree<P, F>(name: &str, factory: F, search: Search, config: &Config) -> Arc<Progress>
where
    P: TransitionSystem,
    F: Fn() -> P,
{
    let (plain, plain_progress) = run(&factory, search, &config.clone().with_pooling(false));
    let (snap, progress) = run(&factory, search, &config.clone().with_pooling(true));
    assert_eq!(
        zero_wall(snap),
        zero_wall(plain),
        "{name} {search:?} (stop on error: {})",
        config.stop_on_error
    );
    assert_eq!(skipped(&plain_progress), 0, "{name}: pooling off resumed");
    progress
}

/// Checks dfs, cb:1 and cb:2, plain and reduced, stopping at the first
/// error and running on.
fn check<P, F>(name: &str, factory: F)
where
    P: TransitionSystem,
    F: Fn() -> P,
{
    for config in [Config::fair(), Config::fair().with_stop_on_error(false)] {
        let config = config.with_max_executions(BUDGET);
        for reduction in [Reduction::None, Reduction::SleepSets] {
            for search in [
                Search::Dfs(reduction),
                Search::Cb(1, reduction),
                Search::Cb(2, reduction),
            ] {
                agree(name, &factory, search, &config);
            }
        }
    }
}

#[test]
fn snapshots_agree_with_replay_on_every_workload() {
    check("counter", || locked_counter(2));
    check("counter/racy", || racy_counter(2));
    check("counter/deadlock", deadlock_pair);
    check("spinloop", figure3);
    check("spinloop/no-yield", || spinloop(1, false));
    check("philosophers", || {
        philosophers(PhilosophersConfig::table2(3))
    });
    check("philosophers/figure1", figure1);
    check("philosophers/figure1-polite", figure1_polite);
    check("wsq", || wsq(WsqConfig::table2(2)));
    check("wsq/unsync-steal", || {
        wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal))
    });
    check("promise", || promises(PromiseConfig::correct()));
    check("promise/stale-spin", figure8);
    check("workerpool", || worker_pool(PoolConfig::correct()));
    check("workerpool/figure7", figure7);
    check("channels", || fifo_pipeline(FifoConfig::correct()));
    check("channels/draining-shutdown", || {
        fifo_pipeline(FifoConfig::with_bug(ChannelBug::DrainingShutdown))
    });
    check("boundedbuffer", || bounded_buffer(BufferConfig::correct()));
    check("boundedbuffer/if-bug", || {
        bounded_buffer(BufferConfig::with_bug(BufferBug::IfInsteadOfWhile))
    });
    check("treiber", || treiber_stack(TreiberConfig::correct()));
    check("treiber/aba", || treiber_stack(TreiberConfig::aba()));
    check("rwcache", || rw_cache(RwCacheConfig::correct()));
    check("rwcache/upgrade-race", || {
        rw_cache(RwCacheConfig::upgrade_race())
    });
    check("bsp", || bsp(BspConfig::correct()));
    check("bsp/elided-barrier", || bsp(BspConfig::elided_barrier()));
    check("miniboot", || miniboot(BootConfig::small()));
}

/// The litmus tests under SC, TSO and PSO: flush lanes are restored
/// with the store buffers they drain.
#[test]
fn snapshots_agree_with_replay_on_litmus_tests() {
    for memory in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        check("sb", || store_buffering(memory));
        check("dekker", || dekker(memory));
        check("dekker-fenced", || dekker_fenced(memory));
        check("mp", || message_passing(memory));
        check("lb", || load_buffering(memory));
        check("iriw", || iriw(memory));
    }
}

/// Snapshots fire where they matter: on the paper's Table 3 search most
/// of the logical transitions are resumed over rather than re-executed.
#[test]
fn snapshots_skip_most_of_the_wsq_cb2_prefix() {
    let config = Config::fair().with_detect_cycles(false);
    let progress = agree(
        "wsq/unlocked-pop",
        || wsq(WsqConfig::with_bug(WsqBug::UnlockedConflictPop)),
        Search::Cb(2, Reduction::None),
        &config,
    );
    let transitions = progress.transitions.load(Ordering::Relaxed);
    assert!(
        2 * skipped(&progress) > transitions,
        "skipped {} of {transitions} transitions",
        skipped(&progress)
    );
}

/// Cycle detection rolls the cycle map back to the snapshot's depth:
/// livelocks are found at the same execution with the same cycle.
#[test]
fn snapshots_keep_cycle_detection_exact() {
    let run_on = Config::fair().with_stop_on_error(false);
    for config in [Config::fair(), run_on] {
        let config = config.with_max_executions(BUDGET);
        for search in [
            Search::Dfs(Reduction::None),
            Search::Cb(2, Reduction::None),
            Search::Dfs(Reduction::SleepSets),
        ] {
            agree("philosophers/figure1", figure1, search, &config);
            agree(
                "philosophers/figure1-polite",
                figure1_polite,
                search,
                &config,
            );
            agree("promise/stale-spin", figure8, search, &config);
        }
    }
}

/// An error does not throw the prefix away: running on past the
/// livelocks of the polite philosophers, the snapshots keep paying for
/// themselves.
#[test]
fn errors_keep_the_snapshot_stack() {
    let config = Config::fair()
        .with_stop_on_error(false)
        .with_max_executions(BUDGET);
    let progress = agree(
        "philosophers/figure1-polite",
        figure1_polite,
        Search::Dfs(Reduction::None),
        &config,
    );
    let taken = snapshots(&progress);
    assert!(
        skipped(&progress) > 4 * taken,
        "{taken} snapshots skipped only {} steps",
        skipped(&progress)
    );
}

/// Thread `i` takes six local steps; thread 1 panics on its fifth if
/// thread 0 has taken at least three — deep in the execution, after
/// snapshots were taken.
#[derive(Clone)]
struct LatePanic {
    me: usize,
    pc: u32,
}

impl GuestThread<(u32, u32)> for LatePanic {
    fn next_op(&self, _: &(u32, u32)) -> OpDesc {
        if self.pc < 6 {
            OpDesc::Local
        } else {
            OpDesc::Finished
        }
    }

    fn on_op(&mut self, _: OpResult, shared: &mut (u32, u32), _: &mut Effects<(u32, u32)>) {
        if self.me == 1 && self.pc == 4 && shared.0 >= 3 {
            panic!("late panic");
        }
        self.pc += 1;
        if self.me == 0 {
            shared.0 += 1;
        } else {
            shared.1 += 1;
        }
    }

    fn capture(&self, w: &mut StateWriter) {
        w.write_u32(self.pc);
    }

    fn box_clone(&self) -> Box<dyn GuestThread<(u32, u32)>> {
        Box::new(self.clone())
    }
}

fn late_panic() -> Kernel<(u32, u32)> {
    let mut k = Kernel::new((0, 0));
    k.spawn(LatePanic { me: 0, pc: 0 });
    k.spawn(LatePanic { me: 1, pc: 0 });
    k
}

/// A guest panicking after the first snapshot: the unwind drops the
/// running system, never a snapshot, and the panics are counted and
/// replayable exactly as without snapshots.
#[test]
fn guest_panic_after_a_snapshot_agrees() {
    let run_on = Config::fair().with_stop_on_error(false);
    for config in [Config::fair(), run_on.clone()] {
        for search in [Search::Dfs(Reduction::None), Search::Cb(2, Reduction::None)] {
            agree("late-panic", late_panic, search, &config);
        }
    }
    let progress = agree(
        "late-panic",
        late_panic,
        Search::Dfs(Reduction::None),
        &run_on,
    );
    assert!(skipped(&progress) > 0, "no execution resumed");
    let (report, _) = run(late_panic, Search::Dfs(Reduction::None), &run_on);
    assert!(report.stats.panics > 1, "{:?}", report.stats);
    assert_eq!(report.outcome, SearchOutcome::Complete);
}

/// Takes six steps, then spins without yielding if both bumpers had run
/// by its sixth step, and finishes otherwise.
#[derive(Clone)]
struct SpinAfterSix {
    pc: u32,
    spin: bool,
}

impl GuestThread<u32> for SpinAfterSix {
    fn next_op(&self, _: &u32) -> OpDesc {
        if self.pc < 6 || self.spin {
            OpDesc::Local
        } else {
            OpDesc::Finished
        }
    }

    fn on_op(&mut self, _: OpResult, bumps: &mut u32, _: &mut Effects<u32>) {
        if self.pc == 5 {
            self.spin = *bumps == 2;
        }
        self.pc = (self.pc + 1).min(6);
    }

    fn capture(&self, w: &mut StateWriter) {
        w.write_u32(self.pc);
        w.write_bool(self.spin);
    }

    fn box_clone(&self) -> Box<dyn GuestThread<u32>> {
        Box::new(self.clone())
    }
}

/// Bumps the shared counter once.
#[derive(Clone)]
struct Bump(bool);

impl GuestThread<u32> for Bump {
    fn next_op(&self, _: &u32) -> OpDesc {
        if self.0 {
            OpDesc::Finished
        } else {
            OpDesc::Local
        }
    }

    fn on_op(&mut self, _: OpResult, bumps: &mut u32, _: &mut Effects<u32>) {
        *bumps += 1;
        self.0 = true;
    }

    fn capture(&self, w: &mut StateWriter) {
        w.write_bool(self.0);
    }

    fn box_clone(&self) -> Box<dyn GuestThread<u32>> {
        Box::new(self.clone())
    }
}

fn spin_after_six() -> Kernel<u32> {
    let mut k = Kernel::new(0);
    k.spawn(SpinAfterSix { pc: 0, spin: false });
    k.spawn(Bump(false));
    k.spawn(Bump(false));
    k
}

/// The first error is a depth-bound hit in an execution resumed from a
/// snapshot: its good-samaritan classification counts the spinner's
/// steps since the execution began, prefix included.
#[test]
fn depth_bound_in_a_resumed_execution_classifies_alike() {
    let config = Config::fair()
        .with_detect_cycles(false)
        .with_depth_bound(300);
    let progress = agree(
        "spin-after-six",
        spin_after_six,
        Search::Dfs(Reduction::None),
        &config,
    );
    assert!(skipped(&progress) > 0, "no execution resumed");
    let (report, _) = run(spin_after_six, Search::Dfs(Reduction::None), &config);
    let SearchOutcome::Divergence(d) = &report.outcome else {
        panic!("expected a divergence, got {:?}", report.outcome);
    };
    assert!(d.execution > 2, "{d:?}");
    assert!(
        matches!(
            d.kind,
            chess_core::DivergenceKind::GoodSamaritanSuspect { .. }
        ),
        "{d:?}"
    );
}

/// A search resumed from a checkpoint starts with an empty snapshot
/// stack (and, under cb, frames without recorded budgets) and still
/// converges to the uninterrupted report.
#[test]
fn checkpoint_resume_with_snapshots_converges() {
    let factory = || wsq(WsqConfig::with_bug(WsqBug::LostTailRestore));
    let config = Config::fair().with_detect_cycles(false);
    for search in [Search::Cb(2, Reduction::None), Search::Dfs(Reduction::None)] {
        let (full, _) = run(factory, search, &config.clone().with_max_executions(BUDGET));
        let seen: Rc<RefCell<Vec<SearchCheckpoint>>> = Rc::default();
        let sink = Rc::clone(&seen);
        Explorer::new(
            factory,
            strategy(search),
            config.clone().with_max_executions(BUDGET / 3),
        )
        .with_checkpointing(0, move |c| sink.borrow_mut().push(c.clone()))
        .run();
        let ckpt = seen.borrow().last().cloned().expect("final checkpoint");
        let mut restored = strategy(search);
        restored.restore(&ckpt.strategy).unwrap();
        let progress = Arc::new(Progress::default());
        let resumed = Explorer::new(
            factory,
            restored,
            config.clone().with_max_executions(BUDGET),
        )
        .with_initial_stats(ckpt.stats)
        .with_progress(Arc::clone(&progress))
        .run();
        assert_eq!(zero_wall(resumed), zero_wall(full), "{search:?}");
        assert!(skipped(&progress) > 0, "{search:?}: no execution resumed");
    }
}

/// Sharded searches resume from snapshots too: the merged cb:2 shards
/// equal the sequential search without snapshots.
#[test]
fn sharded_cb2_with_snapshots_agrees() {
    let factory = || wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal));
    for reduction in [Reduction::None, Reduction::SleepSets] {
        let search = Search::Cb(2, reduction);
        let plain = Config::fair().with_pooling(false);
        let (sequential, _) = run(factory, search, &plain);
        for pooling in [false, true] {
            let config = Config::fair().with_pooling(pooling);
            let sharded = ShardRunner::new(factory, config, search).run_shards(2);
            assert_eq!(
                zero_wall(sharded),
                zero_wall(sequential.clone()),
                "{search:?}, pooling {pooling}"
            );
        }
    }
}

/// What a [`Probe`] saw.
#[derive(Default)]
struct Tally {
    resets: Cell<u64>,
    steps: Cell<u64>,
    /// The fingerprint of every terminated or deadlocked state reached.
    terminals: RefCell<Vec<u64>>,
}

/// A system that forwards everything to `inner` and counts what the
/// explorer asks of it in a tally shared by every instance.
struct Probe<T> {
    inner: T,
    tally: Rc<Tally>,
}

impl<T: TransitionSystem> Probe<T> {
    fn seen(&self, status: SystemStatus) -> SystemStatus {
        if matches!(status, SystemStatus::Terminated | SystemStatus::Deadlock) {
            self.tally
                .terminals
                .borrow_mut()
                .push(self.inner.fingerprint());
        }
        status
    }
}

impl<T: TransitionSystem> TransitionSystem for Probe<T> {
    fn thread_count(&self) -> usize {
        self.inner.thread_count()
    }
    fn enabled(&self, t: ThreadId) -> bool {
        self.inner.enabled(t)
    }
    fn enabled_set_into(&self, out: &mut TidSet) {
        self.inner.enabled_set_into(out)
    }
    fn reset_from(&mut self, template: &Self) -> bool {
        self.tally.resets.set(self.tally.resets.get() + 1);
        self.inner.reset_from(&template.inner)
    }
    fn is_yielding(&self, t: ThreadId) -> bool {
        self.inner.is_yielding(t)
    }
    fn branching(&self, t: ThreadId) -> usize {
        self.inner.branching(t)
    }
    fn step(&mut self, t: ThreadId, choice: u32) -> StepKind {
        self.tally.steps.set(self.tally.steps.get() + 1);
        self.inner.step(t, choice)
    }
    fn footprint_into(&self, t: ThreadId, fp: &mut Footprint) {
        self.inner.footprint_into(t, fp)
    }
    fn is_flush(&self, t: ThreadId) -> bool {
        self.inner.is_flush(t)
    }
    fn status(&self) -> SystemStatus {
        self.seen(self.inner.status())
    }
    fn status_with_enabled(&self, enabled: &TidSet) -> SystemStatus {
        self.seen(self.inner.status_with_enabled(enabled))
    }
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
    fn state_bytes(&self) -> Vec<u8> {
        self.inner.state_bytes()
    }
    fn describe_op(&self, t: ThreadId) -> String {
        self.inner.describe_op(t)
    }
    fn thread_name(&self, t: ThreadId) -> String {
        self.inner.thread_name(t)
    }
}

/// Runs `search` through a [`Probe`] around `factory`'s systems and
/// returns the report, the progress counters and the tally.
fn probe<T, F>(
    factory: F,
    search: Search,
    config: &Config,
) -> (SearchReport, Arc<Progress>, Rc<Tally>)
where
    T: TransitionSystem,
    F: Fn() -> T,
{
    let tally = Rc::new(Tally::default());
    let probed = || Probe {
        inner: factory(),
        tally: Rc::clone(&tally),
    };
    let (report, progress) = run(probed, search, config);
    (report, progress, tally)
}

fn replayed(p: &Progress) -> u64 {
    p.steps_replayed.load(Ordering::Relaxed)
}

fn snapshots(p: &Progress) -> u64 {
    p.snapshots.load(Ordering::Relaxed)
}

/// Snapshots restore the very states replay reaches: the multiset of
/// terminal-state fingerprints is the same with pooling on and off,
/// under dfs and cb:2, plain and with sleep sets. Returns the steps the
/// snapshot runs skipped.
fn terminal_states_agree<T, F>(name: &str, factory: F) -> u64
where
    T: TransitionSystem,
    F: Fn() -> T,
{
    let config = Config::fair()
        .with_stop_on_error(false)
        .with_max_executions(BUDGET);
    let mut skips = 0;
    for reduction in [Reduction::None, Reduction::SleepSets] {
        for search in [Search::Dfs(reduction), Search::Cb(2, reduction)] {
            let (_, plain_progress, plain) =
                probe(&factory, search, &config.clone().with_pooling(false));
            let (_, progress, snap) = probe(&factory, search, &config);
            let sorted = |t: &Tally| {
                let mut v = t.terminals.borrow().clone();
                v.sort_unstable();
                v
            };
            assert!(!plain.terminals.borrow().is_empty(), "{name} {search:?}");
            assert_eq!(sorted(&snap), sorted(&plain), "{name} {search:?}");
            assert_eq!(skipped(&plain_progress), 0, "{name}: pooling off resumed");
            skips += skipped(&progress);
        }
    }
    skips
}

#[test]
fn snapshots_restore_the_states_replay_reaches() {
    let skips = [
        terminal_states_agree("counter", || locked_counter(2)),
        terminal_states_agree("counter/deadlock", deadlock_pair),
        terminal_states_agree("philosophers", || {
            philosophers(PhilosophersConfig::table2(3))
        }),
        terminal_states_agree("wsq", || wsq(WsqConfig::table2(2))),
        terminal_states_agree("wsq/unsync-steal", || {
            wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal))
        }),
        terminal_states_agree("promise", || promises(PromiseConfig::correct())),
        terminal_states_agree("workerpool", || worker_pool(PoolConfig::correct())),
        terminal_states_agree("channels", || fifo_pipeline(FifoConfig::correct())),
        terminal_states_agree("boundedbuffer", || bounded_buffer(BufferConfig::correct())),
        terminal_states_agree("treiber/aba", || treiber_stack(TreiberConfig::aba())),
        terminal_states_agree("rwcache", || rw_cache(RwCacheConfig::correct())),
        terminal_states_agree("bsp", || bsp(BspConfig::correct())),
        terminal_states_agree("miniboot", || miniboot(BootConfig::small())),
    ];
    assert!(skips.iter().all(|&s| s > 0), "{skips:?}");
    for memory in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        terminal_states_agree("dekker", || dekker(memory));
        terminal_states_agree("iriw", || iriw(memory));
    }
}

/// Every step a resume skips is one the explorer does not execute: the
/// system steps exactly `transitions − steps_skipped` times.
#[test]
fn executed_steps_are_transitions_minus_skipped() {
    let config = Config::fair().with_max_executions(BUDGET);
    for search in [
        Search::Dfs(Reduction::None),
        Search::Cb(2, Reduction::None),
        Search::Cb(2, Reduction::SleepSets),
        Search::Random(3),
    ] {
        let (report, progress, tally) = probe(|| wsq(WsqConfig::table2(2)), search, &config);
        assert_eq!(
            tally.steps.get(),
            report.stats.transitions - skipped(&progress),
            "{search:?}"
        );
    }
}

/// The explorer's cap on live snapshots (`MAX_SNAPSHOTS`).
const SNAPSHOT_CAP: usize = 6;

/// Searches at most as deep as the snapshot cap never evict,
/// so every open frame is snapshotted the first time an armed execution
/// passes it: after the second execution, which replays the first's
/// prefix from the initial state, no execution replays a step; and each
/// open frame is copied once, so there are at most as many snapshots
/// as executions plus depth (a tree has fewer branching nodes than
/// leaves).
#[test]
fn shallow_searches_replay_only_their_second_execution() {
    let mut shallow = 0;
    for memory in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        type Litmus = fn(MemoryModel) -> Kernel<chess_workloads::litmus::LitmusShared>;
        let tests: [(&str, Litmus); 6] = [
            ("sb", store_buffering),
            ("dekker", dekker),
            ("dekker-fenced", dekker_fenced),
            ("mp", message_passing),
            ("lb", load_buffering),
            ("iriw", iriw),
        ];
        for (name, litmus) in tests {
            for search in [
                Search::Dfs(Reduction::None),
                Search::Dfs(Reduction::SleepSets),
            ] {
                let config = Config::fair();
                let (report, progress) = run(|| litmus(memory), search, &config);
                if report.stats.max_depth > SNAPSHOT_CAP || report.stats.executions < 3 {
                    continue;
                }
                shallow += 1;
                let (_, two) = run(|| litmus(memory), search, &config.with_max_executions(2));
                let what = format!("{name}/{memory:?} {search:?}");
                assert!(replayed(&two) > 0, "{what}: the second execution replays");
                assert_eq!(replayed(&progress), replayed(&two), "{what}");
                assert!(
                    snapshots(&progress) <= report.stats.executions + report.stats.max_depth as u64,
                    "{what}: {} snapshots, {:?}",
                    snapshots(&progress),
                    report.stats
                );
            }
        }
    }
    assert!(shallow >= 10, "only {shallow} searches were shallow");
}

/// A random walk shares no prefix between executions, so it takes no
/// snapshot: its only resets are the pool's, one per execution after
/// the first.
#[test]
fn random_walks_take_no_snapshots() {
    let factory = || treiber_stack(TreiberConfig::correct());
    let config = Config::fair().with_max_executions(200);
    let (report, progress, tally) = probe(factory, Search::Random(3), &config);
    assert_eq!(report.stats.executions, 200);
    assert_eq!(tally.resets.get(), report.stats.executions - 1);
    assert_eq!(snapshots(&progress), 0);
    assert_eq!(skipped(&progress), 0);
    assert_eq!(replayed(&progress), 0);
    assert_eq!(
        zero_wall(report),
        zero_wall(run(factory, Search::Random(3), &config.with_pooling(false)).0)
    );
}

/// The counting wrapper is itself a system with copies, so a systematic
/// search through it does snapshot — the random-walk zero above is the
/// strategy's doing.
#[test]
fn systematic_search_through_the_wrapper_snapshots() {
    let factory = || treiber_stack(TreiberConfig::correct());
    let config = Config::fair().with_max_executions(200);
    let (_, progress, _) = probe(factory, Search::Cb(2, Reduction::None), &config);
    assert!(snapshots(&progress) > 0);
}

/// What the resumable observers record: exact and fingerprint coverage
/// and the terminal states. Resumable only if both trackers are.
#[derive(Default)]
struct Recorded {
    exact: CoverageTracker,
    fingerprints: FingerprintCoverage,
    terminals: BTreeSet<Vec<u8>>,
}

impl<P: TransitionSystem + ?Sized> Observer<P> for Recorded {
    fn resumable(&self) -> bool {
        Observer::<P>::resumable(&self.exact) && Observer::<P>::resumable(&self.fingerprints)
    }

    fn on_state(&mut self, sys: &P, depth: usize) {
        self.exact.on_state(sys, depth);
        self.fingerprints.on_state(sys, depth);
    }

    fn on_execution_end(&mut self, sys: &P, _depth: usize) {
        if sys.status() == SystemStatus::Terminated {
            self.terminals.insert(sys.state_bytes());
        }
    }
}

/// Observed dfs and cb:2 searches, plain and with sleep sets, resume
/// from snapshots and still record what full replay records: the same
/// report, the same distinct states (exact and by fingerprint) and the
/// same terminal states with pooling on and off. A refusing observer
/// keeps full replay and sees every state occurrence. Returns the steps
/// the resumable searches skipped.
fn observers_agree<P, F>(name: &str, factory: F) -> u64
where
    P: TransitionSystem,
    F: Fn() -> P,
{
    let config = Config::fair()
        .with_stop_on_error(false)
        .with_max_executions(BUDGET);
    let mut skips = 0;
    for reduction in [Reduction::None, Reduction::SleepSets] {
        for search in [Search::Dfs(reduction), Search::Cb(2, reduction)] {
            let what = format!("{name} {search:?}");
            let mut off = Recorded::default();
            let (off_report, off_progress) = run_observed(
                &factory,
                search,
                &config.clone().with_pooling(false),
                &mut off,
            );
            let mut on = Recorded::default();
            let (on_report, progress) = run_observed(&factory, search, &config, &mut on);
            assert_eq!(
                zero_wall(on_report),
                zero_wall(off_report.clone()),
                "{what}"
            );
            assert_eq!(skipped(&off_progress), 0, "{what}: pooling off resumed");
            let states = |c: &CoverageTracker| c.iter().cloned().collect::<BTreeSet<_>>();
            assert_eq!(states(&on.exact), states(&off.exact), "{what}");
            assert_eq!(on.fingerprints, off.fingerprints, "{what}");
            assert_eq!(on.terminals, off.terminals, "{what}");
            skips += skipped(&progress);

            let mut counting = CountingObserver::default();
            let (report, progress) = run_observed(&factory, search, &config, &mut counting);
            assert_eq!(skipped(&progress), 0, "{what}: a refusing observer resumed");
            assert_eq!(
                counting.states_seen,
                report.stats.transitions + report.stats.executions,
                "{what}"
            );
            assert_eq!(zero_wall(report), zero_wall(off_report), "{what}");
        }
    }
    skips
}

#[test]
fn observers_agree_with_pooling_on_and_off() {
    let skips = [
        observers_agree("counter", || locked_counter(2)),
        observers_agree("counter/racy", || racy_counter(2)),
        observers_agree("counter/deadlock", deadlock_pair),
        observers_agree("spinloop", figure3),
        observers_agree("philosophers", || {
            philosophers(PhilosophersConfig::table2(3))
        }),
        observers_agree("philosophers/figure1", figure1),
        observers_agree("wsq", || wsq(WsqConfig::table2(2))),
        observers_agree("wsq/unsync-steal", || {
            wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal))
        }),
        observers_agree("promise", || promises(PromiseConfig::correct())),
        observers_agree("promise/stale-spin", figure8),
        observers_agree("workerpool", || worker_pool(PoolConfig::correct())),
        observers_agree("channels", || fifo_pipeline(FifoConfig::correct())),
        observers_agree("boundedbuffer", || bounded_buffer(BufferConfig::correct())),
        observers_agree("treiber/aba", || treiber_stack(TreiberConfig::aba())),
        observers_agree("rwcache", || rw_cache(RwCacheConfig::correct())),
        observers_agree("bsp", || bsp(BspConfig::correct())),
        observers_agree("miniboot", || miniboot(BootConfig::small())),
    ];
    assert!(skips.iter().all(|&s| s > 0), "{skips:?}");
    for memory in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        observers_agree("sb", || store_buffering(memory));
        observers_agree("dekker", || dekker(memory));
        observers_agree("iriw", || iriw(memory));
    }
}
