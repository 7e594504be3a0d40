//! Sharding never changes a systematic search: for every kernel
//! workload, under dfs, cb:1 and cb:2, plain and with sleep sets, the
//! `K` root-slice shards (K = 2 ..= min(roots, 4)) merge to exactly the
//! sequential report, wall clock aside — same outcome, same
//! counterexample and execution index, same statistics — whether the
//! search stops at its first error or runs on. Each workload runs in a
//! variant (clean or seeded bug) whose search fits the budget; the
//! work-stealing queue runs only under cb, since its full dfs takes
//! minutes.

use std::time::Duration;

use chess_core::strategy::{ContextBounded, Dfs, Strategy};
use chess_core::{Config, Explorer, Reduction, Search, SearchOutcome, SearchReport, ShardRunner};
use chess_kernel::{Capture, Kernel, MemoryModel};
use chess_workloads::boundedbuffer::{bounded_buffer, BufferBug, BufferConfig};
use chess_workloads::bsp::{bsp, BspConfig};
use chess_workloads::channels::{fifo_pipeline, ChannelBug, FifoConfig};
use chess_workloads::litmus::{
    dekker, dekker_fenced, iriw, load_buffering, message_passing, store_buffering,
};
use chess_workloads::miniboot::{miniboot, BootConfig};
use chess_workloads::philosophers::{figure1, philosophers, PhilosophersConfig};
use chess_workloads::promise::{figure8, promises, PromiseConfig};
use chess_workloads::rwcache::{rw_cache, RwCacheConfig};
use chess_workloads::simple::{deadlock_pair, locked_counter, racy_counter};
use chess_workloads::spinloop::{figure3, spinloop};
use chess_workloads::treiber::{treiber_stack, TreiberConfig};
use chess_workloads::workerpool::{figure7, worker_pool, PoolConfig};
use chess_workloads::wsq::{wsq, WsqBug, WsqConfig};

/// Which systematic searches a case runs (each plain and reduced).
#[derive(Clone, Copy)]
enum Searches {
    /// dfs, cb:1 and cb:2.
    All,
    /// cb:1 and cb:2 (the full dfs does not fit the budget).
    Cb,
    /// cb:1 only.
    Cb1,
}

fn strategy(search: Search) -> Box<dyn Strategy> {
    match search {
        Search::Dfs(Reduction::None) => Box::new(Dfs::new()),
        Search::Dfs(Reduction::SleepSets) => Box::new(Dfs::with_sleep_sets()),
        Search::Cb(bound, Reduction::None) => Box::new(ContextBounded::new(bound)),
        Search::Cb(bound, Reduction::SleepSets) => Box::new(ContextBounded::with_sleep_sets(bound)),
        Search::Random(_) => unreachable!("random walks are seed-sharded"),
    }
}

fn zero_wall(mut r: SearchReport) -> SearchReport {
    r.stats.wall = Duration::ZERO;
    r
}

/// Checks every shard count of every requested search of one workload
/// against the sequential search, stopping at the first error.
fn check<S, F>(name: &str, factory: F, searches: Searches)
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Sync,
{
    check_with(&Config::fair(), name, factory, searches);
}

/// [`check`] under `config` (with a 200 000-execution budget).
fn check_with<S, F>(config: &Config, name: &str, factory: F, searches: Searches)
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Sync,
{
    let sys = factory();
    let roots: usize = sys.enabled_set().iter().map(|t| sys.branching(t)).sum();
    let bounded: &[Search] = match searches {
        Searches::All => &[
            Search::Dfs(Reduction::None),
            Search::Cb(1, Reduction::None),
            Search::Cb(2, Reduction::None),
        ],
        Searches::Cb => &[
            Search::Cb(1, Reduction::None),
            Search::Cb(2, Reduction::None),
        ],
        Searches::Cb1 => &[Search::Cb(1, Reduction::None)],
    };
    let config = config.clone().with_max_executions(200_000);
    for &plain in bounded {
        for reduction in [Reduction::None, Reduction::SleepSets] {
            let search = match plain {
                Search::Dfs(_) => Search::Dfs(reduction),
                Search::Cb(bound, _) => Search::Cb(bound, reduction),
                Search::Random(_) => unreachable!(),
            };
            let sequential = Explorer::new(&factory, strategy(search), config.clone()).run();
            assert!(
                !matches!(sequential.outcome, SearchOutcome::BudgetExhausted(_)),
                "{name} {search:?}: the case must fit its budget"
            );
            for k in 2..=roots.min(4) {
                let sharded = ShardRunner::new(&factory, config.clone(), search).run_shards(k);
                assert_eq!(
                    zero_wall(sharded),
                    zero_wall(sequential.clone()),
                    "{name} {search:?} with {k} shards"
                );
            }
        }
    }
}

#[test]
fn merged_shards_equal_the_sequential_search_on_every_workload() {
    check("counter", || locked_counter(2), Searches::All);
    check("counter/racy", || racy_counter(2), Searches::All);
    check("counter/deadlock", deadlock_pair, Searches::All);
    check("spinloop", figure3, Searches::All);
    check("spinloop/no-yield", || spinloop(1, false), Searches::All);
    check(
        "philosophers",
        || philosophers(PhilosophersConfig::table2(3)),
        Searches::Cb,
    );
    check("philosophers/figure1", figure1, Searches::All);
    check("wsq", || wsq(WsqConfig::table2(2)), Searches::Cb1);
    check(
        "wsq/unsync-steal",
        || wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal)),
        Searches::Cb,
    );
    check(
        "promise",
        || promises(PromiseConfig::correct()),
        Searches::Cb,
    );
    check("promise/stale-spin", figure8, Searches::All);
    check(
        "workerpool",
        || worker_pool(PoolConfig::correct()),
        Searches::Cb,
    );
    check("workerpool/figure7", figure7, Searches::All);
    check(
        "channels/draining-shutdown",
        || fifo_pipeline(FifoConfig::with_bug(ChannelBug::DrainingShutdown)),
        Searches::Cb,
    );
    check(
        "boundedbuffer",
        || bounded_buffer(BufferConfig::correct()),
        Searches::All,
    );
    check(
        "boundedbuffer/if-bug",
        || bounded_buffer(BufferConfig::with_bug(BufferBug::IfInsteadOfWhile)),
        Searches::All,
    );
    check(
        "treiber",
        || treiber_stack(TreiberConfig::correct()),
        Searches::Cb,
    );
    check(
        "treiber/aba",
        || treiber_stack(TreiberConfig::aba()),
        Searches::All,
    );
    check(
        "rwcache",
        || rw_cache(RwCacheConfig::correct()),
        Searches::Cb,
    );
    check(
        "rwcache/upgrade-race",
        || rw_cache(RwCacheConfig::upgrade_race()),
        Searches::All,
    );
    check("bsp", || bsp(BspConfig::correct()), Searches::Cb1);
    check(
        "bsp/elided-barrier",
        || bsp(BspConfig::elided_barrier()),
        Searches::All,
    );
    check("miniboot", || miniboot(BootConfig::small()), Searches::All);
}

/// The litmus tests under TSO and PSO: flush lanes are ordinary
/// decisions below the root, so sharding composes with store buffers.
#[test]
fn merged_shards_equal_the_sequential_search_on_litmus_tests() {
    for memory in [MemoryModel::Tso, MemoryModel::Pso] {
        check("sb", || store_buffering(memory), Searches::All);
        check("dekker", || dekker(memory), Searches::All);
        check("dekker-fenced", || dekker_fenced(memory), Searches::All);
        check("mp", || message_passing(memory), Searches::All);
        check("lb", || load_buffering(memory), Searches::All);
        check("iriw", || iriw(memory), Searches::All);
    }
}

/// With `stop_on_error` off every error is counted and the search runs
/// to the end of its space; the shards' statistics, first-error index
/// included, still add up to the sequential search's.
#[test]
fn merged_shards_equal_the_sequential_search_when_running_on() {
    let run_on = Config::fair().with_stop_on_error(false);
    check_with(&run_on, "counter/racy", || racy_counter(2), Searches::All);
    check_with(&run_on, "counter/deadlock", deadlock_pair, Searches::All);
    check_with(
        &run_on,
        "spinloop/no-yield",
        || spinloop(1, false),
        Searches::All,
    );
    check_with(&run_on, "philosophers/figure1", figure1, Searches::Cb);
    check_with(&run_on, "promise/stale-spin", figure8, Searches::Cb);
    check_with(
        &run_on,
        "boundedbuffer/if-bug",
        || bounded_buffer(BufferConfig::with_bug(BufferBug::IfInsteadOfWhile)),
        Searches::All,
    );
    for memory in [MemoryModel::Tso, MemoryModel::Pso] {
        check_with(&run_on, "sb", || store_buffering(memory), Searches::All);
        check_with(&run_on, "dekker", || dekker(memory), Searches::All);
        check_with(&run_on, "mp", || message_passing(memory), Searches::All);
    }
}
