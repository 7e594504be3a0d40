//! The shard runner must preserve sequential semantics: one shard is
//! *identical* to the sequential explorer, sharded DFS covers the tree
//! exactly once, and every error found by a shard replays
//! deterministically through the sequential explorer.

use std::time::Duration;

use chess_core::strategy::{Dfs, FixedSchedule, RandomWalk};
use chess_core::{Config, Explorer, Reduction, Search, SearchOutcome, SearchReport, ShardRunner};
use chess_kernel::{Effects, GuestThread, Kernel, OpDesc, OpResult, StateWriter};
use chess_workloads::simple::racy_counter;

const DFS: Search = Search::Dfs(Reduction::None);

fn zero_wall(mut r: SearchReport) -> SearchReport {
    r.stats.wall = Duration::ZERO;
    r
}

/// A guest taking a fixed number of local steps — acyclic, so DFS
/// execution counts are exact interleaving counts.
#[derive(Clone)]
struct Steps(u8);

impl GuestThread<()> for Steps {
    fn next_op(&self, _: &()) -> OpDesc {
        if self.0 == 0 {
            OpDesc::Finished
        } else {
            OpDesc::Local
        }
    }
    fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {
        self.0 -= 1;
    }
    fn capture(&self, w: &mut StateWriter) {
        w.write_u8(self.0);
    }
    fn box_clone(&self) -> Box<dyn GuestThread<()>> {
        Box::new(self.clone())
    }
}

/// Two threads of 2 and 1 steps: C(3,1) = 3 interleavings, 9 transitions.
fn two_step() -> Kernel<()> {
    let mut k = Kernel::new(());
    k.spawn(Steps(2));
    k.spawn(Steps(1));
    k
}

/// One worker is the sequential search: same seed, same outcome, same
/// statistics (modulo wall-clock).
#[test]
fn jobs_one_random_is_identical_to_sequential() {
    let config = Config::fair().with_max_executions(64);
    let sequential = Explorer::new(|| racy_counter(2), RandomWalk::new(9), config.clone()).run();
    let parallel = ShardRunner::new(|| racy_counter(2), config, Search::Random(9)).run_shards(1);
    assert_eq!(zero_wall(parallel), zero_wall(sequential));
}

#[test]
fn jobs_one_dfs_is_identical_to_sequential() {
    let sequential = Explorer::new(two_step, Dfs::new(), Config::fair()).run();
    let parallel = ShardRunner::new(two_step, Config::fair(), DFS).run_shards(1);
    assert_eq!(zero_wall(parallel), zero_wall(sequential));
}

/// A planted assertion failure found under four workers yields a
/// schedule that replays to the same violation sequentially.
#[test]
fn planted_failure_under_four_workers_replays_sequentially() {
    let report =
        ShardRunner::new(|| racy_counter(2), Config::fair(), Search::Random(1)).run_shards(4);
    let SearchOutcome::SafetyViolation(cex) = &report.outcome else {
        panic!("expected the lost update, got {:?}", report.outcome);
    };
    let replay = Explorer::new(
        || racy_counter(2),
        FixedSchedule::new(cex.schedule.clone()),
        Config::fair(),
    )
    .run();
    let SearchOutcome::SafetyViolation(replayed) = replay.outcome else {
        panic!(
            "schedule did not replay to a violation: {:?}",
            replay.outcome
        );
    };
    assert_eq!(replayed.message, cex.message);
    assert_eq!(replayed.schedule, cex.schedule);
}

/// Sharded DFS over an acyclic program is the sequential search — a
/// partition of the tree, no duplicates, no gaps.
#[test]
fn parallel_dfs_matches_sequential_execution_count() {
    let sequential = Explorer::new(two_step, Dfs::new(), Config::fair()).run();
    assert_eq!(sequential.stats.executions, 3);
    for jobs in [2, 3, 8] {
        let parallel = ShardRunner::new(two_step, Config::fair(), DFS).run_shards(jobs);
        assert_eq!(
            zero_wall(parallel),
            zero_wall(sequential.clone()),
            "jobs={jobs}"
        );
    }
}
