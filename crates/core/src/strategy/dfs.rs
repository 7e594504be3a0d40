//! Exhaustive depth-first enumeration of the decision tree, optionally
//! with a backtracking *horizon* and a random tail — the configuration
//! the paper uses for its "without fairness, depth bound db" baselines
//! (Table 2: systematic search up to `db`, then random search to the end
//! of the execution) — and optionally with sleep-set partial-order
//! reduction ([`Dfs::with_sleep_sets`], see [`crate::strategy::sleep`]).

use crate::strategy::backtrack::{Backtracking, Order, Position};
use crate::strategy::sleep::Reduction;
use crate::strategy::{SchedulePoint, StrategySnapshot};
use crate::trace::Decision;

/// Depth-first search over scheduling decisions.
///
/// Without a horizon this systematically enumerates every schedule (up to
/// the explorer's depth bound). With [`Dfs::with_horizon`]`(db)` it only
/// backtracks over the first `db` decisions and completes each execution
/// with uniformly random decisions, exactly the paper's unfair baseline.
/// With [`Dfs::with_sleep_sets`] it additionally prunes
/// provably-equivalent reorderings of independent transitions (sleep-set
/// partial-order reduction keyed on dependence footprints). With
/// [`Dfs::sharded`] it enumerates only one slice of the root decisions.
pub type Dfs = Backtracking<Unbounded>;

/// The order of [`Dfs`]: every option, in the point's own
/// `(thread, choice)` order, free of charge.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unbounded;

impl Order for Unbounded {
    fn bound(&self) -> u32 {
        0
    }

    fn cost(&self, _: &SchedulePoint<'_>, _: Decision) -> u32 {
        0
    }

    fn order_into(&self, point: &SchedulePoint<'_>, _: u32, idx: &mut Vec<(u32, usize)>) {
        idx.clear();
        idx.extend((0..point.options.len()).map(|i| (0, i)));
    }

    fn label(&self) -> String {
        "dfs".to_string()
    }

    fn snapshot(&self, position: Position) -> StrategySnapshot {
        StrategySnapshot::Dfs {
            stack: position.stack,
            horizon: position.horizon,
            rng: position.rng,
        }
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<Position, String> {
        let StrategySnapshot::Dfs {
            stack,
            horizon,
            rng,
        } = snapshot
        else {
            return Err(format!(
                "cannot restore a '{}' snapshot into a dfs strategy",
                snapshot.kind()
            ));
        };
        Ok(Position {
            budget: 0,
            stack: stack.clone(),
            horizon: *horizon,
            rng: *rng,
        })
    }
}

impl Dfs {
    /// Full depth-first search (backtracks at every depth).
    pub fn new() -> Self {
        Backtracking::with_order(Unbounded, Reduction::None, None)
    }

    /// Depth-first search with sleep-set partial-order reduction: prunes
    /// branches that are provably-equivalent reorderings of independent
    /// transitions, leaving every verdict reachable while exploring fewer
    /// executions. Fairness-forced edges are exempt from pruning (see
    /// the `strategy::sleep` module).
    ///
    /// A reduced search does not support checkpointing:
    /// [`Strategy::snapshot`](crate::strategy::Strategy::snapshot)
    /// returns `None`.
    pub fn with_sleep_sets() -> Self {
        Backtracking::with_order(Unbounded, Reduction::SleepSets, None)
    }

    /// Depth-first search that backtracks only over the first `db`
    /// decisions; beyond the horizon, decisions are uniformly random
    /// (deterministically seeded).
    pub fn with_horizon(db: usize) -> Self {
        Backtracking::with_order(Unbounded, Reduction::None, Some(db))
    }
}

impl Default for Dfs {
    fn default() -> Self {
        Dfs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use chess_kernel::{Access, AccessKind, Footprint, ObjectRef, ThreadId};

    fn d(t: usize) -> Decision {
        Decision::run(ThreadId::new(t))
    }

    fn point<'a>(depth: usize, options: &'a [Decision]) -> SchedulePoint<'a> {
        SchedulePoint {
            depth,
            options,
            footprints: &[],
            prev: None,
            prev_enabled: false,
            prev_schedulable: false,
            fairness_filtered: false,
            flushes: &[],
        }
    }

    /// Enumerate all leaves of a fixed 2x2 decision tree.
    #[test]
    fn enumerates_full_tree() {
        let mut dfs = Dfs::new();
        let opts = [d(0), d(1)];
        let mut leaves = Vec::new();
        loop {
            let a = dfs.pick(&point(0, &opts)).unwrap();
            let b = dfs.pick(&point(1, &opts)).unwrap();
            leaves.push((a.thread.index(), b.thread.index()));
            if !dfs.on_execution_end() {
                break;
            }
        }
        assert_eq!(leaves, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn variable_width_tree() {
        let mut dfs = Dfs::new();
        let wide = [d(0), d(1), d(2)];
        let narrow = [d(0)];
        let mut count = 0;
        loop {
            let a = dfs.pick(&point(0, &wide)).unwrap();
            // Depth-1 options depend on the first decision in real
            // programs; emulate with a narrow set on branch 1.
            if a.thread.index() == 1 {
                dfs.pick(&point(1, &narrow)).unwrap();
            } else {
                dfs.pick(&point(1, &wide)).unwrap();
            }
            count += 1;
            if !dfs.on_execution_end() {
                break;
            }
        }
        assert_eq!(count, 3 + 1 + 3);
    }

    #[test]
    fn horizon_randomizes_tail_without_backtracking() {
        let mut dfs = Dfs::with_horizon(1).with_seed(42);
        let opts = [d(0), d(1)];
        let mut first_decisions = Vec::new();
        loop {
            let a = dfs.pick(&point(0, &opts)).unwrap();
            // Beyond the horizon: random, not recorded.
            let _ = dfs.pick(&point(1, &opts)).unwrap();
            let _ = dfs.pick(&point(2, &opts)).unwrap();
            first_decisions.push(a.thread.index());
            if !dfs.on_execution_end() {
                break;
            }
        }
        // Only the depth-0 decision is enumerated: two executions.
        assert_eq!(first_decisions, vec![0, 1]);
    }

    #[test]
    fn exhausted_after_single_option_tree() {
        let mut dfs = Dfs::new();
        let only = [d(0)];
        dfs.pick(&point(0, &only)).unwrap();
        assert!(!dfs.on_execution_end());
    }

    #[test]
    fn name_reports_horizon() {
        assert_eq!(Dfs::new().name(), "dfs");
        assert_eq!(Dfs::with_horizon(20).name(), "dfs(db=20)");
        assert_eq!(Dfs::with_sleep_sets().name(), "dfs+sleep");
    }

    fn wfp(c: u32) -> Footprint {
        Footprint::from_accesses([Access::new(ObjectRef::Custom("c", c), AccessKind::Write)])
    }

    fn fpoint<'a>(
        depth: usize,
        options: &'a [Decision],
        footprints: &'a [Footprint],
    ) -> SchedulePoint<'a> {
        SchedulePoint {
            depth,
            options,
            footprints,
            prev: None,
            prev_enabled: false,
            prev_schedulable: false,
            fairness_filtered: false,
            flushes: &[],
        }
    }

    /// Two independent threads over a 2-step tree: unreduced DFS explores
    /// both orders, sleep-set DFS prunes the second (equivalent) one.
    #[test]
    fn sleep_sets_prune_commuting_interleavings() {
        let mut dfs = Dfs::with_sleep_sets();
        assert!(dfs.wants_footprints());
        let opts = [d(0), d(1)];
        let fps = [wfp(0), wfp(1)]; // distinct objects: independent
        let mut leaves = Vec::new();
        let mut abandoned = 0;
        loop {
            let Some(a) = dfs.pick(&fpoint(0, &opts, &fps)) else {
                abandoned += 1;
                if !dfs.on_execution_end() {
                    break;
                }
                continue;
            };
            // After the first step only the other thread remains.
            let rest = [d(1 - a.thread.index())];
            let rest_fps = [wfp(1 - a.thread.index() as u32)];
            match dfs.pick(&fpoint(1, &rest, &rest_fps)) {
                Some(b) => leaves.push((a.thread.index(), b.thread.index())),
                None => abandoned += 1,
            }
            if !dfs.on_execution_end() {
                break;
            }
        }
        // (0,1) explored; (1,0) is its equivalent reordering: pruned.
        assert_eq!(leaves, vec![(0, 1)]);
        assert_eq!(abandoned, 1, "the pruned branch abandons one execution");
    }

    /// Dependent transitions (same object) must still be explored in both
    /// orders.
    #[test]
    fn sleep_sets_keep_dependent_interleavings() {
        let mut dfs = Dfs::with_sleep_sets();
        let opts = [d(0), d(1)];
        let fps = [wfp(7), wfp(7)]; // same object: dependent
        let mut leaves = Vec::new();
        loop {
            let Some(a) = dfs.pick(&fpoint(0, &opts, &fps)) else {
                panic!("dependent branches must not be pruned");
            };
            let rest = [d(1 - a.thread.index())];
            let rest_fps = [wfp(7)];
            let b = dfs.pick(&fpoint(1, &rest, &rest_fps)).unwrap();
            leaves.push((a.thread.index(), b.thread.index()));
            if !dfs.on_execution_end() {
                break;
            }
        }
        assert_eq!(leaves, vec![(0, 1), (1, 0)]);
    }

    /// At a fairness-filtered point, pruning is disabled: both orders of
    /// an independent pair stay explorable.
    #[test]
    fn fairness_filtered_points_are_exempt_from_pruning() {
        let mut dfs = Dfs::with_sleep_sets();
        let opts = [d(0), d(1)];
        let fps = [wfp(0), wfp(1)];
        let mut fair0 = fpoint(0, &opts, &fps);
        fair0.fairness_filtered = true;
        let mut leaves = Vec::new();
        loop {
            let a = dfs.pick(&fair0).expect("no pruning at fairness points");
            let rest = [d(1 - a.thread.index())];
            let rest_fps = [wfp(1 - a.thread.index() as u32)];
            let b = dfs
                .pick(&fpoint(1, &rest, &rest_fps))
                .expect("children of fairness points inherit no sleep");
            leaves.push((a.thread.index(), b.thread.index()));
            if !dfs.on_execution_end() {
                break;
            }
        }
        assert_eq!(leaves, vec![(0, 1), (1, 0)]);
    }

    /// Without footprints supplied, a reduced DFS degenerates to the full
    /// enumeration (everything treated as universal).
    #[test]
    fn missing_footprints_disable_pruning() {
        let mut dfs = Dfs::with_sleep_sets();
        let opts = [d(0), d(1)];
        let mut count = 0;
        loop {
            dfs.pick(&point(0, &opts)).unwrap();
            dfs.pick(&point(1, &opts)).unwrap();
            count += 1;
            if !dfs.on_execution_end() {
                break;
            }
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn reduced_search_is_not_checkpointable() {
        let mut dfs = Dfs::with_sleep_sets();
        assert!(dfs.snapshot().is_none());
        let plain = Dfs::new().snapshot().unwrap();
        assert!(dfs.restore(&plain).is_err());
    }
}
