//! Exhaustive depth-first enumeration of the decision tree, optionally
//! with a backtracking *horizon* and a random tail — the configuration
//! the paper uses for its "without fairness, depth bound db" baselines
//! (Table 2: systematic search up to `db`, then random search to the end
//! of the execution) — and optionally with sleep-set partial-order
//! reduction ([`Dfs::with_sleep_sets`], see [`crate::strategy::sleep`]).

use chess_kernel::Footprint;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::parallel::ShardSpec;
use crate::strategy::sleep::{Reduction, SleepFrame};
use crate::strategy::{FrameSnapshot, SchedulePoint, Strategy, StrategySnapshot};
use crate::trace::Decision;

#[derive(Debug, Clone, Default)]
struct Frame {
    options: Vec<Decision>,
    sleep: SleepFrame,
    /// Scratch for the exploration-order permutation, kept on the frame
    /// so recycled frames reuse its buffer.
    perm: Vec<usize>,
}

impl Frame {
    /// The decision the current execution takes at this frame.
    fn current(&self) -> Decision {
        self.options[self.sleep.live[self.sleep.cursor]]
    }
}

/// Checks that every frame's index points inside its option set, so a
/// corrupted journal cannot make a restored strategy panic mid-search.
pub(crate) fn validate_frames(stack: &[FrameSnapshot]) -> Result<(), String> {
    for (depth, f) in stack.iter().enumerate() {
        if f.index >= f.options.len() {
            return Err(format!(
                "snapshot frame at depth {depth} has index {} but only {} options",
                f.index,
                f.options.len()
            ));
        }
    }
    Ok(())
}

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
#[derive(Debug, Clone)]
pub struct Dfs {
    stack: Vec<Frame>,
    horizon: Option<usize>,
    rng: SmallRng,
    exhausted: bool,
    prefer_continuation: bool,
    reduction: Reduction,
    shard: ShardSpec,
    /// Popped frames, recycled on push so the steady-state search makes
    /// no per-frame allocations (options, footprints, sleep entries and
    /// their access vectors are all reused in place).
    pool: Vec<Frame>,
}

impl Dfs {
    /// Full depth-first search (backtracks at every depth).
    pub fn new() -> Self {
        Dfs {
            stack: Vec::new(),
            horizon: None,
            rng: SmallRng::seed_from_u64(0x5EED),
            exhausted: false,
            prefer_continuation: false,
            reduction: Reduction::None,
            shard: ShardSpec::WHOLE,
            pool: Vec::new(),
        }
    }

    /// Depth-first search with sleep-set partial-order reduction: prunes
    /// branches that are provably-equivalent reorderings of independent
    /// transitions, leaving every verdict reachable while exploring fewer
    /// executions. Fairness-forced edges are exempt from pruning (see
    /// the `strategy::sleep` module).
    ///
    /// A reduced search does not support checkpointing:
    /// [`Strategy::snapshot`] returns `None`.
    pub fn with_sleep_sets() -> Self {
        Dfs {
            reduction: Reduction::SleepSets,
            ..Dfs::new()
        }
    }

    /// Explores the "continue the previously scheduled thread" decision
    /// first at every point. The search space is unchanged, but
    /// executions reach completion with fewer context switches early on,
    /// which spreads coverage faster on large spaces.
    pub fn prefer_continuation(mut self) -> Self {
        self.prefer_continuation = true;
        self
    }

    /// Depth-first search that backtracks only over the first `db`
    /// decisions; beyond the horizon, decisions are uniformly random
    /// (deterministically seeded).
    pub fn with_horizon(db: usize) -> Self {
        Dfs {
            horizon: Some(db),
            ..Dfs::new()
        }
    }

    /// Overrides the seed of the random tail.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = SmallRng::seed_from_u64(seed);
        self
    }

    /// Restricts the search to one shard: the slice `shard.range(n)` of
    /// the `n` depth-0 decisions (see [`crate::ShardRunner`]). The search
    /// visits exactly the executions the unsharded search visits under
    /// those roots, in the same order and with the same sleep sets. A
    /// sharded search does not support checkpointing.
    pub fn sharded(mut self, shard: ShardSpec) -> Self {
        self.shard = shard;
        self
    }

    /// The active partial-order reduction.
    pub fn reduction(&self) -> Reduction {
        self.reduction
    }

    /// Whether [`Strategy::snapshot`] captures this search: neither sleep
    /// state nor a shard slice is part of the snapshot schema.
    fn checkpointable(&self) -> bool {
        !self.reduction.is_on() && self.shard == ShardSpec::WHOLE
    }

    /// The deterministic exploration ordering of a point's options, with
    /// footprints permuted in lockstep (footprints are empty when the
    /// point carries none). Used only by the replay determinism check;
    /// the hot path fills a recycled frame via [`ordered_into`].
    fn ordered(&self, point: &SchedulePoint<'_>) -> (Vec<Decision>, Vec<Footprint>) {
        let mut perm = Vec::new();
        let mut options = Vec::new();
        let mut footprints = Vec::new();
        ordered_into(
            point,
            self.prefer_continuation,
            &mut perm,
            &mut options,
            &mut footprints,
        );
        (options, footprints)
    }
}

/// Fills `options`/`footprints` with the deterministic exploration
/// ordering of a point's options, reusing the buffers (and each
/// footprint slot's allocations) in place. `footprints` ends up empty
/// when the point carries none.
fn ordered_into(
    point: &SchedulePoint<'_>,
    prefer_continuation: bool,
    perm: &mut Vec<usize>,
    options: &mut Vec<Decision>,
    footprints: &mut Vec<Footprint>,
) {
    perm.clear();
    perm.extend(0..point.options.len());
    if let Some(p) = point.prev {
        if prefer_continuation {
            perm.sort_by_key(|&i| {
                let d = point.options[i];
                (d.thread != p, d.thread.index(), d.choice)
            });
        }
    }
    options.clear();
    options.extend(perm.iter().map(|&i| point.options[i]));
    let mut n = 0;
    if !point.footprints.is_empty() {
        for &i in perm.iter() {
            crate::strategy::sleep::set_footprint(footprints, &mut n, &point.footprints[i]);
        }
    }
    footprints.truncate(n);
}

impl Default for Dfs {
    fn default() -> Self {
        Dfs::new()
    }
}

impl Strategy for Dfs {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        debug_assert!(!point.options.is_empty());
        if let Some(db) = self.horizon {
            if point.depth >= db {
                let i = self.rng.gen_range(0..point.options.len());
                return Some(point.options[i]);
            }
        }
        if point.depth < self.stack.len() {
            // Replay of the committed prefix. Deterministic re-execution
            // must reproduce the very same option set.
            let f = &self.stack[point.depth];
            debug_assert_eq!(
                f.options,
                self.ordered(point).0,
                "nondeterministic replay at depth {}",
                point.depth
            );
            Some(f.current())
        } else {
            debug_assert_eq!(point.depth, self.stack.len());
            let mut frame = self.pool.pop().unwrap_or_default();
            ordered_into(
                point,
                self.prefer_continuation,
                &mut frame.perm,
                &mut frame.options,
                &mut frame.sleep.footprints,
            );
            let mut alive = if self.reduction.is_on() {
                let parent = self.stack.last();
                frame.sleep.rederive(
                    &frame.options,
                    parent.map(|f| (&f.sleep, f.options.as_slice())),
                    point,
                )
            } else {
                frame.sleep.make_inert(frame.options.len());
                true
            };
            if point.depth == 0 {
                alive &= frame
                    .sleep
                    .restrict(self.shard.range(frame.sleep.live.len()));
            }
            if !alive {
                // Every option is asleep (or outside the shard's slice) —
                // the node is covered by executions explored elsewhere.
                // Abandon without pushing a frame; on_execution_end
                // backtracks the parent.
                self.pool.push(frame);
                return None;
            }
            let first = frame.current();
            self.stack.push(frame);
            Some(first)
        }
    }

    fn on_execution_end(&mut self) -> bool {
        while let Some(last) = self.stack.last_mut() {
            last.sleep.cursor += 1;
            if last.sleep.cursor < last.sleep.live.len() {
                return true;
            }
            let frame = self.stack.pop().expect("last_mut saw a frame");
            self.pool.push(frame);
        }
        self.exhausted = true;
        false
    }

    fn name(&self) -> String {
        let base = match self.reduction {
            Reduction::None => "dfs".to_string(),
            Reduction::SleepSets => "dfs+sleep".to_string(),
        };
        match self.horizon {
            Some(db) => format!("{base}(db={db})"),
            None => base,
        }
    }

    fn wants_footprints(&self) -> bool {
        self.reduction.is_on()
    }

    /// Every frame but the deepest replays its current decision; the
    /// deepest just advanced to its next one.
    fn replay_depth(&self) -> usize {
        self.stack.len().saturating_sub(1)
    }

    /// The frame has a live option past its cursor.
    fn revisits(&self, depth: usize) -> bool {
        self.stack
            .get(depth)
            .is_some_and(|f| f.sleep.cursor + 1 < f.sleep.live.len())
    }

    fn snapshot(&self) -> Option<StrategySnapshot> {
        if !self.checkpointable() {
            return None;
        }
        Some(StrategySnapshot::Dfs {
            stack: self
                .stack
                .iter()
                .map(|f| FrameSnapshot {
                    options: f.options.clone(),
                    index: f.sleep.live[f.sleep.cursor],
                })
                .collect(),
            horizon: self.horizon,
            rng: self.rng.state(),
            prefer_continuation: self.prefer_continuation,
        })
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<(), String> {
        if !self.checkpointable() {
            return Err(
                "a reduced or sharded search cannot be resumed from a snapshot".to_string(),
            );
        }
        let StrategySnapshot::Dfs {
            stack,
            horizon,
            rng,
            prefer_continuation,
        } = snapshot
        else {
            return Err(format!(
                "cannot restore a '{}' snapshot into a dfs strategy",
                snapshot.kind()
            ));
        };
        validate_frames(stack)?;
        self.stack = stack
            .iter()
            .map(|f| {
                let mut sleep = SleepFrame::inert(f.options.len());
                sleep.cursor = f.index;
                Frame {
                    options: f.options.clone(),
                    sleep,
                    perm: Vec::new(),
                }
            })
            .collect();
        self.horizon = *horizon;
        self.rng = SmallRng::from_state(*rng);
        self.exhausted = false;
        self.prefer_continuation = *prefer_continuation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chess_kernel::{Access, AccessKind, ObjectRef, ThreadId};

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
    fn prefer_continuation_reorders_but_keeps_the_tree() {
        // Same leaves, different order: the continuation branch first.
        let mut dfs = Dfs::new().prefer_continuation();
        let opts = [d(0), d(1)];
        let mut leaves = Vec::new();
        loop {
            let a = dfs.pick(&point(0, &opts)).unwrap();
            let p1 = SchedulePoint {
                depth: 1,
                options: &opts,
                footprints: &[],
                prev: Some(a.thread),
                prev_enabled: true,
                prev_schedulable: true,
                fairness_filtered: false,
                flushes: &[],
            };
            let b = dfs.pick(&p1).unwrap();
            leaves.push((a.thread.index(), b.thread.index()));
            if !dfs.on_execution_end() {
                break;
            }
        }
        leaves.sort();
        assert_eq!(leaves, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
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
