//! The backtracking engine behind [`crate::strategy::Dfs`] and
//! [`crate::strategy::ContextBounded`].
//!
//! Both searches walk the decision tree depth-first with one frame per
//! scheduling point, prune it with sleep sets, slice its root for
//! shards, finish executions past a horizon with random decisions, and
//! answer the explorer's checkpoint and prefix-snapshot hooks. They
//! differ in one rule only (the paper's §4): context bounding keeps the
//! options the remaining preemption budget affords, explores the cheap
//! ones first and charges what it takes. That rule is an [`Order`]; the
//! engine is generic over it.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::parallel::ShardSpec;
use crate::strategy::sleep::{set_footprint, Reduction, SleepFrame};
use crate::strategy::{FrameSnapshot, SchedulePoint, Strategy, StrategySnapshot};
use crate::trace::Decision;

/// How a backtracking search orders the options at a point and what
/// taking one costs: the only thing in which `dfs` and `cb` differ.
pub trait Order: Clone + fmt::Debug {
    /// The preemption budget each execution starts with.
    fn bound(&self) -> u32;

    /// What taking `d` at `point` costs against the budget.
    fn cost(&self, point: &SchedulePoint<'_>, d: Decision) -> u32;

    /// Fills `idx` with `(cost, i)` for each option `point.options[i]`
    /// affordable with `budget`, in exploration order. May leave `idx`
    /// empty only when some option's cost exceeds the budget.
    fn order_into(&self, point: &SchedulePoint<'_>, budget: u32, idx: &mut Vec<(u32, usize)>);

    /// The search's name, before the reduction and horizon suffixes.
    fn label(&self) -> String;

    /// This search's snapshot of the engine's `position`.
    fn snapshot(&self, position: Position) -> StrategySnapshot;

    /// Adopts this search's own fields from a snapshot of its kind and
    /// returns the engine's position in it.
    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<Position, String>;
}

/// The engine's part of a [`StrategySnapshot`], common to both kinds.
#[derive(Debug)]
pub struct Position {
    /// Remaining preemption budget of the in-flight execution.
    pub(crate) budget: u32,
    /// The backtracking stack.
    pub(crate) stack: Vec<FrameSnapshot>,
    /// Backtracking horizon, if the random tail is active.
    pub(crate) horizon: Option<usize>,
    /// xoshiro256++ words of the random-tail generator.
    pub(crate) rng: [u64; 4],
}

#[derive(Debug, Clone, Default)]
struct Frame {
    /// The decisions of this point, in exploration order.
    options: Vec<Decision>,
    sleep: SleepFrame,
    /// The preemption budget on arrival at this point, which
    /// [`Strategy::resume_at`] restores.
    budget: u32,
}

/// Depth-first backtracking search over scheduling decisions, ordered
/// by `O`.
#[derive(Debug, Clone)]
pub struct Backtracking<O> {
    pub(super) order: O,
    /// Remaining preemption budget of the current execution.
    budget: u32,
    stack: Vec<Frame>,
    /// Popped frames, recycled on push so the steady-state search makes
    /// no per-frame allocations (options, footprints, sleep entries and
    /// their access vectors are all reused in place).
    pool: Vec<Frame>,
    /// Scratch for the `(cost, index)` order of a point's options.
    idx: Vec<(u32, usize)>,
    horizon: Option<usize>,
    rng: SmallRng,
    reduction: Reduction,
    shard: ShardSpec,
}

impl<O: Order> Backtracking<O> {
    /// A whole, unseeded search ordered by `order`, pruned by
    /// `reduction`, backtracking over the first `horizon` decisions
    /// (all of them when `None`).
    pub(super) fn with_order(order: O, reduction: Reduction, horizon: Option<usize>) -> Self {
        Backtracking {
            budget: order.bound(),
            order,
            stack: Vec::new(),
            pool: Vec::new(),
            idx: Vec::new(),
            horizon,
            rng: SmallRng::seed_from_u64(0x5EED),
            reduction,
            shard: ShardSpec::WHOLE,
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

    /// Opens a frame for the new point at the bottom of the stack and
    /// takes its first live option, or abandons the execution when no
    /// option is affordable, awake and inside the shard's slice.
    fn branch(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        debug_assert_eq!(point.depth, self.stack.len());
        self.order.order_into(point, self.budget, &mut self.idx);
        let mut frame = self.pool.pop().unwrap_or_default();
        frame.options.clear();
        frame
            .options
            .extend(self.idx.iter().map(|&(_, i)| point.options[i]));
        let mut n = 0;
        if !point.footprints.is_empty() {
            for &(_, i) in &self.idx {
                set_footprint(&mut frame.sleep.footprints, &mut n, &point.footprints[i]);
            }
        }
        frame.sleep.footprints.truncate(n);
        let mut alive = match self.reduction {
            Reduction::None => {
                frame.sleep.make_inert(frame.options.len());
                !frame.options.is_empty()
            }
            Reduction::SleepSets => {
                let parent = self.stack.last();
                frame.sleep.rederive(
                    &frame.options,
                    parent.map(|f| (&f.sleep, f.options.as_slice())),
                    point,
                )
            }
        };
        if point.depth == 0 {
            alive &= frame
                .sleep
                .restrict(self.shard.range(frame.sleep.live.len()));
        }
        if !alive {
            // Nothing affordable (only in the charging ablation), or every
            // option asleep or outside the shard's slice: the node is
            // covered by executions explored elsewhere. Abandon without
            // pushing a frame; on_execution_end backtracks the parent.
            self.pool.push(frame);
            return None;
        }
        let taken = frame.sleep.live[frame.sleep.cursor];
        frame.budget = self.budget;
        self.budget -= self.idx[taken].0;
        let first = frame.options[taken];
        self.stack.push(frame);
        Some(first)
    }
}

impl<O: Order> Strategy for Backtracking<O> {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        debug_assert!(!point.options.is_empty());
        if point.depth == 0 {
            self.budget = self.order.bound();
        }
        if self.horizon.is_some_and(|db| point.depth >= db) {
            // Beyond the horizon: an affordable option at random,
            // recorded nowhere.
            self.order.order_into(point, self.budget, &mut self.idx);
            if self.idx.is_empty() {
                return None;
            }
            let (cost, i) = self.idx[self.rng.gen_range(0..self.idx.len())];
            self.budget -= cost;
            return Some(point.options[i]);
        }
        let Some(f) = self.stack.get_mut(point.depth) else {
            return self.branch(point);
        };
        // Replay of the committed prefix. Frames restored from a
        // checkpoint carry no budget; the replay that reaches them
        // records it.
        f.budget = self.budget;
        let d = f.options[f.sleep.live[f.sleep.cursor]];
        #[cfg(debug_assertions)]
        {
            // Deterministic re-execution must reproduce the very same
            // option set.
            let mut idx = Vec::new();
            self.order.order_into(point, self.budget, &mut idx);
            debug_assert!(
                self.stack[point.depth]
                    .options
                    .iter()
                    .eq(idx.iter().map(|&(_, i)| &point.options[i])),
                "nondeterministic replay at depth {}",
                point.depth
            );
        }
        self.budget -= self.order.cost(point, d);
        Some(d)
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
        false
    }

    fn name(&self) -> String {
        let mut name = self.order.label();
        if self.reduction.is_on() {
            name.push_str("+sleep");
        }
        if let Some(db) = self.horizon {
            name.push_str(&format!("(db={db})"));
        }
        name
    }

    fn wants_footprints(&self) -> bool {
        self.reduction.is_on()
    }

    /// Every frame but the deepest replays its current decision; the
    /// deepest just advanced to its next one.
    fn replay_depth(&self) -> usize {
        self.stack.len().saturating_sub(1)
    }

    fn resume_at(&mut self, depth: usize) {
        if let Some(f) = self.stack.get(depth) {
            self.budget = f.budget;
        }
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
        let stack = self
            .stack
            .iter()
            .map(|f| FrameSnapshot {
                options: f.options.clone(),
                index: f.sleep.live[f.sleep.cursor],
            })
            .collect();
        Some(self.order.snapshot(Position {
            budget: self.budget,
            stack,
            horizon: self.horizon,
            rng: self.rng.state(),
        }))
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<(), String> {
        if !self.checkpointable() {
            return Err(
                "a reduced or sharded search cannot be resumed from a snapshot".to_string(),
            );
        }
        let mut order = self.order.clone();
        let position = order.restore(snapshot)?;
        let stack = (position.stack.into_iter().enumerate())
            .map(|(depth, f)| {
                // A corrupted journal must not make the search panic later.
                if f.index >= f.options.len() {
                    return Err(format!(
                        "snapshot frame at depth {depth} has index {} but only {} options",
                        f.index,
                        f.options.len()
                    ));
                }
                let mut frame = Frame {
                    options: f.options,
                    ..Frame::default()
                };
                frame.sleep.make_inert(frame.options.len());
                frame.sleep.cursor = f.index;
                Ok(frame)
            })
            .collect::<Result<_, String>>()?;
        self.order = order;
        self.budget = position.budget;
        self.stack = stack;
        self.horizon = position.horizon;
        self.rng = SmallRng::from_state(position.rng);
        Ok(())
    }
}
