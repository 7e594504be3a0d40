//! Search strategies: implementations of the `Choose` on line 11 of
//! Algorithm 1, enumerated across executions.
//!
//! A strategy is driven by the explorer at every scheduling point with a
//! [`SchedulePoint`] describing the available (already fairness-filtered)
//! decisions, and once at the end of each execution to decide whether and
//! where to backtrack.

mod backtrack;
mod cb;
mod dfs;
mod random;
mod replay;
mod sleep;

pub use backtrack::{Backtracking, Order, Position};
pub use cb::{Bounded, ContextBounded};
pub use dfs::{Dfs, Unbounded};
pub use random::RandomWalk;
pub use replay::FixedSchedule;
pub use sleep::Reduction;

use chess_kernel::{Footprint, ThreadId};

use crate::trace::Decision;

/// Everything a strategy may consult at one scheduling point.
#[derive(Debug, Clone, Copy)]
pub struct SchedulePoint<'a> {
    /// Index of this scheduling point within the current execution.
    pub depth: usize,
    /// Available decisions, in ascending `(thread, choice)` order. Never
    /// empty. When fairness is on, threads excluded by the priority
    /// relation are already filtered out.
    pub options: &'a [Decision],
    /// Dependence footprints parallel to `options`, for strategies that
    /// apply partial-order reduction. The explorer only computes them
    /// when the strategy asks ([`Strategy::wants_footprints`]); otherwise
    /// this is empty, which strategies must treat as "every option is
    /// universal" (no pruning). Yielding options are reported as
    /// [`Footprint::universal`] regardless of the system's footprint —
    /// yields mutate the fair scheduler's global priority state and must
    /// never be pruned. Every non-yield footprint additionally carries a
    /// write on its own thread's state, so decisions of one thread (e.g.
    /// the branches of a data choice) are pairwise dependent.
    pub footprints: &'a [Footprint],
    /// The previously scheduled thread, if any.
    pub prev: Option<ThreadId>,
    /// Whether the previous thread is enabled in the current state.
    pub prev_enabled: bool,
    /// Whether the previous thread appears among `options` (it may be
    /// enabled yet excluded by the fairness priority).
    pub prev_schedulable: bool,
    /// Whether the fairness priority relation excluded at least one
    /// enabled thread at this point. Sleep-set reduction neither prunes
    /// nor propagates across such points: a fairness-forced edge must
    /// stay explorable, mirroring the paper's rule that fairness-forced
    /// preemptions do not count against the context bound.
    pub fairness_filtered: bool,
    /// Flags parallel to `options`: is this option a store-buffer *flush*
    /// pseudo-transition ([`is_flush`](crate::TransitionSystem::is_flush))?
    /// Empty when no option is a
    /// flush (in particular for every SC system), which strategies must
    /// treat as all-`false`. Flush decisions are exempt from the
    /// preemption budget: draining a buffer is the memory system acting,
    /// not a preemption of program code (the relaxed-memory analog of §5's
    /// free fairness-forced switches).
    pub flushes: &'a [bool],
}

impl SchedulePoint<'_> {
    /// Is the decision at `options[i]` a store-buffer flush?
    pub fn is_flush_option(&self, d: Decision) -> bool {
        if self.flushes.is_empty() {
            return false;
        }
        self.options
            .iter()
            .position(|&o| o == d)
            .is_some_and(|i| self.flushes[i])
    }

    /// The *preemption cost* of a decision, following the paper's
    /// accounting (Section 4): switching away from an enabled,
    /// schedulable thread costs one preemption; switches forced by
    /// blocking **or by the fairness priority** are free, and so are
    /// store-buffer flush pseudo-transitions (the explorer likewise keeps
    /// `prev` pointing at the last *program* thread across flush steps,
    /// so a flush between two steps of one thread does not turn the
    /// continuation into a paid switch).
    pub fn preemption_cost(&self, d: Decision) -> u32 {
        if self.is_flush_option(d) {
            return 0;
        }
        match self.prev {
            Some(p) if d.thread != p && self.prev_enabled && self.prev_schedulable => 1,
            _ => 0,
        }
    }
}

/// One backtracking frame of a snapshotted systematic strategy: the
/// option set committed at some depth and the index currently being
/// explored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSnapshot {
    /// The decisions available at this depth, in the strategy's order.
    pub options: Vec<Decision>,
    /// Index of the decision the current execution takes at this depth.
    pub index: usize,
}

/// A serializable capture of a strategy's complete search position.
///
/// Restoring a snapshot into a freshly built strategy of the same kind
/// resumes the enumeration exactly where the capture left off: the next
/// execution a restored [`Dfs`] runs is the very execution the original
/// would have run. Snapshots contain plain data only (frames, RNG words,
/// flags), so the journal layer can round-trip them through JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategySnapshot {
    /// State of a [`Dfs`] search.
    Dfs {
        /// The backtracking stack.
        stack: Vec<FrameSnapshot>,
        /// Backtracking horizon, if the random-tail baseline is active.
        horizon: Option<usize>,
        /// xoshiro256++ words of the random-tail generator.
        rng: [u64; 4],
    },
    /// State of a [`ContextBounded`] search.
    Cb {
        /// The preemption bound.
        bound: u32,
        /// Remaining preemption budget of the in-flight execution.
        budget: u32,
        /// The backtracking stack.
        stack: Vec<FrameSnapshot>,
        /// Backtracking horizon, if the random-tail baseline is active.
        horizon: Option<usize>,
        /// xoshiro256++ words of the random-tail generator.
        rng: [u64; 4],
        /// Whether the fairness-charging ablation is active.
        charge_fairness_switches: bool,
    },
    /// State of a [`RandomWalk`] search.
    Random {
        /// The original seed (kept for reporting).
        seed: u64,
        /// xoshiro256++ words of the walk's generator.
        rng: [u64; 4],
    },
}

impl StrategySnapshot {
    /// A short name of the snapshotted strategy kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            StrategySnapshot::Dfs { .. } => "dfs",
            StrategySnapshot::Cb { .. } => "cb",
            StrategySnapshot::Random { .. } => "random",
        }
    }
}

/// A search strategy: picks decisions within an execution and enumerates
/// executions.
pub trait Strategy {
    /// Picks the decision to take at this scheduling point, or `None` to
    /// abandon the current execution (pruning).
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision>;

    /// Called when the current execution ends (termination, error, depth
    /// bound, or abandonment). Returns `true` if another execution should
    /// be explored.
    fn on_execution_end(&mut self) -> bool;

    /// A short human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// Whether the explorer should compute per-option footprints for this
    /// strategy's [`SchedulePoint`]s. The default is `false` so the
    /// common, unreduced search never pays for footprint extraction;
    /// strategies running sleep-set reduction return `true`.
    fn wants_footprints(&self) -> bool {
        false
    }

    /// Captures the strategy's search position for a checkpoint, or
    /// `None` when the strategy does not support checkpointing (the
    /// default).
    fn snapshot(&self) -> Option<StrategySnapshot> {
        None
    }

    /// Restores a position captured by [`Strategy::snapshot`] on a
    /// strategy of the same kind. Implementors must reject snapshots of
    /// a different kind; the default rejects everything.
    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<(), String> {
        Err(format!(
            "strategy '{}' does not support resuming from a '{}' snapshot",
            self.name(),
            snapshot.kind()
        ))
    }

    /// The length of the decision prefix the next execution shares with
    /// the one that just ended, asked after [`Strategy::on_execution_end`]
    /// returned `true`: the next execution takes the same decisions at
    /// depths `0..replay_depth()`, so it passes through the same states
    /// at depths `0..=replay_depth()`, and [`Strategy::pick`] at those
    /// depths changes nothing but what [`Strategy::resume_at`] restores.
    ///
    /// The explorer uses this to resume executions from a prefix snapshot
    /// instead of re-executing the prefix. The default, 0, claims no
    /// shared prefix, and the explorer then takes no snapshots.
    fn replay_depth(&self) -> usize {
        0
    }

    /// Announces that the next execution starts at `depth` (at most
    /// [`Strategy::replay_depth`]) from a snapshot: `pick` is not called
    /// at depths below it. The strategy restores whatever per-execution
    /// state the skipped picks would have rebuilt. The default does
    /// nothing.
    fn resume_at(&mut self, depth: usize) {
        let _ = depth;
    }

    /// Whether the frame at `depth` of the current execution still has
    /// an untried alternative, so a later execution will backtrack to it
    /// and resume there. The explorer takes its prefix snapshots at
    /// such *open frames*. The default, `false`, makes none open, and
    /// the explorer then takes no snapshots.
    fn revisits(&self, depth: usize) -> bool {
        let _ = depth;
        false
    }
}

impl Strategy for Box<dyn Strategy> {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        (**self).pick(point)
    }

    fn on_execution_end(&mut self) -> bool {
        (**self).on_execution_end()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn wants_footprints(&self) -> bool {
        (**self).wants_footprints()
    }

    fn snapshot(&self) -> Option<StrategySnapshot> {
        (**self).snapshot()
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<(), String> {
        (**self).restore(snapshot)
    }

    fn replay_depth(&self) -> usize {
        (**self).replay_depth()
    }

    fn resume_at(&mut self, depth: usize) {
        (**self).resume_at(depth)
    }

    fn revisits(&self, depth: usize) -> bool {
        (**self).revisits(depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(t: usize) -> Decision {
        Decision::run(ThreadId::new(t))
    }

    #[test]
    fn preemption_cost_accounting() {
        let options = [d(0), d(1)];
        // First point: every decision free.
        let p0 = SchedulePoint {
            depth: 0,
            options: &options,
            footprints: &[],
            prev: None,
            prev_enabled: false,
            prev_schedulable: false,
            fairness_filtered: false,
            flushes: &[],
        };
        assert_eq!(p0.preemption_cost(d(1)), 0);

        // Continuing the previous thread is free; switching costs 1.
        let p1 = SchedulePoint {
            depth: 1,
            options: &options,
            footprints: &[],
            prev: Some(ThreadId::new(0)),
            prev_enabled: true,
            prev_schedulable: true,
            fairness_filtered: false,
            flushes: &[],
        };
        assert_eq!(p1.preemption_cost(d(0)), 0);
        assert_eq!(p1.preemption_cost(d(1)), 1);

        // A flush pseudo-transition is free even where an ordinary switch
        // away from an enabled previous thread would cost 1.
        let p4 = SchedulePoint {
            flushes: &[false, true],
            ..p1
        };
        assert!(p4.is_flush_option(d(1)) && !p4.is_flush_option(d(0)));
        assert_eq!(p4.preemption_cost(d(1)), 0);
        assert_eq!(p4.preemption_cost(d(0)), 0);

        // Previous thread blocked: the switch is free.
        let p2 = SchedulePoint {
            prev_enabled: false,
            prev_schedulable: false,
            ..p1
        };
        assert_eq!(p2.preemption_cost(d(1)), 0);

        // Previous thread enabled but excluded by the fairness priority:
        // the switch is forced by fairness and must not be counted
        // (Section 4's soundness remark).
        let p3 = SchedulePoint {
            prev_enabled: true,
            prev_schedulable: false,
            ..p1
        };
        assert_eq!(p3.preemption_cost(d(1)), 0);
    }
}
