//! Context-bounded (preemption-bounded) search [Musuvathi & Qadeer,
//! PLDI 2007], integrated with fairness per Section 4 of the paper: a
//! context switch forced by the fairness priority (the running thread is
//! enabled but not schedulable) does **not** count against the preemption
//! budget. Optionally applies sleep-set partial-order reduction on top of
//! the budget filter ([`ContextBounded::with_sleep_sets`], see
//! [`crate::strategy::sleep`]).

use chess_kernel::Footprint;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::parallel::ShardSpec;
use crate::strategy::dfs::validate_frames;
use crate::strategy::sleep::{set_footprint, Reduction, SleepFrame};
use crate::strategy::{FrameSnapshot, SchedulePoint, Strategy, StrategySnapshot};
use crate::trace::Decision;

#[derive(Debug, Clone, Default)]
struct Frame {
    options: Vec<Decision>,
    sleep: SleepFrame,
}

impl Frame {
    fn current(&self) -> Decision {
        self.options[self.sleep.live[self.sleep.cursor]]
    }
}

/// Reusable buffers for the budget filter, which runs at **every**
/// decision point (including replay of the committed prefix), so a
/// fresh allocation here is the strategy's hottest allocation site.
#[derive(Debug, Clone, Default)]
struct EligScratch {
    /// `(cost, index)` pairs surviving the budget filter, sort order.
    idx: Vec<(u32, usize)>,
    /// The eligible decisions, zero-cost first.
    decisions: Vec<Decision>,
    /// Footprints parallel to `decisions` (empty when the point carries
    /// none).
    footprints: Vec<Footprint>,
}

/// Systematic search over all schedules with at most `bound` preemptions.
///
/// Decisions that would exceed the remaining preemption budget are pruned;
/// at every point the zero-cost continuation (keep running the current
/// thread) is explored first. Like [`crate::strategy::Dfs`], an optional
/// horizon switches to random decisions beyond depth `db` — still
/// respecting the preemption budget — which is the paper's unfair
/// baseline configuration for Table 2. [`ContextBounded::sharded`]
/// restricts the search to one slice of the root decisions.
#[derive(Debug, Clone)]
pub struct ContextBounded {
    bound: u32,
    budget: u32,
    stack: Vec<Frame>,
    horizon: Option<usize>,
    rng: SmallRng,
    charge_fairness_switches: bool,
    reduction: Reduction,
    shard: ShardSpec,
    /// Popped frames, recycled on push (see [`crate::strategy::Dfs`]).
    pool: Vec<Frame>,
    /// Buffers for the per-pick budget filter.
    scratch: EligScratch,
}

impl ContextBounded {
    /// Search with at most `bound` preemptions per execution.
    pub fn new(bound: u32) -> Self {
        ContextBounded {
            bound,
            budget: bound,
            stack: Vec::new(),
            horizon: None,
            rng: SmallRng::seed_from_u64(0x5EED),
            charge_fairness_switches: false,
            reduction: Reduction::None,
            shard: ShardSpec::WHOLE,
            pool: Vec::new(),
            scratch: EligScratch::default(),
        }
    }

    /// Context-bounded search with sleep-set partial-order reduction
    /// applied on top of the budget filter. Fairness-forced edges are
    /// exempt from pruning, exactly as they are exempt from the
    /// preemption accounting. A reduced search does not support
    /// checkpointing.
    pub fn with_sleep_sets(bound: u32) -> Self {
        ContextBounded {
            reduction: Reduction::SleepSets,
            ..ContextBounded::new(bound)
        }
    }

    /// Ablation: charge context switches forced by the fairness priority
    /// against the preemption budget, *violating* the paper's Section 4
    /// soundness rule. With the budget exhausted and the running thread
    /// demoted by fairness, no decision is affordable and the execution
    /// is abandoned — measurably losing termination and coverage. Exists
    /// to demonstrate why the exemption matters; never use it for real
    /// checking.
    pub fn charging_fairness_switches(mut self) -> Self {
        self.charge_fairness_switches = true;
        self
    }

    /// Backtrack only over the first `db` decisions; beyond that, pick
    /// randomly among the budget-eligible decisions.
    pub fn with_horizon(bound: u32, db: usize) -> Self {
        ContextBounded {
            horizon: Some(db),
            ..ContextBounded::new(bound)
        }
    }

    /// Overrides the seed of the random tail.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = SmallRng::seed_from_u64(seed);
        self
    }

    /// Restricts the search to one shard of the depth-0 decisions, as
    /// [`crate::strategy::Dfs::sharded`] does. A sharded search does not
    /// support checkpointing.
    pub fn sharded(mut self, shard: ShardSpec) -> Self {
        self.shard = shard;
        self
    }

    /// The preemption bound.
    pub fn bound(&self) -> u32 {
        self.bound
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

    /// The preemption cost of a decision under this strategy's accounting.
    fn cost(&self, point: &SchedulePoint<'_>, d: Decision) -> u32 {
        if self.charge_fairness_switches {
            // Ablation accounting: any switch away from an enabled thread
            // costs, even when fairness forced it.
            match point.prev {
                Some(p) if d.thread != p && point.prev_enabled => 1,
                _ => 0,
            }
        } else {
            point.preemption_cost(d)
        }
    }

    /// Fills `scratch` with the budget-eligible decisions, zero-cost
    /// first, footprints permuted in lockstep (empty when the point
    /// carries none), reusing every buffer in place. The result may be
    /// empty only in the charging ablation.
    fn eligible_into(&self, point: &SchedulePoint<'_>, scratch: &mut EligScratch) {
        scratch.idx.clear();
        scratch.idx.extend(
            point
                .options
                .iter()
                .enumerate()
                .map(|(i, &d)| (self.cost(point, d), i))
                .filter(|&(c, _)| c <= self.budget),
        );
        scratch.idx.sort_by_key(|&(c, i)| {
            let d = point.options[i];
            (c, d.thread.index(), d.choice)
        });
        scratch.decisions.clear();
        scratch
            .decisions
            .extend(scratch.idx.iter().map(|&(_, i)| point.options[i]));
        let mut n = 0;
        if !point.footprints.is_empty() {
            for &(_, i) in &scratch.idx {
                set_footprint(&mut scratch.footprints, &mut n, &point.footprints[i]);
            }
        }
        scratch.footprints.truncate(n);
    }
}

impl Strategy for ContextBounded {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        if point.depth == 0 {
            self.budget = self.bound;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        self.eligible_into(point, &mut scratch);
        debug_assert!(
            !scratch.decisions.is_empty() || self.charge_fairness_switches,
            "a zero-cost decision always exists at {point:?}"
        );
        let selected = if scratch.decisions.is_empty() {
            // Only reachable in the charging ablation: the execution is
            // unaffordable and must be abandoned.
            None
        } else if self.horizon.is_some_and(|db| point.depth >= db) {
            Some(scratch.decisions[self.rng.gen_range(0..scratch.decisions.len())])
        } else if point.depth < self.stack.len() {
            let f = &mut self.stack[point.depth];
            debug_assert_eq!(
                f.options, scratch.decisions,
                "nondeterministic replay at depth {}",
                point.depth
            );
            // Frames restored from a checkpoint carry no budget; the
            // replay that reaches them records it.
            f.sleep.budget = self.budget;
            Some(f.current())
        } else {
            debug_assert_eq!(point.depth, self.stack.len());
            // Recycle a popped frame and steal the scratch buffers
            // outright — the frame's previous buffers flow back into the
            // scratch for the next fill.
            let mut frame = self.pool.pop().unwrap_or_default();
            std::mem::swap(&mut frame.options, &mut scratch.decisions);
            std::mem::swap(&mut frame.sleep.footprints, &mut scratch.footprints);
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
            if alive {
                let first = frame.current();
                frame.sleep.budget = self.budget;
                self.stack.push(frame);
                Some(first)
            } else {
                // Every affordable option is asleep (or outside the
                // shard's slice) — covered by executions explored
                // elsewhere. Abandon without pushing a frame.
                self.pool.push(frame);
                None
            }
        };
        self.scratch = scratch;
        let selected = selected?;
        self.budget -= self.cost(point, selected);
        Some(selected)
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
        let base = match self.reduction {
            Reduction::None => format!("cb={}", self.bound),
            Reduction::SleepSets => format!("cb={}+sleep", self.bound),
        };
        match self.horizon {
            Some(db) => format!("{base}(db={db})"),
            None => base,
        }
    }

    fn wants_footprints(&self) -> bool {
        self.reduction.is_on()
    }

    /// As for [`crate::strategy::Dfs`]: every frame but the deepest
    /// replays its current decision.
    fn replay_depth(&self) -> usize {
        self.stack.len().saturating_sub(1)
    }

    fn resume_at(&mut self, depth: usize) {
        if let Some(f) = self.stack.get(depth) {
            self.budget = f.sleep.budget;
        }
    }

    /// As for [`crate::strategy::Dfs`]: the frame has a live option past
    /// its cursor.
    fn revisits(&self, depth: usize) -> bool {
        self.stack
            .get(depth)
            .is_some_and(|f| f.sleep.cursor + 1 < f.sleep.live.len())
    }

    fn snapshot(&self) -> Option<StrategySnapshot> {
        if !self.checkpointable() {
            return None;
        }
        Some(StrategySnapshot::Cb {
            bound: self.bound,
            budget: self.budget,
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
            charge_fairness_switches: self.charge_fairness_switches,
        })
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<(), String> {
        if !self.checkpointable() {
            return Err(
                "a reduced or sharded search cannot be resumed from a snapshot".to_string(),
            );
        }
        let StrategySnapshot::Cb {
            bound,
            budget,
            stack,
            horizon,
            rng,
            charge_fairness_switches,
        } = snapshot
        else {
            return Err(format!(
                "cannot restore a '{}' snapshot into a context-bounded strategy",
                snapshot.kind()
            ));
        };
        validate_frames(stack)?;
        self.bound = *bound;
        self.budget = *budget;
        self.stack = stack
            .iter()
            .map(|f| {
                let mut sleep = SleepFrame::inert(f.options.len());
                sleep.cursor = f.index;
                Frame {
                    options: f.options.clone(),
                    sleep,
                }
            })
            .collect();
        self.horizon = *horizon;
        self.rng = SmallRng::from_state(*rng);
        self.charge_fairness_switches = *charge_fairness_switches;
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

    fn p<'a>(depth: usize, options: &'a [Decision]) -> SchedulePoint<'a> {
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

    /// A fixed 2-thread straight-line world: both threads always enabled
    /// and schedulable, `steps` scheduling points per execution. Returns
    /// all explored schedules as thread-index sequences.
    fn enumerate(bound: u32, steps: usize) -> Vec<Vec<usize>> {
        let mut cb = ContextBounded::new(bound);
        let opts = [d(0), d(1)];
        let mut schedules = Vec::new();
        loop {
            let mut sched = Vec::new();
            let mut prev = None;
            for depth in 0..steps {
                let point = SchedulePoint {
                    depth,
                    options: &opts,
                    footprints: &[],
                    prev,
                    prev_enabled: prev.is_some(),
                    prev_schedulable: prev.is_some(),
                    fairness_filtered: false,
                    flushes: &[],
                };
                let pick = cb.pick(&point).unwrap();
                sched.push(pick.thread.index());
                prev = Some(pick.thread);
            }
            schedules.push(sched);
            if !cb.on_execution_end() {
                break;
            }
        }
        schedules
    }

    fn preemptions(s: &[usize]) -> usize {
        s.windows(2).filter(|w| w[0] != w[1]).count()
    }

    #[test]
    fn zero_bound_explores_nonpreemptive_schedules_only() {
        let schedules = enumerate(0, 3);
        for s in &schedules {
            assert_eq!(preemptions(s), 0, "schedule {s:?} has a preemption");
        }
        // Two first-decisions, then forced continuation.
        assert_eq!(schedules.len(), 2);
    }

    #[test]
    fn bound_one_allows_single_preemption() {
        let schedules = enumerate(1, 3);
        assert!(schedules.iter().all(|s| preemptions(s) <= 1));
        // All ≤1-preemption schedules of length 3 over 2 threads:
        // 2 starts × (no preemption + preemption after step 1 or 2) = 6.
        assert_eq!(schedules.len(), 6);
        assert!(schedules.contains(&vec![0, 0, 1]));
        assert!(schedules.contains(&vec![1, 0, 0]));
        assert!(!schedules.contains(&vec![0, 1, 0]));
    }

    #[test]
    fn larger_bound_supersets_smaller() {
        let s1: std::collections::HashSet<_> = enumerate(1, 4).into_iter().collect();
        let s2: std::collections::HashSet<_> = enumerate(2, 4).into_iter().collect();
        assert!(s1.is_subset(&s2));
        assert!(s2.len() > s1.len());
        assert!(s2.iter().all(|s| preemptions(s) <= 2));
    }

    #[test]
    fn fairness_forced_switches_are_free() {
        // prev enabled but NOT schedulable (fairness priority): the
        // switch costs nothing, so even with bound 0 both targets are
        // explorable.
        let mut cb = ContextBounded::new(0);
        let opts = [d(1), d(2)];
        let point = SchedulePoint {
            depth: 1,
            options: &opts,
            footprints: &[],
            prev: Some(ThreadId::new(0)),
            prev_enabled: true,
            prev_schedulable: false,
            fairness_filtered: true,
            flushes: &[],
        };
        // Reset budget by picking at depth 0 first.
        let opts0 = [d(0)];
        cb.pick(&p(0, &opts0)).unwrap();
        let mut scratch = EligScratch::default();
        cb.eligible_into(&point, &mut scratch);
        assert_eq!(scratch.decisions.len(), 2);
    }

    /// The charging ablation abandons when the only affordable move is
    /// blocked by fairness.
    #[test]
    fn charging_ablation_can_abandon() {
        let mut cb = ContextBounded::new(0).charging_fairness_switches();
        let opts0 = [d(0)];
        cb.pick(&p(0, &opts0)).unwrap();
        // prev (t0) is enabled but NOT schedulable (fairness demoted it);
        // switching to t1 would cost 1 > budget 0.
        let opts = [d(1)];
        let point = SchedulePoint {
            depth: 1,
            options: &opts,
            footprints: &[],
            prev: Some(ThreadId::new(0)),
            prev_enabled: true,
            prev_schedulable: false,
            fairness_filtered: true,
            flushes: &[],
        };
        assert_eq!(cb.pick(&point), None, "must abandon, not crash");
        // The paper's accounting keeps the same point affordable.
        let mut cb = ContextBounded::new(0);
        cb.pick(&p(0, &opts0)).unwrap();
        assert_eq!(cb.pick(&point), Some(d(1)));
    }

    #[test]
    fn name_includes_bound() {
        assert_eq!(ContextBounded::new(2).name(), "cb=2");
        assert_eq!(ContextBounded::with_horizon(2, 30).name(), "cb=2(db=30)");
        assert_eq!(ContextBounded::with_sleep_sets(2).name(), "cb=2+sleep");
    }

    fn wfp(c: u32) -> Footprint {
        Footprint::from_accesses([Access::new(ObjectRef::Custom("c", c), AccessKind::Write)])
    }

    /// With a generous bound, sleep sets prune the redundant order of an
    /// independent pair while both orders of a dependent pair survive.
    #[test]
    fn sleep_sets_prune_on_top_of_the_budget() {
        let run = |independent: bool| -> Vec<(usize, usize)> {
            let mut cb = ContextBounded::with_sleep_sets(4);
            let opts = [d(0), d(1)];
            let fps = if independent {
                [wfp(0), wfp(1)]
            } else {
                [wfp(7), wfp(7)]
            };
            let mut leaves = Vec::new();
            loop {
                let point0 = SchedulePoint {
                    depth: 0,
                    options: &opts,
                    footprints: &fps,
                    prev: None,
                    prev_enabled: false,
                    prev_schedulable: false,
                    fairness_filtered: false,
                    flushes: &[],
                };
                let Some(a) = cb.pick(&point0) else {
                    if !cb.on_execution_end() {
                        break;
                    }
                    continue;
                };
                let rest = [d(1 - a.thread.index())];
                let rest_fps = if independent {
                    [wfp(1 - a.thread.index() as u32)]
                } else {
                    [wfp(7)]
                };
                let point1 = SchedulePoint {
                    depth: 1,
                    options: &rest,
                    footprints: &rest_fps,
                    prev: Some(a.thread),
                    prev_enabled: false,
                    prev_schedulable: false,
                    fairness_filtered: false,
                    flushes: &[],
                };
                if let Some(b) = cb.pick(&point1) {
                    leaves.push((a.thread.index(), b.thread.index()));
                }
                if !cb.on_execution_end() {
                    break;
                }
            }
            leaves
        };
        assert_eq!(run(true), vec![(0, 1)], "independent pair: one order");
        assert_eq!(
            run(false),
            vec![(0, 1), (1, 0)],
            "dependent pair: both orders"
        );
    }
}
