//! Context-bounded (preemption-bounded) search [Musuvathi & Qadeer,
//! PLDI 2007], integrated with fairness per Section 4 of the paper: a
//! context switch forced by the fairness priority (the running thread is
//! enabled but not schedulable) does **not** count against the preemption
//! budget. Optionally applies sleep-set partial-order reduction on top of
//! the budget filter ([`ContextBounded::with_sleep_sets`], see
//! [`crate::strategy::sleep`]).

use crate::strategy::backtrack::{Backtracking, Order, Position};
use crate::strategy::sleep::Reduction;
use crate::strategy::{SchedulePoint, StrategySnapshot};
use crate::trace::Decision;

/// Systematic search over all schedules with at most `bound` preemptions.
///
/// Decisions that would exceed the remaining preemption budget are pruned;
/// at every point the zero-cost continuation (keep running the current
/// thread) is explored first. Like [`crate::strategy::Dfs`], an optional
/// horizon switches to random decisions beyond depth `db` — still
/// respecting the preemption budget — which is the paper's unfair
/// baseline configuration for Table 2. [`ContextBounded::sharded`]
/// restricts the search to one slice of the root decisions.
pub type ContextBounded = Backtracking<Bounded>;

/// The order of [`ContextBounded`]: the options the remaining budget
/// affords, cheapest first, then by `(thread, choice)`; taking one
/// charges its preemption cost.
#[derive(Debug, Clone, Copy)]
pub struct Bounded {
    bound: u32,
    charge_fairness_switches: bool,
}

impl Order for Bounded {
    fn bound(&self) -> u32 {
        self.bound
    }

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

    /// A zero-cost option always exists under the paper's accounting, so
    /// `idx` ends up empty only in the charging ablation.
    fn order_into(&self, point: &SchedulePoint<'_>, budget: u32, idx: &mut Vec<(u32, usize)>) {
        idx.clear();
        idx.extend(
            point
                .options
                .iter()
                .enumerate()
                .map(|(i, &d)| (self.cost(point, d), i))
                .filter(|&(c, _)| c <= budget),
        );
        idx.sort_by_key(|&(c, i)| {
            let d = point.options[i];
            (c, d.thread.index(), d.choice)
        });
        debug_assert!(
            !idx.is_empty() || self.charge_fairness_switches,
            "a zero-cost decision always exists at {point:?}"
        );
    }

    fn label(&self) -> String {
        format!("cb={}", self.bound)
    }

    fn snapshot(&self, position: Position) -> StrategySnapshot {
        StrategySnapshot::Cb {
            bound: self.bound,
            budget: position.budget,
            stack: position.stack,
            horizon: position.horizon,
            rng: position.rng,
            charge_fairness_switches: self.charge_fairness_switches,
        }
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<Position, String> {
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
        self.bound = *bound;
        self.charge_fairness_switches = *charge_fairness_switches;
        Ok(Position {
            budget: *budget,
            stack: stack.clone(),
            horizon: *horizon,
            rng: *rng,
        })
    }
}

impl ContextBounded {
    /// Search with at most `bound` preemptions per execution.
    pub fn new(bound: u32) -> Self {
        Backtracking::with_order(Bounded::new(bound), Reduction::None, None)
    }

    /// Context-bounded search with sleep-set partial-order reduction
    /// applied on top of the budget filter. Fairness-forced edges are
    /// exempt from pruning, exactly as they are exempt from the
    /// preemption accounting. A reduced search does not support
    /// checkpointing.
    pub fn with_sleep_sets(bound: u32) -> Self {
        Backtracking::with_order(Bounded::new(bound), Reduction::SleepSets, None)
    }

    /// Ablation: charge context switches forced by the fairness priority
    /// against the preemption budget, *violating* the paper's Section 4
    /// soundness rule. With the budget exhausted and the running thread
    /// demoted by fairness, no decision is affordable and the execution
    /// is abandoned — measurably losing termination and coverage. Exists
    /// to demonstrate why the exemption matters; never use it for real
    /// checking.
    pub fn charging_fairness_switches(mut self) -> Self {
        self.order.charge_fairness_switches = true;
        self
    }

    /// Backtrack only over the first `db` decisions; beyond that, pick
    /// randomly among the budget-eligible decisions.
    pub fn with_horizon(bound: u32, db: usize) -> Self {
        Backtracking::with_order(Bounded::new(bound), Reduction::None, Some(db))
    }

    /// The preemption bound.
    pub fn bound(&self) -> u32 {
        self.order.bound
    }
}

impl Bounded {
    fn new(bound: u32) -> Self {
        Bounded {
            bound,
            charge_fairness_switches: false,
        }
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
        let cb = ContextBounded::new(0);
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
        let mut idx = Vec::new();
        cb.order.order_into(&point, 0, &mut idx);
        assert_eq!(idx.len(), 2);
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
