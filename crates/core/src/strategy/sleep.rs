//! Sleep-set partial-order reduction (Godefroid), shared by the
//! systematic strategies.
//!
//! Two transitions with [independent](chess_kernel::Footprint::dependent)
//! footprints commute: executing them in either order from the same state
//! reaches the same state. Plain DFS still explores both orders. Sleep
//! sets prune the redundant one: after a decision `d` has been fully
//! explored from a node, `d` is put *to sleep* for the node's remaining
//! branches, and stays asleep down a branch for as long as every decision
//! taken is independent of `d` — along such a branch, scheduling `d` now
//! would reach a state whose exploration is already covered by the
//! subtree where `d` was taken first. A sleeping decision is removed
//! (woken) the moment a dependent decision is taken, and an option that
//! is asleep at a node is not explored from it.
//!
//! # Fairness soundness
//!
//! The fair scheduler makes two amendments, mirroring the paper's rule
//! that fairness-forced preemptions do not count against the context
//! bound:
//!
//! * **Yielding transitions are never pruned and never sleep.** A yield
//!   mutates the scheduler's global priority state, so it commutes with
//!   nothing; the explorer marks yield options with
//!   [`chess_kernel::Footprint::universal`], which this module treats as
//!   dependent with everything.
//! * **No pruning on fairness-forced edges.** At a node where the
//!   priority relation filtered the enabled set
//!   ([`SchedulePoint::fairness_filtered`](crate::strategy::SchedulePoint)),
//!   every option is explored regardless of the sleep set, and nothing is
//!   propagated to the children: the "equivalent reordering elsewhere"
//!   argument assumes both orders are actually schedulable, which the
//!   priority relation may invalidate.
//!
//! Dropping entries from a sleep set is always sound — it only makes the
//! search explore more — so both amendments err on the side of exploring.

use chess_kernel::Footprint;

use crate::strategy::SchedulePoint;
use crate::trace::Decision;

/// Which partial-order reduction a systematic strategy applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// No reduction: explore every interleaving (the default).
    #[default]
    None,
    /// Sleep-set reduction: prune provably-equivalent reorderings.
    SleepSets,
}

impl Reduction {
    /// Returns true when a reduction is active.
    pub fn is_on(self) -> bool {
        self != Reduction::None
    }
}

/// One sleeping decision together with the footprint it had when it was
/// put to sleep.
///
/// The footprint is recorded because independence must be re-checked at
/// every node the entry survives to, and the entry's transition is
/// unchanged along such branches: every decision taken while it sleeps is
/// independent of it, so the owning thread's next transition — and hence
/// its footprint — cannot have changed.
pub(crate) type SleepEntry = (Decision, Footprint);

/// Writes `fp` into `dst[*n]`, reusing the slot's allocations when the
/// slot exists and pushing a clone otherwise, then bumps `*n`. The
/// caller truncates `dst` to `n` when the fill is complete.
pub(crate) fn set_footprint(dst: &mut Vec<Footprint>, n: &mut usize, fp: &Footprint) {
    match dst.get_mut(*n) {
        Some(slot) => slot.clone_from(fp),
        None => dst.push(fp.clone()),
    }
    *n += 1;
}

fn set_entry(dst: &mut Vec<SleepEntry>, n: &mut usize, d: Decision, fp: &Footprint) {
    match dst.get_mut(*n) {
        Some(slot) => {
            slot.0 = d;
            slot.1.clone_from(fp);
        }
        None => dst.push((d, fp.clone())),
    }
    *n += 1;
}

/// One backtracking frame's sleep-set state.
///
/// With reduction off this is inert: `live` is the identity permutation
/// over the frame's options and everything else is empty, so the frame
/// behaves exactly like the pre-reduction `(options, index)` pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct SleepFrame {
    /// Footprints parallel to the frame's (ordered) options. Empty when
    /// the explorer did not supply footprints; every option is then
    /// treated as universal (no pruning).
    pub footprints: Vec<Footprint>,
    /// Decisions asleep on arrival at this node.
    pub sleep: Vec<SleepEntry>,
    /// Indices (into the frame's options) that are awake and will be
    /// explored, in exploration order.
    pub live: Vec<usize>,
    /// Position within `live` of the decision the current execution takes.
    pub cursor: usize,
    /// Whether the fairness priority filtered the enabled set at this
    /// node (disables pruning and propagation, see the module docs).
    pub fairness_filtered: bool,
}

impl SleepFrame {
    /// Resets this frame to the inert state over `n` options: identity
    /// `live`, no sleep state. Reuses the frame's buffers.
    pub fn make_inert(&mut self, n: usize) {
        self.footprints.clear();
        self.sleep.clear();
        self.live.clear();
        self.live.extend(0..n);
        self.cursor = 0;
        self.fairness_filtered = false;
    }

    /// Builds the sleep state of a new (typically recycled) frame in
    /// place, reusing its `sleep` and `live` buffers: inherits from
    /// `parent` (the frame one level up with its options, whose `cursor`
    /// names the edge just taken), under the node-local fairness
    /// exemption carried by `point`. The caller must have already filled
    /// `self.footprints` with the footprints parallel to `options` (or
    /// cleared it when the point carries none). Returns `false` when
    /// every option is asleep — the caller must abandon the execution
    /// without pushing the frame.
    pub fn rederive(
        &mut self,
        options: &[Decision],
        parent: Option<(&SleepFrame, &[Decision])>,
        point: &SchedulePoint<'_>,
    ) -> bool {
        self.cursor = 0;
        self.fairness_filtered = point.fairness_filtered;
        let mut n = 0;
        if let Some((p, po)) = parent {
            p.child_sleep_into(po, &mut self.sleep, &mut n);
        }
        self.sleep.truncate(n);
        // Staleness check: a sleeping entry's footprint was recorded when
        // it went to sleep, and pruning relies on it still describing the
        // decision's transition now. That holds because any step that
        // changes the transition must conflict with it and wake it first
        // — e.g. a buffered store changing which locations its owner's
        // flush can drain carries a `Buffer` marker access that conflicts
        // with the sleeping flush. Debug builds verify the recorded
        // footprint against the current one instead of trusting this.
        #[cfg(debug_assertions)]
        if !self.footprints.is_empty() {
            for (z, fp) in &self.sleep {
                if let Some(i) = options.iter().position(|o| o == z) {
                    debug_assert_eq!(
                        &self.footprints[i], fp,
                        "stale sleeping footprint for {z:?}: a step changed this \
                         decision's transition without waking it (every such step \
                         must conflict with the sleeping entry)"
                    );
                }
            }
        }
        self.live.clear();
        if point.fairness_filtered || self.sleep.is_empty() {
            self.live.extend(0..options.len());
        } else {
            self.live.extend(
                (0..options.len()).filter(|&i| !self.sleep.iter().any(|(z, _)| *z == options[i])),
            );
        }
        !self.live.is_empty()
    }

    /// Narrows a root frame to the slice `range` of its live options, as
    /// a sharded search does: the options before the slice count as
    /// already explored (they enter the children's sleep sets exactly as
    /// in the unsharded search) and those after it are dropped. Returns
    /// `false` when the slice is empty.
    pub fn restrict(&mut self, range: std::ops::Range<usize>) -> bool {
        self.live.truncate(range.end);
        self.cursor = range.start;
        !range.is_empty()
    }

    /// The sleep set for the child reached by this frame's current edge,
    /// written into `out[..n]` (slots reused, caller truncates):
    /// surviving inherited entries plus already-explored independent
    /// siblings. Writes nothing when this node is fairness-exempt or
    /// footprints were not supplied.
    fn child_sleep_into(&self, options: &[Decision], out: &mut Vec<SleepEntry>, n: &mut usize) {
        if self.fairness_filtered || self.footprints.is_empty() {
            return;
        }
        let taken = self.live[self.cursor];
        let taken_fp = &self.footprints[taken];
        for (z, fp) in &self.sleep {
            if !fp.dependent(taken_fp) {
                set_entry(out, n, *z, fp);
            }
        }
        for &j in &self.live[..self.cursor] {
            if !self.footprints[j].dependent(taken_fp) {
                set_entry(out, n, options[j], &self.footprints[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chess_kernel::{Access, AccessKind, ObjectRef, ThreadId};

    impl SleepFrame {
        /// Allocating constructor over [`SleepFrame::rederive`]: `None`
        /// when every option is asleep.
        fn derive(
            options: &[Decision],
            footprints: Vec<Footprint>,
            parent: Option<&SleepFrame>,
            parent_options: Option<&[Decision]>,
            point: &SchedulePoint<'_>,
        ) -> Option<Self> {
            let mut frame = SleepFrame {
                footprints,
                ..SleepFrame::default()
            };
            let parent = parent.zip(parent_options);
            frame.rederive(options, parent, point).then_some(frame)
        }

        /// Allocating wrapper over [`SleepFrame::child_sleep_into`].
        fn child_sleep(&self, options: &[Decision]) -> Vec<SleepEntry> {
            let mut out = Vec::new();
            let mut n = 0;
            self.child_sleep_into(options, &mut out, &mut n);
            out.truncate(n);
            out
        }
    }

    fn d(t: usize) -> Decision {
        Decision::run(ThreadId::new(t))
    }

    fn wfp(c: u32) -> Footprint {
        Footprint::from_accesses([Access::new(ObjectRef::Custom("c", c), AccessKind::Write)])
    }

    fn point<'a>(options: &'a [Decision], footprints: &'a [Footprint]) -> SchedulePoint<'a> {
        SchedulePoint {
            depth: 0,
            options,
            footprints,
            prev: None,
            prev_enabled: false,
            prev_schedulable: false,
            fairness_filtered: false,
            flushes: &[],
        }
    }

    #[test]
    fn explored_independent_sibling_sleeps_in_later_branches() {
        // Node with two independent options; after exploring d(0), taking
        // d(1) puts d(0) to sleep in the child.
        let options = [d(0), d(1)];
        let fps = vec![wfp(0), wfp(1)];
        let mut parent =
            SleepFrame::derive(&options, fps, None, None, &point(&options, &[])).unwrap();
        assert_eq!(parent.live, vec![0, 1]);
        parent.cursor = 1; // exploring d(1); d(0) was explored first
        let child = parent.child_sleep(&options);
        assert_eq!(child.len(), 1);
        assert_eq!(child[0].0, d(0));
        // A grandchild whose options include the sleeping d(0) prunes it.
        let g = SleepFrame::derive(
            &options,
            vec![wfp(0), wfp(1)],
            Some(&parent),
            Some(&options),
            &point(&options, &[]),
        )
        .unwrap();
        assert_eq!(g.live, vec![1], "sleeping d(0) must not be explored");
    }

    #[test]
    fn dependent_sibling_does_not_sleep() {
        let options = [d(0), d(1)];
        let fps = vec![wfp(7), wfp(7)]; // same object: dependent
        let mut parent =
            SleepFrame::derive(&options, fps, None, None, &point(&options, &[])).unwrap();
        parent.cursor = 1;
        assert!(parent.child_sleep(&options).is_empty());
    }

    #[test]
    fn dependent_step_wakes_inherited_entry() {
        let options = [d(0), d(1)];
        let mut parent = SleepFrame::derive(
            &options,
            vec![wfp(0), wfp(1)],
            None,
            None,
            &point(&options, &[]),
        )
        .unwrap();
        parent.sleep = vec![(d(2), wfp(1))]; // asleep, footprint on c1
        parent.cursor = 1; // taking d(1), which writes c1: dependent
        let child = parent.child_sleep(&options);
        assert!(
            !child.iter().any(|(z, _)| *z == d(2)),
            "a dependent step must wake the sleeping entry: {child:?}"
        );
        // The explored independent sibling d(0) still enters the set.
        assert!(child.iter().any(|(z, _)| *z == d(0)), "{child:?}");
        parent.cursor = 0; // taking d(0) (writes c0): independent, survives
        let child = parent.child_sleep(&options);
        assert_eq!(child.len(), 1);
        assert_eq!(child[0].0, d(2));
    }

    #[test]
    fn fairness_filtered_node_neither_prunes_nor_propagates() {
        let options = [d(0), d(1)];
        let mut fair_point = point(&options, &[]);
        fair_point.fairness_filtered = true;
        let mut parent =
            SleepFrame::derive(&options, vec![wfp(0), wfp(1)], None, None, &fair_point).unwrap();
        parent.sleep = vec![(d(0), wfp(9))];
        // No pruning: d(0) stays live despite being asleep.
        assert_eq!(parent.live, vec![0, 1]);
        parent.cursor = 1;
        // No propagation either.
        assert!(parent.child_sleep(&options).is_empty());
    }

    #[test]
    fn fully_asleep_node_is_abandoned() {
        let options = [d(0)];
        let mut parent =
            SleepFrame::derive(&options, vec![wfp(0)], None, None, &point(&options, &[])).unwrap();
        parent.sleep = vec![(d(0), wfp(0))];
        // Re-derive a child whose only option is asleep.
        let mut upper = SleepFrame::derive(
            &[d(0), d(1)],
            vec![wfp(6), wfp(6)],
            None,
            None,
            &point(&[d(0), d(1)], &[]),
        )
        .unwrap();
        upper.cursor = 1;
        upper.sleep = vec![(d(0), wfp(0))];
        let child = SleepFrame::derive(
            &options,
            vec![wfp(0)],
            Some(&upper),
            Some(&[d(0), d(1)]),
            &point(&options, &[]),
        );
        // d(0) survives (independent of taken wfp(6)) and covers the only
        // option: the node is pruned entirely.
        assert!(child.is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale sleeping footprint")]
    fn stale_sleeping_footprint_is_caught_in_debug_builds() {
        let options = [d(0), d(1)];
        let mut parent = SleepFrame::derive(
            &options,
            vec![wfp(0), wfp(1)],
            None,
            None,
            &point(&options, &[]),
        )
        .unwrap();
        // d(0) explored, now asleep with footprint wfp(0). The child
        // presents a *different* current footprint for the sleeping d(0):
        // some step changed its transition without waking it, which the
        // pruning argument forbids.
        parent.cursor = 1;
        SleepFrame::derive(
            &options,
            vec![wfp(9), wfp(1)],
            Some(&parent),
            Some(&options),
            &point(&options, &[]),
        );
    }

    #[test]
    fn universal_footprints_never_sleep() {
        let options = [d(0), d(1)];
        let mut parent = SleepFrame::derive(
            &options,
            vec![Footprint::universal(), wfp(1)],
            None,
            None,
            &point(&options, &[]),
        )
        .unwrap();
        parent.cursor = 1; // d(0) (universal, e.g. a yield) explored first
        assert!(
            parent.child_sleep(&options).is_empty(),
            "universal (yielding) decisions must never enter a sleep set"
        );
    }
}
