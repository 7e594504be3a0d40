//! Algorithm 1: the fair demonic scheduler.
//!
//! This module is a line-by-line implementation of Algorithm 1 from the
//! paper. The scheduler maintains, per state, a priority relation
//! `P ⊆ Tid × Tid` and three per-thread *window* sets:
//!
//! * `S(t)` — threads scheduled since the last yield by `t`,
//! * `E(t)` — threads continuously enabled since the last yield by `t`,
//! * `D(t)` — threads disabled by a transition of `t` since its last yield.
//!
//! An edge `(t, u) ∈ P` means `t` may be scheduled only in states where
//! `u` is disabled. Edges are added **only** when `t` yields (line 25),
//! and only toward threads `u` that were starved during `t`'s window —
//! `H = (E(t) ∪ D(t)) \ S(t)` (line 24) — so in the absence of yields the
//! scheduler is fully nondeterministic (Theorem 5), and any infinite
//! execution it generates satisfies `GS ⇒ SF` (Theorem 1).
//!
//! The paper's initialization trick is preserved: `E(u) = ∅`,
//! `D(u) = S(u) = Tid`, so each thread's first yield adds no edges and its
//! first real window begins only after that yield. Dynamically spawned
//! threads receive the same treatment (and are inserted into every
//! existing thread's `S` so an in-progress window cannot blame a thread
//! that did not exist when the window opened).

use chess_kernel::{ThreadId, TidSet};

/// Which threads a yielding thread is penalized against — an ablation
/// knob for the design choice at the heart of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PenaltyScope {
    /// The paper's line 24: `H = (E(t) ∪ D(t)) \ S(t)` — only threads the
    /// yielder actually starved in its window. Keeps the scheduler
    /// demonic enough for full coverage (Theorem 5).
    #[default]
    WindowSets,
    /// Naive over-penalization: on every yield of `t`, add an edge toward
    /// *every other currently enabled thread*. Still fair and still
    /// acyclic (the in-edge removal of line 13 precedes the edge
    /// insertion), but it forces a round-robin-like discipline after
    /// yields and measurably loses state coverage — the ablation that
    /// shows why the window sets matter.
    AllEnabled,
}

/// The fair demonic scheduler of Algorithm 1.
///
/// Drive it with two calls per scheduling point:
///
/// 1. [`FairScheduler::schedulable`] computes the set `T` of line 7 from
///    the enabled set `ES`.
/// 2. After executing the chosen thread's transition,
///    [`FairScheduler::on_scheduled`] performs the bookkeeping of lines
///    12–29.
///
/// # Examples
///
/// ```
/// use chess_core::FairScheduler;
/// use chess_kernel::{ThreadId, TidSet};
///
/// let mut fair = FairScheduler::new(2);
/// let es = TidSet::full(2);
/// // No yields yet: the scheduler is fully nondeterministic.
/// assert_eq!(fair.schedulable(&es).len(), 2);
/// ```
#[derive(Debug)]
pub struct FairScheduler {
    /// `p[t]` is the successor set `{u | (t, u) ∈ P}`.
    p: Vec<TidSet>,
    e: Vec<TidSet>,
    d: Vec<TidSet>,
    s: Vec<TidSet>,
    /// Per-thread yield counter for the `k`-yield parameterization.
    yield_counts: Vec<u64>,
    /// Process only every `k`-th yield of each thread (Section 3 end).
    k: u64,
    /// Penalty-edge scope (ablation; default is the paper's rule).
    scope: PenaltyScope,
}

impl Clone for FairScheduler {
    fn clone(&self) -> Self {
        FairScheduler {
            p: self.p.clone(),
            e: self.e.clone(),
            d: self.d.clone(),
            s: self.s.clone(),
            yield_counts: self.yield_counts.clone(),
            k: self.k,
            scope: self.scope,
        }
    }

    /// Field-by-field copy that reuses every set's allocation, so taking
    /// and restoring explorer snapshots allocates nothing in steady state.
    fn clone_from(&mut self, source: &Self) {
        self.p.clone_from(&source.p);
        self.e.clone_from(&source.e);
        self.d.clone_from(&source.d);
        self.s.clone_from(&source.s);
        self.yield_counts.clone_from(&source.yield_counts);
        self.k = source.k;
        self.scope = source.scope;
    }
}

impl FairScheduler {
    /// Creates a scheduler for a program that starts with `n` threads,
    /// processing every yield (`k = 1`).
    pub fn new(n: usize) -> Self {
        Self::with_k(n, 1)
    }

    /// Creates a scheduler that processes only every `k`-th yield of a
    /// thread, the parameterization the paper suggests for programs whose
    /// states are only reachable through yielding executions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_k(n: usize, k: u64) -> Self {
        assert!(k > 0, "k must be positive");
        let mut fair = FairScheduler {
            p: Vec::new(),
            e: Vec::new(),
            d: Vec::new(),
            s: Vec::new(),
            yield_counts: Vec::new(),
            k,
            scope: PenaltyScope::default(),
        };
        for _ in 0..n {
            fair.push_thread(n);
        }
        fair
    }

    /// Returns this scheduler to the initial state of a program with `n`
    /// threads (lines 1–4), keeping `k`, the scope and every allocation —
    /// the allocation-free form of building a new scheduler for the next
    /// execution.
    pub fn reset(&mut self, n: usize) {
        self.p.truncate(n);
        self.e.truncate(n);
        self.d.truncate(n);
        self.s.truncate(n);
        self.yield_counts.truncate(n);
        for i in 0..self.p.len() {
            self.p[i].clear();
            self.e[i].clear();
            self.d[i].fill(n);
            self.s[i].fill(n);
            self.yield_counts[i] = 0;
        }
        while self.p.len() < n {
            self.push_thread(n);
        }
    }

    /// Sets the penalty-edge scope (ablation; see [`PenaltyScope`]).
    pub fn with_scope(mut self, scope: PenaltyScope) -> Self {
        self.scope = scope;
        self
    }

    /// Initialization per lines 1–4: empty `P` and `E`, full `D` and `S`
    /// (over the current universe), so the first yield of the thread adds
    /// no edges and its first real window begins after that yield.
    fn push_thread(&mut self, universe: usize) {
        self.p.push(TidSet::new());
        self.e.push(TidSet::new());
        self.d.push(TidSet::full(universe));
        self.s.push(TidSet::full(universe));
        self.yield_counts.push(0);
    }

    /// Number of threads known to the scheduler.
    pub fn thread_count(&self) -> usize {
        self.p.len()
    }

    /// Registers dynamically spawned threads, growing the universe to
    /// `new_count` threads.
    pub fn grow(&mut self, new_count: usize) {
        while self.p.len() < new_count {
            let v = ThreadId::new(self.p.len());
            // A window already in progress cannot have starved a thread
            // that did not exist when it opened: pretend v was scheduled.
            // Only S(u) is touched — membership there already excludes v
            // from H = (E ∪ D) \ S, and D(u) must keep its meaning of
            // "threads disabled by u's transitions" so that behaviorally
            // identical scheduler states keep identical fingerprints
            // (the cycle detector compares `state_fingerprint()`s).
            for u in 0..self.p.len() {
                self.s[u].insert(v);
            }
            self.push_thread(self.p.len() + 1);
        }
    }

    /// Line 7: `T := ES \ pre(P, ES)` — the subset of enabled threads the
    /// priority relation allows to be scheduled.
    ///
    /// Theorem 3 guarantees `T` is empty iff `ES` is empty (the priority
    /// relation never manufactures a deadlock); this is upheld because `P`
    /// stays acyclic.
    pub fn schedulable(&self, es: &TidSet) -> TidSet {
        let mut out = TidSet::new();
        self.schedulable_into(es, &mut out);
        out
    }

    /// [`FairScheduler::schedulable`] written into a caller-provided set,
    /// clearing it first — the allocation-free form for the explorer's
    /// per-step loop.
    pub fn schedulable_into(&self, es: &TidSet, out: &mut TidSet) {
        out.clear();
        for t in es.iter() {
            if !self.p[t.index()].intersects(es) {
                out.insert(t);
            }
        }
    }

    /// Lines 12–29: bookkeeping after thread `t` executed one transition.
    ///
    /// * `es_before` — the enabled set of the state `t` was scheduled in
    ///   (the paper's `curr.ES`);
    /// * `es_after` — the enabled set of the resulting state (`next.ES`);
    /// * `yielded` — the paper's `curr.yield(t)`: whether the executed
    ///   transition was a yield.
    pub fn on_scheduled(
        &mut self,
        t: ThreadId,
        es_before: &TidSet,
        es_after: &TidSet,
        yielded: bool,
    ) {
        let n = self.p.len();
        debug_assert!(t.index() < n, "unknown thread {t}; call grow() first");

        // Line 13: remove all edges with sink t, lowering t's relative
        // priority.
        for u in 0..n {
            self.p[u].remove(t);
        }

        // Lines 14–22: update the window sets of every thread.
        for u in 0..n {
            self.e[u].intersect_with(es_after);
            self.s[u].insert(t);
        }
        // Line 17: D(t) accumulates the threads disabled by t's transition.
        self.d[t.index()].union_with_difference(es_before, es_after);

        // Lines 23–29: on a (processed) yield of t, penalize t against the
        // threads it starved during its window, then open a new window.
        if yielded {
            self.yield_counts[t.index()] += 1;
            if !self.yield_counts[t.index()].is_multiple_of(self.k) {
                return;
            }
            let ti = t.index();
            // Line 13 just removed t from P(t), so adding H and then
            // removing t equals adding H \ {t}. D(t) is reset below, so it
            // serves as H's buffer for the paper's scope.
            match self.scope {
                // Line 24: H := (E(t) ∪ D(t)) \ S(t).
                PenaltyScope::WindowSets => {
                    let h = &mut self.d[ti];
                    h.union_with(&self.e[ti]);
                    h.difference_with(&self.s[ti]);
                    // Line 25: P := P ∪ ({t} × H).
                    self.p[ti].union_with(h);
                }
                // Ablation: penalize against every other enabled thread.
                PenaltyScope::AllEnabled => self.p[ti].union_with(es_after),
            }
            self.p[ti].remove(t);
            // Lines 26–28: reset the window.
            self.e[ti].clone_from(es_after);
            self.d[ti].clear();
            self.s[ti].clear();
            debug_assert!(
                !self.p[ti].contains(t),
                "t ∈ S(t) must have prevented a self-edge"
            );
            debug_assert!(self.is_acyclic(), "P must stay acyclic (Theorem 3)");
        }
    }

    /// The current priority relation as successor sets: `(t, u) ∈ P` iff
    /// `priority_edges()[t].contains(u)`.
    pub fn priority_edges(&self) -> &[TidSet] {
        &self.p
    }

    /// The window set `E(t)` (continuously enabled since `t`'s last yield).
    pub fn window_enabled(&self, t: ThreadId) -> &TidSet {
        &self.e[t.index()]
    }

    /// The window set `D(t)` (disabled by `t` since its last yield).
    pub fn window_disabled(&self, t: ThreadId) -> &TidSet {
        &self.d[t.index()]
    }

    /// The window set `S(t)` (scheduled since `t`'s last yield).
    pub fn window_scheduled(&self, t: ThreadId) -> &TidSet {
        &self.s[t.index()]
    }

    /// Total processed yields of thread `t`.
    pub fn yield_count(&self, t: ThreadId) -> u64 {
        self.yield_counts[t.index()]
    }

    /// A 64-bit fingerprint of the scheduler state (`P`, `E`, `D`, `S`
    /// and the yield phase modulo `k`).
    ///
    /// Combined with the program-state fingerprint this identifies
    /// genuinely repeatable configurations: if the pair repeats along an
    /// execution, the scheduler can reproduce the cycle forever, which is
    /// how the explorer detects livelocks precisely.
    pub fn state_fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(PRIME);
        };
        for group in [&self.p, &self.e, &self.d, &self.s] {
            for set in group.iter() {
                // Length-prefixed canonical words: one mix per 64
                // threads instead of one per member, same collision
                // behavior (equal sets always hash alike).
                let words = set.canonical_words();
                mix(words.len() as u64);
                for &w in words {
                    mix(w);
                }
            }
            mix(u64::MAX);
        }
        // With the default k = 1 every yield phase is identically zero:
        // skip the per-thread division, the priciest op in this fold.
        if self.k > 1 {
            for &c in &self.yield_counts {
                mix(c % self.k);
            }
        }
        h
    }

    /// Checks that the priority relation is acyclic — the loop invariant
    /// of Theorem 3. Exposed for tests and debug assertions.
    pub fn is_acyclic(&self) -> bool {
        // Kahn-style: repeatedly remove nodes with no in-edges.
        let n = self.p.len();
        let mut indeg = vec![0usize; n];
        for succ in &self.p {
            for u in succ.iter() {
                if u.index() < n {
                    indeg[u.index()] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for u in self.p[i].iter() {
                if u.index() < n {
                    indeg[u.index()] -= 1;
                    if indeg[u.index()] == 0 {
                        queue.push(u.index());
                    }
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    fn set(ids: &[usize]) -> TidSet {
        ids.iter().map(|&i| t(i)).collect()
    }

    #[test]
    fn no_yields_means_full_nondeterminism() {
        let mut fair = FairScheduler::new(3);
        let es = set(&[0, 1, 2]);
        for _ in 0..10 {
            assert_eq!(fair.schedulable(&es), es);
            fair.on_scheduled(t(1), &es, &es, false);
        }
    }

    #[test]
    fn first_yield_adds_no_edges() {
        let mut fair = FairScheduler::new(2);
        let es = set(&[0, 1]);
        fair.on_scheduled(t(1), &es, &es, true);
        assert!(fair.priority_edges()[1].is_empty());
        assert_eq!(fair.schedulable(&es), es);
    }

    /// The Figure 4 emulation: thread u (=1) spins through a yield loop
    /// while t (=0) stays enabled. After u's *second* yield, the edge
    /// (u, t) appears and only t is schedulable.
    #[test]
    fn figure4_emulation() {
        let mut fair = FairScheduler::new(2);
        let es = set(&[0, 1]);
        let (th_t, th_u) = (t(0), t(1));

        // u: while (x != 1)  — state (a,c) -> (a,d)
        fair.on_scheduled(th_u, &es, &es, false);
        // u: yield()         — state (a,d) -> (a,c); first yield: no edges
        fair.on_scheduled(th_u, &es, &es, true);
        assert!(fair.priority_edges()[1].is_empty());
        assert_eq!(*fair.window_scheduled(th_u), TidSet::new());
        assert_eq!(*fair.window_disabled(th_u), TidSet::new());
        assert_eq!(*fair.window_enabled(th_u), es);

        // u: while (x != 1)  — S(u) = {u}
        fair.on_scheduled(th_u, &es, &es, false);
        assert_eq!(*fair.window_scheduled(th_u), set(&[1]));

        // u: yield()         — H = (E ∪ D) \ S = {t}; edge (u, t) added.
        fair.on_scheduled(th_u, &es, &es, true);
        assert!(fair.priority_edges()[1].contains(th_t));
        // Now the scheduler is forced to run t.
        assert_eq!(fair.schedulable(&es), set(&[0]));
    }

    #[test]
    fn edge_removed_when_sink_scheduled() {
        let mut fair = FairScheduler::new(2);
        let es = set(&[0, 1]);
        // Build the (u=1, t=0) edge as in figure4_emulation.
        fair.on_scheduled(t(1), &es, &es, true);
        fair.on_scheduled(t(1), &es, &es, false);
        fair.on_scheduled(t(1), &es, &es, true);
        assert!(fair.priority_edges()[1].contains(t(0)));
        // Scheduling t removes the incoming edge (line 13).
        fair.on_scheduled(t(0), &es, &es, false);
        assert!(fair.priority_edges()[1].is_empty());
        assert_eq!(fair.schedulable(&es), es);
    }

    #[test]
    fn edge_only_blocks_while_sink_enabled() {
        let mut fair = FairScheduler::new(2);
        let es = set(&[0, 1]);
        fair.on_scheduled(t(1), &es, &es, true);
        fair.on_scheduled(t(1), &es, &es, false);
        fair.on_scheduled(t(1), &es, &es, true);
        // u has lower priority than t; but if t is disabled, u may run.
        let only_u = set(&[1]);
        assert_eq!(fair.schedulable(&only_u), only_u);
        assert_eq!(fair.schedulable(&es), set(&[0]));
    }

    #[test]
    fn disabled_threads_counted_in_d() {
        let mut fair = FairScheduler::new(3);
        // Open windows for thread 0 with a first yield.
        let es_all = set(&[0, 1, 2]);
        fair.on_scheduled(t(0), &es_all, &es_all, true);
        // Thread 0's transition disables thread 2 (e.g. takes a lock 2
        // wanted).
        let es_after = set(&[0, 1]);
        fair.on_scheduled(t(0), &es_all, &es_after, false);
        assert!(fair.window_disabled(t(0)).contains(t(2)));
        // At 0's next yield, H contains 2 (disabled, never scheduled) and
        // 1 (continuously enabled, never scheduled).
        fair.on_scheduled(t(0), &es_after, &es_after, true);
        assert!(fair.priority_edges()[0].contains(t(2)));
        assert!(fair.priority_edges()[0].contains(t(1)));
        // 2 is disabled, so the (0,2) edge does not block 0; but 1 is
        // enabled, so the (0,1) edge does.
        assert_eq!(fair.schedulable(&es_after), set(&[1]));
    }

    #[test]
    fn scheduled_threads_not_penalized() {
        let mut fair = FairScheduler::new(2);
        let es = set(&[0, 1]);
        fair.on_scheduled(t(1), &es, &es, true); // open window
        fair.on_scheduled(t(0), &es, &es, false); // t runs in u's window
        fair.on_scheduled(t(1), &es, &es, false);
        fair.on_scheduled(t(1), &es, &es, true);
        // t(0) ∈ S(u): no edge.
        assert!(fair.priority_edges()[1].is_empty());
    }

    #[test]
    fn k_parameterization_processes_every_kth_yield() {
        let mut fair = FairScheduler::with_k(2, 2);
        let es = set(&[0, 1]);
        // With k=2, yields 2 and 4 are processed. Yield 2 is effectively
        // the "first processed yield" — it still adds edges only if the
        // window saw starvation, and the window here started with the
        // initial full S, so no edges yet.
        fair.on_scheduled(t(1), &es, &es, true); // yield 1: skipped
        fair.on_scheduled(t(1), &es, &es, true); // yield 2: processed, opens window
        assert!(fair.priority_edges()[1].is_empty());
        fair.on_scheduled(t(1), &es, &es, true); // yield 3: skipped
        assert!(fair.priority_edges()[1].is_empty());
        fair.on_scheduled(t(1), &es, &es, true); // yield 4: processed → edge
        assert!(fair.priority_edges()[1].contains(t(0)));
    }

    #[test]
    fn spawned_thread_not_blamed_mid_window() {
        let mut fair = FairScheduler::new(1);
        let es1 = set(&[0]);
        fair.on_scheduled(t(0), &es1, &es1, true); // open 0's window
                                                   // Thread 1 spawns mid-window and is immediately enabled.
        fair.grow(2);
        let es2 = set(&[0, 1]);
        fair.on_scheduled(t(0), &es2, &es2, false);
        fair.on_scheduled(t(0), &es2, &es2, true);
        // 1 was inserted into S(0) at spawn, so no edge (0,1) — and
        // E(0) never contained it.
        assert!(fair.priority_edges()[0].is_empty());
        // But in the *new* window (E(0) = es2 ∋ 1), starving 1 is blamed.
        fair.on_scheduled(t(0), &es2, &es2, false);
        fair.on_scheduled(t(0), &es2, &es2, true);
        assert!(fair.priority_edges()[0].contains(t(1)));
    }

    #[test]
    fn acyclicity_invariant_under_adversarial_driving() {
        // Drive the scheduler with pseudo-random enabled sets and yields
        // and check P stays acyclic and schedulable() is nonempty whenever
        // ES is (Theorem 3).
        let n = 5;
        let mut fair = FairScheduler::new(n);
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut es: TidSet = TidSet::full(n);
        for _ in 0..2000 {
            let tset = fair.schedulable(&es);
            assert!(
                es.is_empty() == tset.is_empty(),
                "Theorem 3 violated: es={es:?} T={tset:?} P={:?}",
                fair.priority_edges()
            );
            if tset.is_empty() {
                es = TidSet::full(n);
                continue;
            }
            let options: Vec<_> = tset.iter().collect();
            let pick = options[(next() % options.len() as u64) as usize];
            let mut es_after = TidSet::new();
            for i in 0..n {
                if next() % 4 != 0 {
                    es_after.insert(t(i));
                }
            }
            // The scheduled thread stays "in the system": keep it enabled
            // half of the time.
            if next() % 2 == 0 {
                es_after.insert(pick);
            }
            let yielded = next() % 3 == 0;
            fair.on_scheduled(pick, &es, &es_after, yielded);
            assert!(fair.is_acyclic());
            es = es_after;
        }
    }

    /// The full state of a scheduler (sets print their members), for
    /// comparing two of them.
    fn state(f: &FairScheduler) -> String {
        format!("{f:?}")
    }

    /// Drives `fair` through a pseudo-random run with yields and spawns.
    fn drive(fair: &mut FairScheduler, steps: usize, mut rng: u64) {
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut es = TidSet::full(fair.thread_count());
        for _ in 0..steps {
            if next() % 16 == 0 {
                fair.grow(fair.thread_count() + 1);
            }
            let n = fair.thread_count();
            let tset = fair.schedulable(&es);
            let Some(pick) = tset
                .iter()
                .nth((next() % tset.len().max(1) as u64) as usize)
            else {
                es = TidSet::full(n);
                continue;
            };
            let es_after: TidSet = (0..n).filter(|_| next() % 4 != 0).map(t).collect();
            fair.on_scheduled(pick, &es, &es_after, next() % 3 == 0);
            es = es_after;
        }
    }

    /// `reset(n)` yields exactly the state of a newly built scheduler,
    /// whatever the scheduler went through before.
    #[test]
    fn reset_matches_new_scheduler() {
        for (n, k) in [(1, 1), (3, 1), (4, 2), (70, 1)] {
            let mut fair = FairScheduler::with_k(5, k);
            drive(&mut fair, 300, 0x9E37_79B9 + n as u64);
            fair.reset(n);
            let fresh = FairScheduler::with_k(n, k);
            assert_eq!(state(&fair), state(&fresh), "n = {n}");
            assert_eq!(fair.state_fingerprint(), fresh.state_fingerprint());
        }
    }

    /// `clone_from` reproduces the source's state whatever the target
    /// held, and the copy then evolves exactly like the source.
    #[test]
    fn clone_from_copies_state() {
        let mut src = FairScheduler::new(3);
        drive(&mut src, 200, 7);
        let mut dst = FairScheduler::with_k(9, 1);
        drive(&mut dst, 50, 11);
        dst.clone_from(&src);
        assert_eq!(state(&dst), state(&src));
        assert_eq!(dst.state_fingerprint(), src.state_fingerprint());
        drive(&mut src, 100, 13);
        drive(&mut dst, 100, 13);
        assert_eq!(state(&dst), state(&src));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = FairScheduler::with_k(1, 0);
    }

    /// `grow()` must not touch `D(u)` — only `S(u)` shields the spawned
    /// thread from blame. The spawn itself is not a transition of `u`, so
    /// it cannot have disabled anything.
    #[test]
    fn grow_leaves_window_disabled_untouched() {
        let mut fair = FairScheduler::new(2);
        let es = set(&[0, 1]);
        fair.on_scheduled(t(0), &es, &es, true); // open 0's window: D(0) = ∅
        assert!(fair.window_disabled(t(0)).is_empty());
        fair.grow(3);
        assert!(
            fair.window_disabled(t(0)).is_empty(),
            "grow() polluted D(0): {:?}",
            fair.window_disabled(t(0))
        );
        assert!(fair.window_scheduled(t(0)).contains(t(2)));
    }

    /// Regression for the `grow()` D-pollution bug: a scheduler that
    /// grew mid-window must fingerprint identically to one that never
    /// grew but is in the behaviorally identical `(P, E, D, S)` state.
    ///
    /// Construction: in `a`, thread 1 exists from the start but is
    /// disabled during 0's yield (so `E(0) = {0}`), then runs one step
    /// (so `1 ∈ S(0)`). In `b`, thread 1 is spawned mid-window, which
    /// inserts it into `S(0)` — the same shield. Every window set is
    /// then equal, so the fingerprints must match; with the old
    /// `d[u].insert(v)` they differed (`D(0) = {1}` in `b` only), which
    /// made the explorer's cycle detector miss repeats.
    #[test]
    fn grow_mid_window_matches_never_grown_fingerprint() {
        // a: both threads exist from the start; 1 disabled at 0's yield.
        let mut a = FairScheduler::new(2);
        let es0 = set(&[0]);
        let es01 = set(&[0, 1]);
        a.on_scheduled(t(0), &es0, &es0, true); // open window: E(0) = {0}
        a.on_scheduled(t(0), &es0, &es01, false); // 0's step enables 1
        a.on_scheduled(t(1), &es01, &es01, false); // 1 runs: 1 ∈ S(u) ∀u

        // b: thread 1 spawns mid-window instead of running.
        let mut b = FairScheduler::new(1);
        b.on_scheduled(t(0), &es0, &es0, true); // open window: E(0) = {0}
        b.on_scheduled(t(0), &es0, &es0, false); // 0 steps: 0 ∈ S(0)
        b.grow(2); // spawn: 1 ∈ S(0), D(0) untouched

        assert_eq!(a.window_enabled(t(0)), b.window_enabled(t(0)));
        assert_eq!(a.window_disabled(t(0)), b.window_disabled(t(0)));
        assert_eq!(a.window_scheduled(t(0)), b.window_scheduled(t(0)));
        assert_eq!(
            a.state_fingerprint(),
            b.state_fingerprint(),
            "behaviorally identical scheduler states must hash identically"
        );
    }
}
