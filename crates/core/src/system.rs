//! The transition-system interface the explorer drives.
//!
//! The paper's Algorithm 1 is phrased over an abstract program `Q` with a
//! `NextState` function and `enabled(t)` / `yield(t)` predicates.
//! [`TransitionSystem`] is that interface; `chess-kernel`'s `Kernel`
//! implements it, and tests implement it directly for small hand-built
//! state spaces.

use chess_kernel::{Capture, Footprint, Kernel, KernelStatus, StepKind, ThreadId, TidSet};

/// Status of a program under exploration, mirroring
/// [`chess_kernel::KernelStatus`] at the abstract level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemStatus {
    /// At least one thread is enabled.
    Running,
    /// All threads finished: a terminating execution.
    Terminated,
    /// No thread enabled, some unfinished.
    Deadlock,
    /// A safety violation with a message, attributed to a thread.
    Violation(ThreadId, String),
}

impl SystemStatus {
    /// Returns whether more transitions can be taken.
    pub fn is_running(&self) -> bool {
        matches!(self, SystemStatus::Running)
    }
}

impl From<KernelStatus> for SystemStatus {
    fn from(status: KernelStatus) -> Self {
        match status {
            KernelStatus::Running => SystemStatus::Running,
            KernelStatus::Terminated => SystemStatus::Terminated,
            KernelStatus::Deadlock => SystemStatus::Deadlock,
            KernelStatus::Violation(v) => SystemStatus::Violation(v.thread, v.message),
        }
    }
}

/// An explorable multithreaded program: the paper's `Q`.
///
/// All methods except [`TransitionSystem::step`] must be pure observations;
/// `step` must be deterministic given `(t, choice)`. Stateless exploration
/// re-creates instances via a factory closure and replays schedules, so
/// two instances produced by the same factory must behave identically.
pub trait TransitionSystem {
    /// Number of threads created so far (finished threads included).
    fn thread_count(&self) -> usize;

    /// The paper's `enabled(t)`.
    fn enabled(&self, t: ThreadId) -> bool;

    /// The set of enabled threads (the paper's `ES`).
    ///
    /// # Override contract
    ///
    /// The default collects `enabled(t)` over every thread id. An
    /// implementation may override this with a faster equivalent (the
    /// kernel does, walking its thread table once), but the override
    /// **must** return exactly the set the default would: the explorer,
    /// the fair scheduler, and the parallel root partitioner all assume
    /// `enabled_set() == {t | enabled(t)}` at every state. The
    /// `enabled_set_default_agrees_with_*` property tests in this module
    /// pin this agreement on fuzzed systems and on the kernel.
    fn enabled_set(&self) -> TidSet {
        (0..self.thread_count())
            .map(ThreadId::new)
            .filter(|&t| self.enabled(t))
            .collect()
    }

    /// [`TransitionSystem::enabled_set`] written into a caller-provided
    /// set — the allocation-free form the explorer's per-step loop uses.
    /// Overrides must produce exactly what `enabled_set` returns.
    fn enabled_set_into(&self, out: &mut TidSet) {
        *out = self.enabled_set();
    }

    /// Rebuilds `self` into a fresh copy of `template`, reusing existing
    /// allocations, and returns `true` — or returns `false` to signal
    /// pooling is unsupported (the default), making the explorer fall
    /// back to its factory. A `true` implementation must be behaviorally
    /// indistinguishable from replacing `self` with a clone of
    /// `template`: same traces, same captures, same stats.
    fn reset_from(&mut self, template: &Self) -> bool
    where
        Self: Sized,
    {
        let _ = template;
        false
    }

    /// The paper's `yield(t)`: `t` is enabled and its next transition is a
    /// yield.
    fn is_yielding(&self, t: ThreadId) -> bool;

    /// Number of data-nondeterminism branches for thread `t`'s next
    /// transition (1 unless the transition is a `Choose`).
    fn branching(&self, t: ThreadId) -> usize;

    /// Executes one transition of `t` with data choice `choice`, returning
    /// whether it was a yielding transition.
    fn step(&mut self, t: ThreadId, choice: u32) -> StepKind;

    /// The dependence footprint of `t`'s next transition: which objects it
    /// touches and how (see [`chess_kernel::Footprint`]).
    ///
    /// The default is [`Footprint::universal`] — dependent with every
    /// other transition — which is always sound and makes partial-order
    /// reduction a no-op. Systems whose accesses are statically known
    /// (the fuzz generator's, the test scripts) override this with
    /// precise footprints so sleep-set reduction can prune equivalent
    /// interleavings. An override must be a pure observation and must
    /// describe a superset of the objects the next `step(t, _)` actually
    /// touches; under-reporting makes reduction unsound.
    fn footprint(&self, t: ThreadId) -> Footprint {
        let _ = t;
        Footprint::universal()
    }

    /// [`TransitionSystem::footprint`] written into a caller-provided
    /// footprint — the allocation-free form for the explorer's per-option
    /// loop. Overrides must produce exactly what `footprint` returns.
    fn footprint_into(&self, t: ThreadId, fp: &mut Footprint) {
        *fp = self.footprint(t);
    }

    /// The derived commutativity relation: may the next transitions of
    /// `a` and `b` fail to commute?
    ///
    /// Two transitions are dependent when their [footprints](Self::footprint)
    /// conflict; independent transitions reach the same state in either
    /// order, which is what sleep-set pruning exploits. A thread is always
    /// dependent with itself: every transition writes its own thread's
    /// state (program counter, locals) even when its object footprint is
    /// empty.
    fn dependent(&self, a: ThreadId, b: ThreadId) -> bool {
        a == b || self.footprint(a).dependent(&self.footprint(b))
    }

    /// Is thread `t` a store-buffer *flusher* pseudo-thread (a relaxed
    /// memory-system transition rather than program code)?
    ///
    /// Flush steps are exempt from the context-bounding preemption budget
    /// (mirroring §5's treatment of fairness-forced switches): a buffer
    /// drain is not a preemption the program must be robust to counting.
    /// The default — no flushers — is correct for every system without a
    /// relaxed-memory mode.
    fn is_flush(&self, t: ThreadId) -> bool {
        let _ = t;
        false
    }

    /// Current status.
    fn status(&self) -> SystemStatus;

    /// [`TransitionSystem::status`] for a state whose enabled set the
    /// caller already holds (`enabled == enabled_set()`), so an override
    /// can skip rescanning the threads. The explorer calls this once per
    /// state. Overrides must return exactly what `status` returns; the
    /// default calls it.
    fn status_with_enabled(&self, enabled: &TidSet) -> SystemStatus {
        let _ = enabled;
        self.status()
    }

    /// 64-bit fingerprint of the current abstract state (used by cycle
    /// detection and coverage).
    fn fingerprint(&self) -> u64;

    /// Exact byte signature of the current abstract state (used as the
    /// collision-free visited-set key).
    fn state_bytes(&self) -> Vec<u8>;

    /// [`TransitionSystem::state_bytes`] written into a caller-provided
    /// buffer (cleared first) — the allocation-free form for coverage
    /// tracking. Overrides must produce exactly what `state_bytes`
    /// returns.
    fn state_bytes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.state_bytes());
    }

    /// Human-readable description of `t`'s pending operation, for traces.
    fn describe_op(&self, t: ThreadId) -> String;

    /// Display name of thread `t`.
    fn thread_name(&self, t: ThreadId) -> String;
}

impl<S: Capture + Clone> TransitionSystem for Kernel<S> {
    fn thread_count(&self) -> usize {
        Kernel::thread_count(self)
    }

    fn enabled(&self, t: ThreadId) -> bool {
        Kernel::enabled(self, t)
    }

    fn enabled_set(&self) -> TidSet {
        Kernel::enabled_set(self)
    }

    fn enabled_set_into(&self, out: &mut TidSet) {
        Kernel::enabled_set_into(self, out)
    }

    fn reset_from(&mut self, template: &Self) -> bool {
        Kernel::reset_from(self, template);
        true
    }

    fn is_yielding(&self, t: ThreadId) -> bool {
        Kernel::is_yielding(self, t)
    }

    fn branching(&self, t: ThreadId) -> usize {
        Kernel::branching(self, t)
    }

    fn step(&mut self, t: ThreadId, choice: u32) -> StepKind {
        if self.validate_effects() {
            Kernel::step_validated(self, t, choice).kind
        } else {
            // Only the step kind is observed here: skip the footprint
            // query the full `Kernel::step` performs for its `StepInfo`.
            Kernel::step_fast(self, t, choice).kind
        }
    }

    fn footprint(&self, t: ThreadId) -> Footprint {
        // Sync-object accesses merged with the guest's declared
        // shared-state effects. Guests that declare nothing default to a
        // whole-state write (sound: their transitions never commute);
        // guests that declare per-cell read/write sets get real pruning.
        Kernel::next_footprint(self, t)
    }

    fn footprint_into(&self, t: ThreadId, fp: &mut Footprint) {
        Kernel::next_footprint_into(self, t, fp)
    }

    fn is_flush(&self, t: ThreadId) -> bool {
        Kernel::is_flush(self, t)
    }

    fn status(&self) -> SystemStatus {
        Kernel::status(self).into()
    }

    fn status_with_enabled(&self, enabled: &TidSet) -> SystemStatus {
        Kernel::status_with_enabled(self, enabled).into()
    }

    fn fingerprint(&self) -> u64 {
        Kernel::fingerprint(self)
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.capture_state().into_bytes()
    }

    fn state_bytes_into(&self, out: &mut Vec<u8>) {
        Kernel::state_bytes_into(self, out)
    }

    fn describe_op(&self, t: ThreadId) -> String {
        format!("{:?}", self.next_op(t))
    }

    fn thread_name(&self, t: ThreadId) -> String {
        Kernel::thread_name(self, t).to_string()
    }
}

#[cfg(test)]
pub(crate) mod testsys {
    //! A tiny hand-built transition system for unit-testing the scheduler
    //! and strategies without the kernel: each thread is a fixed script of
    //! (yield?, enabled-condition) steps over a vector clock state.

    use super::*;

    /// One scripted action of a test thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Act {
        /// Ordinary step.
        Step,
        /// Yielding step.
        Yield,
        /// Step enabled only when the given counter slot is nonzero.
        WaitNonZero(usize),
        /// Step that increments the given counter slot.
        Inc(usize),
        /// Step that decrements the given counter slot (enabled iff > 0).
        Dec(usize),
        /// Step that panics when executed — models a workload bug that
        /// unwinds out of the program under test.
        Panic,
    }

    /// Scripted multithreaded test program.
    #[derive(Debug, Clone)]
    pub struct Script {
        pub threads: Vec<Vec<Act>>,
        pub pcs: Vec<usize>,
        pub counters: Vec<u64>,
    }

    impl Script {
        pub fn new(threads: Vec<Vec<Act>>, counters: usize) -> Self {
            let pcs = vec![0; threads.len()];
            Script {
                threads,
                pcs,
                counters: vec![0; counters],
            }
        }

        fn current(&self, t: ThreadId) -> Option<Act> {
            self.threads[t.index()].get(self.pcs[t.index()]).copied()
        }
    }

    impl TransitionSystem for Script {
        fn thread_count(&self) -> usize {
            self.threads.len()
        }

        fn enabled(&self, t: ThreadId) -> bool {
            match self.current(t) {
                None => false,
                Some(Act::WaitNonZero(c)) | Some(Act::Dec(c)) => self.counters[c] > 0,
                Some(_) => true,
            }
        }

        fn is_yielding(&self, t: ThreadId) -> bool {
            self.enabled(t) && self.current(t) == Some(Act::Yield)
        }

        fn branching(&self, _t: ThreadId) -> usize {
            1
        }

        fn footprint(&self, t: ThreadId) -> Footprint {
            use chess_kernel::{AccessKind, ObjectRef};
            match self.current(t) {
                None | Some(Act::Step) | Some(Act::Yield) | Some(Act::Panic) => Footprint::local(),
                Some(Act::WaitNonZero(c)) => Footprint::from_accesses([chess_kernel::Access::new(
                    ObjectRef::Custom("counter", c as u32),
                    AccessKind::Read,
                )]),
                Some(Act::Inc(c)) | Some(Act::Dec(c)) => {
                    Footprint::from_accesses([chess_kernel::Access::new(
                        ObjectRef::Custom("counter", c as u32),
                        AccessKind::Write,
                    )])
                }
            }
        }

        fn step(&mut self, t: ThreadId, _choice: u32) -> StepKind {
            let act = self.current(t).expect("stepping finished thread");
            match act {
                Act::Inc(c) => self.counters[c] += 1,
                Act::Dec(c) => self.counters[c] -= 1,
                Act::Panic => panic!("scripted panic"),
                _ => {}
            }
            self.pcs[t.index()] += 1;
            if act == Act::Yield {
                StepKind::Yield
            } else {
                StepKind::Normal
            }
        }

        fn status(&self) -> SystemStatus {
            let ids = (0..self.thread_count()).map(ThreadId::new);
            let mut active = false;
            for t in ids {
                if self.current(t).is_some() {
                    active = true;
                    if self.enabled(t) {
                        return SystemStatus::Running;
                    }
                }
            }
            if active {
                SystemStatus::Deadlock
            } else {
                SystemStatus::Terminated
            }
        }

        fn fingerprint(&self) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &pc in &self.pcs {
                h = (h ^ pc as u64).wrapping_mul(0x100_0000_01b3);
            }
            for &c in &self.counters {
                h = (h ^ c).wrapping_mul(0x100_0000_01b3);
            }
            h
        }

        fn state_bytes(&self) -> Vec<u8> {
            let mut v = Vec::new();
            for &pc in &self.pcs {
                v.extend_from_slice(&(pc as u64).to_le_bytes());
            }
            for &c in &self.counters {
                v.extend_from_slice(&c.to_le_bytes());
            }
            v
        }

        fn describe_op(&self, t: ThreadId) -> String {
            format!("{:?}", self.current(t))
        }

        fn thread_name(&self, t: ThreadId) -> String {
            format!("s{}", t.index())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testsys::{Act, Script};
    use super::*;

    #[test]
    fn script_runs_to_termination() {
        let mut s = Script::new(vec![vec![Act::Inc(0)], vec![Act::WaitNonZero(0)]], 1);
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        assert!(s.enabled(t0));
        assert!(!s.enabled(t1));
        s.step(t0, 0);
        assert!(s.enabled(t1));
        s.step(t1, 0);
        assert_eq!(s.status(), SystemStatus::Terminated);
    }

    #[test]
    fn script_deadlock() {
        let mut s = Script::new(vec![vec![Act::Dec(0)]], 1);
        assert_eq!(s.status(), SystemStatus::Deadlock);
        s.counters[0] = 1;
        assert_eq!(s.status(), SystemStatus::Running);
    }

    #[test]
    fn kernel_implements_transition_system() {
        let k: Kernel<()> = Kernel::new(());
        assert_eq!(TransitionSystem::thread_count(&k), 0);
        assert_eq!(TransitionSystem::status(&k), SystemStatus::Terminated);
    }

    /// Recomputes what the trait's default `enabled_set` body returns,
    /// regardless of any override the concrete type installs.
    fn default_enabled_set<S: TransitionSystem>(sys: &S) -> TidSet {
        (0..sys.thread_count())
            .map(ThreadId::new)
            .filter(|&t| sys.enabled(t))
            .collect()
    }

    /// A tiny deterministic LCG so the walks below need no RNG machinery.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn enabled_set_default_agrees_with_kernel_override() {
        use chess_kernel::{Effects, GuestThread, MutexId, OpDesc, OpResult};

        // Two lock-steppers plus a blocked third thread: exercises states
        // where enabledness differs across threads.
        #[derive(Clone)]
        struct Locker {
            pc: u8,
            m: MutexId,
        }
        impl GuestThread<u32> for Locker {
            fn next_op(&self, _: &u32) -> OpDesc {
                match self.pc {
                    0 => OpDesc::Acquire(self.m),
                    1 => OpDesc::Local,
                    2 => OpDesc::Release(self.m),
                    _ => OpDesc::Finished,
                }
            }
            fn on_op(&mut self, _: OpResult, shared: &mut u32, _: &mut Effects<u32>) {
                if self.pc == 1 {
                    *shared += 1;
                }
                self.pc += 1;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<u32>> {
                Box::new(self.clone())
            }
        }

        let mut rng = 0x5EEDu64;
        for _ in 0..50 {
            let mut k = Kernel::new(0u32);
            let m = k.add_mutex();
            for _ in 0..3 {
                k.spawn(Locker { pc: 0, m });
            }
            loop {
                let over = TransitionSystem::enabled_set(&k);
                assert_eq!(
                    over,
                    default_enabled_set(&k),
                    "kernel enabled_set override must match the trait default"
                );
                let options: Vec<ThreadId> = over.iter().collect();
                if options.is_empty() {
                    break;
                }
                let t = options[lcg(&mut rng) as usize % options.len()];
                TransitionSystem::step(&mut k, t, 0);
            }
        }
    }

    #[test]
    fn enabled_set_default_agrees_on_fuzzed_systems() {
        use crate::fuzz::{derive_seed, generate_system, FuzzConfig};

        for index in 0..40 {
            let seed = derive_seed(0xE5E7, index);
            let mut sys = generate_system(&FuzzConfig::default().with_seed(seed));
            let mut rng = seed | 1;
            for _ in 0..200 {
                let es = sys.enabled_set();
                assert_eq!(
                    es,
                    default_enabled_set(&sys),
                    "fuzzed system enabled_set disagrees with the default (seed {seed})"
                );
                let options: Vec<ThreadId> = es.iter().collect();
                if options.is_empty() {
                    break;
                }
                let t = options[lcg(&mut rng) as usize % options.len()];
                let choice = lcg(&mut rng) as u32 % sys.branching(t).max(1) as u32;
                sys.step(t, choice);
            }
        }
    }

    /// Walks `sys` randomly for up to 500 steps and checks at every state
    /// that `status_with_enabled` (handed the state's enabled set)
    /// returns exactly what `status` does.
    fn assert_status_agrees<S: TransitionSystem>(sys: &mut S, rng: &mut u64, what: &str) {
        for _ in 0..500 {
            let es = sys.enabled_set();
            assert_eq!(
                sys.status_with_enabled(&es),
                sys.status(),
                "{what}: status_with_enabled disagrees with status"
            );
            if !sys.status().is_running() {
                return;
            }
            let options: Vec<ThreadId> = es.iter().collect();
            let t = options[lcg(rng) as usize % options.len()];
            let choice = lcg(rng) as u32 % sys.branching(t).max(1) as u32;
            sys.step(t, choice);
        }
    }

    /// The kernel's override agrees with `status` in running, terminated,
    /// deadlocked and violating states.
    #[test]
    fn status_with_enabled_agrees_with_kernel_status() {
        use chess_kernel::{Effects, GuestThread, MutexId, OpDesc, OpResult};

        // Takes `first` then `second`: two of them in opposite order can
        // deadlock. With `check`, a thread entering with the counter at 1
        // reports a violation.
        #[derive(Clone)]
        struct Locker {
            pc: u8,
            first: MutexId,
            second: MutexId,
            check: bool,
        }
        impl GuestThread<u32> for Locker {
            fn next_op(&self, _: &u32) -> OpDesc {
                match self.pc {
                    0 => OpDesc::Acquire(self.first),
                    1 => OpDesc::Acquire(self.second),
                    2 => OpDesc::Local,
                    3 => OpDesc::Release(self.second),
                    4 => OpDesc::Release(self.first),
                    _ => OpDesc::Finished,
                }
            }
            fn on_op(&mut self, _: OpResult, shared: &mut u32, fx: &mut Effects<u32>) {
                if self.pc == 2 {
                    if self.check && *shared == 1 {
                        fx.fail("second entry");
                    }
                    *shared += 1;
                }
                self.pc += 1;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<u32>> {
                Box::new(self.clone())
            }
        }

        let mut rng = 0x5747u64;
        let (mut deadlocks, mut violations, mut terminated) = (0, 0, 0);
        for i in 0..200 {
            let mut k = Kernel::new(0u32);
            let (a, b) = (k.add_mutex(), k.add_mutex());
            let check = i % 2 == 0;
            k.spawn(Locker {
                pc: 0,
                first: a,
                second: b,
                check,
            });
            k.spawn(Locker {
                pc: 0,
                first: b,
                second: a,
                check,
            });
            assert_status_agrees(&mut k, &mut rng, "kernel");
            match TransitionSystem::status(&k) {
                SystemStatus::Deadlock => deadlocks += 1,
                SystemStatus::Violation(..) => violations += 1,
                SystemStatus::Terminated => terminated += 1,
                SystemStatus::Running => unreachable!("the walk runs to the end"),
            }
        }
        assert!(deadlocks > 0 && violations > 0 && terminated > 0);
    }

    /// The default body agrees on fuzzed systems (it calls `status`).
    #[test]
    fn status_with_enabled_agrees_on_fuzzed_systems() {
        use crate::fuzz::{derive_seed, generate_system, FuzzConfig};

        for index in 0..40 {
            let seed = derive_seed(0x57A7, index);
            let mut sys = generate_system(&FuzzConfig::default().with_seed(seed));
            let mut rng = seed | 1;
            assert_status_agrees(&mut sys, &mut rng, "fuzzed system");
        }
    }

    #[test]
    fn script_footprints_key_on_counters() {
        let s = Script::new(
            vec![
                vec![Act::Inc(0)],
                vec![Act::Dec(1)],
                vec![Act::WaitNonZero(0)],
            ],
            2,
        );
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let t2 = ThreadId::new(2);
        // Writes to distinct counters commute; read/write on the same
        // counter conflicts.
        assert!(!s.dependent(t0, t1));
        assert!(s.dependent(t0, t2));
        assert!(s.dependent(t0, t0));
        assert!(!s.dependent(t1, t2));
    }

    #[test]
    fn fingerprint_tracks_state_bytes() {
        let mut s = Script::new(vec![vec![Act::Step, Act::Step]], 0);
        let f0 = s.fingerprint();
        let b0 = s.state_bytes();
        s.step(ThreadId::new(0), 0);
        assert_ne!(f0, s.fingerprint());
        assert_ne!(b0, s.state_bytes());
    }
}
