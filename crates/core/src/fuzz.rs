//! `chess-fuzz`: a seeded generator of small random transition systems.
//!
//! The generator produces [`FuzzSystem`]s — straight-line scripts of
//! counter, lock, flag, yield and data-choice operations — whose state
//! spaces are small enough to enumerate exhaustively with the stateful
//! reference in `chess-state`, yet varied enough to exercise every corner
//! of the fair scheduler: yields at controllable density, lock-protected
//! critical sections, polite and impolite spin loops, and nondeterministic
//! data choices.
//!
//! Base systems are deadlock- and livelock-free **by construction**:
//!
//! * every `Dec` is matched at generation time to a distinct `Inc` token
//!   produced either by a lower-numbered thread or earlier in the same
//!   script, and only *clean* tokens — `Inc`s that precede every `Dec` of
//!   their producing thread — are eligible, so no counter wait can be
//!   starved by a stolen unit;
//! * locks are well nested within one thread and critical sections
//!   contain no blocking or spinning operations, so a lock holder is
//!   always enabled;
//! * every spin loop waits on a flag with a *clean* setter (a `SetFlag`
//!   preceding every `Dec` and spin of a lower-numbered thread), so on
//!   any fair cycle the setter must eventually run and break the spin.
//!
//! On top of a clean base, four knobs inject one bug each, using fresh
//! resources so the injection cannot interfere with the base threads:
//!
//! * [`FuzzConfig::inject_safety`] — a racy counter plus an `AssertZero`
//!   that fails on one interleaving;
//! * [`FuzzConfig::inject_deadlock`] — two threads acquiring two fresh
//!   locks in opposite orders;
//! * [`FuzzConfig::inject_livelock`] — a polite spin on a flag nobody
//!   ever sets: a definite fair cycle (Theorem 6's livelock);
//! * [`FuzzConfig::inject_panic`] — a racy counter plus a
//!   `PanicIfNonZero` that *unwinds out of the workload* on one
//!   interleaving, exercising the explorer's panic isolation end to end.

use std::fmt::Write as _;
use std::sync::Arc;

use chess_kernel::{
    Access, AccessKind, AtomicId, Capture, Effects, Footprint, GuestThread, Kernel, MemoryModel,
    ObjectRef, OpDesc, OpResult, StateWriter, StepKind, ThreadId,
};

use crate::system::{SystemStatus, TransitionSystem};

/// Knobs of the random transition-system generator.
///
/// All fields are plain data so a configuration can round-trip through a
/// corpus file and regenerate the identical system.
///
/// When any injection knob is set the base is capped at 2 threads of at
/// most 2 operations each: injections add whole threads, and the
/// differential oracles need the combined state space to stay small
/// enough for the exhaustive stateful reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Seed of the generator's deterministic PRNG.
    pub seed: u64,
    /// Maximum number of base threads (at least 2; injections add more).
    pub max_threads: usize,
    /// Maximum script length per base thread, in operation slots.
    pub max_ops: usize,
    /// Number of shared counters available to base threads.
    pub counters: usize,
    /// Number of locks available to base threads.
    pub locks: usize,
    /// Number of flags available to base threads.
    pub flags: usize,
    /// Yield density in percent: probability of a slot becoming a
    /// `Yield`, and of a spin loop being polite (yielding while it
    /// spins). `100` makes every spin polite.
    pub yield_percent: u32,
    /// Injects a racy-counter safety violation (fresh counter).
    pub inject_safety: bool,
    /// Injects an opposite-order lock-acquisition deadlock (fresh locks).
    pub inject_deadlock: bool,
    /// Injects a polite spin on a never-set flag: a definite livelock.
    pub inject_livelock: bool,
    /// Injects a racy counter plus a panic that fires on one
    /// interleaving (fresh counter): a workload crash, not a violation
    /// the system reports itself.
    pub inject_panic: bool,
    /// Memory model the relaxed-memory differential passes instantiate
    /// atomic programs under (see [`generate_atomic_program`]). `Sc`
    /// disables those passes; the base [`FuzzSystem`] generator is
    /// unaffected either way.
    pub memory: MemoryModel,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            max_threads: 3,
            max_ops: 4,
            counters: 2,
            locks: 2,
            flags: 2,
            yield_percent: 60,
            inject_safety: false,
            inject_deadlock: false,
            inject_livelock: false,
            inject_panic: false,
            memory: MemoryModel::Sc,
        }
    }
}

impl FuzzConfig {
    /// Returns the configuration with a different seed — used to derive
    /// per-system configurations from one base configuration.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Derives the seed of the `index`-th system of a fuzzing run from the
/// run's base seed (a SplitMix64 step, so neighbouring indices produce
/// unrelated streams).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    SplitMix64::new(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next()
}

/// One operation of a generated script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// A local step: no shared effect.
    Step,
    /// A good-samaritan yield: no shared effect, `StepKind::Yield`.
    Yield,
    /// Increments a shared counter.
    Inc(usize),
    /// Decrements a shared counter; enabled only while it is nonzero.
    Dec(usize),
    /// Acquires a lock; enabled only while it is free.
    Lock(usize),
    /// Releases a lock held by this thread.
    Unlock(usize),
    /// Sets a shared flag.
    SetFlag(usize),
    /// Spins (a self-loop that stays at this op) while the flag is unset;
    /// falls through once it is set. A polite spin yields on every
    /// spinning iteration, an impolite one does not — the latter is a
    /// deliberate good-samaritan violation.
    SpinWhileZero {
        /// The flag being awaited.
        flag: usize,
        /// Whether spinning iterations are yields.
        polite: bool,
    },
    /// A nondeterministic data choice of the given width; the chosen
    /// value is recorded in the thread's local state.
    Choose {
        /// Number of alternatives (the scheduler enumerates them all).
        width: u32,
    },
    /// Fails (a safety violation) if the counter is nonzero.
    AssertZero(usize),
    /// Panics — unwinds out of the workload — if the counter is nonzero.
    /// Unlike [`FuzzOp::AssertZero`] the system never gets to report a
    /// violation itself; the explorer's panic isolation must catch the
    /// unwind and turn it into a replayable counterexample.
    PanicIfNonZero(usize),
}

impl FuzzOp {
    fn describe(&self) -> String {
        match *self {
            FuzzOp::Step => "step".into(),
            FuzzOp::Yield => "yield".into(),
            FuzzOp::Inc(c) => format!("inc(c{c})"),
            FuzzOp::Dec(c) => format!("dec(c{c})"),
            FuzzOp::Lock(m) => format!("lock(m{m})"),
            FuzzOp::Unlock(m) => format!("unlock(m{m})"),
            FuzzOp::SetFlag(f) => format!("set(f{f})"),
            FuzzOp::SpinWhileZero { flag, polite } => {
                format!("spin(f{flag}{})", if polite { ", polite" } else { "" })
            }
            FuzzOp::Choose { width } => format!("choose({width})"),
            FuzzOp::AssertZero(c) => format!("assert(c{c} == 0)"),
            FuzzOp::PanicIfNonZero(c) => format!("panic_if(c{c} != 0)"),
        }
    }
}

/// A generated transition system: per-thread scripts over shared
/// counters, locks and flags.
///
/// The scripts are immutable and shared (`Arc`), so cloning a system —
/// which both the stateful reference and the stateless explorer's
/// factory do heavily — copies only the mutable state vectors.
#[derive(Debug, Clone)]
pub struct FuzzSystem {
    scripts: Arc<Vec<Vec<FuzzOp>>>,
    pcs: Vec<u32>,
    counters: Vec<u64>,
    /// `0` = free, `t + 1` = held by thread `t`.
    locks: Vec<u32>,
    flags: Vec<bool>,
    /// Last data choice per thread (`u32::MAX` = none yet).
    choices: Vec<u32>,
    violation: Option<(ThreadId, String)>,
}

impl FuzzSystem {
    /// Builds a system from explicit scripts — used by tests and by the
    /// injection machinery; fuzzing goes through [`generate_system`].
    pub fn from_scripts(
        scripts: Vec<Vec<FuzzOp>>,
        counters: usize,
        locks: usize,
        flags: usize,
    ) -> Self {
        let n = scripts.len();
        FuzzSystem {
            scripts: Arc::new(scripts),
            pcs: vec![0; n],
            counters: vec![0; counters],
            locks: vec![0; locks],
            flags: vec![false; flags],
            choices: vec![u32::MAX; n],
            violation: None,
        }
    }

    /// The scripts this system executes, one per thread.
    pub fn scripts(&self) -> &[Vec<FuzzOp>] {
        &self.scripts
    }

    fn current_op(&self, t: ThreadId) -> Option<FuzzOp> {
        self.scripts[t.index()]
            .get(self.pcs[t.index()] as usize)
            .copied()
    }

    fn finished(&self, t: ThreadId) -> bool {
        self.pcs[t.index()] as usize >= self.scripts[t.index()].len()
    }
}

impl TransitionSystem for FuzzSystem {
    fn thread_count(&self) -> usize {
        self.scripts.len()
    }

    /// A fuzzed system is plain data, so a copy is a clone: pooling and
    /// prefix snapshots apply to fuzzed searches too.
    fn reset_from(&mut self, template: &Self) -> bool {
        self.clone_from(template);
        true
    }

    fn enabled(&self, t: ThreadId) -> bool {
        match self.current_op(t) {
            None => false,
            Some(FuzzOp::Dec(c)) => self.counters[c] > 0,
            Some(FuzzOp::Lock(m)) => self.locks[m] == 0,
            Some(_) => true,
        }
    }

    fn is_yielding(&self, t: ThreadId) -> bool {
        match self.current_op(t) {
            Some(FuzzOp::Yield) => true,
            Some(FuzzOp::SpinWhileZero { flag, polite }) => polite && !self.flags[flag],
            _ => false,
        }
    }

    fn branching(&self, t: ThreadId) -> usize {
        match self.current_op(t) {
            Some(FuzzOp::Choose { width }) => width as usize,
            _ => 1,
        }
    }

    fn footprint(&self, t: ThreadId) -> Footprint {
        // Precise per-object footprints: every shared cell a step reads or
        // writes — including the cells its *enabledness* depends on (a
        // `Dec` or `Lock` blocks on the very cell it writes, so the write
        // access already covers the enabledness read). These drive the
        // measurable sleep-set reduction on the fuzz corpus.
        let access = |o, k| Footprint::from_accesses([Access::new(o, k)]);
        let counter = |c: usize| ObjectRef::Custom("counter", c as u32);
        let lock = |m: usize| ObjectRef::Custom("lock", m as u32);
        let flag = |f: usize| ObjectRef::Custom("flag", f as u32);
        match self.current_op(t) {
            None | Some(FuzzOp::Step) | Some(FuzzOp::Yield) | Some(FuzzOp::Choose { .. }) => {
                Footprint::local()
            }
            Some(FuzzOp::Inc(c)) | Some(FuzzOp::Dec(c)) => access(counter(c), AccessKind::Write),
            Some(FuzzOp::AssertZero(c)) | Some(FuzzOp::PanicIfNonZero(c)) => {
                access(counter(c), AccessKind::Read)
            }
            Some(FuzzOp::Lock(m)) => access(lock(m), AccessKind::Acquire),
            Some(FuzzOp::Unlock(m)) => access(lock(m), AccessKind::Release),
            Some(FuzzOp::SetFlag(f)) => access(flag(f), AccessKind::Write),
            Some(FuzzOp::SpinWhileZero { flag: f, .. }) => access(flag(f), AccessKind::Read),
        }
    }

    fn step(&mut self, t: ThreadId, choice: u32) -> StepKind {
        let op = self.current_op(t).expect("step on a finished fuzz thread");
        let i = t.index();
        match op {
            FuzzOp::Step => {
                self.pcs[i] += 1;
                StepKind::Normal
            }
            FuzzOp::Yield => {
                self.pcs[i] += 1;
                StepKind::Yield
            }
            FuzzOp::Inc(c) => {
                self.counters[c] += 1;
                self.pcs[i] += 1;
                StepKind::Normal
            }
            FuzzOp::Dec(c) => {
                debug_assert!(self.counters[c] > 0, "dec on zero counter");
                self.counters[c] -= 1;
                self.pcs[i] += 1;
                StepKind::Normal
            }
            FuzzOp::Lock(m) => {
                debug_assert_eq!(self.locks[m], 0, "lock acquired while held");
                self.locks[m] = i as u32 + 1;
                self.pcs[i] += 1;
                StepKind::Normal
            }
            FuzzOp::Unlock(m) => {
                debug_assert_eq!(self.locks[m], i as u32 + 1, "unlock by non-holder");
                self.locks[m] = 0;
                self.pcs[i] += 1;
                StepKind::Normal
            }
            FuzzOp::SetFlag(f) => {
                self.flags[f] = true;
                self.pcs[i] += 1;
                StepKind::Normal
            }
            FuzzOp::SpinWhileZero { flag, polite } => {
                if self.flags[flag] {
                    self.pcs[i] += 1;
                    StepKind::Normal
                } else if polite {
                    StepKind::Yield
                } else {
                    StepKind::Normal
                }
            }
            FuzzOp::Choose { width } => {
                debug_assert!(choice < width, "choice out of range");
                self.choices[i] = choice;
                self.pcs[i] += 1;
                StepKind::Normal
            }
            FuzzOp::AssertZero(c) => {
                if self.counters[c] != 0 {
                    self.violation = Some((
                        t,
                        format!("assert failed: c{c} = {} != 0", self.counters[c]),
                    ));
                } else {
                    self.pcs[i] += 1;
                }
                StepKind::Normal
            }
            FuzzOp::PanicIfNonZero(c) => {
                if self.counters[c] != 0 {
                    panic!("injected panic: c{c} = {} != 0", self.counters[c]);
                }
                self.pcs[i] += 1;
                StepKind::Normal
            }
        }
    }

    fn status(&self) -> SystemStatus {
        if let Some((t, msg)) = &self.violation {
            return SystemStatus::Violation(*t, msg.clone());
        }
        let mut any_unfinished = false;
        for i in 0..self.thread_count() {
            let t = ThreadId::new(i);
            if !self.finished(t) {
                any_unfinished = true;
                if self.enabled(t) {
                    return SystemStatus::Running;
                }
            }
        }
        if any_unfinished {
            SystemStatus::Deadlock
        } else {
            SystemStatus::Terminated
        }
    }

    fn fingerprint(&self) -> u64 {
        // FNV-1a over the canonical state bytes.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.state_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 * self.pcs.len() + 8 * self.counters.len() + self.locks.len() + self.flags.len() + 8,
        );
        for &pc in &self.pcs {
            out.extend_from_slice(&pc.to_le_bytes());
        }
        for &c in &self.counters {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &l in &self.locks {
            out.extend_from_slice(&l.to_le_bytes());
        }
        for &f in &self.flags {
            out.push(u8::from(f));
        }
        for &ch in &self.choices {
            out.extend_from_slice(&ch.to_le_bytes());
        }
        out.push(match &self.violation {
            None => 0,
            Some((t, _)) => t.index() as u8 + 1,
        });
        out
    }

    fn describe_op(&self, t: ThreadId) -> String {
        match self.current_op(t) {
            Some(op) => op.describe(),
            None => "finished".into(),
        }
    }

    fn thread_name(&self, t: ThreadId) -> String {
        format!("f{}", t.index())
    }
}

/// Renders the scripts of a system as a compact multi-line listing —
/// used when reporting a discrepancy so the offending system can be read
/// without regenerating it.
pub fn render_scripts(sys: &FuzzSystem) -> String {
    let mut out = String::new();
    for (i, script) in sys.scripts().iter().enumerate() {
        let _ = write!(out, "f{i}:");
        for op in script {
            let _ = write!(out, " {}", op.describe());
        }
        out.push('\n');
    }
    out
}

/// The SplitMix64 PRNG: tiny, seedable, and with no global state, so
/// generation is a pure function of [`FuzzConfig`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < u64::from(percent)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Generates the system described by `config`.
///
/// Generation is deterministic: the same configuration always yields the
/// same system, which is what makes corpus files replayable.
pub fn generate_system(config: &FuzzConfig) -> FuzzSystem {
    let mut rng = SplitMix64::new(config.seed);
    let injecting = config.inject_safety
        || config.inject_deadlock
        || config.inject_livelock
        || config.inject_panic;
    // Injections add whole threads; cap the base so the exhaustive
    // stateful reference stays tractable on injected systems.
    let (cap_threads, cap_ops) = if injecting {
        (2, config.max_ops.min(2))
    } else {
        (config.max_threads, config.max_ops)
    };
    let max_threads = cap_threads.max(2);
    let threads = 2 + rng.below(max_threads as u64 - 1) as usize;
    let n_counters = config.counters.max(1);
    let n_locks = config.locks.max(1);
    let n_flags = config.flags.max(1);

    let mut scripts: Vec<Vec<FuzzOp>> = Vec::with_capacity(threads + 2);
    // Unconsumed clean Inc tokens: counters incremented before any Dec of
    // their producing thread, usable by that thread later in its script
    // and by all higher-numbered threads.
    let mut tokens: Vec<usize> = Vec::new();
    // Flags with a clean setter in a lower-numbered thread.
    let mut ready_flags: Vec<usize> = Vec::new();

    for _ in 0..threads {
        let slots = 1 + rng.below(cap_ops.max(1) as u64) as usize;
        let mut script: Vec<FuzzOp> = Vec::with_capacity(slots + 2);
        // Tokens stay clean while the thread has not emitted a Dec; flag
        // setters stay clean while it has emitted neither a Dec nor a spin.
        let mut has_dec = false;
        let mut has_dec_or_spin = false;
        let mut has_choose = false;
        // Flags this thread sets cleanly, published to later threads only.
        let mut my_clean_flags: Vec<usize> = Vec::new();

        while script.len() < slots {
            if rng.chance(config.yield_percent / 3) {
                script.push(FuzzOp::Yield);
                continue;
            }
            match rng.below(7) {
                0 => script.push(FuzzOp::Step),
                1 => {
                    let c = rng.below(n_counters as u64) as usize;
                    script.push(FuzzOp::Inc(c));
                    if !has_dec {
                        tokens.push(c);
                    }
                }
                2 => {
                    // Dec a matched clean token, or fall back to a step.
                    if tokens.is_empty() {
                        script.push(FuzzOp::Step);
                    } else {
                        let k = rng.below(tokens.len() as u64) as usize;
                        let c = tokens.swap_remove(k);
                        script.push(FuzzOp::Dec(c));
                        has_dec = true;
                        has_dec_or_spin = true;
                    }
                }
                3 => {
                    // A critical section: lock, a few nonblocking ops,
                    // unlock. Never nested, never blocking inside.
                    let m = rng.below(n_locks as u64) as usize;
                    script.push(FuzzOp::Lock(m));
                    for _ in 0..rng.below(3) {
                        if rng.chance(config.yield_percent / 3) {
                            script.push(FuzzOp::Yield);
                        } else if rng.chance(50) {
                            script.push(FuzzOp::Step);
                        } else {
                            let c = rng.below(n_counters as u64) as usize;
                            script.push(FuzzOp::Inc(c));
                            if !has_dec {
                                tokens.push(c);
                            }
                        }
                    }
                    script.push(FuzzOp::Unlock(m));
                }
                4 => {
                    let f = rng.below(n_flags as u64) as usize;
                    script.push(FuzzOp::SetFlag(f));
                    if !has_dec_or_spin {
                        my_clean_flags.push(f);
                    }
                }
                5 => {
                    // Spin on a flag guaranteed to be set by an earlier
                    // thread, or fall back to a yield.
                    if ready_flags.is_empty() {
                        script.push(FuzzOp::Yield);
                    } else {
                        let flag = rng.pick(&ready_flags);
                        let polite = rng.chance(config.yield_percent);
                        script.push(FuzzOp::SpinWhileZero { flag, polite });
                        has_dec_or_spin = true;
                    }
                }
                _ => {
                    // One data choice per thread keeps the interleaving
                    // count exhaustively explorable.
                    if has_choose {
                        script.push(FuzzOp::Step);
                    } else {
                        script.push(FuzzOp::Choose { width: 2 });
                        has_choose = true;
                    }
                }
            }
        }
        ready_flags.extend(my_clean_flags);
        scripts.push(script);
    }

    let mut counters = n_counters;
    let mut locks = n_locks;
    let mut flags = n_flags;

    if config.inject_safety {
        // A racy counter: the assert fails iff it runs between the inc
        // and the dec of the other thread.
        let c = counters;
        counters += 1;
        scripts.push(vec![FuzzOp::Inc(c), FuzzOp::Step, FuzzOp::Dec(c)]);
        scripts.push(vec![FuzzOp::Step, FuzzOp::AssertZero(c)]);
    }
    if config.inject_deadlock {
        // Opposite-order acquisition of two fresh locks.
        let (ma, mb) = (locks, locks + 1);
        locks += 2;
        scripts.push(vec![
            FuzzOp::Lock(ma),
            FuzzOp::Lock(mb),
            FuzzOp::Unlock(mb),
            FuzzOp::Unlock(ma),
        ]);
        scripts.push(vec![
            FuzzOp::Lock(mb),
            FuzzOp::Lock(ma),
            FuzzOp::Unlock(ma),
            FuzzOp::Unlock(mb),
        ]);
    }
    if config.inject_panic {
        // A racy counter like the safety injection, but the observer
        // panics instead of flagging a violation: the crash only happens
        // if the check runs between the inc and the dec.
        let c = counters;
        counters += 1;
        scripts.push(vec![FuzzOp::Inc(c), FuzzOp::Step, FuzzOp::Dec(c)]);
        scripts.push(vec![FuzzOp::Step, FuzzOp::PanicIfNonZero(c)]);
    }
    if config.inject_livelock {
        // A polite spin on a flag nobody sets: once every other thread
        // has finished, the spinner alone forms a fair cycle.
        let f = flags;
        flags += 1;
        scripts.push(vec![
            FuzzOp::Step,
            FuzzOp::SpinWhileZero {
                flag: f,
                polite: true,
            },
        ]);
    }

    FuzzSystem::from_scripts(scripts, counters, locks, flags)
}

// ---------------------------------------------------------------------------
// Relaxed-memory fuzzing: atomic programs executed through the kernel
// ---------------------------------------------------------------------------

/// One operation of a generated atomic program.
///
/// Atomic programs are straight-line and blocking-free by construction
/// (RMWs and fences only wait on the thread's *own* store buffer, which a
/// flusher lane can always drain), so every interleaving terminates and
/// none reports a violation — what varies across memory models is the set
/// of *observations* the loads make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicFuzzOp {
    /// A local step with no shared effect.
    Local,
    /// Stores `value` to `location` — buffered under TSO/PSO.
    Store {
        /// Index of the atomic cell written.
        location: usize,
        /// The value written (unique per program, so forwarding and
        /// reordering are observable).
        value: u64,
    },
    /// Loads `location`, forwarding from the issuing thread's store
    /// buffer when it holds the location; the observed value is appended
    /// to the thread's log.
    Load {
        /// Index of the atomic cell read.
        location: usize,
    },
    /// Atomic fetch-add: an RMW, which under a buffering model waits for
    /// the issuing thread's buffer to drain first (x86 `LOCK` semantics).
    Add {
        /// Index of the atomic cell updated.
        location: usize,
        /// The addend.
        delta: u64,
    },
    /// A full fence: blocks until the issuing thread's buffer is empty.
    Fence,
}

impl AtomicFuzzOp {
    fn describe(&self) -> String {
        match *self {
            AtomicFuzzOp::Local => "local".into(),
            AtomicFuzzOp::Store { location, value } => format!("store(x{location}, {value})"),
            AtomicFuzzOp::Load { location } => format!("load(x{location})"),
            AtomicFuzzOp::Add { location, delta } => format!("add(x{location}, {delta})"),
            AtomicFuzzOp::Fence => "fence".into(),
        }
    }
}

/// Shared state of an instantiated atomic program: every value each guest
/// loaded, in program order.
///
/// The logs are part of the captured state, so two executions that
/// observe different values are distinct terminal outcomes even when they
/// leave memory identical — the store-buffering litmus shape, where the
/// interesting relaxed behaviour lives entirely in what the loads saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomicObservations {
    logs: Vec<Vec<u64>>,
}

impl AtomicObservations {
    /// The values guest `g` loaded, in program order.
    pub fn log(&self, g: usize) -> &[u64] {
        &self.logs[g]
    }
}

impl Capture for AtomicObservations {
    fn capture(&self, w: &mut StateWriter) {
        w.write_usize(self.logs.len());
        for log in &self.logs {
            w.write_usize(log.len());
            for &v in log {
                w.write_u64(v);
            }
        }
    }
}

/// A kernel guest driving one script of an [`AtomicProgram`].
#[derive(Clone)]
struct AtomicScriptThread {
    ops: Arc<Vec<AtomicFuzzOp>>,
    cells: Arc<Vec<AtomicId>>,
    pc: usize,
    me: usize,
}

impl GuestThread<AtomicObservations> for AtomicScriptThread {
    fn next_op(&self, _shared: &AtomicObservations) -> OpDesc {
        match self.ops.get(self.pc) {
            None => OpDesc::Finished,
            Some(AtomicFuzzOp::Local) => OpDesc::Local,
            Some(&AtomicFuzzOp::Store { location, value }) => {
                OpDesc::AtomicStore(self.cells[location], value)
            }
            Some(&AtomicFuzzOp::Load { location }) => OpDesc::AtomicLoad(self.cells[location]),
            Some(&AtomicFuzzOp::Add { location, delta }) => {
                OpDesc::AtomicAdd(self.cells[location], delta)
            }
            Some(AtomicFuzzOp::Fence) => OpDesc::Fence,
        }
    }

    fn on_op(
        &mut self,
        result: OpResult,
        shared: &mut AtomicObservations,
        _fx: &mut Effects<AtomicObservations>,
    ) {
        if let (Some(AtomicFuzzOp::Load { .. }), OpResult::Value(v)) =
            (self.ops.get(self.pc), result)
        {
            shared.logs[self.me].push(v);
        }
        self.pc += 1;
    }

    fn name(&self) -> String {
        format!("a{}", self.me)
    }

    fn capture(&self, w: &mut StateWriter) {
        w.write_usize(self.pc);
    }

    fn box_clone(&self) -> Box<dyn GuestThread<AtomicObservations>> {
        Box::new(self.clone())
    }
}

/// A generated atomic program: per-thread scripts of store/load/RMW/fence
/// operations over a small set of atomic cells, instantiable as a
/// [`Kernel`] under any [`MemoryModel`].
///
/// The same program instantiated under SC, TSO and PSO is the raw
/// material of the memory-model monotonicity oracle: the sets of
/// reachable terminal outcomes must satisfy SC ⊆ TSO ⊆ PSO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicProgram {
    scripts: Vec<Vec<AtomicFuzzOp>>,
    locations: usize,
}

impl AtomicProgram {
    /// Builds a program from explicit scripts over `locations` atomic
    /// cells (all initially zero) — used by tests; fuzzing goes through
    /// [`generate_atomic_program`].
    pub fn from_scripts(scripts: Vec<Vec<AtomicFuzzOp>>, locations: usize) -> Self {
        AtomicProgram { scripts, locations }
    }

    /// The per-thread scripts.
    pub fn scripts(&self) -> &[Vec<AtomicFuzzOp>] {
        &self.scripts
    }

    /// Number of atomic cells the program uses.
    pub fn locations(&self) -> usize {
        self.locations
    }

    /// Instantiates the program as a fresh kernel under `memory`.
    pub fn instantiate(&self, memory: MemoryModel) -> Kernel<AtomicObservations> {
        let shared = AtomicObservations {
            logs: vec![Vec::new(); self.scripts.len()],
        };
        let mut k = Kernel::with_memory(shared, memory);
        let cells: Arc<Vec<AtomicId>> =
            Arc::new((0..self.locations).map(|_| k.add_atomic(0)).collect());
        for (me, script) in self.scripts.iter().enumerate() {
            k.spawn(AtomicScriptThread {
                ops: Arc::new(script.clone()),
                cells: Arc::clone(&cells),
                pc: 0,
                me,
            });
        }
        k
    }
}

/// Renders the scripts of an atomic program, for discrepancy reports.
pub fn render_atomic_scripts(prog: &AtomicProgram) -> String {
    let mut out = String::new();
    for (i, script) in prog.scripts().iter().enumerate() {
        let _ = write!(out, "a{i}:");
        for op in script {
            let _ = write!(out, " {}", op.describe());
        }
        out.push('\n');
    }
    out
}

/// Generates the atomic program described by `config` (deterministic in
/// `config.seed`; `max_threads` and `max_ops` bound its shape).
///
/// Stores carry globally unique values so every load observation
/// identifies exactly which store (or initial zero) it read — the
/// terminal observation logs then separate executions that differ only in
/// forwarding or flush order.
pub fn generate_atomic_program(config: &FuzzConfig) -> AtomicProgram {
    let mut rng = SplitMix64::new(config.seed);
    let max_threads = config.max_threads.max(2);
    let threads = 2 + rng.below(max_threads as u64 - 1) as usize;
    // Few cells keep same-location races frequent; more than 3 and the
    // programs stop exhibiting interesting forwarding.
    let locations = config.counters.clamp(1, 3);
    let mut next_value = 0u64;
    let mut scripts = Vec::with_capacity(threads);
    for _ in 0..threads {
        let slots = 1 + rng.below(config.max_ops.max(1) as u64) as usize;
        let mut script = Vec::with_capacity(slots);
        for _ in 0..slots {
            let location = rng.below(locations as u64) as usize;
            script.push(match rng.below(10) {
                0..=3 => {
                    next_value += 1;
                    AtomicFuzzOp::Store {
                        location,
                        value: next_value,
                    }
                }
                4..=7 => AtomicFuzzOp::Load { location },
                8 => AtomicFuzzOp::Add { location, delta: 1 },
                _ => {
                    if rng.chance(50) {
                        AtomicFuzzOp::Fence
                    } else {
                        AtomicFuzzOp::Local
                    }
                }
            });
        }
        scripts.push(script);
    }
    AtomicProgram { scripts, locations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Config;
    use crate::strategy::Dfs;
    use crate::Explorer;

    #[test]
    fn generation_is_deterministic() {
        let cfg = FuzzConfig::default().with_seed(7);
        let a = generate_system(&cfg);
        let b = generate_system(&cfg);
        assert_eq!(a.scripts(), b.scripts());
        assert_eq!(a.state_bytes(), b.state_bytes());
    }

    #[test]
    fn derived_seeds_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn base_systems_complete_without_errors() {
        for i in 0..30 {
            let cfg = FuzzConfig::default().with_seed(derive_seed(42, i));
            let report = Explorer::new(
                || generate_system(&cfg),
                Dfs::new(),
                Config::fair().with_max_executions(200_000),
            )
            .run();
            assert!(
                matches!(
                    report.outcome,
                    crate::SearchOutcome::Complete
                        | crate::SearchOutcome::Divergence(crate::Divergence {
                            kind: crate::DivergenceKind::UnfairCycle { .. },
                            ..
                        })
                ),
                "seed {i}: {:?}\n{}",
                report.outcome,
                render_scripts(&generate_system(&cfg)),
            );
        }
    }

    #[test]
    fn injected_safety_bug_is_found() {
        let cfg = FuzzConfig {
            inject_safety: true,
            yield_percent: 100,
            ..FuzzConfig::default().with_seed(3)
        };
        let report = Explorer::new(|| generate_system(&cfg), Dfs::new(), Config::fair()).run();
        assert!(
            matches!(report.outcome, crate::SearchOutcome::SafetyViolation(_)),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn injected_deadlock_is_found() {
        let cfg = FuzzConfig {
            inject_deadlock: true,
            yield_percent: 100,
            ..FuzzConfig::default().with_seed(3)
        };
        let report = Explorer::new(|| generate_system(&cfg), Dfs::new(), Config::fair()).run();
        assert!(
            matches!(report.outcome, crate::SearchOutcome::Deadlock(_)),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn injected_livelock_is_found_as_fair_cycle() {
        let cfg = FuzzConfig {
            inject_livelock: true,
            yield_percent: 100,
            ..FuzzConfig::default().with_seed(3)
        };
        let report = Explorer::new(
            || generate_system(&cfg),
            Dfs::new(),
            Config::fair()
                .with_stop_on_error(false)
                .with_max_executions(200_000),
        )
        .run();
        assert!(report.stats.fair_cycles > 0, "{:?}", report.stats);
    }

    #[test]
    fn injected_panic_is_isolated_and_minimizable() {
        let cfg = FuzzConfig {
            inject_panic: true,
            yield_percent: 100,
            ..FuzzConfig::default().with_seed(3)
        };
        let report = Explorer::new(|| generate_system(&cfg), Dfs::new(), Config::fair()).run();
        let crate::SearchOutcome::Panic(cex) = &report.outcome else {
            panic!("expected an isolated panic, got {:?}", report.outcome);
        };
        assert!(cex.message.starts_with("injected panic"), "{}", cex.message);
        // The schedule alone pins the crash, and ddmin keeps it pinned.
        let kind = crate::OutcomeKind::of(&report.outcome).unwrap();
        let minimized = crate::minimize_schedule(
            || generate_system(&cfg),
            &Config::fair(),
            &cex.schedule,
            kind,
        );
        assert!(minimized.len() <= cex.schedule.len());
        assert!(crate::reproduces(
            || generate_system(&cfg),
            &Config::fair(),
            &minimized,
            kind
        ));
    }

    #[test]
    fn footprints_key_on_the_touched_cell() {
        let sys = FuzzSystem::from_scripts(
            vec![
                vec![FuzzOp::Inc(0)],
                vec![FuzzOp::Inc(1)],
                vec![FuzzOp::AssertZero(0)],
                vec![FuzzOp::Lock(0)],
            ],
            2,
            1,
            1,
        );
        let t = ThreadId::new;
        assert!(!sys.dependent(t(0), t(1)), "distinct counters commute");
        assert!(sys.dependent(t(0), t(2)), "write vs assert on c0 conflict");
        assert!(!sys.dependent(t(1), t(2)), "c1 write vs c0 read commute");
        assert!(!sys.dependent(t(0), t(3)), "counter vs lock commute");
        assert!(sys.dependent(t(2), t(2)), "a thread depends on itself");
    }

    /// Sleep-set DFS must complete with the same (error-free) verdict as
    /// plain DFS on clean fuzzed systems while exploring no more — and in
    /// aggregate strictly fewer — executions.
    #[test]
    fn sleep_sets_agree_with_plain_dfs_on_fuzzed_systems() {
        let mut plain_total = 0u64;
        let mut reduced_total = 0u64;
        for i in 0..25 {
            let cfg = FuzzConfig::default().with_seed(derive_seed(0x51EE, i));
            let config = Config::fair().with_max_executions(200_000);
            let plain = Explorer::new(|| generate_system(&cfg), Dfs::new(), config.clone()).run();
            let reduced = Explorer::new(
                || generate_system(&cfg),
                Dfs::with_sleep_sets(),
                config.clone(),
            )
            .run();
            assert_eq!(
                plain.outcome.found_error(),
                reduced.outcome.found_error(),
                "seed {i}: verdicts diverge\n{}",
                render_scripts(&generate_system(&cfg)),
            );
            assert!(
                reduced.stats.executions <= plain.stats.executions,
                "seed {i}: reduction explored more ({} > {})",
                reduced.stats.executions,
                plain.stats.executions,
            );
            plain_total += plain.stats.executions;
            reduced_total += reduced.stats.executions;
        }
        assert!(
            reduced_total < plain_total,
            "sleep sets pruned nothing across the corpus ({reduced_total} vs {plain_total})"
        );
    }

    /// Collects the terminal state bytes of every fully terminated
    /// execution — the outcome sets the monotonicity oracle compares.
    struct Terminals(std::collections::BTreeSet<Vec<u8>>);

    impl<P: TransitionSystem + ?Sized> crate::Observer<P> for Terminals {
        fn resumable(&self) -> bool {
            true
        }

        fn on_execution_end(&mut self, sys: &P, _depth: usize) {
            if matches!(sys.status(), SystemStatus::Terminated) {
                self.0.insert(sys.state_bytes());
            }
        }
    }

    fn terminal_outcomes(
        prog: &AtomicProgram,
        memory: MemoryModel,
    ) -> std::collections::BTreeSet<Vec<u8>> {
        let mut obs = Terminals(Default::default());
        let report = Explorer::new(
            || prog.instantiate(memory),
            Dfs::new(),
            Config::fair().with_max_executions(500_000),
        )
        .run_observed(&mut obs);
        assert!(
            matches!(report.outcome, crate::SearchOutcome::Complete),
            "{memory}: {:?}\n{}",
            report.outcome,
            render_atomic_scripts(prog),
        );
        obs.0
    }

    #[test]
    fn atomic_generation_is_deterministic() {
        let cfg = FuzzConfig::default().with_seed(9);
        assert_eq!(generate_atomic_program(&cfg), generate_atomic_program(&cfg));
        assert_ne!(
            generate_atomic_program(&cfg),
            generate_atomic_program(&FuzzConfig::default().with_seed(10))
        );
    }

    #[test]
    fn atomic_programs_terminate_cleanly_under_every_model() {
        for i in 0..6 {
            let cfg = FuzzConfig::default().with_seed(derive_seed(0xA70, i));
            let prog = generate_atomic_program(&cfg);
            for memory in MemoryModel::ALL {
                terminal_outcomes(&prog, memory);
            }
        }
    }

    /// The store-buffering shape: under TSO both threads can load the
    /// initial zero (their own store still buffered), an outcome SC
    /// forbids — and every SC outcome stays reachable under TSO.
    #[test]
    fn buffering_strictly_widens_store_buffering_outcomes() {
        let sb = AtomicProgram::from_scripts(
            vec![
                vec![
                    AtomicFuzzOp::Store {
                        location: 0,
                        value: 1,
                    },
                    AtomicFuzzOp::Load { location: 1 },
                ],
                vec![
                    AtomicFuzzOp::Store {
                        location: 1,
                        value: 2,
                    },
                    AtomicFuzzOp::Load { location: 0 },
                ],
            ],
            2,
        );
        let sc = terminal_outcomes(&sb, MemoryModel::Sc);
        let tso = terminal_outcomes(&sb, MemoryModel::Tso);
        assert!(sc.is_subset(&tso), "an SC outcome vanished under TSO");
        assert!(tso.len() > sc.len(), "TSO added no outcome on SB");
    }

    #[test]
    fn atomic_scripts_render() {
        let prog = AtomicProgram::from_scripts(
            vec![vec![
                AtomicFuzzOp::Store {
                    location: 0,
                    value: 7,
                },
                AtomicFuzzOp::Fence,
                AtomicFuzzOp::Load { location: 1 },
            ]],
            2,
        );
        assert_eq!(
            render_atomic_scripts(&prog),
            "a0: store(x0, 7) fence load(x1)\n"
        );
    }

    #[test]
    fn enabled_set_matches_enabled() {
        let cfg = FuzzConfig::default().with_seed(11);
        let sys = generate_system(&cfg);
        let es = sys.enabled_set();
        for i in 0..sys.thread_count() {
            let t = ThreadId::new(i);
            assert_eq!(es.contains(t), sys.enabled(t));
        }
    }
}
