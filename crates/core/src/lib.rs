//! # chess-core — fair stateless model checking
//!
//! A from-scratch Rust reproduction of **"Fair Stateless Model Checking"**
//! (Madanlal Musuvathi and Shaz Qadeer, PLDI 2008): a stateless model
//! checker in the style of CHESS whose scheduler is simultaneously
//!
//! * **fair** — every infinite execution it generates satisfies
//!   `GS ⇒ SF`: if every thread that is scheduled infinitely often yields
//!   infinitely often (the *good-samaritan* property), then every thread
//!   enabled infinitely often is scheduled infinitely often (strong
//!   fairness), and
//! * **demonic** — in the absence of yields it is fully nondeterministic,
//!   so safety coverage is not sacrificed (every state reachable by a
//!   yield-free execution is visited; Theorem 5).
//!
//! This lets a stateless checker handle *nonterminating* programs: unfair
//! cycles (spin loops waiting for another thread) are pruned after at most
//! two unrollings (Theorem 4), while genuinely fair nontermination —
//! livelock — surfaces as a divergence and is reported as a bug.
//!
//! ## Pieces
//!
//! * [`FairScheduler`] — Algorithm 1: the priority relation `P` and the
//!   per-thread window sets `E`, `D`, `S`.
//! * [`TransitionSystem`] — the abstract program interface (`enabled(t)`,
//!   `yield(t)`, `NextState`); implemented by `chess_kernel::Kernel`.
//! * [`strategy`] — the `Choose` implementations: exhaustive [`strategy::Dfs`],
//!   preemption-bounded [`strategy::ContextBounded`] (fairness-forced
//!   preemptions are free), [`strategy::RandomWalk`], and
//!   [`strategy::FixedSchedule`] replay. DFS and CB support the paper's
//!   unfair baseline: backtrack up to a horizon `db`, then complete each
//!   execution randomly.
//! * [`Explorer`] — the stateless driver: factory + strategy + [`Config`];
//!   detects safety violations, deadlocks, and divergences, classifying
//!   the latter into livelocks (fair cycles) and good-samaritan
//!   violations.
//! * [`ShardRunner`] — splits a [`Search`] into [`ShardSpec`] slices
//!   (root-frontier slices for DFS and CB, seeds for random walk) run on
//!   threads or in separate processes; merged shard reports equal the
//!   sequential report, and every counterexample is verified to replay
//!   deterministically before it is reported.
//!
//! ## Checking a program
//!
//! ```
//! use chess_core::{Config, Explorer, SearchOutcome};
//! use chess_core::strategy::Dfs;
//! use chess_kernel::{Effects, GuestThread, Kernel, MutexId, OpDesc, OpResult};
//!
//! #[derive(Clone)]
//! struct Incr { pc: u8, lock: MutexId }
//! impl GuestThread<i64> for Incr {
//!     fn next_op(&self, _: &i64) -> OpDesc {
//!         match self.pc {
//!             0 => OpDesc::Acquire(self.lock),
//!             1 => OpDesc::Local,
//!             2 => OpDesc::Release(self.lock),
//!             _ => OpDesc::Finished,
//!         }
//!     }
//!     fn on_op(&mut self, _: OpResult, x: &mut i64, _: &mut Effects<i64>) {
//!         if self.pc == 1 { *x += 1; }
//!         self.pc += 1;
//!     }
//!     fn box_clone(&self) -> Box<dyn GuestThread<i64>> { Box::new(self.clone()) }
//! }
//!
//! let factory = || {
//!     let mut k = Kernel::new(0i64);
//!     let lock = k.add_mutex();
//!     k.spawn(Incr { pc: 0, lock });
//!     k.spawn(Incr { pc: 0, lock });
//!     k
//! };
//! let report = Explorer::new(factory, Dfs::new(), Config::fair()).run();
//! assert_eq!(report.outcome, SearchOutcome::Complete);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exitcode;
mod explore;
mod fair;
pub mod fuzz;
pub mod minimize;
mod observer;
pub mod panics;
mod parallel;
pub mod procpool;
mod report;
pub mod strategy;
mod system;
mod trace;

pub use explore::{
    iterative_context_bounding, iterative_context_bounding_resumable, Config, Explorer,
    FairnessConfig, Progress, SearchCheckpoint,
};
pub use fair::{FairScheduler, PenaltyScope};
pub use fuzz::{
    derive_seed, generate_atomic_program, generate_system, AtomicFuzzOp, AtomicObservations,
    AtomicProgram, FuzzConfig, FuzzOp, FuzzSystem,
};
pub use minimize::{minimize_schedule, reproduces, OutcomeKind};
pub use observer::{CountingObserver, NullObserver, Observer};
pub use parallel::{merge_contiguous_shards, merge_seed_shards, Search, ShardRunner, ShardSpec};
pub use report::{
    BudgetKind, Divergence, DivergenceKind, SearchOutcome, SearchReport, SearchStats,
};
pub use strategy::{FrameSnapshot, Reduction, StrategySnapshot};
pub use system::{SystemStatus, TransitionSystem};
pub use trace::{replay, Counterexample, CounterexampleKind, Decision, Schedule};
