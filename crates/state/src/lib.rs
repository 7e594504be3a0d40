//! # chess-state — state capture, coverage, and stateful reference search
//!
//! Companion crate to `chess-core` reproducing the *measurement*
//! methodology of "Fair Stateless Model Checking" (PLDI 2008), Section
//! 4.2: the model checker itself is stateless, but the evaluation
//! extracts abstract states on demand to measure coverage and compares
//! against a stateful reference search.
//!
//! * [`Canonicalizer`] — heap canonicalization by first-visit renumbering
//!   (the paper cites Iosif's heap-symmetry reduction).
//! * [`CoverageTracker`] / [`FingerprintCoverage`] — observers plugged
//!   into `chess_core::Explorer::run_observed` that record distinct
//!   visited states (Table 2's "states visited" columns). They are
//!   resumable, so observed `dfs` and `cb` searches resume from prefix
//!   snapshots like unobserved ones.
//! * [`StateGraph`] — full stateful BFS producing the explicit state
//!   graph: the "Total States" reference, deadlock/violation inventory,
//!   and a strong-fairness (Streett) cycle detector
//!   ([`StateGraph::find_fair_scc`]) that decides livelock-freedom
//!   exactly on finite-state programs.
//! * [`preemption_bounded_states`] — the stateful reference for the
//!   context-bounded rows of Table 2.
//!
//! ```
//! use chess_core::{Config, Explorer};
//! use chess_core::strategy::Dfs;
//! use chess_kernel::{Effects, GuestThread, Kernel, OpDesc, OpResult};
//! use chess_state::{CoverageTracker, StateGraph, StatefulLimits};
//!
//! #[derive(Clone)]
//! struct Once(bool);
//! impl GuestThread<()> for Once {
//!     fn next_op(&self, _: &()) -> OpDesc {
//!         if self.0 { OpDesc::Finished } else { OpDesc::Local }
//!     }
//!     fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) { self.0 = true; }
//!     fn capture(&self, w: &mut chess_kernel::StateWriter) { w.write_bool(self.0); }
//!     fn box_clone(&self) -> Box<dyn GuestThread<()>> { Box::new(self.clone()) }
//! }
//!
//! let factory = || {
//!     let mut k = Kernel::new(());
//!     k.spawn(Once(false));
//!     k.spawn(Once(false));
//!     k
//! };
//!
//! // Ground truth: the full state graph.
//! let total = StateGraph::build(&factory(), StatefulLimits::default())
//!     .unwrap()
//!     .state_count();
//!
//! // Stateless DFS with a coverage observer reaches all of it.
//! let mut coverage = CoverageTracker::new();
//! Explorer::new(factory, Dfs::new(), Config::fair()).run_observed(&mut coverage);
//! assert_eq!(coverage.distinct_states(), total);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
mod coverage;
mod differential;
mod memory;
mod stateful;

pub use canonical::Canonicalizer;
pub use coverage::{CoverageTracker, FingerprintCoverage};
pub use differential::{
    differential_check, differential_check_with_progress, Discrepancy, OracleLimits, SystemOutcome,
    Verdict,
};
pub use memory::{memory_monotonicity_check, MemoryLimits, MemoryVerdict};
pub use stateful::{
    preemption_bounded_states, Edge, StateGraph, StateNode, StatefulError, StatefulLimits,
};
