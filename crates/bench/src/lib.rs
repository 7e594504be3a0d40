//! # chess-bench — regenerating every table and figure of the paper
//!
//! Each binary in `src/bin/` reproduces one artifact of the PLDI 2008
//! evaluation (Section 4); `repro` runs them all and writes text + JSON
//! into `results/`:
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `fig2` | Figure 2: nonterminating executions vs. depth bound |
//! | `table1` | Table 1: program characteristics |
//! | `table2` | Table 2: state coverage per strategy, fair vs. unfair |
//! | `fig5_fig6` | Figures 5–6: search time, fair vs. unfair (log scale) |
//! | `table3` | Table 3: executions/time to first bug, fair vs. unfair |
//! | `liveness` | §4.3: the good-samaritan violation and the Promise livelock |
//!
//! Budgets: every potentially-unbounded search takes a wall-clock budget;
//! cells that hit it are marked with `*`, mirroring the paper's timeout
//! markers. Set `REPRO_BUDGET_SECS` to change the per-cell budget
//! (default 10 seconds; the paper used 5000).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod journal;
pub mod json;
pub mod output;

pub use experiments::*;
pub use journal::{
    checkpoint_from_json, checkpoint_to_json, read_journal, report_from_json, report_to_json,
    snapshot_from_json, snapshot_to_json, stats_from_json, stats_to_json, write_atomic,
    JournalWriter, WritePolicy, JOURNAL_VERSION,
};
pub use json::{schedule_from_json, schedule_to_json, Json, ToJson};
pub use output::*;
