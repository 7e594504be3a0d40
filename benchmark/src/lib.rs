//! # chess-benchmark — time to verdict, end to end and layer by layer
//!
//! The paper judges a checker by executions and time to its verdict.
//! This benchmark measures exactly that on four workloads (see
//! `README.md`): three closed loops of in-process searches that link
//! only the search core's public API, and a campaign workload that
//! drives the real `fair-chess daemon` over its unix-socket protocol.
//!
//! An untraced run prints the end-to-end metrics; a traced run wraps
//! the kernel and strategy calls in sampled timers ([`trace`]) and
//! prints the per-layer metrics. Every verdict is checked against the
//! hand-written answers in `expected.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

pub mod campaign;
pub mod expected;
pub mod json;
pub mod report;
pub mod search;
pub mod stats;
pub mod trace;

/// What one `benchmark run` invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload name.
    pub workload: String,
    /// The seed every input derives from.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Where traces and the campaign's daemon store go.
    pub out_dir: PathBuf,
    /// The `fair-chess` binary the campaign workload runs.
    pub fair_chess: PathBuf,
}

/// Runs one workload.
///
/// # Errors
///
/// Unknown workloads and measurement failures (a daemon that will not
/// start, an unreadable `/proc`); wrong verdicts are not errors but
/// failures recorded in the report.
pub fn run(opts: &Options) -> Result<report::Report, String> {
    match opts.workload.as_str() {
        "campaign" => campaign::run(opts),
        w if report::WORKLOADS.contains(&w) => search::run(opts),
        w => Err(format!(
            "unknown workload {w:?} (expected one of {})",
            report::WORKLOADS.join(", ")
        )),
    }
}
