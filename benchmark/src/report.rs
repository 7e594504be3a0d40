//! The metrics a run reports, their declared names and units, and the
//! result line the benchmark prints last.

use std::collections::BTreeMap;

use crate::json::{number, quote};
use crate::stats::{quantile, Summary};

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["table3-cb2", "random-hunt", "reduced-verify", "campaign"];

/// A metric's name and unit.
pub type Decl = (&'static str, &'static str);

/// Metrics an untraced run prints: what a user of the checker waits for.
pub const END_TO_END: [Decl; 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_s_p50", "s"),
    ("verdict_s_p90", "s"),
    ("executions", "count"),
    ("peak_rss_kb", "kB"),
];

/// Metrics a traced run prints: one layer each. Layers a workload does
/// not reach read 0 (the search layers on `campaign`, the daemon layers
/// on the search workloads).
pub const PER_LAYER: [Decl; 48] = [
    ("kernel.step.calls", "count"),
    ("kernel.step.busy_s", "s"),
    ("kernel.step.ns", "ns"),
    ("kernel.enabled.calls", "count"),
    ("kernel.enabled.busy_s", "s"),
    ("kernel.enabled.ns", "ns"),
    ("kernel.status.calls", "count"),
    ("kernel.status.busy_s", "s"),
    ("kernel.status.ns", "ns"),
    ("kernel.fingerprint.calls", "count"),
    ("kernel.fingerprint.busy_s", "s"),
    ("kernel.fingerprint.ns", "ns"),
    ("kernel.footprint.calls", "count"),
    ("kernel.footprint.busy_s", "s"),
    ("kernel.footprint.ns", "ns"),
    ("kernel.reset.calls", "count"),
    ("kernel.reset.busy_s", "s"),
    ("kernel.reset.ns", "ns"),
    ("kernel.flush_frac", "fraction"),
    ("strategy.pick.calls", "count"),
    ("strategy.pick.busy_s", "s"),
    ("strategy.pick.ns", "ns"),
    ("strategy.end.calls", "count"),
    ("strategy.end.busy_s", "s"),
    ("strategy.end.ns", "ns"),
    ("strategy.options_per_point", "count"),
    ("strategy.fairness_filtered_frac", "fraction"),
    ("strategy.abandon_frac", "fraction"),
    ("fair.update.ns", "ns"),
    ("fair.fingerprint.ns", "ns"),
    ("fair.busy_s_est", "s"),
    ("explore.self_s", "s"),
    ("explore.steps_per_s", "1/s"),
    ("explore.execs_per_s", "1/s"),
    ("explore.steps_per_exec", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
    ("server.rtt_s", "s"),
    ("server.submit_s", "s"),
    ("server.results_s", "s"),
    ("procpool.jobs", "count"),
    ("procpool.retry_frac", "fraction"),
    ("procpool.verdict_gap_s", "s"),
    ("store.bytes", "bytes"),
    ("store.journal_bytes", "bytes"),
    ("campaign.first_verdict_s", "s"),
    ("campaign.cached_s", "s"),
    ("campaign.restart_s", "s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Verdicts taken.
    pub attempted: u64,
    /// One message per wrong or missing verdict.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a metric as the median of `samples` and notes its
    /// quartiles and sample count.
    pub fn set_summary(&mut self, name: &'static str, unit: &str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.set(name, s.median);
        self.notes.push(format!(
            "{name}: median {} {unit} (q1 {}, q3 {}, n {})",
            s.median, s.q1, s.q3, s.n
        ));
    }

    /// Records `verdict_s_p50` and `verdict_s_p90` from per-verdict
    /// times, noting how many samples lie beyond the p90.
    pub fn set_verdict_times(&mut self, samples: &[f64]) {
        self.set_summary("verdict_s_p50", "s", samples);
        let p90 = quantile(samples, 0.9);
        self.set("verdict_s_p90", p90);
        self.notes.push(format!(
            "verdict_s_p90: {p90} s (n {}, {} beyond)",
            samples.len(),
            samples.iter().filter(|&&v| v > p90).count()
        ));
    }

    /// A recorded value.
    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a verdict check.
    pub fn verdict(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    /// The result line: exactly the declared metrics of the run's mode.
    ///
    /// # Panics
    ///
    /// If the run did not record one of them — every declared metric is
    /// printed on every workload.
    pub fn result_line(&self, traced: bool) -> String {
        let decls: &[Decl] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = decls
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`, kB) of this process or of `pid`.
///
/// # Errors
///
/// When `/proc` has no such entry (the benchmark needs Linux).
pub(crate) fn peak_rss_kb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}
