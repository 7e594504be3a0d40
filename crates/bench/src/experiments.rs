//! The experiment harness: one function per table/figure of the paper's
//! evaluation, each returning serializable results.

use std::time::Duration;

use chess_core::strategy::{ContextBounded, Dfs, Strategy};
use chess_core::{Config, Explorer, Search, SearchOutcome, ShardRunner};
use chess_kernel::{Capture, Kernel, ThreadId};
use chess_state::{preemption_bounded_states, CoverageTracker, StateGraph, StatefulLimits};
use chess_workloads::channels::{fifo_pipeline, ChannelBug, FifoConfig};
use chess_workloads::miniboot::{miniboot, BootConfig};
use chess_workloads::philosophers::{figure1, philosophers, PhilosophersConfig};
use chess_workloads::promise::{figure8, promises, PromiseConfig};
use chess_workloads::workerpool::{figure7, worker_pool, PoolConfig};
use chess_workloads::wsq::{wsq, WsqBug, WsqConfig};

use crate::impl_to_json;

/// Wall-clock budget applied to every potentially-unbounded search cell.
///
/// The paper used 5000 seconds per cell; the default here is 10, settable
/// via the `REPRO_BUDGET_SECS` environment variable.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Budget per search cell.
    pub per_cell: Duration,
}

impl Budget {
    /// Reads `REPRO_BUDGET_SECS` (default 10).
    pub fn from_env() -> Self {
        let secs = std::env::var("REPRO_BUDGET_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10.0f64);
        Budget {
            per_cell: Duration::from_secs_f64(secs),
        }
    }

    /// A tiny budget for smoke tests.
    pub fn quick() -> Self {
        Budget {
            per_cell: Duration::from_secs(2),
        }
    }
}

/// Result of one search cell.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// Distinct states visited (when coverage was measured; 0 otherwise).
    pub states: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Whether the strategy exhausted its search space within the budget
    /// (cells that did not are rendered with the paper's `*` marker).
    pub completed: bool,
    /// Executions explored.
    pub executions: u64,
}

impl_to_json!(CellResult {
    states,
    secs,
    completed,
    executions
});

impl CellResult {
    /// Renders `states` with the paper's timeout marker.
    pub fn states_str(&self) -> String {
        if self.completed {
            format!("{}", self.states)
        } else {
            format!("{}*", self.states)
        }
    }

    /// Renders the time with the timeout marker.
    pub fn secs_str(&self) -> String {
        if self.completed {
            format!("{:.2}", self.secs)
        } else {
            format!(">{:.0}", self.secs)
        }
    }
}

/// The search strategies of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Context-bounded search with the given preemption bound.
    Cb(u32),
    /// Unbounded depth-first search.
    Dfs,
}

impl StrategyKind {
    /// The paper's row label.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Cb(b) => format!("cb={b}"),
            StrategyKind::Dfs => "dfs".to_string(),
        }
    }

    fn build(&self, horizon: Option<usize>) -> Box<dyn Strategy> {
        match (self, horizon) {
            (StrategyKind::Cb(b), None) => Box::new(ContextBounded::new(*b)),
            (StrategyKind::Cb(b), Some(db)) => Box::new(ContextBounded::with_horizon(*b, db)),
            (StrategyKind::Dfs, None) => Box::new(Dfs::new()),
            (StrategyKind::Dfs, Some(db)) => Box::new(Dfs::with_horizon(db)),
        }
    }
}

/// Runs one coverage-measured search cell.
fn coverage_cell<S, F>(
    factory: F,
    kind: StrategyKind,
    fair: bool,
    horizon: Option<usize>,
    depth_cap: usize,
    budget: Budget,
) -> CellResult
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S>,
{
    let mut config = if fair {
        Config::fair()
    } else {
        Config::unfair()
    };
    config = config
        .with_detect_cycles(false)
        .with_depth_bound(depth_cap)
        .with_time_budget(budget.per_cell)
        .with_stop_on_error(true);
    let mut cov = CoverageTracker::new();
    let report = Explorer::new(factory, kind.build(horizon), config).run_observed(&mut cov);
    CellResult {
        states: cov.distinct_states(),
        secs: report.stats.wall.as_secs_f64(),
        completed: matches!(report.outcome, SearchOutcome::Complete),
        executions: report.stats.executions,
    }
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// One point of Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// The depth bound.
    pub db: usize,
    /// Executions cut off at the depth bound — the paper's
    /// "nonterminating executions" metric.
    pub nonterminating: u64,
    /// Total executions explored.
    pub executions: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Whether the full depth-bounded search was exhausted.
    pub completed: bool,
}

impl_to_json!(Fig2Point {
    db,
    nonterminating,
    executions,
    secs,
    completed
});

/// Figure 2: running depth-bounded stateless search (no fairness) on the
/// Figure 1 program, the number of nonterminating executions explodes
/// exponentially with the depth bound.
pub fn figure2(budget: Budget, dbs: &[usize]) -> Vec<Fig2Point> {
    dbs.iter()
        .map(|&db| {
            let config = Config::unfair()
                .with_depth_bound(db)
                .with_time_budget(budget.per_cell);
            let report = Explorer::new(figure1, Dfs::new(), config).run();
            Fig2Point {
                db,
                nonterminating: report.stats.nonterminating,
                executions: report.stats.executions,
                secs: report.stats.wall.as_secs_f64(),
                completed: matches!(report.outcome, SearchOutcome::Complete),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One row of Table 1: program characteristics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Program name.
    pub program: String,
    /// Lines of (workload) source code implementing it.
    pub loc: usize,
    /// Threads per execution.
    pub threads: usize,
    /// Synchronization operations per execution.
    pub sync_ops: u64,
}

impl_to_json!(Table1Row {
    program,
    loc,
    threads,
    sync_ops
});

/// Drives one representative execution to termination under a seeded
/// random fair schedule and returns the kernel for inspection.
fn one_random_fair<S: Capture + Clone>(mut k: Kernel<S>, cap: u64) -> Kernel<S> {
    let mut fair = chess_core::FairScheduler::new(k.thread_count());
    let mut rng: u64 = 0x5EED_CAFE;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut steps = 0u64;
    while chess_core::TransitionSystem::status(&k).is_running() && steps < cap {
        let es = k.enabled_set();
        let schedulable = fair.schedulable(&es);
        let options: Vec<ThreadId> = schedulable.iter().collect();
        let t = options[(next() % options.len() as u64) as usize];
        let kind = k.step(t, 0);
        let es_after = k.enabled_set();
        fair.grow(k.thread_count());
        fair.on_scheduled(t, &es, &es_after, kind.kind.is_yield());
        steps += 1;
    }
    k
}

/// Table 1: characteristics of the input programs (one representative
/// execution each).
pub fn table1() -> Vec<Table1Row> {
    fn row<S: Capture + Clone>(program: &str, loc: usize, k: Kernel<S>) -> Table1Row {
        let k = one_random_fair(k, 1_000_000);
        Table1Row {
            program: program.to_string(),
            loc,
            threads: k.thread_count(),
            sync_ops: k.stats().sync_ops,
        }
    }
    let lines = |src: &str| src.lines().count();
    vec![
        row(
            "Dining Philosophers",
            lines(include_str!("../../workloads/src/philosophers.rs")),
            philosophers(PhilosophersConfig::table2(3)),
        ),
        row(
            "Work-Stealing Queue",
            lines(include_str!("../../workloads/src/wsq.rs")),
            wsq(WsqConfig::table2(2)),
        ),
        row(
            "Promise",
            lines(include_str!("../../workloads/src/promise.rs")),
            promises(PromiseConfig::correct()),
        ),
        row(
            "Worker Pool (APE)",
            lines(include_str!("../../workloads/src/workerpool.rs")),
            worker_pool(PoolConfig {
                workers: 3,
                tasks: 6,
                buggy_idle: false,
            }),
        ),
        row(
            "Channels",
            lines(include_str!("../../workloads/src/channels.rs")),
            fifo_pipeline(FifoConfig::correct()),
        ),
        row(
            "Fifo (fan-in)",
            lines(include_str!("../../workloads/src/channels.rs")),
            fifo_pipeline(FifoConfig {
                items: 8,
                ..FifoConfig::correct_fanin()
            }),
        ),
        row(
            "Mini-OS boot (Singularity stand-in)",
            lines(include_str!("../../workloads/src/miniboot.rs")),
            miniboot(BootConfig::full()),
        ),
    ]
}

// ---------------------------------------------------------------------
// Table 2 and Figures 5–6
// ---------------------------------------------------------------------

/// One unfair (depth-bounded) cell of Table 2.
#[derive(Debug, Clone)]
pub struct UnfairCell {
    /// The backtracking horizon `db`.
    pub db: usize,
    /// The measured cell.
    pub cell: CellResult,
}

impl_to_json!(UnfairCell { db, cell });

/// One strategy row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Strategy label (`cb=1` … `dfs`).
    pub strategy: String,
    /// Stateful reference: total states reachable under this strategy.
    pub total: Option<usize>,
    /// The fair stateless search cell.
    pub fair: CellResult,
    /// The unfair depth-bounded cells, one per `db`.
    pub unfair: Vec<UnfairCell>,
}

impl_to_json!(Table2Row {
    strategy,
    total,
    fair,
    unfair
});

/// One subject (configuration) of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Subject {
    /// Subject name, e.g. "Dining Philosophers, 3 philosophers".
    pub name: String,
    /// One row per strategy.
    pub rows: Vec<Table2Row>,
}

impl_to_json!(Table2Subject { name, rows });

/// Runs the full Table 2 grid for one subject program.
pub fn table2_subject<S, F>(name: &str, factory: F, budget: Budget, dbs: &[usize]) -> Table2Subject
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy,
{
    let limits = StatefulLimits {
        max_states: 5_000_000,
    };
    let graph_total = StateGraph::build(&factory(), limits)
        .map(|g| g.state_count())
        .ok();
    let strategies = [
        StrategyKind::Cb(1),
        StrategyKind::Cb(2),
        StrategyKind::Cb(3),
        StrategyKind::Dfs,
    ];
    let rows = strategies
        .iter()
        .map(|&kind| {
            let total = match kind {
                StrategyKind::Cb(b) => preemption_bounded_states(&factory(), b, limits).ok(),
                StrategyKind::Dfs => graph_total,
            };
            let fair = coverage_cell(factory, kind, true, None, 100_000, budget);
            let unfair = dbs
                .iter()
                .map(|&db| UnfairCell {
                    db,
                    cell: coverage_cell(
                        factory,
                        kind,
                        false,
                        Some(db),
                        (db * 40).max(4_096),
                        budget,
                    ),
                })
                .collect();
            Table2Row {
                strategy: kind.label(),
                total,
                fair,
                unfair,
            }
        })
        .collect();
    Table2Subject {
        name: name.to_string(),
        rows,
    }
}

/// The four subjects of Table 2.
pub fn table2_all(budget: Budget, dbs: &[usize]) -> Vec<Table2Subject> {
    vec![
        table2_subject(
            "Dining Philosophers, 2 philosophers",
            || philosophers(PhilosophersConfig::table2(2)),
            budget,
            dbs,
        ),
        table2_subject(
            "Dining Philosophers, 3 philosophers",
            || philosophers(PhilosophersConfig::table2(3)),
            budget,
            dbs,
        ),
        table2_subject(
            "Work-Stealing Queue, 1 stealer",
            || wsq(WsqConfig::table2(1)),
            budget,
            dbs,
        ),
        table2_subject(
            "Work-Stealing Queue, 2 stealers",
            || wsq(WsqConfig::table2(2)),
            budget,
            dbs,
        ),
    ]
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// Result of one bug hunt.
#[derive(Debug, Clone)]
pub struct FindResult {
    /// Whether the bug was found within the budget.
    pub found: bool,
    /// Executions explored until the bug (or until the budget).
    pub executions: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

impl_to_json!(FindResult {
    found,
    executions,
    secs
});

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The seeded bug.
    pub bug: String,
    /// Fair context-bounded search (cb=2).
    pub with_fairness: FindResult,
    /// Unfair baseline: cb=2 with a backtracking horizon of db=250 and a
    /// random tail, as in the paper.
    pub without_fairness: FindResult,
}

impl_to_json!(Table3Row {
    bug,
    with_fairness,
    without_fairness
});

fn hunt<S, F>(factory: F, fair: bool, budget: Budget) -> FindResult
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S>,
{
    let (config, strategy): (Config, Box<dyn Strategy>) = if fair {
        (
            Config::fair().with_detect_cycles(false),
            Box::new(ContextBounded::new(2)),
        )
    } else {
        (
            Config::unfair().with_depth_bound(4_096),
            Box::new(ContextBounded::with_horizon(2, 250)),
        )
    };
    let config = config.with_time_budget(budget.per_cell);
    let report = Explorer::new(factory, strategy, config).run();
    FindResult {
        found: report.outcome.found_error(),
        executions: report.stats.executions,
        secs: report.stats.wall.as_secs_f64(),
    }
}

/// Table 3: executions and time to find each seeded bug, with and
/// without fairness.
pub fn table3(budget: Budget) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for (name, bug) in [
        (
            "WSQ bug 1 (unlocked conflict pop)",
            WsqBug::UnlockedConflictPop,
        ),
        (
            "WSQ bug 2 (unsynchronized steal)",
            WsqBug::UnsynchronizedSteal,
        ),
        ("WSQ bug 3 (lost tail restore)", WsqBug::LostTailRestore),
    ] {
        rows.push(Table3Row {
            bug: name.to_string(),
            with_fairness: hunt(move || wsq(WsqConfig::with_bug(bug)), true, budget),
            without_fairness: hunt(move || wsq(WsqConfig::with_bug(bug)), false, budget),
        });
    }
    for (name, bug) in [
        ("Channel bug 1 (credit leak)", ChannelBug::CreditLeak),
        ("Channel bug 2 (racy sequence)", ChannelBug::RacySequence),
        ("Channel bug 3 (eager shutdown)", ChannelBug::EagerShutdown),
        (
            "Channel bug 4 (draining shutdown)",
            ChannelBug::DrainingShutdown,
        ),
    ] {
        rows.push(Table3Row {
            bug: name.to_string(),
            with_fairness: hunt(
                move || fifo_pipeline(FifoConfig::with_bug(bug)),
                true,
                budget,
            ),
            without_fairness: hunt(
                move || fifo_pipeline(FifoConfig::with_bug(bug)),
                false,
                budget,
            ),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Section 4.3: liveness violations
// ---------------------------------------------------------------------

/// One liveness experiment.
#[derive(Debug, Clone)]
pub struct LivenessRow {
    /// The subject program.
    pub program: String,
    /// What the fair search reported.
    pub fair_outcome: String,
    /// Executions until the report.
    pub fair_executions: u64,
    /// Wall-clock seconds.
    pub fair_secs: f64,
    /// What the unfair baseline reported within the same budget (the
    /// paper's point: it has no livelock-detection capability at all).
    pub unfair_outcome: String,
}

impl_to_json!(LivenessRow {
    program,
    fair_outcome,
    fair_executions,
    fair_secs,
    unfair_outcome
});

/// §4.3: the worker-pool good-samaritan violation and the Promise
/// livelock, fair search vs. the unfair baseline.
pub fn liveness(budget: Budget) -> Vec<LivenessRow> {
    fn run<S, F>(program: &str, factory: F, budget: Budget) -> LivenessRow
    where
        S: Capture + Clone + 'static,
        F: Fn() -> Kernel<S> + Copy,
    {
        let config = Config::fair().with_time_budget(budget.per_cell);
        let fair = Explorer::new(factory, Dfs::new(), config).run();
        let unfair_config = Config::unfair()
            .with_depth_bound(4_096)
            .with_time_budget(budget.per_cell);
        let unfair = Explorer::new(factory, Dfs::with_horizon(250), unfair_config).run();
        LivenessRow {
            program: program.to_string(),
            fair_outcome: match &fair.outcome {
                SearchOutcome::Divergence(d) => d.kind.to_string(),
                o => format!("{o:?}"),
            },
            fair_executions: fair.stats.executions,
            fair_secs: fair.stats.wall.as_secs_f64(),
            unfair_outcome: match &unfair.outcome {
                SearchOutcome::Divergence(d) => d.kind.to_string(),
                SearchOutcome::Complete | SearchOutcome::BudgetExhausted(_) => format!(
                    "no error report; {} executions, {} cut at the depth bound",
                    unfair.stats.executions, unfair.stats.nonterminating
                ),
                o => format!("{o:?}"),
            },
        }
    }
    vec![
        run("Worker pool shutdown (Figure 7)", figure7, budget),
        run("Promise stale-read spin (Figure 8)", figure8, budget),
    ]
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The subject program.
    pub subject: String,
    /// The scheduler variant.
    pub variant: String,
    /// Distinct states covered.
    pub states: usize,
    /// Executions explored.
    pub executions: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Whether the search completed within the budget.
    pub completed: bool,
}

impl_to_json!(AblationRow {
    subject,
    variant,
    states,
    executions,
    secs,
    completed
});

/// Ablation study: the paper's window-set penalty rule vs. naive
/// all-enabled penalization, and the `k`-yield parameterization — fair
/// cb=2 coverage runs on the two coverage subjects. The naive rule loses
/// states on the work-stealing queue; larger `k` buys nothing here and
/// costs executions.
pub fn ablation(budget: Budget) -> Vec<AblationRow> {
    use chess_core::PenaltyScope;

    fn subject<S, F>(name: &str, factory: F, budget: Budget) -> Vec<AblationRow>
    where
        S: Capture + Clone + 'static,
        F: Fn() -> Kernel<S> + Copy,
    {
        let variants: Vec<(String, Config)> = vec![
            ("paper (window sets, k=1)".to_string(), Config::fair()),
            (
                "naive penalty (all enabled)".to_string(),
                Config::fair().with_penalty_scope(PenaltyScope::AllEnabled),
            ),
            (
                "k=2 (every 2nd yield)".to_string(),
                Config::fair().with_fairness_k(2),
            ),
            (
                "k=4 (every 4th yield)".to_string(),
                Config::fair().with_fairness_k(4),
            ),
        ];
        let mut rows: Vec<AblationRow> = variants
            .into_iter()
            .map(|(variant, config)| {
                let config = config
                    .with_detect_cycles(false)
                    .with_time_budget(budget.per_cell);
                let mut cov = CoverageTracker::new();
                let report =
                    Explorer::new(factory, ContextBounded::new(2), config).run_observed(&mut cov);
                AblationRow {
                    subject: name.to_string(),
                    variant,
                    states: cov.distinct_states(),
                    executions: report.stats.executions,
                    secs: report.stats.wall.as_secs_f64(),
                    completed: matches!(report.outcome, SearchOutcome::Complete),
                }
            })
            .collect();
        // The Section 4 accounting ablation: charge fairness-forced
        // switches against the preemption budget (unsound).
        let config = Config::fair()
            .with_detect_cycles(false)
            .with_time_budget(budget.per_cell);
        let mut cov = CoverageTracker::new();
        let report = Explorer::new(
            factory,
            ContextBounded::new(2).charging_fairness_switches(),
            config,
        )
        .run_observed(&mut cov);
        rows.push(AblationRow {
            subject: name.to_string(),
            variant: "cb charges fairness switches (unsound)".to_string(),
            states: cov.distinct_states(),
            executions: report.stats.executions,
            secs: report.stats.wall.as_secs_f64(),
            completed: matches!(report.outcome, SearchOutcome::Complete),
        });
        rows
    }

    let mut rows = subject(
        "philosophers(3)",
        || philosophers(PhilosophersConfig::table2(3)),
        budget,
    );
    rows.extend(subject(
        "wsq(1 stealer)",
        || wsq(WsqConfig::table2(1)),
        budget,
    ));
    rows
}

// ---------------------------------------------------------------------
// Parallel scaling (DESIGN.md, parallel search)
// ---------------------------------------------------------------------

/// One parallel-scaling measurement: a fixed execution budget split
/// across `jobs` seed-sharded random-walk workers.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// The subject program.
    pub workload: String,
    /// Worker count.
    pub jobs: usize,
    /// Executions explored (the fixed budget; sanity check).
    pub executions: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Wall-clock speedup relative to the 1-worker run.
    pub speedup: f64,
}

impl_to_json!(ScalingRow {
    workload,
    jobs,
    executions,
    secs,
    speedup
});

/// Parallel scaling of the random-walk search: the same execution budget
/// run with 1, 2, and 4 workers on bug-free subjects (no early stop, so
/// the wall-clock measures pure search throughput). Not a paper artifact
/// — the engine extension is documented in DESIGN.md.
pub fn scaling(executions_per_cell: u64, jobs_axis: &[usize]) -> Vec<ScalingRow> {
    fn subject<S, F>(
        name: &str,
        factory: F,
        executions: u64,
        jobs_axis: &[usize],
    ) -> Vec<ScalingRow>
    where
        S: Capture + Clone + 'static,
        F: Fn() -> Kernel<S> + Copy + Sync,
    {
        let config = Config::fair().with_max_executions(executions);
        let mut rows: Vec<ScalingRow> = jobs_axis
            .iter()
            .map(|&jobs| {
                let report =
                    ShardRunner::new(factory, config.clone(), Search::Random(42)).run_shards(jobs);
                ScalingRow {
                    workload: name.to_string(),
                    jobs,
                    executions: report.stats.executions,
                    secs: report.stats.wall.as_secs_f64(),
                    speedup: 1.0,
                }
            })
            .collect();
        let base = rows[0].secs;
        for r in &mut rows {
            r.speedup = if r.secs > 0.0 { base / r.secs } else { 0.0 };
        }
        rows
    }

    let mut rows = subject(
        "philosophers(3)",
        || philosophers(PhilosophersConfig::table2(3)),
        executions_per_cell,
        jobs_axis,
    );
    rows.extend(subject(
        "wsq(2 stealers)",
        || wsq(WsqConfig::table2(2)),
        executions_per_cell,
        jobs_axis,
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_is_monotone_in_db() {
        let points = figure2(Budget::quick(), &[12, 16]);
        assert_eq!(points.len(), 2);
        assert!(points[1].nonterminating >= points[0].nonterminating);
    }

    #[test]
    fn table1_counts_threads() {
        let rows = table1();
        assert_eq!(rows.len(), 7);
        let boot = rows.last().unwrap();
        assert_eq!(boot.threads, 14);
        assert!(boot.sync_ops > 50);
        assert!(rows.iter().all(|r| r.loc > 100));
    }

    #[test]
    fn cell_markers() {
        let done = CellResult {
            states: 5,
            secs: 1.0,
            completed: true,
            executions: 10,
        };
        assert_eq!(done.states_str(), "5");
        let cut = CellResult {
            completed: false,
            ..done
        };
        assert_eq!(cut.states_str(), "5*");
        assert!(cut.secs_str().starts_with('>'));
    }

    #[test]
    fn table3_quick_smoke_finds_easy_bug() {
        let r = hunt(
            || wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal)),
            true,
            Budget::quick(),
        );
        assert!(r.found);
    }

    #[test]
    fn ablation_paper_rule_dominates_naive() {
        let rows = ablation(Budget::quick());
        for group in rows.chunks(5) {
            let (paper, naive, charging) = (&group[0], &group[1], &group[4]);
            assert!(
                paper.states >= naive.states,
                "window sets should never cover less: {group:#?}"
            );
            assert!(
                paper.states >= charging.states,
                "unsound charging should never cover more: {group:#?}"
            );
        }
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(StrategyKind::Cb(2).label(), "cb=2");
        assert_eq!(StrategyKind::Dfs.label(), "dfs");
    }
}
