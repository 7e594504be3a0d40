//! Memory-model monotonicity oracle: SC ⊆ TSO ⊆ PSO.
//!
//! A store-buffer semantics is *monotone*: every SC execution is a TSO
//! execution in which each store is flushed immediately, and every TSO
//! flush order (oldest entry first) is a PSO flush order (the scheduler
//! always may pick the location holding the globally oldest entry). The
//! sets of reachable terminal outcomes of one program must therefore be
//! nested across the three models — and because the kernel's state
//! capture omits empty buffers, terminal captures are byte-comparable
//! across models.
//!
//! [`memory_monotonicity_check`] makes that executable: it enumerates
//! every execution of an [`AtomicProgram`] under each model, collects the
//! terminal outcome sets, and reports a [`Discrepancy`] for any oracle
//! that fails:
//!
//! | oracle | claim checked |
//! |---|---|
//! | `memory-clean` | atomic programs terminate without errors under every model |
//! | `memory-monotonicity-sc-tso` | every SC outcome is reachable under TSO |
//! | `memory-monotonicity-tso-pso` | every TSO outcome is reachable under PSO |

use std::collections::BTreeSet;

use chess_core::fuzz::{render_atomic_scripts, AtomicProgram};
use chess_core::strategy::Dfs;
use chess_core::{Config, Explorer, Observer, SearchOutcome, SystemStatus, TransitionSystem};
use chess_kernel::MemoryModel;

use crate::differential::Discrepancy;

/// Budgets protecting one monotonicity check from state-space blowup.
/// Exceeding one yields [`MemoryVerdict::skipped`], never a discrepancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLimits {
    /// Maximum executions to enumerate per model.
    pub max_executions: u64,
    /// Per-execution depth bound.
    pub depth_bound: usize,
}

impl Default for MemoryLimits {
    fn default() -> Self {
        MemoryLimits {
            max_executions: 200_000,
            depth_bound: 5_000,
        }
    }
}

/// Result of one monotonicity check.
#[derive(Debug, Clone)]
pub struct MemoryVerdict {
    /// Distinct terminal outcomes per model, in `[sc, tso, pso]` order.
    pub outcomes: [usize; 3],
    /// Executions enumerated per model, in the same order.
    pub executions: [u64; 3],
    /// A budget was exceeded before the oracles could run.
    pub skipped: Option<String>,
    /// Oracle failures; empty means the models nest as required.
    pub discrepancies: Vec<Discrepancy>,
}

impl MemoryVerdict {
    /// Whether every oracle agreed (a skipped check counts as agreeing).
    pub fn agreed(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Collects the state bytes of every fully terminated execution.
struct Terminals(BTreeSet<Vec<u8>>);

impl<P: TransitionSystem + ?Sized> Observer<P> for Terminals {
    fn resumable(&self) -> bool {
        true
    }

    fn on_execution_end(&mut self, sys: &P, _depth: usize) {
        if matches!(sys.status(), SystemStatus::Terminated) {
            self.0.insert(sys.state_bytes());
        }
    }
}

/// Enumerates `prog` under SC, TSO and PSO and checks that the terminal
/// outcome sets nest: SC ⊆ TSO ⊆ PSO.
pub fn memory_monotonicity_check(prog: &AtomicProgram, limits: &MemoryLimits) -> MemoryVerdict {
    let mut verdict = MemoryVerdict {
        outcomes: [0; 3],
        executions: [0; 3],
        skipped: None,
        discrepancies: Vec::new(),
    };
    let config = Config::fair()
        .with_stop_on_error(false)
        .with_max_executions(limits.max_executions)
        .with_depth_bound(limits.depth_bound);
    let mut sets: Vec<BTreeSet<Vec<u8>>> = Vec::with_capacity(3);
    for (i, model) in MemoryModel::ALL.into_iter().enumerate() {
        let mut obs = Terminals(BTreeSet::new());
        let report = Explorer::new(|| prog.instantiate(model), Dfs::new(), config.clone())
            .run_observed(&mut obs);
        verdict.executions[i] = report.stats.executions;
        match report.outcome {
            SearchOutcome::Complete => {}
            SearchOutcome::BudgetExhausted(k) => {
                verdict.skipped = Some(format!("{model} pass budget exhausted: {k:?}"));
                return verdict;
            }
            o => {
                verdict.discrepancies.push(Discrepancy {
                    oracle: "memory-clean",
                    detail: format!(
                        "atomic program errored under {model}: {o:?}\n{}",
                        render_atomic_scripts(prog)
                    ),
                });
                return verdict;
            }
        }
        verdict.outcomes[i] = obs.0.len();
        sets.push(obs.0);
    }
    let pairs = [
        ("memory-monotonicity-sc-tso", 0, 1),
        ("memory-monotonicity-tso-pso", 1, 2),
    ];
    for (oracle, lo, hi) in pairs {
        let missing = sets[lo].difference(&sets[hi]).count();
        if missing > 0 {
            let (lo_m, hi_m) = (MemoryModel::ALL[lo], MemoryModel::ALL[hi]);
            verdict.discrepancies.push(Discrepancy {
                oracle,
                detail: format!(
                    "{missing} terminal outcome(s) reachable under {lo_m} vanished under {hi_m} \
                     ({} vs {} outcomes)\n{}",
                    sets[lo].len(),
                    sets[hi].len(),
                    render_atomic_scripts(prog),
                ),
            });
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use chess_core::fuzz::{derive_seed, generate_atomic_program, AtomicFuzzOp, FuzzConfig};

    /// The acceptance corpus: 200 fixed-seed atomic programs, zero
    /// monotonicity discrepancies.
    #[test]
    fn monotonicity_holds_on_the_fixed_corpus() {
        let mut checked = 0;
        let mut widened = 0;
        for i in 0..200u64 {
            let cfg = FuzzConfig {
                max_threads: 3,
                max_ops: 3,
                ..FuzzConfig::default().with_seed(derive_seed(0x7050, i))
            };
            let prog = generate_atomic_program(&cfg);
            // A tight budget: the corpus is 200 systems × 3 models, and
            // the handful of largest programs would dominate the runtime
            // without making the oracle any stronger. Skips don't count.
            let limits = MemoryLimits {
                max_executions: 20_000,
                depth_bound: 1_000,
            };
            let verdict = memory_monotonicity_check(&prog, &limits);
            assert!(
                verdict.agreed(),
                "seed index {i}: {:?}",
                verdict.discrepancies
            );
            if verdict.skipped.is_none() {
                checked += 1;
                if verdict.outcomes[2] > verdict.outcomes[0] {
                    widened += 1;
                }
            }
        }
        assert!(checked >= 150, "only {checked}/200 programs fit the budget");
        // The oracle is vacuous if buffering never changes anything.
        assert!(widened > 0, "no program showed a relaxed outcome");
    }

    /// A hand-built SB program widens strictly at each step down the
    /// hierarchy is too strong (TSO = PSO on single-location-per-thread
    /// programs); but SC ⊊ TSO must hold and the verdict must report the
    /// outcome counts.
    #[test]
    fn store_buffering_widens_under_tso() {
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
        let verdict = memory_monotonicity_check(&sb, &MemoryLimits::default());
        assert!(verdict.agreed(), "{:?}", verdict.discrepancies);
        assert!(verdict.skipped.is_none());
        assert!(
            verdict.outcomes[1] > verdict.outcomes[0],
            "TSO should add the both-read-0 outcome: {:?}",
            verdict.outcomes
        );
        assert!(verdict.outcomes[2] >= verdict.outcomes[1]);
    }
}
