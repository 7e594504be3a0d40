//! State-coverage tracking for stateless searches.
//!
//! The model checker itself stores no states; these observers plug into
//! `chess_core::Explorer::run_observed` and record the distinct abstract
//! states visited, reproducing the measurement methodology of Table 2.
//! Both are resumable: a set does not change when a state is seen again,
//! so the search may skip the prefixes it resumes from snapshots.

use std::collections::HashSet;

use chess_core::{Observer, TransitionSystem};

/// Exact coverage tracker: keys the visited set on the full state byte
/// signature, so distinct states are never conflated.
///
/// The per-state capture lands in a reused scratch buffer
/// ([`TransitionSystem::state_bytes_into`]); a signature is cloned into
/// the set only when it is genuinely new, so re-visiting known states —
/// the overwhelmingly common case in a long search — allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CoverageTracker {
    visited: HashSet<Vec<u8>>,
    occurrences: u64,
    scratch: Vec<u8>,
}

impl CoverageTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        CoverageTracker::default()
    }

    /// Number of distinct states visited.
    pub fn distinct_states(&self) -> usize {
        self.visited.len()
    }

    /// State occurrences shown to this tracker (with repetition). With
    /// prefix snapshots on, the search skips resumed prefixes, so this
    /// counts the executed states, not every state of every execution.
    pub fn occurrences(&self) -> u64 {
        self.occurrences
    }

    /// Whether the given exact state signature was visited.
    pub fn contains(&self, state: &[u8]) -> bool {
        self.visited.contains(state)
    }

    /// Iterates over the visited signatures.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.visited.iter()
    }

    /// Records a borrowed state signature, cloning it only if unseen.
    pub fn insert_ref(&mut self, state: &[u8]) -> bool {
        self.occurrences += 1;
        if self.visited.contains(state) {
            false
        } else {
            self.visited.insert(state.to_vec())
        }
    }

    /// Fraction of `total` states covered, in percent.
    pub fn percent_of(&self, total: usize) -> f64 {
        if total == 0 {
            100.0
        } else {
            100.0 * self.distinct_states() as f64 / total as f64
        }
    }
}

impl<P: TransitionSystem + ?Sized> Observer<P> for CoverageTracker {
    fn resumable(&self) -> bool {
        true
    }

    fn on_state(&mut self, sys: &P, _depth: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        sys.state_bytes_into(&mut scratch);
        self.insert_ref(&scratch);
        self.scratch = scratch;
    }
}

/// Memory-light coverage tracker keyed on 64-bit fingerprints. Suitable
/// for very large state counts where a rare collision is an acceptable
/// undercount (the paper's hash-table methodology).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FingerprintCoverage {
    visited: HashSet<u64>,
}

impl FingerprintCoverage {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        FingerprintCoverage::default()
    }

    /// Number of distinct fingerprints visited.
    pub fn distinct_states(&self) -> usize {
        self.visited.len()
    }
}

impl<P: TransitionSystem + ?Sized> Observer<P> for FingerprintCoverage {
    fn resumable(&self) -> bool {
        true
    }

    fn on_state(&mut self, sys: &P, _depth: usize) {
        self.visited.insert(sys.fingerprint());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_vs_occurrences() {
        let mut c = CoverageTracker::new();
        assert!(c.insert_ref(&[1]));
        assert!(!c.insert_ref(&[1]));
        assert!(c.insert_ref(&[2]));
        assert_eq!(c.distinct_states(), 2);
        assert_eq!(c.occurrences(), 3);
        assert!(c.contains(&[1]));
        assert!(!c.contains(&[3]));
    }

    #[test]
    fn percent_of_handles_zero_total() {
        let c = CoverageTracker::new();
        assert_eq!(c.percent_of(0), 100.0);
        let mut c = CoverageTracker::new();
        c.insert_ref(&[1]);
        assert_eq!(c.percent_of(4), 25.0);
    }
}
