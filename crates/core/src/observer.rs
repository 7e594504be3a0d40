//! Search observers: hooks for coverage measurement and statistics.
//!
//! The paper measures state coverage (Table 2) by manually extracting
//! states during the search; an [`Observer`] is the seam that code (in
//! `chess-state`) plugs into without the explorer knowing about visited
//! sets.

use crate::system::TransitionSystem;

/// Callbacks invoked by the explorer during a search.
///
/// `on_state` is called once per *executed* state: for the initial state
/// of an execution that starts from it and after every transition. An
/// observer that is [`Observer::resumable`] also lets executions resume
/// from prefix snapshots ([`crate::Config::pooling`]); it then does not
/// see the states of the prefix a resumed execution skips, each of which
/// it saw in an earlier execution. Any other observer sees every state
/// occurrence of every execution.
pub trait Observer<P: TransitionSystem + ?Sized> {
    /// Whether seeing the states of a skipped prefix again would tell
    /// this observer nothing, so executions may resume from prefix
    /// snapshots. True for observers that record sets of states or
    /// terminal states; the default refuses. Read once per search.
    fn resumable(&self) -> bool {
        false
    }

    /// A state has been reached (`depth` transitions into the current
    /// execution; `depth == 0` is the initial state).
    fn on_state(&mut self, sys: &P, depth: usize) {
        let _ = (sys, depth);
    }

    /// The current execution ended after `depth` transitions.
    fn on_execution_end(&mut self, sys: &P, depth: usize) {
        let _ = (sys, depth);
    }
}

/// An observer that does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl<P: TransitionSystem + ?Sized> Observer<P> for NullObserver {
    fn resumable(&self) -> bool {
        true
    }
}

/// An observer that counts state occurrences (not distinct states; use
/// `chess-state`'s coverage tracker for that). It is not resumable, so it
/// counts every state occurrence of every execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingObserver {
    /// Number of `on_state` callbacks received.
    pub states_seen: u64,
    /// Number of executions observed.
    pub executions: u64,
}

impl<P: TransitionSystem + ?Sized> Observer<P> for CountingObserver {
    fn on_state(&mut self, _sys: &P, _depth: usize) {
        self.states_seen += 1;
    }

    fn on_execution_end(&mut self, _sys: &P, _depth: usize) {
        self.executions += 1;
    }
}
