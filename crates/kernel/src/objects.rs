//! Kernel synchronization objects and their exact enabledness semantics.
//!
//! Every object models the *demonic* semantics a model checker wants: when
//! an object becomes available (a mutex is released, an event is set, a
//! message arrives), all threads waiting for it become **enabled**, and
//! which of them actually completes its operation is a scheduling choice.
//! There are no hidden wait queues deciding winners behind the scheduler's
//! back.

use std::collections::VecDeque;

use crate::capture::StateWriter;
use crate::ids::{
    AtomicId, BarrierId, ChannelId, CondvarId, EventId, MutexId, RwLockId, SemaphoreId,
};
use crate::op::{OpDesc, OpResult, StepKind};
use crate::tid::{ThreadId, TidSet};

/// A mutual-exclusion lock. Non-reentrant: re-acquiring a held mutex is a
/// reported violation, as is releasing a mutex the thread does not hold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutexState {
    pub(crate) holder: Option<ThreadId>,
}

/// A reader-writer lock: any number of readers or one writer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwLockState {
    pub(crate) writer: Option<ThreadId>,
    pub(crate) readers: TidSet,
}

/// A counting semaphore.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SemaphoreState {
    pub(crate) permits: u32,
}

/// A Win32-style event: manual-reset stays set until reset; auto-reset is
/// consumed by the first waiter that completes its wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventState {
    pub(crate) set: bool,
    pub(crate) auto_reset: bool,
}

/// A condition variable.
///
/// Waiting is split into two guest-visible transitions (see
/// [`OpDesc::CondEnroll`] and [`OpDesc::CondConsume`]); signals either mark
/// specific enrolled waiters (broadcast) or add an anonymous token that any
/// enrolled waiter may consume (signal). A signal with no enrolled waiters
/// is lost, matching real condition variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CondvarState {
    pub(crate) enrolled: TidSet,
    pub(crate) signaled: TidSet,
    pub(crate) tokens: u32,
}

/// A single `u64` cell accessed with atomic operations (the "volatile
/// word" of lock-free algorithms).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomicState {
    pub(crate) value: u64,
}

/// An n-party reusable barrier. Arrivals are counted per *generation*;
/// when the last party arrives, the generation advances and the waiters
/// of the previous generation become enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierState {
    pub(crate) parties: u32,
    pub(crate) arrived: u32,
    pub(crate) generation: u64,
}

/// A bounded FIFO channel of `u64` messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelState {
    pub(crate) queue: VecDeque<u64>,
    pub(crate) capacity: usize,
    pub(crate) closed: bool,
}

/// A violation detected while executing an operation: the guest misused a
/// kernel object (double acquire, stray release, ...). These surface as
/// safety violations of the execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectViolation(pub String);

/// The table of all synchronization objects in a kernel instance.
#[derive(Debug, Default)]
pub struct Objects {
    pub(crate) mutexes: Vec<MutexState>,
    pub(crate) rwlocks: Vec<RwLockState>,
    pub(crate) semaphores: Vec<SemaphoreState>,
    pub(crate) atomics: Vec<AtomicState>,
    pub(crate) barriers: Vec<BarrierState>,
    pub(crate) events: Vec<EventState>,
    pub(crate) condvars: Vec<CondvarState>,
    pub(crate) channels: Vec<ChannelState>,
}

impl Clone for Objects {
    fn clone(&self) -> Self {
        Objects {
            mutexes: self.mutexes.clone(),
            rwlocks: self.rwlocks.clone(),
            semaphores: self.semaphores.clone(),
            atomics: self.atomics.clone(),
            barriers: self.barriers.clone(),
            events: self.events.clone(),
            condvars: self.condvars.clone(),
            channels: self.channels.clone(),
        }
    }

    // Field-wise `Vec::clone_from` reuses the per-table buffers when the
    // kernel pool resets a table from an execution template (the derived
    // impl would reallocate all eight on every execution).
    fn clone_from(&mut self, source: &Self) {
        self.mutexes.clone_from(&source.mutexes);
        self.rwlocks.clone_from(&source.rwlocks);
        self.semaphores.clone_from(&source.semaphores);
        self.atomics.clone_from(&source.atomics);
        self.barriers.clone_from(&source.barriers);
        self.events.clone_from(&source.events);
        self.condvars.clone_from(&source.condvars);
        self.channels.clone_from(&source.channels);
    }
}

impl Objects {
    pub(crate) fn add_mutex(&mut self) -> MutexId {
        self.mutexes.push(MutexState::default());
        MutexId::new(self.mutexes.len() - 1)
    }

    pub(crate) fn add_rwlock(&mut self) -> RwLockId {
        self.rwlocks.push(RwLockState::default());
        RwLockId::new(self.rwlocks.len() - 1)
    }

    pub(crate) fn add_semaphore(&mut self, permits: u32) -> SemaphoreId {
        self.semaphores.push(SemaphoreState { permits });
        SemaphoreId::new(self.semaphores.len() - 1)
    }

    pub(crate) fn add_atomic(&mut self, value: u64) -> AtomicId {
        self.atomics.push(AtomicState { value });
        AtomicId::new(self.atomics.len() - 1)
    }

    pub(crate) fn add_barrier(&mut self, parties: u32) -> BarrierId {
        self.barriers.push(BarrierState {
            parties,
            arrived: 0,
            generation: 0,
        });
        BarrierId::new(self.barriers.len() - 1)
    }

    pub(crate) fn add_event(&mut self, auto_reset: bool, initially_set: bool) -> EventId {
        self.events.push(EventState {
            set: initially_set,
            auto_reset,
        });
        EventId::new(self.events.len() - 1)
    }

    pub(crate) fn add_condvar(&mut self) -> CondvarId {
        self.condvars.push(CondvarState::default());
        CondvarId::new(self.condvars.len() - 1)
    }

    pub(crate) fn add_channel(&mut self, capacity: usize) -> ChannelId {
        self.channels.push(ChannelState {
            queue: VecDeque::new(),
            capacity,
            closed: false,
        });
        ChannelId::new(self.channels.len() - 1)
    }

    /// Is the object-touching operation `op`, issued by thread `t`,
    /// currently executable without blocking?
    ///
    /// Operations not handled by the object table (`Local`, `Yield`,
    /// `Join`, ...) are not passed here; see `Kernel::enabled`.
    pub(crate) fn satisfiable(&self, t: ThreadId, op: &OpDesc) -> bool {
        match *op {
            OpDesc::Acquire(m) => self.mutexes[m.index()].holder.is_none(),
            OpDesc::RwAcquireRead(l) => self.rwlocks[l.index()].writer.is_none(),
            OpDesc::RwAcquireWrite(l) => {
                let lk = &self.rwlocks[l.index()];
                lk.writer.is_none() && lk.readers.is_empty()
            }
            OpDesc::SemDown(s) => self.semaphores[s.index()].permits > 0,
            OpDesc::EventWait(e) => self.events[e.index()].set,
            OpDesc::CondConsume(cv) => {
                let c = &self.condvars[cv.index()];
                c.enrolled.contains(t) && (c.signaled.contains(t) || c.tokens > 0)
            }
            OpDesc::Send(ch, _) => {
                let c = &self.channels[ch.index()];
                c.closed || c.queue.len() < c.capacity
            }
            OpDesc::Recv(ch) => {
                let c = &self.channels[ch.index()];
                c.closed || !c.queue.is_empty()
            }
            OpDesc::BarrierAwait(b, gen) => self.barriers[b.index()].generation > gen,
            // Try-operations, timeouts, releases, sets, signals, atomics
            // and barrier arrivals never block.
            _ => true,
        }
    }

    /// Would executing `op` right now be a *yielding* transition?
    ///
    /// Explicit yields and sleeps always are; timeout-operations are
    /// yielding exactly when they would time out (CHESS's rule that every
    /// synchronization operation with a finite timeout is a yield).
    pub(crate) fn is_yielding(&self, op: &OpDesc) -> bool {
        match *op {
            OpDesc::Yield | OpDesc::Sleep => true,
            OpDesc::AcquireTimeout(m) => self.mutexes[m.index()].holder.is_some(),
            OpDesc::SemDownTimeout(s) => self.semaphores[s.index()].permits == 0,
            OpDesc::EventWaitTimeout(e) => !self.events[e.index()].set,
            _ => false,
        }
    }

    /// Executes an object-touching operation on behalf of thread `t`.
    ///
    /// The caller (the kernel) guarantees `satisfiable(t, op)` holds.
    ///
    /// # Errors
    ///
    /// Returns an [`ObjectViolation`] if the guest misused the object
    /// (releasing a mutex it does not hold, double-acquire, consuming a
    /// condition variable it is not enrolled on, ...).
    pub(crate) fn execute(
        &mut self,
        t: ThreadId,
        op: &OpDesc,
    ) -> Result<(OpResult, StepKind), ObjectViolation> {
        use OpDesc::*;
        let r = match *op {
            Acquire(m) => {
                let mx = &mut self.mutexes[m.index()];
                if mx.holder == Some(t) {
                    return Err(ObjectViolation(format!("{t} re-acquired held {m}")));
                }
                debug_assert!(mx.holder.is_none());
                mx.holder = Some(t);
                (OpResult::Unit, StepKind::Normal)
            }
            TryAcquire(m) => {
                let mx = &mut self.mutexes[m.index()];
                if mx.holder == Some(t) {
                    return Err(ObjectViolation(format!("{t} re-acquired held {m}")));
                }
                if mx.holder.is_none() {
                    mx.holder = Some(t);
                    (OpResult::Bool(true), StepKind::Normal)
                } else {
                    (OpResult::Bool(false), StepKind::Normal)
                }
            }
            AcquireTimeout(m) => {
                let mx = &mut self.mutexes[m.index()];
                if mx.holder == Some(t) {
                    return Err(ObjectViolation(format!("{t} re-acquired held {m}")));
                }
                if mx.holder.is_none() {
                    mx.holder = Some(t);
                    (OpResult::Bool(true), StepKind::Normal)
                } else {
                    (OpResult::Bool(false), StepKind::Yield)
                }
            }
            Release(m) => {
                let mx = &mut self.mutexes[m.index()];
                if mx.holder != Some(t) {
                    return Err(ObjectViolation(format!(
                        "{t} released {m} it does not hold"
                    )));
                }
                mx.holder = None;
                (OpResult::Unit, StepKind::Normal)
            }
            RwAcquireRead(l) => {
                let lk = &mut self.rwlocks[l.index()];
                if lk.readers.contains(t) {
                    return Err(ObjectViolation(format!("{t} re-acquired {l} for read")));
                }
                debug_assert!(lk.writer.is_none());
                lk.readers.insert(t);
                (OpResult::Unit, StepKind::Normal)
            }
            RwAcquireWrite(l) => {
                let lk = &mut self.rwlocks[l.index()];
                debug_assert!(lk.writer.is_none() && lk.readers.is_empty());
                lk.writer = Some(t);
                (OpResult::Unit, StepKind::Normal)
            }
            RwTryAcquireWrite(l) => {
                let lk = &mut self.rwlocks[l.index()];
                if lk.writer.is_none() && lk.readers.is_empty() {
                    lk.writer = Some(t);
                    (OpResult::Bool(true), StepKind::Normal)
                } else {
                    (OpResult::Bool(false), StepKind::Normal)
                }
            }
            RwRelease(l) => {
                let lk = &mut self.rwlocks[l.index()];
                if lk.writer == Some(t) {
                    lk.writer = None;
                } else if !lk.readers.remove(t) {
                    return Err(ObjectViolation(format!(
                        "{t} released {l} it does not hold"
                    )));
                }
                (OpResult::Unit, StepKind::Normal)
            }
            SemDown(s) => {
                let sem = &mut self.semaphores[s.index()];
                debug_assert!(sem.permits > 0);
                sem.permits -= 1;
                (OpResult::Unit, StepKind::Normal)
            }
            SemDownTimeout(s) => {
                let sem = &mut self.semaphores[s.index()];
                if sem.permits > 0 {
                    sem.permits -= 1;
                    (OpResult::Bool(true), StepKind::Normal)
                } else {
                    (OpResult::Bool(false), StepKind::Yield)
                }
            }
            SemUp(s) => {
                let sem = &mut self.semaphores[s.index()];
                sem.permits = sem.permits.checked_add(1).ok_or_else(|| {
                    ObjectViolation(format!("semaphore {s} permit count overflow"))
                })?;
                (OpResult::Unit, StepKind::Normal)
            }
            EventWait(e) => {
                let ev = &mut self.events[e.index()];
                debug_assert!(ev.set);
                if ev.auto_reset {
                    ev.set = false;
                }
                (OpResult::Unit, StepKind::Normal)
            }
            EventWaitTimeout(e) => {
                let ev = &mut self.events[e.index()];
                if ev.set {
                    if ev.auto_reset {
                        ev.set = false;
                    }
                    (OpResult::Bool(true), StepKind::Normal)
                } else {
                    (OpResult::Bool(false), StepKind::Yield)
                }
            }
            EventSet(e) => {
                self.events[e.index()].set = true;
                (OpResult::Unit, StepKind::Normal)
            }
            EventReset(e) => {
                self.events[e.index()].set = false;
                (OpResult::Unit, StepKind::Normal)
            }
            CondEnroll(cv, m) => {
                if self.mutexes[m.index()].holder != Some(t) {
                    return Err(ObjectViolation(format!(
                        "{t} waited on {cv} without holding {m}"
                    )));
                }
                self.mutexes[m.index()].holder = None;
                let c = &mut self.condvars[cv.index()];
                c.enrolled.insert(t);
                (OpResult::Unit, StepKind::Normal)
            }
            CondConsume(cv) => {
                let c = &mut self.condvars[cv.index()];
                if !c.enrolled.remove(t) {
                    return Err(ObjectViolation(format!("{t} consumed {cv} unenrolled")));
                }
                if !c.signaled.remove(t) {
                    debug_assert!(c.tokens > 0);
                    c.tokens -= 1;
                }
                (OpResult::Unit, StepKind::Normal)
            }
            CondSignal(cv) => {
                let c = &mut self.condvars[cv.index()];
                // A signal with no un-signaled enrolled waiter is lost.
                let unsignaled = c.enrolled.difference(&c.signaled).len() as u32;
                if c.tokens < unsignaled {
                    c.tokens += 1;
                }
                (OpResult::Unit, StepKind::Normal)
            }
            CondBroadcast(cv) => {
                let c = &mut self.condvars[cv.index()];
                let enrolled = c.enrolled.clone();
                c.signaled.union_with(&enrolled);
                c.tokens = 0;
                (OpResult::Unit, StepKind::Normal)
            }
            Send(ch, msg) => {
                let c = &mut self.channels[ch.index()];
                if c.closed {
                    (OpResult::Bool(false), StepKind::Normal)
                } else {
                    debug_assert!(c.queue.len() < c.capacity);
                    c.queue.push_back(msg);
                    (OpResult::Bool(true), StepKind::Normal)
                }
            }
            TrySend(ch, msg) => {
                let c = &mut self.channels[ch.index()];
                if !c.closed && c.queue.len() < c.capacity {
                    c.queue.push_back(msg);
                    (OpResult::Bool(true), StepKind::Normal)
                } else {
                    (OpResult::Bool(false), StepKind::Normal)
                }
            }
            Recv(ch) => {
                let c = &mut self.channels[ch.index()];
                match c.queue.pop_front() {
                    Some(m) => (OpResult::Message(Some(m)), StepKind::Normal),
                    None => {
                        debug_assert!(c.closed);
                        (OpResult::Message(None), StepKind::Normal)
                    }
                }
            }
            TryRecv(ch) => {
                let c = &mut self.channels[ch.index()];
                (OpResult::Message(c.queue.pop_front()), StepKind::Normal)
            }
            Close(ch) => {
                self.channels[ch.index()].closed = true;
                (OpResult::Unit, StepKind::Normal)
            }
            AtomicLoad(a) => (
                OpResult::Value(self.atomics[a.index()].value),
                StepKind::Normal,
            ),
            AtomicStore(a, v) => {
                self.atomics[a.index()].value = v;
                (OpResult::Unit, StepKind::Normal)
            }
            AtomicCas(a, expected, new) => {
                let cell = &mut self.atomics[a.index()];
                if cell.value == expected {
                    cell.value = new;
                    (OpResult::Bool(true), StepKind::Normal)
                } else {
                    (OpResult::Bool(false), StepKind::Normal)
                }
            }
            AtomicSwap(a, v) => {
                let cell = &mut self.atomics[a.index()];
                let old = cell.value;
                cell.value = v;
                (OpResult::Value(old), StepKind::Normal)
            }
            AtomicAdd(a, delta) => {
                let cell = &mut self.atomics[a.index()];
                let old = cell.value;
                cell.value = old.wrapping_add(delta);
                (OpResult::Value(old), StepKind::Normal)
            }
            BarrierArrive(b) => {
                let bar = &mut self.barriers[b.index()];
                bar.arrived += 1;
                let gen = bar.generation;
                if bar.arrived >= bar.parties {
                    bar.arrived = 0;
                    bar.generation += 1;
                }
                (OpResult::Value(gen), StepKind::Normal)
            }
            BarrierAwait(..) => (OpResult::Unit, StepKind::Normal),
            Yield => (OpResult::Unit, StepKind::Yield),
            Sleep => (OpResult::Unit, StepKind::Yield),
            Local | Finished | Choose(_) | Join(_) | Fence | Flush(_) => {
                unreachable!("operation {op:?} is handled by the kernel, not the object table")
            }
        };
        Ok(r)
    }

    /// Writes the full object-table state for fingerprinting.
    pub(crate) fn capture(&self, w: &mut StateWriter) {
        for m in &self.mutexes {
            match m.holder {
                Some(t) => w.write_u32(t.index() as u32 + 1),
                None => w.write_u32(0),
            }
        }
        for l in &self.rwlocks {
            match l.writer {
                Some(t) => w.write_u32(t.index() as u32 + 1),
                None => w.write_u32(0),
            }
            for r in l.readers.iter() {
                w.write_u32(r.index() as u32);
            }
            w.write_u32(u32::MAX);
        }
        for s in &self.semaphores {
            w.write_u32(s.permits);
        }
        for a in &self.atomics {
            w.write_u64(a.value);
        }
        for b in &self.barriers {
            w.write_u32(b.arrived);
            w.write_u64(b.generation);
        }
        for e in &self.events {
            w.write_bool(e.set);
        }
        for c in &self.condvars {
            w.write_u32(c.tokens);
            for t in c.enrolled.iter() {
                w.write_u32(t.index() as u32);
            }
            w.write_u32(u32::MAX);
            for t in c.signaled.iter() {
                w.write_u32(t.index() as u32);
            }
            w.write_u32(u32::MAX);
        }
        for ch in &self.channels {
            w.write_bool(ch.closed);
            w.write_u32(ch.queue.len() as u32);
            for &m in &ch.queue {
                w.write_u64(m);
            }
        }
    }

    /// Total number of objects, for diagnostics.
    pub(crate) fn count(&self) -> usize {
        self.mutexes.len()
            + self.rwlocks.len()
            + self.semaphores.len()
            + self.events.len()
            + self.condvars.len()
            + self.channels.len()
            + self.atomics.len()
            + self.barriers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    /// Object states holding thread sets compare by members, not by how
    /// the sets' storage grew: a lock all readers left equals a fresh one.
    #[test]
    fn object_state_equality_ignores_set_history() {
        let mut rw = RwLockState::default();
        rw.readers.insert(t(100));
        rw.readers.remove(t(100));
        assert_eq!(rw, RwLockState::default());
        let mut cv = CondvarState::default();
        cv.enrolled.insert(t(1));
        cv.signaled.insert(t(70));
        cv.enrolled.remove(t(1));
        cv.signaled.remove(t(70));
        assert_eq!(cv, CondvarState::default());
    }

    #[test]
    fn mutex_lifecycle() {
        let mut o = Objects::default();
        let m = o.add_mutex();
        assert!(o.satisfiable(t(0), &OpDesc::Acquire(m)));
        o.execute(t(0), &OpDesc::Acquire(m)).unwrap();
        assert!(!o.satisfiable(t(1), &OpDesc::Acquire(m)));
        // try-acquire fails but does not block
        assert!(o.satisfiable(t(1), &OpDesc::TryAcquire(m)));
        let (r, _) = o.execute(t(1), &OpDesc::TryAcquire(m)).unwrap();
        assert_eq!(r, OpResult::Bool(false));
        o.execute(t(0), &OpDesc::Release(m)).unwrap();
        assert!(o.satisfiable(t(1), &OpDesc::Acquire(m)));
    }

    #[test]
    fn mutex_misuse_is_violation() {
        let mut o = Objects::default();
        let m = o.add_mutex();
        assert!(o.execute(t(0), &OpDesc::Release(m)).is_err());
        o.execute(t(0), &OpDesc::Acquire(m)).unwrap();
        assert!(o.execute(t(0), &OpDesc::TryAcquire(m)).is_err());
    }

    #[test]
    fn acquire_timeout_yields_when_held() {
        let mut o = Objects::default();
        let m = o.add_mutex();
        o.execute(t(0), &OpDesc::Acquire(m)).unwrap();
        assert!(o.is_yielding(&OpDesc::AcquireTimeout(m)));
        let (r, k) = o.execute(t(1), &OpDesc::AcquireTimeout(m)).unwrap();
        assert_eq!(r, OpResult::Bool(false));
        assert_eq!(k, StepKind::Yield);
        o.execute(t(0), &OpDesc::Release(m)).unwrap();
        assert!(!o.is_yielding(&OpDesc::AcquireTimeout(m)));
        let (r, k) = o.execute(t(1), &OpDesc::AcquireTimeout(m)).unwrap();
        assert_eq!(r, OpResult::Bool(true));
        assert_eq!(k, StepKind::Normal);
    }

    #[test]
    fn rwlock_readers_exclude_writer() {
        let mut o = Objects::default();
        let l = o.add_rwlock();
        o.execute(t(0), &OpDesc::RwAcquireRead(l)).unwrap();
        o.execute(t(1), &OpDesc::RwAcquireRead(l)).unwrap();
        assert!(!o.satisfiable(t(2), &OpDesc::RwAcquireWrite(l)));
        assert!(o.satisfiable(t(2), &OpDesc::RwAcquireRead(l)));
        o.execute(t(0), &OpDesc::RwRelease(l)).unwrap();
        o.execute(t(1), &OpDesc::RwRelease(l)).unwrap();
        assert!(o.satisfiable(t(2), &OpDesc::RwAcquireWrite(l)));
        o.execute(t(2), &OpDesc::RwAcquireWrite(l)).unwrap();
        assert!(!o.satisfiable(t(0), &OpDesc::RwAcquireRead(l)));
    }

    #[test]
    fn semaphore_counts_permits() {
        let mut o = Objects::default();
        let s = o.add_semaphore(2);
        o.execute(t(0), &OpDesc::SemDown(s)).unwrap();
        o.execute(t(1), &OpDesc::SemDown(s)).unwrap();
        assert!(!o.satisfiable(t(2), &OpDesc::SemDown(s)));
        o.execute(t(0), &OpDesc::SemUp(s)).unwrap();
        assert!(o.satisfiable(t(2), &OpDesc::SemDown(s)));
    }

    #[test]
    fn auto_reset_event_consumed_once() {
        let mut o = Objects::default();
        let e = o.add_event(true, false);
        assert!(!o.satisfiable(t(0), &OpDesc::EventWait(e)));
        o.execute(t(1), &OpDesc::EventSet(e)).unwrap();
        assert!(o.satisfiable(t(0), &OpDesc::EventWait(e)));
        o.execute(t(0), &OpDesc::EventWait(e)).unwrap();
        assert!(!o.satisfiable(t(2), &OpDesc::EventWait(e)));
    }

    #[test]
    fn manual_reset_event_stays_set() {
        let mut o = Objects::default();
        let e = o.add_event(false, false);
        o.execute(t(1), &OpDesc::EventSet(e)).unwrap();
        o.execute(t(0), &OpDesc::EventWait(e)).unwrap();
        assert!(o.satisfiable(t(2), &OpDesc::EventWait(e)));
        o.execute(t(1), &OpDesc::EventReset(e)).unwrap();
        assert!(!o.satisfiable(t(2), &OpDesc::EventWait(e)));
    }

    #[test]
    fn condvar_signal_wakes_one() {
        let mut o = Objects::default();
        let m = o.add_mutex();
        let cv = o.add_condvar();
        for i in 0..2 {
            o.execute(t(i), &OpDesc::Acquire(m)).unwrap();
            o.execute(t(i), &OpDesc::CondEnroll(cv, m)).unwrap();
        }
        assert!(!o.satisfiable(t(0), &OpDesc::CondConsume(cv)));
        o.execute(t(2), &OpDesc::CondSignal(cv)).unwrap();
        // Either waiter may take the signal: both are enabled.
        assert!(o.satisfiable(t(0), &OpDesc::CondConsume(cv)));
        assert!(o.satisfiable(t(1), &OpDesc::CondConsume(cv)));
        o.execute(t(1), &OpDesc::CondConsume(cv)).unwrap();
        assert!(!o.satisfiable(t(0), &OpDesc::CondConsume(cv)));
    }

    #[test]
    fn condvar_broadcast_wakes_all_lost_signal_dropped() {
        let mut o = Objects::default();
        let m = o.add_mutex();
        let cv = o.add_condvar();
        // Signal with no waiters is lost.
        o.execute(t(2), &OpDesc::CondSignal(cv)).unwrap();
        o.execute(t(0), &OpDesc::Acquire(m)).unwrap();
        o.execute(t(0), &OpDesc::CondEnroll(cv, m)).unwrap();
        assert!(!o.satisfiable(t(0), &OpDesc::CondConsume(cv)));
        o.execute(t(1), &OpDesc::Acquire(m)).unwrap();
        o.execute(t(1), &OpDesc::CondEnroll(cv, m)).unwrap();
        o.execute(t(2), &OpDesc::CondBroadcast(cv)).unwrap();
        assert!(o.satisfiable(t(0), &OpDesc::CondConsume(cv)));
        assert!(o.satisfiable(t(1), &OpDesc::CondConsume(cv)));
        o.execute(t(0), &OpDesc::CondConsume(cv)).unwrap();
        assert!(o.satisfiable(t(1), &OpDesc::CondConsume(cv)));
    }

    #[test]
    fn condvar_enroll_requires_mutex() {
        let mut o = Objects::default();
        let m = o.add_mutex();
        let cv = o.add_condvar();
        assert!(o.execute(t(0), &OpDesc::CondEnroll(cv, m)).is_err());
    }

    #[test]
    fn channel_bounded_send_recv() {
        let mut o = Objects::default();
        let ch = o.add_channel(1);
        assert!(!o.satisfiable(t(0), &OpDesc::Recv(ch)));
        o.execute(t(1), &OpDesc::Send(ch, 42)).unwrap();
        assert!(!o.satisfiable(t(1), &OpDesc::Send(ch, 43)));
        let (r, _) = o.execute(t(0), &OpDesc::Recv(ch)).unwrap();
        assert_eq!(r, OpResult::Message(Some(42)));
        assert!(o.satisfiable(t(1), &OpDesc::Send(ch, 43)));
    }

    #[test]
    fn closed_channel_drains_then_returns_none() {
        let mut o = Objects::default();
        let ch = o.add_channel(4);
        o.execute(t(1), &OpDesc::Send(ch, 1)).unwrap();
        o.execute(t(1), &OpDesc::Close(ch)).unwrap();
        let (r, _) = o.execute(t(1), &OpDesc::Send(ch, 2)).unwrap();
        assert_eq!(r, OpResult::Bool(false));
        let (r, _) = o.execute(t(0), &OpDesc::Recv(ch)).unwrap();
        assert_eq!(r, OpResult::Message(Some(1)));
        assert!(o.satisfiable(t(0), &OpDesc::Recv(ch)));
        let (r, _) = o.execute(t(0), &OpDesc::Recv(ch)).unwrap();
        assert_eq!(r, OpResult::Message(None));
    }

    #[test]
    fn try_send_try_recv_never_block() {
        let mut o = Objects::default();
        let ch = o.add_channel(1);
        let (r, _) = o.execute(t(0), &OpDesc::TryRecv(ch)).unwrap();
        assert_eq!(r, OpResult::Message(None));
        let (r, _) = o.execute(t(0), &OpDesc::TrySend(ch, 1)).unwrap();
        assert_eq!(r, OpResult::Bool(true));
        let (r, _) = o.execute(t(0), &OpDesc::TrySend(ch, 2)).unwrap();
        assert_eq!(r, OpResult::Bool(false));
    }

    #[test]
    fn atomic_cell_operations() {
        let mut o = Objects::default();
        let a = o.add_atomic(5);
        let (r, _) = o.execute(t(0), &OpDesc::AtomicLoad(a)).unwrap();
        assert_eq!(r, OpResult::Value(5));
        let (r, _) = o.execute(t(0), &OpDesc::AtomicCas(a, 5, 9)).unwrap();
        assert_eq!(r, OpResult::Bool(true));
        let (r, _) = o.execute(t(1), &OpDesc::AtomicCas(a, 5, 7)).unwrap();
        assert_eq!(r, OpResult::Bool(false));
        let (r, _) = o.execute(t(1), &OpDesc::AtomicSwap(a, 1)).unwrap();
        assert_eq!(r, OpResult::Value(9));
        let (r, _) = o.execute(t(0), &OpDesc::AtomicAdd(a, 3)).unwrap();
        assert_eq!(r, OpResult::Value(1));
        let (r, _) = o.execute(t(0), &OpDesc::AtomicLoad(a)).unwrap();
        assert_eq!(r, OpResult::Value(4));
        // Atomic ops never block.
        assert!(o.satisfiable(t(2), &OpDesc::AtomicStore(a, 0)));
    }

    #[test]
    fn barrier_generations() {
        let mut o = Objects::default();
        let b = o.add_barrier(2);
        let (g0, _) = o.execute(t(0), &OpDesc::BarrierArrive(b)).unwrap();
        assert_eq!(g0, OpResult::Value(0));
        // Awaiting generation 0's completion blocks until the second
        // party arrives.
        assert!(!o.satisfiable(t(0), &OpDesc::BarrierAwait(b, 0)));
        let (g1, _) = o.execute(t(1), &OpDesc::BarrierArrive(b)).unwrap();
        assert_eq!(g1, OpResult::Value(0));
        assert!(o.satisfiable(t(0), &OpDesc::BarrierAwait(b, 0)));
        assert!(o.satisfiable(t(1), &OpDesc::BarrierAwait(b, 0)));
        // The barrier is reusable: generation 1 is now gathering.
        o.execute(t(0), &OpDesc::BarrierArrive(b)).unwrap();
        assert!(!o.satisfiable(t(0), &OpDesc::BarrierAwait(b, 1)));
    }

    #[test]
    fn capture_distinguishes_states() {
        let mut o = Objects::default();
        let m = o.add_mutex();
        let mut w1 = StateWriter::new();
        o.capture(&mut w1);
        o.execute(t(0), &OpDesc::Acquire(m)).unwrap();
        let mut w2 = StateWriter::new();
        o.capture(&mut w2);
        assert_ne!(w1.into_bytes(), w2.into_bytes());
    }
}
