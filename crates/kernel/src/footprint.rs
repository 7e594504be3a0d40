//! Dependence footprints: which objects a transition touches, and how.
//!
//! Partial-order reduction needs to know when two transitions *commute*:
//! executing them in either order from the same state reaches the same
//! state. The kernel answers this question conservatively by attaching a
//! [`Footprint`] — a small set of [`Access`]es — to every operation. Two
//! footprints are [*dependent*](Footprint::dependent) when they touch a
//! common object and at least one of the accesses is not a read; dependent
//! transitions may not commute, independent ones provably do.
//!
//! Footprints flow through three surfaces:
//!
//! * [`Kernel::next_footprint`](crate::Kernel::next_footprint) — the
//!   footprint of the transition a thread *would* take, queryable before
//!   stepping (this is what exploration strategies consume);
//! * [`StepInfo::footprint`](crate::StepInfo) — the footprint of the
//!   transition that *was* taken, reported by
//!   [`Kernel::step`](crate::Kernel::step);
//! * `chess_core::TransitionSystem::footprint` — the abstract-system hook
//!   that the model-checking strategies key their sleep sets on.
//!
//! # Shared-state precision
//!
//! The guest's *apply* half (`GuestThread::on_op`) receives `&mut S` on
//! every step, so the kernel cannot prove on its own that any two guest
//! transitions commute on the shared state. Guests therefore *declare*
//! their shared-state effects through
//! [`GuestThread::shared_effects`](crate::GuestThread::shared_effects):
//! a read-set/write-set over named cells
//! ([`ObjectRef::Cell`]) that
//! [`Kernel::next_footprint`](crate::Kernel::next_footprint) merges into
//! the op's sync-object accesses. The default declaration is
//! [`SharedEffects::Whole`](crate::SharedEffects) — a conservative write
//! to [`ObjectRef::SharedState`], which [overlaps](ObjectRef::overlaps)
//! every cell — so guests that do not opt in stay sound (all of their
//! transitions remain pairwise dependent and reduction degenerates to no
//! pruning for them). Declarations can be checked at runtime: see
//! [`Kernel::set_validate_effects`](crate::Kernel::set_validate_effects).

use std::fmt;

use crate::ids::{
    AtomicId, BarrierId, ChannelId, CondvarId, EventId, MutexId, RwLockId, SemaphoreId,
};
use crate::op::OpDesc;
use crate::tid::ThreadId;

/// How an access interacts with the object it touches.
///
/// Only [`AccessKind::Read`] commutes with itself; every other pairing on
/// the same object is a conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Observes the object without changing it (atomic load, flag poll).
    Read,
    /// Mutates the object (atomic store, counter update, channel send).
    Write,
    /// Takes ownership or a unit of the object (mutex/rwlock/semaphore).
    Acquire,
    /// Returns ownership or a unit of the object.
    Release,
    /// Enqueues a store into the issuing thread's store buffer without
    /// writing memory (a buffered `AtomicStore` under TSO/PSO). Conflicts
    /// like a write: its eventual flush changes the object.
    Buffered,
    /// Drains a buffered store of this object to memory (the flusher
    /// lane's pseudo-transition).
    Flush,
    /// Waits for the issuing thread's store buffer to drain
    /// ([`OpDesc::Fence`]).
    Fence,
}

impl AccessKind {
    /// Returns true when two accesses of these kinds on the *same* object
    /// conflict (i.e. the transitions may not commute).
    ///
    /// Two reads commute. A [`Fence`](AccessKind::Fence) only waits for
    /// the issuing thread's own store buffer to drain, so it conflicts
    /// with the transitions that change that buffer's contents —
    /// [`Buffered`](AccessKind::Buffered) enqueues and
    /// [`Flush`](AccessKind::Flush) drains — and with nothing else: two
    /// fences on the same buffer commute (both are no-ops on an empty
    /// buffer), and a fence never conflicts with plain reads or writes.
    /// Every other same-object pairing conflicts.
    pub fn conflicts(self, other: AccessKind) -> bool {
        use AccessKind::{Buffered, Fence, Flush, Read};
        match (self, other) {
            (Read, Read) => false,
            (Fence, o) | (o, Fence) => matches!(o, Buffered | Flush),
            _ => true,
        }
    }

    /// Short lower-case label used in trace rendering.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Acquire => "acquire",
            AccessKind::Release => "release",
            AccessKind::Buffered => "buffer",
            AccessKind::Flush => "flush",
            AccessKind::Fence => "fence",
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A reference to one object a transition may touch.
///
/// Kernel synchronization objects each get their own variant; abstract
/// transition systems outside the kernel (the fuzz generator, test
/// scripts) use [`ObjectRef::Custom`] with a static class label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ObjectRef {
    /// The kernel's shared guest state `S` as a whole (conservative:
    /// the guest declared no precise effects, so its `on_op` may mutate
    /// anything). Overlaps every [`Cell`](ObjectRef::Cell).
    SharedState,
    /// One named cell of the kernel's shared guest state, as declared by
    /// a guest's `shared_effects` hook: a static cell name plus an index
    /// for array-shaped cells (scalar cells use index 0).
    Cell(&'static str, u32),
    /// Another thread, as touched by `Join`.
    Thread(ThreadId),
    /// A kernel mutex.
    Mutex(MutexId),
    /// A kernel reader-writer lock.
    RwLock(RwLockId),
    /// A kernel counting semaphore.
    Semaphore(SemaphoreId),
    /// A kernel event.
    Event(EventId),
    /// A kernel condition variable.
    Condvar(CondvarId),
    /// A kernel bounded channel (both endpoints share one id: send and
    /// receive race on the same buffer).
    Channel(ChannelId),
    /// A kernel atomic cell.
    Atomic(AtomicId),
    /// A kernel barrier.
    Barrier(BarrierId),
    /// A thread's store buffer, as drained by a fence. Used as a marker
    /// object so fences render as a bare `fence` annotation; flushes name
    /// the [`Atomic`](ObjectRef::Atomic) cells they drain instead.
    Buffer(ThreadId),
    /// An object of a non-kernel transition system: a static class label
    /// (e.g. `"counter"`) plus a dense index.
    Custom(&'static str, u32),
}

impl ObjectRef {
    /// Returns true when two object references may denote overlapping
    /// state. Distinct references are disjoint, except that the whole
    /// shared state overlaps every declared cell: a guest that declares
    /// precise effects must still conflict with one that keeps the
    /// conservative whole-state default.
    pub fn overlaps(self, other: ObjectRef) -> bool {
        self == other
            || matches!(
                (self, other),
                (ObjectRef::SharedState, ObjectRef::Cell(..))
                    | (ObjectRef::Cell(..), ObjectRef::SharedState)
            )
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectRef::SharedState => write!(f, "shared"),
            ObjectRef::Cell(name, 0) => write!(f, "{name}"),
            ObjectRef::Cell(name, index) => write!(f, "{name}[{index}]"),
            ObjectRef::Thread(t) => write!(f, "{t:?}"),
            ObjectRef::Mutex(id) => write!(f, "{id}"),
            ObjectRef::RwLock(id) => write!(f, "{id}"),
            ObjectRef::Semaphore(id) => write!(f, "{id}"),
            ObjectRef::Event(id) => write!(f, "{id}"),
            ObjectRef::Condvar(id) => write!(f, "{id}"),
            ObjectRef::Channel(id) => write!(f, "{id}"),
            ObjectRef::Atomic(id) => write!(f, "{id}"),
            ObjectRef::Barrier(id) => write!(f, "{id}"),
            ObjectRef::Buffer(t) => write!(f, "buffer({t})"),
            ObjectRef::Custom(class, index) => write!(f, "{class}{index}"),
        }
    }
}

/// One object access within a footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The object touched.
    pub object: ObjectRef,
    /// How it is touched.
    pub kind: AccessKind,
}

impl Access {
    /// Builds an access.
    pub const fn new(object: ObjectRef, kind: AccessKind) -> Self {
        Access { object, kind }
    }

    /// Returns true when this access conflicts with `other`: the objects
    /// [overlap](ObjectRef::overlaps), and the kinds
    /// [conflict](AccessKind::conflicts).
    pub fn conflicts(&self, other: &Access) -> bool {
        self.object.overlaps(other.object) && self.kind.conflicts(other.kind)
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.object)
    }
}

/// The dependence footprint of one transition: the set of object accesses
/// it may perform.
///
/// A footprint may additionally be [*universal*](Footprint::universal) —
/// dependent with every other footprint regardless of accesses. Universal
/// footprints model transitions whose effects the analysis cannot bound
/// (and yielding transitions, which interact with the fair scheduler's
/// global priority state and must never be pruned).
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Footprint {
    accesses: Vec<Access>,
    universal: bool,
}

impl Clone for Footprint {
    fn clone(&self) -> Self {
        Footprint {
            accesses: self.accesses.clone(),
            universal: self.universal,
        }
    }

    // The derived impl would fall back to a fresh allocation here; the
    // explorer clones footprints into per-schedule-point buffers on every
    // step, so reusing the access buffer matters. A buffer too small for
    // `source` is replaced rather than grown: the strategies swap these
    // buffers between recycled frames, so growth would recur tens of
    // thousands of times per search, and in-place `realloc` of that many
    // small blocks fragments the heap (a repeated sleep-set wsq(1) cb:3
    // search grew the process by ~10 kB a run; with fresh allocations,
    // ~3 kB).
    fn clone_from(&mut self, source: &Self) {
        if self.accesses.capacity() < source.accesses.len() {
            self.accesses = source.accesses.clone();
        } else {
            self.accesses.clone_from(&source.accesses);
        }
        self.universal = source.universal;
    }
}

impl Footprint {
    /// An empty footprint: a purely thread-local transition, independent
    /// of everything (except universal footprints).
    pub const fn local() -> Self {
        Footprint {
            accesses: Vec::new(),
            universal: false,
        }
    }

    /// A footprint conservatively dependent with every other footprint.
    pub const fn universal() -> Self {
        Footprint {
            accesses: Vec::new(),
            universal: true,
        }
    }

    /// Builds a footprint from a list of accesses.
    pub fn from_accesses(accesses: impl IntoIterator<Item = Access>) -> Self {
        Footprint {
            accesses: accesses.into_iter().collect(),
            universal: false,
        }
    }

    /// Adds one access.
    pub fn push(&mut self, object: ObjectRef, kind: AccessKind) {
        self.accesses.push(Access::new(object, kind));
    }

    /// Resets to the empty (local) footprint, keeping the access buffer's
    /// allocation for reuse.
    pub fn clear(&mut self) {
        self.accesses.clear();
        self.universal = false;
    }

    /// Marks this footprint universal (dependent with everything),
    /// dropping any named accesses so the result matches
    /// [`Footprint::universal`] exactly.
    pub fn make_universal(&mut self) {
        self.accesses.clear();
        self.universal = true;
    }

    /// Returns the accesses in this footprint (empty for universal
    /// footprints, whose dependence is unconditional).
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Returns true when this footprint is dependent with everything.
    pub fn is_universal(&self) -> bool {
        self.universal
    }

    /// Returns true when two transitions with these footprints may fail
    /// to commute: either footprint is universal, or some access pair
    /// touches the same object with at least one non-read.
    pub fn dependent(&self, other: &Footprint) -> bool {
        if self.universal || other.universal {
            return true;
        }
        self.accesses
            .iter()
            .any(|a| other.accesses.iter().any(|b| a.conflicts(b)))
    }

    /// Renders the non-[`SharedState`](ObjectRef::SharedState) accesses as
    /// a compact annotation (e.g. `acquire mutex0`), or `None` when there
    /// is nothing informative to show.
    ///
    /// The conservative whole-state write that undeclared kernel ops carry
    /// is omitted: it annotates every line identically and would drown the
    /// per-object information this rendering exists to surface. The
    /// [`Buffer`](ObjectRef::Buffer) bookkeeping markers that buffered
    /// stores and flushes carry (so a sleeping flush wakes when its
    /// owner's buffer changes) are likewise omitted — the
    /// [`Atomic`](ObjectRef::Atomic) access already names the cell.
    pub fn describe(&self) -> Option<String> {
        let parts: Vec<String> = self
            .accesses
            .iter()
            .filter(|a| {
                a.object != ObjectRef::SharedState
                    && !matches!(
                        (a.object, a.kind),
                        (
                            ObjectRef::Buffer(_),
                            AccessKind::Buffered | AccessKind::Flush
                        )
                    )
            })
            .map(|a| match a.object {
                // The buffer is implied by the issuing thread: `[fence]`
                // reads better than `[fence buffer(t0)]`.
                ObjectRef::Buffer(_) => a.kind.to_string(),
                _ => a.to_string(),
            })
            .collect();
        if parts.is_empty() {
            None
        } else {
            Some(parts.join(", "))
        }
    }
}

/// Maps a kernel operation to its *synchronization-object* footprint.
///
/// This covers only the kernel-owned objects the op touches (mutexes,
/// channels, atomics, ...). What the op does to the guest's shared state
/// `S` is not the op's to know: the guest declares it through
/// [`GuestThread::shared_effects`](crate::GuestThread::shared_effects),
/// and [`Kernel::next_footprint`](crate::Kernel::next_footprint) merges
/// the declaration (default: a conservative whole-state write) into the
/// accesses returned here. Purely local ops (`Local`, `Yield`, `Sleep`,
/// `Choose`) therefore map to [`Footprint::local`] at this layer.
pub fn footprint_of_op(op: &OpDesc) -> Footprint {
    let mut fp = Footprint::local();
    footprint_of_op_into(op, &mut fp);
    fp
}

/// [`footprint_of_op`] writing into a caller-provided footprint, clearing
/// it first — the allocation-free form for per-step scratch reuse.
pub fn footprint_of_op_into(op: &OpDesc, fp: &mut Footprint) {
    use AccessKind::{Acquire, Read, Release, Write};
    fp.clear();
    match *op {
        OpDesc::Finished => {}
        OpDesc::Local | OpDesc::Yield | OpDesc::Sleep | OpDesc::Choose(_) => {}
        OpDesc::Acquire(m) | OpDesc::TryAcquire(m) | OpDesc::AcquireTimeout(m) => {
            fp.push(ObjectRef::Mutex(m), Acquire);
        }
        OpDesc::Release(m) => fp.push(ObjectRef::Mutex(m), Release),
        OpDesc::RwAcquireRead(l) | OpDesc::RwAcquireWrite(l) | OpDesc::RwTryAcquireWrite(l) => {
            fp.push(ObjectRef::RwLock(l), Acquire);
        }
        OpDesc::RwRelease(l) => fp.push(ObjectRef::RwLock(l), Release),
        OpDesc::SemDown(s) | OpDesc::SemDownTimeout(s) => {
            fp.push(ObjectRef::Semaphore(s), Acquire);
        }
        OpDesc::SemUp(s) => fp.push(ObjectRef::Semaphore(s), Release),
        OpDesc::EventWait(e) | OpDesc::EventWaitTimeout(e) => {
            // Auto-reset events consume the signal, so a wait is a write.
            fp.push(ObjectRef::Event(e), Write);
        }
        OpDesc::EventSet(e) | OpDesc::EventReset(e) => fp.push(ObjectRef::Event(e), Write),
        OpDesc::CondEnroll(c, m) => {
            fp.push(ObjectRef::Condvar(c), Write);
            fp.push(ObjectRef::Mutex(m), Release);
        }
        OpDesc::CondConsume(c) | OpDesc::CondSignal(c) | OpDesc::CondBroadcast(c) => {
            fp.push(ObjectRef::Condvar(c), Write);
        }
        OpDesc::Send(ch, _)
        | OpDesc::TrySend(ch, _)
        | OpDesc::Recv(ch)
        | OpDesc::TryRecv(ch)
        | OpDesc::Close(ch) => {
            fp.push(ObjectRef::Channel(ch), Write);
        }
        OpDesc::Join(t) => fp.push(ObjectRef::Thread(t), Read),
        OpDesc::AtomicLoad(a) => fp.push(ObjectRef::Atomic(a), Read),
        OpDesc::AtomicStore(a, _)
        | OpDesc::AtomicCas(a, _, _)
        | OpDesc::AtomicSwap(a, _)
        | OpDesc::AtomicAdd(a, _) => fp.push(ObjectRef::Atomic(a), Write),
        OpDesc::BarrierArrive(b) | OpDesc::BarrierAwait(b, _) => {
            fp.push(ObjectRef::Barrier(b), Write);
        }
        // The precise buffered/flush/fence footprints depend on memory
        // model and buffer contents, which only the kernel knows; see
        // `Kernel::next_footprint`. These are the context-free fallbacks.
        OpDesc::Fence => {}
        OpDesc::Flush(t) => fp.push(ObjectRef::Buffer(t), AccessKind::Flush),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_commute_everything_else_conflicts() {
        let a = ObjectRef::Custom("counter", 0);
        let read = Footprint::from_accesses([Access::new(a, AccessKind::Read)]);
        let write = Footprint::from_accesses([Access::new(a, AccessKind::Write)]);
        assert!(!read.dependent(&read));
        assert!(read.dependent(&write));
        assert!(write.dependent(&write));
    }

    #[test]
    fn distinct_objects_are_independent() {
        let w0 = Footprint::from_accesses([Access::new(
            ObjectRef::Custom("counter", 0),
            AccessKind::Write,
        )]);
        let w1 = Footprint::from_accesses([Access::new(
            ObjectRef::Custom("counter", 1),
            AccessKind::Write,
        )]);
        assert!(!w0.dependent(&w1));
    }

    #[test]
    fn universal_is_dependent_with_everything() {
        let u = Footprint::universal();
        assert!(u.dependent(&Footprint::local()));
        assert!(Footprint::local().dependent(&u));
        assert!(!Footprint::local().dependent(&Footprint::local()));
    }

    #[test]
    fn local_ops_have_no_sync_accesses() {
        // The shared-state effect is the guest's declaration, merged in
        // by `Kernel::next_footprint` — not the op's.
        for op in [
            OpDesc::Local,
            OpDesc::Yield,
            OpDesc::Sleep,
            OpDesc::Finished,
        ] {
            assert!(
                footprint_of_op(&op).accesses().is_empty(),
                "{op:?} should carry no sync-object access"
            );
        }
    }

    #[test]
    fn whole_state_overlaps_every_cell() {
        let whole =
            Footprint::from_accesses([Access::new(ObjectRef::SharedState, AccessKind::Write)]);
        let cell =
            Footprint::from_accesses([Access::new(ObjectRef::Cell("count", 0), AccessKind::Read)]);
        let other =
            Footprint::from_accesses([Access::new(ObjectRef::Cell("done", 1), AccessKind::Write)]);
        assert!(whole.dependent(&cell), "Whole must conflict with any cell");
        assert!(cell.dependent(&whole));
        assert!(!cell.dependent(&other), "distinct cells are disjoint");
        assert!(!cell.dependent(&cell), "two reads of the same cell commute");
    }

    #[test]
    fn fence_conflicts_only_with_own_buffer_traffic() {
        use AccessKind::{Buffered, Fence, Flush, Read, Write};
        assert!(Fence.conflicts(Buffered));
        assert!(Fence.conflicts(Flush));
        assert!(Buffered.conflicts(Fence));
        assert!(Flush.conflicts(Fence));
        // A fence waits only on the issuing thread's own buffer: it
        // commutes with reads, writes, and other fences.
        assert!(!Fence.conflicts(Read));
        assert!(!Read.conflicts(Fence));
        assert!(!Fence.conflicts(Write));
        assert!(!Write.conflicts(Fence));
        assert!(!Fence.conflicts(Fence));
    }

    #[test]
    fn mutex_ops_name_the_mutex() {
        let m = MutexId::new(3);
        let fp = footprint_of_op(&OpDesc::Acquire(m));
        assert!(fp
            .accesses()
            .iter()
            .any(|a| a.object == ObjectRef::Mutex(m) && a.kind == AccessKind::Acquire));
        assert_eq!(
            fp.describe().as_deref(),
            Some("acquire mutex3"),
            "shared-state access must be omitted from the annotation"
        );
    }
}
