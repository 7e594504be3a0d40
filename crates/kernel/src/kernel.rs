//! The kernel: a deterministic world of guest threads, shared state and
//! synchronization objects, driven one transition at a time by a scheduler.

use std::cell::RefCell;
use std::fmt;

use crate::capture::{Capture, StateWriter, FNV_OFFSET, FNV_PRIME};
use crate::effects::SharedEffects;
use crate::footprint::{footprint_of_op_into, AccessKind, Footprint, ObjectRef};
use crate::ids::{
    AtomicId, BarrierId, ChannelId, CondvarId, EventId, MutexId, RwLockId, SemaphoreId,
};
use crate::memory::{MemoryModel, StoreBuffer};
use crate::objects::Objects;
use crate::op::{OpDesc, OpResult, StepKind};
use crate::thread::{Effects, GuestThread};
use crate::tid::{ThreadId, TidSet};

/// A safety violation detected during an execution: a failed guest
/// assertion or a misuse of a kernel object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The thread whose transition triggered the violation.
    pub thread: ThreadId,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "violation in {}: {}", self.thread, self.message)
    }
}

impl std::error::Error for Violation {}

/// Overall status of a kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelStatus {
    /// At least one thread is enabled.
    Running,
    /// Every thread finished: a terminating execution.
    Terminated,
    /// No thread is enabled but some have not finished: a deadlock.
    Deadlock,
    /// A safety violation was detected.
    Violation(Violation),
}

impl KernelStatus {
    /// Returns whether the execution can take another transition.
    pub fn is_running(&self) -> bool {
        matches!(self, KernelStatus::Running)
    }
}

/// Statistics accumulated over one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total transitions executed.
    pub steps: u64,
    /// Transitions that were synchronization operations (Table 1's
    /// "Synch Ops" metric).
    pub sync_ops: u64,
    /// Transitions that were yields (explicit yields, sleeps, timeouts).
    pub yields: u64,
}

/// Information about one executed transition, for traces.
#[derive(Debug, Clone, PartialEq)]
pub struct StepInfo {
    /// The operation that was executed.
    pub op: OpDesc,
    /// Whether the transition was yielding.
    pub kind: StepKind,
    /// The operation's result as delivered to the guest.
    pub result: OpResult,
    /// The dependence footprint of the executed operation: its
    /// sync-object accesses merged with the guest's declared
    /// shared-state effects (see [`crate::footprint`]).
    pub footprint: Footprint,
}

struct Slot<S> {
    guest: Box<dyn GuestThread<S>>,
    name: String,
}

/// One schedulable unit. Thread ids index the lane table: under
/// sequential consistency every lane is a guest and ids match the
/// historical numbering; under a buffering memory model every guest lane
/// is immediately followed by its *flusher* lane, the pseudo-thread that
/// drains the guest's store buffer one store per step.
enum Lane {
    /// A guest thread (index into the guest slot table).
    Guest(usize),
    /// The store-buffer flusher of guest `guest`; `owner` is the guest's
    /// lane id (what [`OpDesc::Flush`] reports in traces).
    Flusher {
        guest: usize,
        owner: ThreadId,
        name: String,
    },
}

impl Clone for Lane {
    fn clone(&self) -> Self {
        match self {
            Lane::Guest(g) => Lane::Guest(*g),
            Lane::Flusher { guest, owner, name } => Lane::Flusher {
                guest: *guest,
                owner: *owner,
                name: name.clone(),
            },
        }
    }

    // Reuses the flusher-name buffer when the kernel pool resets the lane
    // table from an execution template (see `Kernel::reset_from`).
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (
                Lane::Flusher { guest, owner, name },
                Lane::Flusher {
                    guest: sg,
                    owner: so,
                    name: sn,
                },
            ) => {
                *guest = *sg;
                *owner = *so;
                name.clone_from(sn);
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Cached per-segment state captures for incremental fingerprinting.
///
/// The abstract state splits into segments — the shared state, one per
/// guest thread (locals plus pending op), the object table, and the
/// non-empty store buffers — and every kernel mutation dirties exactly
/// the segments it can change (marked at the mutation sites in
/// [`Kernel::step`], [`Kernel::spawn_boxed`] via the length check, and
/// friends). A [`Kernel::fingerprint`] or [`Kernel::state_bytes_into`]
/// query then re-captures only the dirty segments.
///
/// Shared-state writes by guest code are detected through the guest's
/// [`SharedEffects`] declaration — the same trust boundary sleep-set
/// reduction stands on, mechanically checkable with
/// [`Kernel::set_validate_effects`].
///
/// Each thread segment is cached in two parts: the guest's locals
/// capture and its pending-op capture. A guest's own step dirties both;
/// a declared shared write dirties only the op tails (pending ops are
/// `next_op(&shared)`, locals are untouched), and a tail whose
/// recomputed op is unchanged costs nothing to re-hash — the common
/// case, since most shared writes leave other threads' pending ops
/// alone. The combined segment hash is the FNV continuation of the
/// locals hash through the op bytes, byte-identical to hashing the
/// concatenated segment.
///
/// Lives in a `RefCell` so the read-only queries (`&self`) can refresh
/// it; the kernel holds `dyn` guests and is never shared across threads.
struct FpCache {
    /// Fast path armed? Off = the from-scratch reference path the
    /// equivalence tests compare against.
    enabled: bool,
    shared: StateWriter,
    /// Per-guest locals captures (`guest.capture` bytes only).
    threads: Vec<StateWriter>,
    /// Per-guest pending-op captures — the tail of each thread segment.
    thread_ops: Vec<StateWriter>,
    /// The op whose bytes sit in `thread_ops` (the equality shortcut for
    /// op-tail refreshes).
    pending: Vec<OpDesc>,
    /// Combined per-thread segment hashes: FNV over locals ++ op bytes.
    seg_hash: Vec<u64>,
    objects: StateWriter,
    buffers: StateWriter,
    shared_dirty: bool,
    /// Whole-segment staleness: the guest stepped, locals and op alike.
    threads_dirty: Vec<bool>,
    /// Op-tail-only staleness: a shared write may have changed the
    /// pending op, but the locals capture is still good.
    ops_dirty: Vec<bool>,
    objects_dirty: bool,
    buffers_dirty: bool,
}

impl FpCache {
    fn new(enabled: bool) -> Self {
        FpCache {
            enabled,
            shared: StateWriter::new(),
            threads: Vec::new(),
            thread_ops: Vec::new(),
            pending: Vec::new(),
            seg_hash: Vec::new(),
            objects: StateWriter::new(),
            buffers: StateWriter::new(),
            shared_dirty: true,
            threads_dirty: Vec::new(),
            ops_dirty: Vec::new(),
            objects_dirty: true,
            buffers_dirty: true,
        }
    }

    /// Marks every segment dirty and resizes the thread segments to
    /// `threads` entries, keeping existing writer allocations.
    fn invalidate_all(&mut self, threads: usize) {
        self.shared_dirty = true;
        self.objects_dirty = true;
        self.buffers_dirty = true;
        if self.threads.len() < threads {
            self.threads.resize_with(threads, StateWriter::new);
            self.thread_ops.resize_with(threads, StateWriter::new);
        } else {
            self.threads.truncate(threads);
            self.thread_ops.truncate(threads);
        }
        self.pending.clear();
        self.pending.resize(threads, OpDesc::Finished);
        self.seg_hash.clear();
        self.seg_hash.resize(threads, 0);
        self.threads_dirty.clear();
        self.threads_dirty.resize(threads, true);
        self.ops_dirty.clear();
        self.ops_dirty.resize(threads, false);
    }

    /// The shared state (may have) changed: its segment is stale, and so
    /// is every thread segment's op tail — pending ops are
    /// `next_op(&shared)`. The locals captures stay good.
    fn mark_shared_dirty(&mut self) {
        self.shared_dirty = true;
        for d in &mut self.ops_dirty {
            *d = true;
        }
    }
}

/// One fold step of the segment-combined fingerprint: FNV-1a over the
/// per-segment hashes.
fn fold_fp(h: u64, segment: u64) -> u64 {
    (h ^ segment).wrapping_mul(FNV_PRIME)
}

/// Memoized pending operations, one per guest slot.
///
/// `GuestThread::next_op` is a pure function of the guest's local state
/// and the shared state, and the exploration loop asks for it many times
/// per transition (status, enabled sets, yield/branching queries, the
/// step itself, capture refresh). The memo computes it once per
/// (guest-state, shared-state) pair and invalidates on exactly the events
/// that can change the answer: the guest's own step, and any declared
/// shared write — the same [`SharedEffects`] trust boundary the
/// fingerprint cache stands on. Flusher-lane ops are never memoized;
/// they are derived directly from the buffers.
///
/// Armed and disarmed together with [`FpCache`] through
/// [`Kernel::set_fingerprint_caching`], so the reference path recomputes
/// everything from scratch. Lives in its own `RefCell` because the
/// capture refresh reads it while holding the `FpCache` borrow.
struct OpMemo {
    /// Mirrors [`FpCache::enabled`]; kept as a copy so reads do not
    /// alias the `FpCache` borrow.
    enabled: bool,
    ops: Vec<Option<OpDesc>>,
}

impl OpMemo {
    fn new(enabled: bool) -> Self {
        OpMemo {
            enabled,
            ops: Vec::new(),
        }
    }

    /// Forgets every memoized op and resizes to `threads` slots.
    fn invalidate_all(&mut self, threads: usize) {
        self.ops.clear();
        self.ops.resize(threads, None);
    }

    /// Forgets guest `g`'s memoized op (no-op if the table has not
    /// caught up with a spawn yet — the length check on read handles it).
    fn invalidate(&mut self, g: usize) {
        if let Some(slot) = self.ops.get_mut(g) {
            *slot = None;
        }
    }
}

/// A deterministic multithreaded program instance: shared state `S`, a set
/// of guest threads, and a table of synchronization objects.
///
/// The kernel exposes exactly the interface the paper's Algorithm 1 needs:
/// the `enabled(t)` and `yield(t)` predicates, and a `NextState` function
/// ([`Kernel::step`]) executing one transition of a chosen thread. All
/// nondeterminism is external: the kernel never makes a scheduling choice
/// itself.
///
/// # Examples
///
/// ```
/// use chess_kernel::{Effects, GuestThread, Kernel, OpDesc, OpResult, ThreadId};
///
/// #[derive(Clone)]
/// struct SetFlag;
/// impl GuestThread<bool> for SetFlag {
///     fn next_op(&self, shared: &bool) -> OpDesc {
///         if *shared { OpDesc::Finished } else { OpDesc::Local }
///     }
///     fn on_op(&mut self, _: OpResult, shared: &mut bool, _: &mut Effects<bool>) {
///         *shared = true;
///     }
///     fn box_clone(&self) -> Box<dyn GuestThread<bool>> { Box::new(self.clone()) }
/// }
///
/// let mut k = Kernel::new(false);
/// let t = k.spawn(SetFlag);
/// assert!(k.enabled(t));
/// k.step(t, 0);
/// assert!(!k.enabled(t));
/// assert!(!k.status().is_running());
/// ```
pub struct Kernel<S> {
    shared: S,
    threads: Vec<Slot<S>>,
    /// Schedulable lanes; thread ids index this table.
    lanes: Vec<Lane>,
    memory: MemoryModel,
    /// Per-guest store buffers (parallel to `threads`; always empty under
    /// [`MemoryModel::Sc`]).
    buffers: Vec<StoreBuffer>,
    objects: Objects,
    violation: Option<Violation>,
    stats: ExecStats,
    /// When set, [`Kernel::step_validated`] (reached through the
    /// `TransitionSystem` impl) diffs the shared state around every step
    /// and reports mutations outside the guest's declared write-set.
    validate_effects: bool,
    /// Per-segment capture cache backing incremental fingerprints; see
    /// [`FpCache`]. Interior mutability lets the read-only queries
    /// refresh it.
    fp_cache: RefCell<FpCache>,
    /// Memoized pending guest ops; see [`OpMemo`].
    op_memo: RefCell<OpMemo>,
}

impl<S> Kernel<S> {
    /// Creates a kernel with the given shared state and no threads,
    /// executing under sequential consistency.
    pub fn new(shared: S) -> Self {
        Kernel::with_memory(shared, MemoryModel::Sc)
    }

    /// Creates a kernel executing atomic operations under `memory`.
    ///
    /// Under [`MemoryModel::Tso`]/[`MemoryModel::Pso`] every spawned guest
    /// gets a companion *flusher* lane (an extra thread id, directly after
    /// the guest's) that drains the guest's store buffer one store per
    /// scheduled step; see [`crate::memory`] for the semantics.
    pub fn with_memory(shared: S, memory: MemoryModel) -> Self {
        Kernel {
            shared,
            threads: Vec::new(),
            lanes: Vec::new(),
            memory,
            buffers: Vec::new(),
            objects: Objects::default(),
            violation: None,
            stats: ExecStats::default(),
            validate_effects: false,
            fp_cache: RefCell::new(FpCache::new(true)),
            op_memo: RefCell::new(OpMemo::new(true)),
        }
    }

    /// Arms (or disarms) per-step effect validation: with it on, the
    /// `TransitionSystem` impl routes every step through
    /// [`Kernel::step_validated`], which diffs the shared-state capture
    /// around the step and reports any mutation outside the guest's
    /// declared write-set as a violation. Off by default — the diff
    /// costs two captures per step.
    pub fn set_validate_effects(&mut self, on: bool) {
        self.validate_effects = on;
    }

    /// Is per-step effect validation armed?
    pub fn validate_effects(&self) -> bool {
        self.validate_effects
    }

    /// Arms (or disarms) incremental fingerprint caching. On by default;
    /// disabling it forces every [`Kernel::fingerprint`] and
    /// [`Kernel::state_bytes_into`] query down the from-scratch reference
    /// path. Both paths produce identical values — this switch exists so
    /// the equivalence tests can compare them.
    pub fn set_fingerprint_caching(&mut self, on: bool) {
        let n = self.threads.len();
        let cache = self.fp_cache.get_mut();
        cache.enabled = on;
        cache.invalidate_all(n);
        let memo = self.op_memo.get_mut();
        memo.enabled = on;
        memo.invalidate_all(n);
    }

    /// Dirties the object-table segment of the fingerprint cache.
    fn touch_objects(&mut self) {
        self.fp_cache.get_mut().objects_dirty = true;
    }

    /// The memory model this kernel executes under.
    pub fn memory_model(&self) -> MemoryModel {
        self.memory
    }

    /// Adds a guest thread and returns its id. Threads are identified by
    /// the order in which they are added.
    pub fn spawn(&mut self, guest: impl GuestThread<S> + 'static) -> ThreadId {
        self.spawn_boxed(Box::new(guest))
    }

    /// Adds an already-boxed guest thread.
    pub fn spawn_boxed(&mut self, guest: Box<dyn GuestThread<S>>) -> ThreadId {
        let name = guest.name();
        self.threads.push(Slot { guest, name });
        self.buffers.push(StoreBuffer::new());
        let g = self.threads.len() - 1;
        let owner = ThreadId::new(self.lanes.len());
        self.lanes.push(Lane::Guest(g));
        if self.memory.buffers() {
            let name = format!("{}:flush", self.threads[g].name);
            self.lanes.push(Lane::Flusher {
                guest: g,
                owner,
                name,
            });
        }
        owner
    }

    /// Creates a mutex.
    pub fn add_mutex(&mut self) -> MutexId {
        self.touch_objects();
        self.objects.add_mutex()
    }

    /// Creates a reader-writer lock.
    pub fn add_rwlock(&mut self) -> RwLockId {
        self.touch_objects();
        self.objects.add_rwlock()
    }

    /// Creates a counting semaphore with `permits` initial permits.
    pub fn add_semaphore(&mut self, permits: u32) -> SemaphoreId {
        self.touch_objects();
        self.objects.add_semaphore(permits)
    }

    /// Creates an auto-reset event (consumed by the first completed wait).
    pub fn add_auto_event(&mut self, initially_set: bool) -> EventId {
        self.touch_objects();
        self.objects.add_event(true, initially_set)
    }

    /// Creates a manual-reset event (stays set until explicitly reset).
    pub fn add_manual_event(&mut self, initially_set: bool) -> EventId {
        self.touch_objects();
        self.objects.add_event(false, initially_set)
    }

    /// Creates a condition variable.
    pub fn add_condvar(&mut self) -> CondvarId {
        self.touch_objects();
        self.objects.add_condvar()
    }

    /// Creates an atomic cell with an initial value.
    pub fn add_atomic(&mut self, value: u64) -> AtomicId {
        self.touch_objects();
        self.objects.add_atomic(value)
    }

    /// Creates an `parties`-party reusable barrier.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn add_barrier(&mut self, parties: u32) -> BarrierId {
        assert!(parties > 0, "a barrier needs at least one party");
        self.touch_objects();
        self.objects.add_barrier(parties)
    }

    /// Creates a bounded channel with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (rendezvous channels are not
    /// supported; use capacity 1 plus an event for a handshake).
    pub fn add_channel(&mut self, capacity: usize) -> ChannelId {
        assert!(capacity > 0, "channel capacity must be positive");
        self.touch_objects();
        self.objects.add_channel(capacity)
    }

    /// Number of schedulable lanes ever added (including finished ones).
    /// Under a buffering memory model this counts flusher lanes too: each
    /// guest contributes two ids.
    pub fn thread_count(&self) -> usize {
        self.lanes.len()
    }

    /// Iterates over all thread ids.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.lanes.len()).map(ThreadId::new)
    }

    /// The display name of a thread (flusher lanes are named after their
    /// guest, e.g. `writer:flush`).
    pub fn thread_name(&self, t: ThreadId) -> &str {
        match &self.lanes[t.index()] {
            Lane::Guest(g) => &self.threads[*g].name,
            Lane::Flusher { name, .. } => name,
        }
    }

    /// Is thread `t` a store-buffer flusher lane?
    pub fn is_flush(&self, t: ThreadId) -> bool {
        matches!(self.lanes[t.index()], Lane::Flusher { .. })
    }

    /// The store buffer of the guest behind lane `t` (its own for a guest
    /// lane, the owner's for a flusher lane), or `None` under sequential
    /// consistency where no buffering happens.
    pub fn store_buffer(&self, t: ThreadId) -> Option<&StoreBuffer> {
        let (Lane::Guest(g) | Lane::Flusher { guest: g, .. }) = &self.lanes[t.index()];
        self.memory.buffers().then(|| &self.buffers[*g])
    }

    /// The guest slot index behind lane `t`.
    fn guest_of(&self, t: ThreadId) -> usize {
        let (Lane::Guest(g) | Lane::Flusher { guest: g, .. }) = &self.lanes[t.index()];
        *g
    }

    /// Shared state accessor (for assertions and result extraction).
    pub fn shared(&self) -> &S {
        &self.shared
    }

    /// Mutable shared state accessor, intended for test-harness setup
    /// before the search starts.
    pub fn shared_mut(&mut self) -> &mut S {
        self.fp_cache.get_mut().mark_shared_dirty();
        let n = self.threads.len();
        self.op_memo.get_mut().invalidate_all(n);
        &mut self.shared
    }

    /// The next operation thread `t` would perform (for traces). A
    /// flusher lane reports [`OpDesc::Flush`] while its guest's buffer is
    /// non-empty and [`OpDesc::Finished`] once drained, so termination
    /// requires every buffered store to reach memory.
    pub fn next_op(&self, t: ThreadId) -> OpDesc {
        self.next_op_in(&mut self.op_memo.borrow_mut(), t)
    }

    /// [`Kernel::next_op`] against an already-borrowed memo — the form
    /// the whole-table scans use, so one scan costs one `RefCell` borrow
    /// instead of one per thread.
    fn next_op_in(&self, memo: &mut OpMemo, t: ThreadId) -> OpDesc {
        match &self.lanes[t.index()] {
            Lane::Guest(g) => self.guest_op_in(memo, *g),
            Lane::Flusher { guest, owner, .. } => {
                if self.buffers[*guest].is_empty() {
                    OpDesc::Finished
                } else {
                    OpDesc::Flush(*owner)
                }
            }
        }
    }

    /// The pending op of guest slot `g`, memoized while fast caching is
    /// armed (see [`OpMemo`]); recomputed from the guest on every call
    /// otherwise.
    fn guest_op(&self, g: usize) -> OpDesc {
        self.guest_op_in(&mut self.op_memo.borrow_mut(), g)
    }

    /// [`Kernel::guest_op`] against an already-borrowed memo.
    fn guest_op_in(&self, memo: &mut OpMemo, g: usize) -> OpDesc {
        if !memo.enabled {
            return self.threads[g].guest.next_op(&self.shared);
        }
        // A spawn since the last invalidation grew the thread table;
        // resizing here both covers it and keeps indexing in bounds.
        if memo.ops.len() != self.threads.len() {
            memo.invalidate_all(self.threads.len());
        }
        if let Some(op) = memo.ops[g] {
            return op;
        }
        let op = self.threads[g].guest.next_op(&self.shared);
        memo.ops[g] = Some(op);
        op
    }

    /// Has thread `t` finished?
    pub fn is_finished(&self, t: ThreadId) -> bool {
        matches!(self.next_op(t), OpDesc::Finished)
    }

    /// The paper's `enabled(t)` predicate: can `t` take a transition now?
    pub fn enabled(&self, t: ThreadId) -> bool {
        self.enabled_in(&mut self.op_memo.borrow_mut(), t)
    }

    /// [`Kernel::enabled`] against an already-borrowed memo.
    fn enabled_in(&self, memo: &mut OpMemo, t: ThreadId) -> bool {
        match self.next_op_in(memo, t) {
            OpDesc::Finished => false,
            OpDesc::Join(u) => matches!(self.next_op_in(memo, u), OpDesc::Finished),
            // A flusher only reports Flush while its buffer is non-empty,
            // and draining one store is always possible.
            OpDesc::Flush(_) => true,
            // A fence waits for the issuing thread's buffer to drain
            // (no-op under SC, where nothing buffers).
            OpDesc::Fence => self.memory.is_sc() || self.buffers[self.guest_of(t)].is_empty(),
            // Read-modify-write ops act on memory directly and carry an
            // implicit fence (x86 LOCK semantics): they wait out the
            // issuing thread's own buffered stores.
            OpDesc::AtomicCas(..) | OpDesc::AtomicSwap(..) | OpDesc::AtomicAdd(..)
                if self.memory.buffers() =>
            {
                self.buffers[self.guest_of(t)].is_empty()
            }
            op => self.objects.satisfiable(t, &op),
        }
    }

    /// The set of enabled threads (the paper's `ES`).
    pub fn enabled_set(&self) -> TidSet {
        let mut out = TidSet::new();
        self.enabled_set_into(&mut out);
        out
    }

    /// [`Kernel::enabled_set`] writing into a caller-provided set,
    /// clearing it first — the allocation-free form for the explorer's
    /// per-step loop. One memo borrow covers the whole scan.
    pub fn enabled_set_into(&self, out: &mut TidSet) {
        out.clear();
        let memo = &mut *self.op_memo.borrow_mut();
        for t in self.thread_ids() {
            if self.enabled_in(memo, t) {
                out.insert(t);
            }
        }
    }

    /// The paper's `yield(t)` predicate: is `t` enabled and would its next
    /// transition be a yield?
    pub fn is_yielding(&self, t: ThreadId) -> bool {
        self.enabled(t) && self.objects.is_yielding(&self.next_op(t))
    }

    /// The number of branches exploring thread `t` requires (1 except for
    /// [`OpDesc::Choose`], and PSO flushers with several distinct buffered
    /// locations, which may drain in any cross-location order).
    pub fn branching(&self, t: ThreadId) -> usize {
        match &self.lanes[t.index()] {
            Lane::Flusher { guest, .. } if self.memory == MemoryModel::Pso => {
                self.buffers[*guest].location_count().max(1)
            }
            _ => self.next_op(t).branching(),
        }
    }

    /// The dependence footprint of the transition thread `t` would take,
    /// queryable before stepping.
    ///
    /// Sync-object accesses come from the op itself
    /// ([`footprint_of_op_into`]); shared-state accesses come from the
    /// guest's [`GuestThread::shared_effects`] declaration (default: a
    /// conservative whole-state write, which keeps undeclared guests
    /// pairwise dependent).
    pub fn next_footprint(&self, t: ThreadId) -> Footprint {
        let mut fp = Footprint::local();
        self.next_footprint_into(t, &mut fp);
        fp
    }

    /// [`Kernel::next_footprint`] writing into a caller-provided
    /// footprint, clearing it first — the allocation-free form for the
    /// explorer's per-option loop.
    pub fn next_footprint_into(&self, t: ThreadId, fp: &mut Footprint) {
        fp.clear();
        match &self.lanes[t.index()] {
            // A flush writes memory cells but never the shared guest
            // state (no `on_op` runs), so it provably commutes with
            // transitions that touch neither its locations nor its
            // buffer. Under TSO only the oldest store can drain, so only
            // its location is named; under PSO the choice picks any
            // distinct location, so all of them are. The `Buffer(owner)`
            // marker keeps a sleeping flush decision dependent with the
            // owner's later buffered stores, which can change the
            // flusher's choice set (see [`Kernel::branching`]).
            Lane::Flusher { guest, owner, .. } => {
                match self.memory {
                    MemoryModel::Pso => {
                        for a in self.buffers[*guest].locations() {
                            fp.push(ObjectRef::Atomic(a), AccessKind::Flush);
                        }
                    }
                    _ => {
                        if let Some(a) = self.buffers[*guest].oldest_location() {
                            fp.push(ObjectRef::Atomic(a), AccessKind::Flush);
                        }
                    }
                }
                fp.push(ObjectRef::Buffer(*owner), AccessKind::Flush);
            }
            Lane::Guest(g) => {
                let op = self.guest_op(*g);
                match op {
                    // A buffered store touches the cell (its flush will
                    // change it) but as a `Buffered` access, so traces
                    // distinguish `[buffer atomic0]` from `[write
                    // atomic0]`; the `Buffer(t)` marker makes it
                    // dependent with sleeping flush and fence decisions
                    // on this thread's buffer.
                    OpDesc::AtomicStore(a, _) if self.memory.buffers() => {
                        fp.push(ObjectRef::Atomic(a), AccessKind::Buffered);
                        fp.push(ObjectRef::Buffer(t), AccessKind::Buffered);
                    }
                    OpDesc::Fence => {
                        fp.push(ObjectRef::Buffer(t), AccessKind::Fence);
                    }
                    ref op => footprint_of_op_into(op, fp),
                }
                // Finished threads never step: keep their footprint
                // empty rather than asking for effects they won't have.
                if !matches!(op, OpDesc::Finished) {
                    self.threads[*g].guest.shared_effects(&op).apply_to(fp);
                }
            }
        }
    }

    /// Executes one transition of thread `t`.
    ///
    /// `choice` selects the branch for a [`OpDesc::Choose`] operation and
    /// is ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not enabled or `choice` is out of range; both
    /// indicate a scheduler bug, not a guest bug.
    pub fn step(&mut self, t: ThreadId, choice: u32) -> StepInfo {
        // Query the footprint before mutating anything so StepInfo agrees
        // with what `next_footprint` reported to the strategy.
        let footprint = self.next_footprint(t);
        self.step_with_footprint(t, choice, footprint)
    }

    /// [`Kernel::step`] without the footprint query: the returned
    /// `StepInfo` carries an empty placeholder footprint. For drivers
    /// that never read it (the default `TransitionSystem` stepping path,
    /// which uses only the step kind) this skips a footprint computation
    /// per transition.
    pub fn step_fast(&mut self, t: ThreadId, choice: u32) -> StepInfo {
        self.step_with_footprint(t, choice, Footprint::local())
    }

    fn step_with_footprint(&mut self, t: ThreadId, choice: u32, footprint: Footprint) -> StepInfo {
        assert!(
            self.enabled(t),
            "scheduler bug: stepped disabled thread {t}"
        );
        let g = match &self.lanes[t.index()] {
            Lane::Guest(g) => *g,
            Lane::Flusher { guest, owner, .. } => {
                let (guest, owner) = (*guest, *owner);
                return self.flush_step(t, guest, owner, choice, footprint);
            }
        };
        let op = self.next_op(t);
        let cache_on = self.fp_cache.get_mut().enabled;
        // Whether `on_op` may mutate the shared state, per the guest's
        // declaration — the write half of the same contract sleep-set
        // reduction trusts (checked by `--validate-effects`). Queried
        // before the step because the op changes under it.
        let shared_write = cache_on && self.threads[g].guest.shared_effects(&op).may_write();
        let mut objects_touched = false;
        let mut buffers_touched = false;
        let (result, kind) = match op {
            OpDesc::Local | OpDesc::Join(_) => (OpResult::Unit, StepKind::Normal),
            // `enabled` guarantees the buffer already drained (or SC,
            // where there is nothing to drain): the fence itself is a
            // no-op transition.
            OpDesc::Fence => (OpResult::Unit, StepKind::Normal),
            // Under a buffering model a store goes to the issuing
            // thread's buffer, not memory; its flusher lane becomes
            // schedulable.
            OpDesc::AtomicStore(a, v) if self.memory.buffers() => {
                self.buffers[g].push(a, v);
                buffers_touched = true;
                (OpResult::Unit, StepKind::Normal)
            }
            // A load forwards from the youngest buffered store to the
            // same location; only on a miss does it read memory.
            OpDesc::AtomicLoad(a) if self.memory.buffers() => match self.buffers[g].lookup(a) {
                Some(v) => (OpResult::Value(v), StepKind::Normal),
                None => self
                    .objects
                    .execute(t, &op)
                    .expect("atomic loads cannot fault"),
            },
            OpDesc::Choose(n) => {
                if n == 0 {
                    self.violation = Some(Violation {
                        thread: t,
                        message: "Choose(0) has no branches".to_string(),
                    });
                    // The violating transition still executed: count it,
                    // or kernel and search stats disagree by one.
                    self.stats.steps += 1;
                    return StepInfo {
                        footprint,
                        op,
                        kind: StepKind::Normal,
                        result: OpResult::Choice(0),
                    };
                }
                assert!(choice < n, "scheduler bug: choice {choice} out of {n}");
                (OpResult::Choice(choice), StepKind::Normal)
            }
            OpDesc::Finished => unreachable!("finished threads are never enabled"),
            ref obj_op => match self.objects.execute(t, obj_op) {
                Ok(r) => {
                    objects_touched = true;
                    r
                }
                Err(v) => {
                    // Conservatively stale: `execute` may have mutated the
                    // table before faulting.
                    self.touch_objects();
                    self.violation = Some(Violation {
                        thread: t,
                        message: v.0,
                    });
                    // The violating transition still executed: count it
                    // (and the sync op it attempted), or kernel and
                    // search stats disagree by one.
                    self.stats.steps += 1;
                    if op.is_sync_op() {
                        self.stats.sync_ops += 1;
                    }
                    return StepInfo {
                        footprint,
                        op,
                        kind: StepKind::Normal,
                        result: OpResult::Unit,
                    };
                }
            },
        };
        self.stats.steps += 1;
        if op.is_sync_op() {
            self.stats.sync_ops += 1;
        }
        if kind.is_yield() {
            self.stats.yields += 1;
        }
        let stride = if self.memory.buffers() { 2 } else { 1 };
        let mut fx = Effects::with_stride(self.lanes.len(), stride);
        {
            let slot = &mut self.threads[g];
            slot.guest.on_op(result, &mut self.shared, &mut fx);
        }
        for guest in fx.spawns {
            self.spawn_boxed(guest);
        }
        if let Some(message) = fx.violation {
            self.violation = Some(Violation { thread: t, message });
        }
        if cache_on {
            // Spawns grew the thread table; `refresh_cache`'s length
            // check already invalidates everything in that (rare) case.
            let cache = self.fp_cache.get_mut();
            if let Some(d) = cache.threads_dirty.get_mut(g) {
                *d = true;
            }
            if shared_write {
                cache.mark_shared_dirty();
            }
            if objects_touched {
                cache.objects_dirty = true;
            }
            if buffers_touched {
                cache.buffers_dirty = true;
            }
            // `on_op` ran: the stepping guest's pending op is stale, and
            // so is everyone's if the shared state was (declared)
            // written. The early-return paths above skip this because no
            // guest code ran there — neither locals nor shared changed.
            let n = self.threads.len();
            let memo = self.op_memo.get_mut();
            if shared_write {
                memo.invalidate_all(n);
            } else {
                memo.invalidate(g);
            }
        }
        StepInfo {
            footprint,
            op,
            kind,
            result,
        }
    }

    /// Executes one flusher-lane transition: drains one buffered store of
    /// guest `g` to memory. No guest code runs (`on_op` is not called) —
    /// the flush is a pure memory-system step, which is why its footprint
    /// carries no shared-state write.
    fn flush_step(
        &mut self,
        t: ThreadId,
        g: usize,
        owner: ThreadId,
        choice: u32,
        footprint: Footprint,
    ) -> StepInfo {
        let (a, v) = match self.memory {
            MemoryModel::Pso => {
                let locs = self.buffers[g].locations();
                assert!(
                    (choice as usize) < locs.len(),
                    "scheduler bug: flush choice {choice} out of {}",
                    locs.len()
                );
                let a = locs[choice as usize];
                let v = self.buffers[g]
                    .pop_location(a)
                    .expect("chosen location has a buffered store");
                (a, v)
            }
            _ => self.buffers[g]
                .pop_oldest()
                .expect("flusher lanes are only enabled while the buffer is non-empty"),
        };
        let (result, kind) = self
            .objects
            .execute(t, &OpDesc::AtomicStore(a, v))
            .expect("atomic stores cannot fault");
        self.stats.steps += 1;
        self.stats.sync_ops += 1;
        {
            // A flush moves a store from the buffer into the atomic
            // table; no guest code runs, so the owner's pending op (a
            // function of guest locals and shared state only) is intact.
            let cache = self.fp_cache.get_mut();
            if cache.enabled {
                cache.objects_dirty = true;
                cache.buffers_dirty = true;
            }
        }
        StepInfo {
            footprint,
            op: OpDesc::Flush(owner),
            kind,
            result,
        }
    }

    /// Current execution status.
    pub fn status(&self) -> KernelStatus {
        if let Some(v) = &self.violation {
            return KernelStatus::Violation(v.clone());
        }
        let memo = &mut *self.op_memo.borrow_mut();
        let mut any_active = false;
        for t in self.thread_ids() {
            if !matches!(self.next_op_in(memo, t), OpDesc::Finished) {
                any_active = true;
                if self.enabled_in(memo, t) {
                    return KernelStatus::Running;
                }
            }
        }
        if any_active {
            KernelStatus::Deadlock
        } else {
            KernelStatus::Terminated
        }
    }

    /// [`Kernel::status`] for a state whose enabled set the caller already
    /// holds: `enabled` must equal [`Kernel::enabled_set`] of the current
    /// state. A non-empty set without a violation is `Running` (an enabled
    /// thread has not finished); only an empty set needs the thread scan
    /// that tells a deadlock from termination.
    pub fn status_with_enabled(&self, enabled: &TidSet) -> KernelStatus {
        debug_assert_eq!(*enabled, self.enabled_set(), "stale enabled set");
        if self.violation.is_none() && !enabled.is_empty() {
            return KernelStatus::Running;
        }
        self.status()
    }

    /// Injects a violation from outside a transition (used by external
    /// monitors checking whole-program invariants between transitions).
    pub fn report_violation(&mut self, thread: ThreadId, message: impl Into<String>) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                thread,
                message: message.into(),
            });
        }
    }

    /// Statistics of this execution so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Number of synchronization objects created.
    pub fn object_count(&self) -> usize {
        self.objects.count()
    }
}

impl<S: Capture> Kernel<S> {
    /// Captures the complete abstract state: shared state, every thread's
    /// local state plus its next operation, and all object states.
    ///
    /// Two kernels with equal captures are behaviorally equivalent (given
    /// faithful [`Capture`]/[`GuestThread::capture`] implementations), so
    /// the returned writer's bytes serve as an exact visited-set key.
    pub fn capture_state(&self) -> StateWriter {
        let mut w = StateWriter::new();
        self.shared.capture(&mut w);
        for g in 0..self.threads.len() {
            self.capture_thread_seg(g, &mut w);
        }
        self.objects.capture(&mut w);
        self.capture_buffers_seg(&mut w);
        w
    }

    /// Captures one guest-thread segment: the guest's local state plus
    /// its pending op. The pending op disambiguates threads whose
    /// `capture` is coarse; it is part of the control state.
    fn capture_thread_seg(&self, g: usize, w: &mut StateWriter) {
        self.threads[g].guest.capture(w);
        self.guest_op(g).capture(w);
    }

    /// Captures the store-buffer segment. Buffer contents are control
    /// state too (they decide what loads forward and what flushes
    /// remain). Only non-empty buffers are written, so a terminal state
    /// (all buffers drained) captures to exactly the same bytes as the
    /// equivalent SC state — the property the cross-model
    /// outcome-monotonicity oracle relies on.
    fn capture_buffers_seg(&self, w: &mut StateWriter) {
        for (g, buf) in self.buffers.iter().enumerate() {
            if !buf.is_empty() {
                w.write_u32(g as u32 + 1);
                w.write_usize(buf.len());
                for (a, v) in buf.entries() {
                    w.write_u32(a.index() as u32);
                    w.write_u64(v);
                }
            }
        }
    }

    /// Re-captures the dirty segments of the fingerprint cache (and
    /// everything, if the thread table changed size under it).
    fn refresh_cache(&self, cache: &mut FpCache) {
        if cache.threads.len() != self.threads.len() {
            cache.invalidate_all(self.threads.len());
        }
        if cache.shared_dirty {
            cache.shared.clear();
            self.shared.capture(&mut cache.shared);
            cache.shared_dirty = false;
        }
        let memo = &mut *self.op_memo.borrow_mut();
        for g in 0..self.threads.len() {
            if cache.threads_dirty[g] {
                // The guest stepped: locals and op tail both stale.
                cache.threads[g].clear();
                self.threads[g].guest.capture(&mut cache.threads[g]);
                let op = self.guest_op_in(memo, g);
                cache.thread_ops[g].clear();
                op.capture(&mut cache.thread_ops[g]);
                cache.pending[g] = op;
                cache.seg_hash[g] = crate::capture::fnv_continue(
                    cache.threads[g].fingerprint(),
                    cache.thread_ops[g].as_bytes(),
                );
                cache.threads_dirty[g] = false;
                cache.ops_dirty[g] = false;
            } else if cache.ops_dirty[g] {
                // A shared write elsewhere: only the pending op can have
                // changed — and usually it hasn't.
                let op = self.guest_op_in(memo, g);
                if op != cache.pending[g] {
                    cache.thread_ops[g].clear();
                    op.capture(&mut cache.thread_ops[g]);
                    cache.pending[g] = op;
                    cache.seg_hash[g] = crate::capture::fnv_continue(
                        cache.threads[g].fingerprint(),
                        cache.thread_ops[g].as_bytes(),
                    );
                }
                cache.ops_dirty[g] = false;
            }
        }
        if cache.objects_dirty {
            cache.objects.clear();
            self.objects.capture(&mut cache.objects);
            cache.objects_dirty = false;
        }
        if cache.buffers_dirty {
            cache.buffers.clear();
            self.capture_buffers_seg(&mut cache.buffers);
            cache.buffers_dirty = false;
        }
    }

    /// 64-bit fingerprint of the abstract state: a fold of the
    /// per-segment FNV-1a hashes (shared state, each guest thread, the
    /// object table, the store buffers).
    ///
    /// With fingerprint caching armed (the default) only segments dirtied
    /// since the last query are re-captured; the value is identical on
    /// the cached and from-scratch paths, which the equivalence tests and
    /// the `proptest` in `crates/tests` pin. Cycle detection feeds these
    /// values into scheduling decisions, so the two paths agreeing is a
    /// correctness requirement, not a nicety.
    pub fn fingerprint(&self) -> u64 {
        let mut cache = self.fp_cache.borrow_mut();
        if !cache.enabled {
            drop(cache);
            return self.fresh_fingerprint();
        }
        self.refresh_cache(&mut cache);
        let mut h = fold_fp(FNV_OFFSET, cache.shared.fingerprint());
        for &sh in &cache.seg_hash {
            h = fold_fp(h, sh);
        }
        h = fold_fp(h, cache.objects.fingerprint());
        fold_fp(h, cache.buffers.fingerprint())
    }

    /// The from-scratch fingerprint: same per-segment fold as the cached
    /// path, computed through one reused writer.
    fn fresh_fingerprint(&self) -> u64 {
        let mut w = StateWriter::new();
        self.shared.capture(&mut w);
        let mut h = fold_fp(FNV_OFFSET, w.fingerprint());
        for g in 0..self.threads.len() {
            w.clear();
            self.capture_thread_seg(g, &mut w);
            h = fold_fp(h, w.fingerprint());
        }
        w.clear();
        self.objects.capture(&mut w);
        h = fold_fp(h, w.fingerprint());
        w.clear();
        self.capture_buffers_seg(&mut w);
        fold_fp(h, w.fingerprint())
    }

    /// Writes the bytes of [`Kernel::capture_state`] into a
    /// caller-provided buffer, clearing it first. With fingerprint
    /// caching armed the bytes are assembled from the cached segments
    /// without re-capturing clean ones; the result is byte-identical to
    /// the from-scratch capture either way.
    pub fn state_bytes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut cache = self.fp_cache.borrow_mut();
        if !cache.enabled {
            drop(cache);
            out.extend_from_slice(self.capture_state().as_bytes());
            return;
        }
        self.refresh_cache(&mut cache);
        out.extend_from_slice(cache.shared.as_bytes());
        for (tw, ow) in cache.threads.iter().zip(&cache.thread_ops) {
            out.extend_from_slice(tw.as_bytes());
            out.extend_from_slice(ow.as_bytes());
        }
        out.extend_from_slice(cache.objects.as_bytes());
        out.extend_from_slice(cache.buffers.as_bytes());
    }

    /// Captures the shared state alone (not threads or objects).
    fn capture_shared(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.shared.capture(&mut w);
        w.into_bytes()
    }

    /// Captures one named cell of the shared state.
    fn capture_cell(&self, name: &'static str, index: u32) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.shared.capture_cell(name, index, &mut w);
        w.into_bytes()
    }

    /// Executes one transition like [`Kernel::step`], additionally
    /// checking the guest's [`GuestThread::shared_effects`] declaration
    /// against the mutation the step actually performed.
    ///
    /// The check diffs the per-cell captures ([`Capture::cells`] /
    /// [`Capture::capture_cell`]) and the whole shared-state capture
    /// around the step. A changed cell outside the declared write-set —
    /// or a changed whole-state capture with no named cell changed, i.e.
    /// a mutation of un-named residue — is reported as a violation.
    /// Steps declared [`SharedEffects::Whole`] and flusher-lane steps
    /// (which never run guest code) skip the diff.
    ///
    /// This is the validation mode behind the `TransitionSystem` impl
    /// when [`Kernel::set_validate_effects`] is armed; it checks the
    /// write half of the declaration contract mechanically (the read
    /// half is not observable from state diffs).
    pub fn step_validated(&mut self, t: ThreadId, choice: u32) -> StepInfo {
        let effects = match &self.lanes[t.index()] {
            // A flush never runs guest code: `on_op` is not called and
            // the shared state cannot change.
            Lane::Flusher { .. } => SharedEffects::Pure,
            Lane::Guest(g) => {
                let op = self.threads[*g].guest.next_op(&self.shared);
                self.threads[*g].guest.shared_effects(&op)
            }
        };
        if effects.is_whole() {
            // Nothing to check: the declaration permits any mutation.
            return self.step(t, choice);
        }
        let label = self.thread_name(t).to_string();
        let op = self.next_op(t);
        let cells = self.shared.cells();
        let before: Vec<Vec<u8>> = cells
            .iter()
            .map(|&(n, i)| self.capture_cell(n, i))
            .collect();
        let whole_before = self.capture_shared();
        let info = self.step(t, choice);
        let undeclared: Vec<String> = cells
            .iter()
            .enumerate()
            .filter(|&(idx, &(n, i))| {
                !effects.allows_write(n, i) && self.capture_cell(n, i) != before[idx]
            })
            .map(|(_, &(n, i))| ObjectRef::Cell(n, i).to_string())
            .collect();
        if !undeclared.is_empty() {
            self.report_violation(
                t,
                format!(
                    "undeclared shared-state write: '{label}' ({op:?}) declared {} but \
                     mutated [{}]",
                    effects.describe(),
                    undeclared.join(", ")
                ),
            );
        } else if self.capture_shared() != whole_before
            && cells
                .iter()
                .enumerate()
                .all(|(idx, &(n, i))| self.capture_cell(n, i) == before[idx])
        {
            self.report_violation(
                t,
                format!(
                    "undeclared shared-state write: '{label}' ({op:?}) declared {} but \
                     mutated shared state outside the named cells",
                    effects.describe()
                ),
            );
        }
        info
    }
}

impl<S: Clone> Clone for Kernel<S> {
    fn clone(&self) -> Self {
        Kernel {
            shared: self.shared.clone(),
            threads: self
                .threads
                .iter()
                .map(|s| Slot {
                    guest: s.guest.box_clone(),
                    name: s.name.clone(),
                })
                .collect(),
            lanes: self.lanes.clone(),
            memory: self.memory,
            buffers: self.buffers.clone(),
            objects: self.objects.clone(),
            violation: self.violation.clone(),
            stats: self.stats,
            validate_effects: self.validate_effects,
            // A fresh all-dirty cache: captures are lazily rebuilt on the
            // clone's first fingerprint query.
            fp_cache: RefCell::new(FpCache::new(self.fp_cache.borrow().enabled)),
            op_memo: RefCell::new(OpMemo::new(self.op_memo.borrow().enabled)),
        }
    }
}

impl<S: Clone> Kernel<S> {
    /// Rebuilds this kernel into a fresh copy of `template`, reusing the
    /// allocations this instance already owns (thread/lane/buffer tables,
    /// object tables, buffer queues, name strings, cache writers).
    ///
    /// This is the allocation-pooling path behind the explorer's
    /// per-execution reset: behaviorally it is exactly
    /// `*self = template.clone()`, which the `reset_from` tests pin. The
    /// guest boxes themselves are re-cloned — trait objects cannot be
    /// reset in place — so the per-execution cost drops to one small
    /// allocation per thread.
    pub fn reset_from(&mut self, template: &Self) {
        self.shared.clone_from(&template.shared);
        self.threads.truncate(template.threads.len());
        let have = self.threads.len();
        for (dst, src) in self.threads.iter_mut().zip(&template.threads) {
            dst.guest = src.guest.box_clone();
            dst.name.clone_from(&src.name);
        }
        for src in &template.threads[have..] {
            self.threads.push(Slot {
                guest: src.guest.box_clone(),
                name: src.name.clone(),
            });
        }
        self.lanes.clone_from(&template.lanes);
        self.memory = template.memory;
        self.buffers.clone_from(&template.buffers);
        self.objects.clone_from(&template.objects);
        self.violation.clone_from(&template.violation);
        self.stats = template.stats;
        self.validate_effects = template.validate_effects;
        let enabled = template.fp_cache.borrow().enabled;
        let n = self.threads.len();
        let cache = self.fp_cache.get_mut();
        cache.enabled = enabled;
        cache.invalidate_all(n);
        let memo = self.op_memo.get_mut();
        memo.enabled = enabled;
        memo.invalidate_all(n);
    }
}

impl<S: fmt::Debug> fmt::Debug for Kernel<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("shared", &self.shared)
            .field("threads", &self.threads.len())
            .field("memory", &self.memory)
            .field("objects", &self.objects.count())
            .field("violation", &self.violation)
            .field("stats", &self.stats)
            .field("validate_effects", &self.validate_effects)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Locker {
        pc: u8,
        m: MutexId,
    }

    impl GuestThread<u32> for Locker {
        fn next_op(&self, _: &u32) -> OpDesc {
            match self.pc {
                0 => OpDesc::Acquire(self.m),
                1 => OpDesc::Local,
                2 => OpDesc::Release(self.m),
                _ => OpDesc::Finished,
            }
        }
        fn on_op(&mut self, _: OpResult, shared: &mut u32, _: &mut Effects<u32>) {
            if self.pc == 1 {
                *shared += 1;
            }
            self.pc += 1;
        }
        fn name(&self) -> String {
            "locker".to_string()
        }
        fn box_clone(&self) -> Box<dyn GuestThread<u32>> {
            Box::new(self.clone())
        }
    }

    fn two_lockers() -> (Kernel<u32>, ThreadId, ThreadId) {
        let mut k = Kernel::new(0u32);
        let m = k.add_mutex();
        let a = k.spawn(Locker { pc: 0, m });
        let b = k.spawn(Locker { pc: 0, m });
        (k, a, b)
    }

    #[test]
    fn mutual_exclusion_disables_contender() {
        let (mut k, a, b) = two_lockers();
        assert!(k.enabled(a) && k.enabled(b));
        k.step(a, 0);
        assert!(k.enabled(a));
        assert!(!k.enabled(b), "b must be disabled while a holds the lock");
        k.step(a, 0);
        k.step(a, 0); // release
        assert!(k.enabled(b));
    }

    #[test]
    fn terminating_execution_counts_state() {
        let (mut k, a, b) = two_lockers();
        for t in [a, a, a, b, b, b] {
            k.step(t, 0);
        }
        assert_eq!(*k.shared(), 2);
        assert_eq!(k.status(), KernelStatus::Terminated);
        assert_eq!(k.stats().steps, 6);
        assert_eq!(k.stats().sync_ops, 4); // 2 acquires + 2 releases
    }

    #[test]
    fn deadlock_detected() {
        // Two threads each holding one lock and wanting the other.
        #[derive(Clone)]
        struct Deadlocker {
            pc: u8,
            first: MutexId,
            second: MutexId,
        }
        impl GuestThread<()> for Deadlocker {
            fn next_op(&self, _: &()) -> OpDesc {
                match self.pc {
                    0 => OpDesc::Acquire(self.first),
                    1 => OpDesc::Acquire(self.second),
                    _ => OpDesc::Finished,
                }
            }
            fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {
                self.pc += 1;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(());
        let m1 = k.add_mutex();
        let m2 = k.add_mutex();
        let a = k.spawn(Deadlocker {
            pc: 0,
            first: m1,
            second: m2,
        });
        let b = k.spawn(Deadlocker {
            pc: 0,
            first: m2,
            second: m1,
        });
        k.step(a, 0);
        k.step(b, 0);
        assert_eq!(k.status(), KernelStatus::Deadlock);
    }

    #[test]
    fn violation_from_guest_assertion() {
        #[derive(Clone)]
        struct Failer(bool);
        impl GuestThread<()> for Failer {
            fn next_op(&self, _: &()) -> OpDesc {
                if self.0 {
                    OpDesc::Finished
                } else {
                    OpDesc::Local
                }
            }
            fn on_op(&mut self, _: OpResult, _: &mut (), fx: &mut Effects<()>) {
                fx.fail("boom");
                self.0 = true;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(());
        let t = k.spawn(Failer(false));
        k.step(t, 0);
        match k.status() {
            KernelStatus::Violation(v) => {
                assert_eq!(v.thread, t);
                assert_eq!(v.message, "boom");
            }
            s => panic!("expected violation, got {s:?}"),
        }
    }

    #[test]
    fn dynamic_spawn_and_join() {
        #[derive(Clone)]
        struct Child;
        impl GuestThread<u32> for Child {
            fn next_op(&self, shared: &u32) -> OpDesc {
                if *shared == 0 {
                    OpDesc::Local
                } else {
                    OpDesc::Finished
                }
            }
            fn on_op(&mut self, _: OpResult, shared: &mut u32, _: &mut Effects<u32>) {
                *shared = 1;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<u32>> {
                Box::new(self.clone())
            }
        }
        #[derive(Clone)]
        struct Parent {
            pc: u8,
            child: Option<ThreadId>,
        }
        impl GuestThread<u32> for Parent {
            fn next_op(&self, _: &u32) -> OpDesc {
                match self.pc {
                    0 => OpDesc::Local,
                    1 => OpDesc::Join(self.child.unwrap()),
                    _ => OpDesc::Finished,
                }
            }
            fn on_op(&mut self, _: OpResult, _: &mut u32, fx: &mut Effects<u32>) {
                if self.pc == 0 {
                    self.child = Some(fx.spawn(Box::new(Child)));
                }
                self.pc += 1;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<u32>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(0u32);
        let p = k.spawn(Parent { pc: 0, child: None });
        k.step(p, 0);
        assert_eq!(k.thread_count(), 2);
        let c = ThreadId::new(1);
        // Parent blocked on join until the child finishes.
        assert!(!k.enabled(p));
        assert!(k.enabled(c));
        k.step(c, 0);
        assert!(k.enabled(p));
        k.step(p, 0);
        assert_eq!(k.status(), KernelStatus::Terminated);
    }

    #[test]
    fn choose_branches() {
        #[derive(Clone)]
        struct Chooser {
            picked: Option<u32>,
        }
        impl GuestThread<()> for Chooser {
            fn next_op(&self, _: &()) -> OpDesc {
                if self.picked.is_none() {
                    OpDesc::Choose(3)
                } else {
                    OpDesc::Finished
                }
            }
            fn on_op(&mut self, r: OpResult, _: &mut (), _: &mut Effects<()>) {
                self.picked = Some(r.as_choice());
            }
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(());
        let t = k.spawn(Chooser { picked: None });
        assert_eq!(k.branching(t), 3);
        k.step(t, 2);
        assert_eq!(k.status(), KernelStatus::Terminated);
    }

    #[test]
    fn clone_snapshots_full_state() {
        let (mut k, a, b) = two_lockers();
        k.step(a, 0);
        let snap = k.clone();
        k.step(a, 0);
        k.step(a, 0);
        k.step(b, 0);
        // The snapshot still has a holding the lock and b disabled.
        assert!(!snap.enabled(b));
        assert_eq!(*snap.shared(), 0);
        assert_eq!(*k.shared(), 1);
    }

    #[test]
    fn object_misuse_becomes_violation() {
        #[derive(Clone)]
        struct BadRelease(MutexId, bool);
        impl GuestThread<()> for BadRelease {
            fn next_op(&self, _: &()) -> OpDesc {
                if self.1 {
                    OpDesc::Finished
                } else {
                    OpDesc::Release(self.0)
                }
            }
            fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {
                self.1 = true;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(());
        let m = k.add_mutex();
        let t = k.spawn(BadRelease(m, false));
        k.step(t, 0);
        assert!(matches!(k.status(), KernelStatus::Violation(_)));
    }

    /// An object-misuse violation is still a transition that executed:
    /// `steps` (and `sync_ops` for a sync op) must count it, or the
    /// kernel's stats disagree with the search layer's by one.
    #[test]
    fn object_misuse_violation_counts_step_and_sync_op() {
        #[derive(Clone)]
        struct BadRelease(MutexId);
        impl GuestThread<()> for BadRelease {
            fn next_op(&self, _: &()) -> OpDesc {
                OpDesc::Release(self.0)
            }
            fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {}
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(());
        let m = k.add_mutex();
        let t = k.spawn(BadRelease(m));
        k.step(t, 0);
        assert!(matches!(k.status(), KernelStatus::Violation(_)));
        assert_eq!(k.stats().steps, 1);
        assert_eq!(k.stats().sync_ops, 1);
    }

    /// Same for the `Choose(0)` violation path.
    #[test]
    fn choose_zero_violation_counts_step() {
        #[derive(Clone)]
        struct NoBranches;
        impl GuestThread<()> for NoBranches {
            fn next_op(&self, _: &()) -> OpDesc {
                OpDesc::Choose(0)
            }
            fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {}
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(());
        let t = k.spawn(NoBranches);
        k.step(t, 0);
        assert!(matches!(k.status(), KernelStatus::Violation(_)));
        assert_eq!(k.stats().steps, 1);
        assert_eq!(k.stats().sync_ops, 0);
    }

    #[test]
    fn step_info_reports_op_and_result() {
        let (mut k, a, b) = two_lockers();
        let fp = k.next_footprint(a);
        let info = k.step(a, 0);
        assert!(matches!(info.op, OpDesc::Acquire(_)));
        assert_eq!(info.result, OpResult::Unit);
        assert!(!info.kind.is_yield());
        assert_eq!(
            info.footprint, fp,
            "pre-step query matches executed footprint"
        );
        assert!(
            info.footprint.describe().unwrap().contains("acquire mutex"),
            "footprint names the mutex"
        );
        let _ = b;
    }

    #[test]
    fn external_monitor_can_report_violations() {
        let (mut k, a, _b) = two_lockers();
        k.report_violation(a, "monitor saw an invariant break");
        match k.status() {
            KernelStatus::Violation(v) => {
                assert_eq!(v.thread, a);
                assert!(v.message.contains("invariant"));
            }
            s => panic!("expected violation, got {s:?}"),
        }
        // First violation wins.
        k.report_violation(a, "second");
        if let KernelStatus::Violation(v) = k.status() {
            assert!(v.message.contains("invariant"));
        }
    }

    #[test]
    fn yields_counted_in_stats() {
        #[derive(Clone)]
        struct Napper(u8);
        impl GuestThread<()> for Napper {
            fn next_op(&self, _: &()) -> OpDesc {
                match self.0 {
                    0 => OpDesc::Sleep,
                    1 => OpDesc::Yield,
                    2 => OpDesc::Local,
                    _ => OpDesc::Finished,
                }
            }
            fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {
                self.0 += 1;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(());
        let t = k.spawn(Napper(0));
        assert!(k.is_yielding(t));
        k.step(t, 0);
        k.step(t, 0);
        assert!(!k.is_yielding(t));
        k.step(t, 0);
        assert_eq!(k.stats().yields, 2);
        assert_eq!(k.stats().steps, 3);
    }

    #[test]
    fn names_and_object_counts() {
        let (k, a, _b) = two_lockers();
        assert_eq!(k.thread_name(a), "locker");
        assert_eq!(k.object_count(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduler bug")]
    fn stepping_disabled_thread_panics() {
        let (mut k, a, b) = two_lockers();
        k.step(a, 0);
        k.step(b, 0); // b is disabled: scheduler bug
    }

    /// A store/load/fence straight-line guest over two atomic cells, for
    /// the memory-model tests below.
    #[derive(Clone)]
    struct Writer {
        pc: u8,
        ops: Vec<OpDesc>,
    }

    impl GuestThread<()> for Writer {
        fn next_op(&self, _: &()) -> OpDesc {
            self.ops
                .get(self.pc as usize)
                .copied()
                .unwrap_or(OpDesc::Finished)
        }
        fn on_op(&mut self, _: OpResult, _: &mut (), _: &mut Effects<()>) {
            self.pc += 1;
        }
        fn name(&self) -> String {
            "writer".to_string()
        }
        fn box_clone(&self) -> Box<dyn GuestThread<()>> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn sc_never_buffers() {
        let mut k = Kernel::with_memory((), crate::MemoryModel::Sc);
        let x = k.add_atomic(0);
        let t = k.spawn(Writer {
            pc: 0,
            ops: vec![OpDesc::AtomicStore(x, 7)],
        });
        assert_eq!(k.thread_count(), 1, "no flusher lane under SC");
        k.step(t, 0);
        assert!(k.store_buffer(t).is_none());
        assert_eq!(k.status(), KernelStatus::Terminated);
    }

    #[test]
    fn tso_buffers_store_until_flush() {
        let mut k = Kernel::with_memory((), crate::MemoryModel::Tso);
        let x = k.add_atomic(0);
        let t = k.spawn(Writer {
            pc: 0,
            ops: vec![OpDesc::AtomicStore(x, 7), OpDesc::AtomicLoad(x)],
        });
        let f = ThreadId::new(t.index() + 1);
        assert_eq!(k.thread_count(), 2);
        assert!(k.is_flush(f) && !k.is_flush(t));
        assert_eq!(k.thread_name(f), "writer:flush");
        // Before the store the flusher has nothing to do.
        assert!(!k.enabled(f));
        assert!(k.is_finished(f));
        k.step(t, 0); // store goes to the buffer
        assert_eq!(k.store_buffer(t).unwrap().len(), 1);
        assert!(k.enabled(f), "non-empty buffer enables the flusher");
        assert_eq!(k.next_op(f), OpDesc::Flush(t));
        // The issuing thread forwards from its own buffer.
        let info = k.step(t, 0);
        assert_eq!(info.result, OpResult::Value(7));
        // Termination requires the drain.
        assert_eq!(k.status(), KernelStatus::Running);
        let info = k.step(f, 0);
        assert_eq!(info.op, OpDesc::Flush(t));
        assert!(k.store_buffer(t).unwrap().is_empty());
        assert_eq!(k.status(), KernelStatus::Terminated);
    }

    #[test]
    fn load_reads_memory_on_buffer_miss() {
        let mut k = Kernel::with_memory((), crate::MemoryModel::Tso);
        let x = k.add_atomic(3);
        let y = k.add_atomic(0);
        let t = k.spawn(Writer {
            pc: 0,
            ops: vec![OpDesc::AtomicStore(y, 1), OpDesc::AtomicLoad(x)],
        });
        k.step(t, 0);
        let info = k.step(t, 0);
        assert_eq!(info.result, OpResult::Value(3), "x is not buffered");
    }

    #[test]
    fn fence_blocks_until_drained() {
        let mut k = Kernel::with_memory((), crate::MemoryModel::Tso);
        let x = k.add_atomic(0);
        let t = k.spawn(Writer {
            pc: 0,
            ops: vec![OpDesc::AtomicStore(x, 1), OpDesc::Fence],
        });
        let f = ThreadId::new(t.index() + 1);
        k.step(t, 0);
        assert!(!k.enabled(t), "fence waits for the buffer to drain");
        k.step(f, 0);
        assert!(k.enabled(t), "drained buffer unblocks the fence");
        k.step(t, 0);
        assert_eq!(k.status(), KernelStatus::Terminated);
    }

    #[test]
    fn rmw_waits_for_own_buffer() {
        let mut k = Kernel::with_memory((), crate::MemoryModel::Tso);
        let x = k.add_atomic(0);
        let t = k.spawn(Writer {
            pc: 0,
            ops: vec![OpDesc::AtomicStore(x, 1), OpDesc::AtomicAdd(x, 1)],
        });
        let f = ThreadId::new(t.index() + 1);
        k.step(t, 0);
        assert!(!k.enabled(t), "RMW carries an implicit fence");
        k.step(f, 0);
        let info = k.step(t, 0);
        assert_eq!(
            info.result,
            OpResult::Value(1),
            "add sees the flushed store"
        );
    }

    #[test]
    fn pso_flush_choices_cover_distinct_locations() {
        let mut k = Kernel::with_memory((), crate::MemoryModel::Pso);
        let x = k.add_atomic(0);
        let y = k.add_atomic(0);
        let t = k.spawn(Writer {
            pc: 0,
            ops: vec![
                OpDesc::AtomicStore(x, 1),
                OpDesc::AtomicStore(y, 2),
                OpDesc::AtomicStore(x, 3),
            ],
        });
        let f = ThreadId::new(t.index() + 1);
        k.step(t, 0);
        k.step(t, 0);
        k.step(t, 0);
        assert_eq!(k.branching(f), 2, "two distinct buffered locations");
        // Drain y (choice 1) before either store to x: cross-location
        // reorder that TSO forbids.
        k.step(f, 1);
        assert_eq!(k.branching(f), 1);
        // Per-location FIFO: x drains 1 then 3.
        k.step(f, 0);
        k.step(f, 0);
        assert_eq!(k.status(), KernelStatus::Terminated);
    }

    #[test]
    fn buffered_execution_reaches_same_terminal_capture_as_sc() {
        let run = |memory: crate::MemoryModel| {
            let mut k = Kernel::with_memory((), memory);
            let x = k.add_atomic(0);
            let t = k.spawn(Writer {
                pc: 0,
                ops: vec![OpDesc::AtomicStore(x, 5)],
            });
            k.step(t, 0);
            if memory.buffers() {
                k.step(ThreadId::new(t.index() + 1), 0);
            }
            assert_eq!(k.status(), KernelStatus::Terminated);
            k.capture_state().into_bytes()
        };
        let sc = run(crate::MemoryModel::Sc);
        assert_eq!(sc, run(crate::MemoryModel::Tso));
        assert_eq!(sc, run(crate::MemoryModel::Pso));
    }

    #[test]
    fn dynamic_spawn_predicts_ids_across_flusher_lanes() {
        #[derive(Clone)]
        struct Spawner {
            pc: u8,
            predicted: Option<ThreadId>,
        }
        impl GuestThread<()> for Spawner {
            fn next_op(&self, _: &()) -> OpDesc {
                match self.pc {
                    0 => OpDesc::Local,
                    1 => OpDesc::Join(self.predicted.unwrap()),
                    _ => OpDesc::Finished,
                }
            }
            fn on_op(&mut self, _: OpResult, _: &mut (), fx: &mut Effects<()>) {
                if self.pc == 0 {
                    self.predicted = Some(fx.spawn(Box::new(Writer { pc: 0, ops: vec![] })));
                }
                self.pc += 1;
            }
            fn box_clone(&self) -> Box<dyn GuestThread<()>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::with_memory((), crate::MemoryModel::Tso);
        let p = k.spawn(Spawner {
            pc: 0,
            predicted: None,
        });
        k.step(p, 0);
        // Parent (lane 0) + its flusher (1) + child (2) + child's flusher (3).
        assert_eq!(k.thread_count(), 4);
        let c = ThreadId::new(2);
        assert!(!k.is_flush(c) && k.is_flush(ThreadId::new(3)));
        // The join on the predicted id resolves: the child is finished.
        assert!(k.enabled(p));
        k.step(p, 0);
        assert_eq!(k.status(), KernelStatus::Terminated);
    }

    #[test]
    fn flush_and_fence_footprints_render() {
        let mut k = Kernel::with_memory((), crate::MemoryModel::Tso);
        let x = k.add_atomic(0);
        let t = k.spawn(Writer {
            pc: 0,
            ops: vec![OpDesc::AtomicStore(x, 1), OpDesc::Fence],
        });
        let f = ThreadId::new(t.index() + 1);
        assert_eq!(
            k.next_footprint(t).describe().as_deref(),
            Some("buffer atomic0")
        );
        k.step(t, 0);
        assert_eq!(
            k.next_footprint(f).describe().as_deref(),
            Some("flush atomic0")
        );
        assert_eq!(k.next_footprint(t).describe().as_deref(), Some("fence"));
        // The flush carries no shared-state write: it commutes with
        // guest-local transitions.
        assert!(k
            .next_footprint(f)
            .accesses()
            .iter()
            .all(|a| a.object != crate::ObjectRef::SharedState));
    }

    /// Shared state with two named cells for the effect-API tests.
    #[derive(Clone, Default)]
    struct Pair {
        x: u64,
        y: u64,
    }

    impl Capture for Pair {
        fn capture(&self, w: &mut StateWriter) {
            w.write_u64(self.x);
            w.write_u64(self.y);
        }
        fn cells(&self) -> Vec<(&'static str, u32)> {
            vec![("x", 0), ("y", 0)]
        }
        fn capture_cell(&self, name: &'static str, _index: u32, w: &mut StateWriter) {
            match name {
                "x" => w.write_u64(self.x),
                "y" => w.write_u64(self.y),
                _ => {}
            }
        }
    }

    /// Bumps one cell; declares either the truth or a lie.
    #[derive(Clone)]
    struct CellBumper {
        pc: u8,
        target: &'static str,
        honest: bool,
    }

    impl GuestThread<Pair> for CellBumper {
        fn next_op(&self, _: &Pair) -> OpDesc {
            if self.pc == 0 {
                OpDesc::Local
            } else {
                OpDesc::Finished
            }
        }
        fn on_op(&mut self, _: OpResult, sh: &mut Pair, _: &mut Effects<Pair>) {
            match self.target {
                "x" => sh.x += 1,
                _ => sh.y += 1,
            }
            self.pc += 1;
        }
        fn shared_effects(&self, _: &OpDesc) -> SharedEffects {
            if self.honest {
                SharedEffects::writes([(self.target, 0)])
            } else {
                SharedEffects::Pure
            }
        }
        fn box_clone(&self) -> Box<dyn GuestThread<Pair>> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn declared_effects_make_disjoint_cell_writers_independent() {
        let mut k = Kernel::new(Pair::default());
        let a = k.spawn(CellBumper {
            pc: 0,
            target: "x",
            honest: true,
        });
        let b = k.spawn(CellBumper {
            pc: 0,
            target: "y",
            honest: true,
        });
        let fa = k.next_footprint(a);
        let fb = k.next_footprint(b);
        assert_eq!(fa.describe().as_deref(), Some("write x"));
        assert!(!fa.dependent(&fb), "writes to distinct cells commute");
        assert!(fa.dependent(&fa.clone()), "same-cell writes conflict");
    }

    #[test]
    fn pure_yields_are_independent() {
        // Regression: pure scheduling ops used to stamp a whole-state
        // write, making two yielding threads' transitions dependent at
        // the kernel level.
        #[derive(Clone)]
        struct Yielder(u8);
        impl GuestThread<Pair> for Yielder {
            fn next_op(&self, _: &Pair) -> OpDesc {
                if self.0 == 0 {
                    OpDesc::Yield
                } else {
                    OpDesc::Finished
                }
            }
            fn on_op(&mut self, _: OpResult, _: &mut Pair, _: &mut Effects<Pair>) {
                self.0 += 1;
            }
            fn shared_effects(&self, _: &OpDesc) -> SharedEffects {
                SharedEffects::Pure
            }
            fn box_clone(&self) -> Box<dyn GuestThread<Pair>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(Pair::default());
        let a = k.spawn(Yielder(0));
        let b = k.spawn(Yielder(0));
        let (fa, fb) = (k.next_footprint(a), k.next_footprint(b));
        assert!(fa.accesses().is_empty(), "a pure yield has no accesses");
        assert!(!fa.dependent(&fb), "two pure yields are independent");
        // An undeclared guest's op stays conservatively dependent.
        let mut conservative = Kernel::new(0u32);
        let m = conservative.add_mutex();
        let c = conservative.spawn(Locker { pc: 0, m });
        let d = conservative.spawn(Locker { pc: 0, m });
        assert!(conservative
            .next_footprint(c)
            .dependent(&conservative.next_footprint(d)));
    }

    #[test]
    fn validation_accepts_honest_declarations() {
        let mut k = Kernel::new(Pair::default());
        let a = k.spawn(CellBumper {
            pc: 0,
            target: "x",
            honest: true,
        });
        k.step_validated(a, 0);
        assert_eq!(k.status(), KernelStatus::Terminated);
        assert_eq!(k.shared().x, 1);
    }

    #[test]
    fn validation_flags_undeclared_cell_write() {
        let mut k = Kernel::new(Pair::default());
        let a = k.spawn(CellBumper {
            pc: 0,
            target: "y",
            honest: false,
        });
        k.step_validated(a, 0);
        match k.status() {
            KernelStatus::Violation(v) => {
                assert!(
                    v.message.contains("undeclared shared-state write"),
                    "unexpected message: {}",
                    v.message
                );
                assert!(
                    v.message.contains("[y]"),
                    "must name the cell: {}",
                    v.message
                );
            }
            s => panic!("expected a violation, got {s:?}"),
        }
    }

    #[test]
    fn validation_flags_mutation_outside_named_cells() {
        // `z` is captured but not named as a cell: mutating it changes
        // the whole-state capture while every named cell stays equal.
        #[derive(Clone, Default)]
        struct WithResidue {
            x: u64,
            z: u64,
        }
        impl Capture for WithResidue {
            fn capture(&self, w: &mut StateWriter) {
                w.write_u64(self.x);
                w.write_u64(self.z);
            }
            fn cells(&self) -> Vec<(&'static str, u32)> {
                vec![("x", 0)]
            }
            fn capture_cell(&self, name: &'static str, _i: u32, w: &mut StateWriter) {
                if name == "x" {
                    w.write_u64(self.x);
                }
            }
        }
        #[derive(Clone)]
        struct ResidueWriter(u8);
        impl GuestThread<WithResidue> for ResidueWriter {
            fn next_op(&self, _: &WithResidue) -> OpDesc {
                if self.0 == 0 {
                    OpDesc::Local
                } else {
                    OpDesc::Finished
                }
            }
            fn on_op(&mut self, _: OpResult, sh: &mut WithResidue, _: &mut Effects<WithResidue>) {
                sh.z += 1;
                self.0 += 1;
            }
            fn shared_effects(&self, _: &OpDesc) -> SharedEffects {
                SharedEffects::writes([("x", 0)])
            }
            fn box_clone(&self) -> Box<dyn GuestThread<WithResidue>> {
                Box::new(self.clone())
            }
        }
        let mut k = Kernel::new(WithResidue::default());
        let a = k.spawn(ResidueWriter(0));
        k.step_validated(a, 0);
        match k.status() {
            KernelStatus::Violation(v) => assert!(
                v.message.contains("outside the named cells"),
                "unexpected message: {}",
                v.message
            ),
            s => panic!("expected a violation, got {s:?}"),
        }
    }

    /// Two kernels built identically: `fast` keeps fingerprint caching
    /// armed, `slow` is forced down the from-scratch path. Drives both
    /// through the same schedule to termination, checking after every
    /// transition that fingerprints, state bytes, and the full capture
    /// agree — the incremental-fingerprint invariant in one place.
    fn lockstep_cache_agreement<S: Capture>(mut fast: Kernel<S>, mut slow: Kernel<S>) {
        fast.set_fingerprint_caching(true);
        slow.set_fingerprint_caching(false);
        let mut bytes_fast = Vec::new();
        let mut bytes_slow = Vec::new();
        for steps in 0usize..10_000 {
            assert_eq!(fast.fingerprint(), slow.fingerprint(), "fp at step {steps}");
            assert_eq!(
                fast.fingerprint(),
                fast.fresh_fingerprint(),
                "cached vs fresh at step {steps}"
            );
            fast.state_bytes_into(&mut bytes_fast);
            slow.state_bytes_into(&mut bytes_slow);
            assert_eq!(bytes_fast, bytes_slow, "bytes at step {steps}");
            assert_eq!(
                bytes_fast,
                fast.capture_state().as_bytes(),
                "cached bytes vs capture at step {steps}"
            );
            let enabled: Vec<ThreadId> = fast.thread_ids().filter(|&t| fast.enabled(t)).collect();
            if enabled.is_empty() {
                return;
            }
            let t = enabled[steps % enabled.len()];
            let choice = (steps % fast.branching(t).max(1)) as u32;
            fast.step(t, choice);
            slow.step(t, choice);
        }
        panic!("workload did not terminate");
    }

    /// A two-writer store/load/fence workload over two atomic cells,
    /// buffered under `model`.
    fn buffered_pair(model: crate::MemoryModel) -> Kernel<()> {
        let mut k = Kernel::with_memory((), model);
        let x = k.add_atomic(0);
        let y = k.add_atomic(0);
        k.spawn(Writer {
            pc: 0,
            ops: vec![
                OpDesc::AtomicStore(x, 1),
                OpDesc::AtomicLoad(y),
                OpDesc::Fence,
            ],
        });
        k.spawn(Writer {
            pc: 0,
            ops: vec![
                OpDesc::AtomicStore(y, 2),
                OpDesc::AtomicStore(x, 3),
                OpDesc::AtomicLoad(x),
            ],
        });
        k
    }

    #[test]
    fn cached_fingerprint_agrees_with_fresh_on_a_mutex_workload() {
        let (fast, _, _) = two_lockers();
        let (slow, _, _) = two_lockers();
        lockstep_cache_agreement(fast, slow);
    }

    #[test]
    fn cached_fingerprint_agrees_with_fresh_under_buffering() {
        for model in [crate::MemoryModel::Tso, crate::MemoryModel::Pso] {
            lockstep_cache_agreement(buffered_pair(model), buffered_pair(model));
        }
    }

    #[test]
    fn shared_mut_dirties_the_cached_fingerprint() {
        let (mut k, _, _) = two_lockers();
        let before = k.fingerprint();
        *k.shared_mut() += 7;
        assert_ne!(k.fingerprint(), before);
        assert_eq!(k.fingerprint(), k.fresh_fingerprint());
    }

    #[test]
    fn spawn_after_fingerprint_query_invalidates_the_cache() {
        let (mut k, a, _) = two_lockers();
        let _ = k.fingerprint();
        k.step(a, 0);
        let m2 = k.add_mutex();
        k.spawn(Locker { pc: 0, m: m2 });
        assert_eq!(k.fingerprint(), k.fresh_fingerprint());
        let mut bytes = Vec::new();
        k.state_bytes_into(&mut bytes);
        assert_eq!(bytes, k.capture_state().as_bytes());
    }

    #[test]
    fn reset_from_is_equivalent_to_cloning_the_template() {
        let (template, a, b) = two_lockers();
        let mut pooled = template.clone();
        for t in [a, a, a, b] {
            pooled.step(t, 0);
        }
        pooled.reset_from(&template);
        let fresh = template.clone();
        assert_eq!(pooled.stats().steps, fresh.stats().steps);
        assert_eq!(pooled.fingerprint(), fresh.fingerprint());
        assert_eq!(
            pooled.capture_state().as_bytes(),
            fresh.capture_state().as_bytes()
        );
        // And the reset kernel replays exactly like the fresh clone.
        let (mut p, mut f) = (pooled, fresh);
        for t in [a, a, a, b, b, b] {
            p.step(t, 0);
            f.step(t, 0);
            assert_eq!(p.fingerprint(), f.fingerprint());
        }
        assert_eq!(p.status(), KernelStatus::Terminated);
        assert_eq!(*p.shared(), *f.shared());
    }

    #[test]
    fn reset_from_clears_buffered_state() {
        let template = buffered_pair(crate::MemoryModel::Tso);
        let mut pooled = template.clone();
        let t0 = ThreadId::new(0);
        pooled.step(t0, 0);
        assert!(!pooled.store_buffer(t0).unwrap().is_empty());
        pooled.reset_from(&template);
        assert!(pooled.store_buffer(t0).unwrap().is_empty());
        assert_eq!(pooled.fingerprint(), template.fingerprint());
        assert_eq!(
            pooled.capture_state().as_bytes(),
            template.capture_state().as_bytes()
        );
    }
}
