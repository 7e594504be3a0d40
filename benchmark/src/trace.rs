//! Instrumentation for the traced run.
//!
//! [`Traced`] wraps a [`TransitionSystem`] and [`TracedStrategy`] wraps a
//! [`Strategy`]: every public call the explorer makes into the kernel or
//! the strategy is counted exactly, and a pseudo-random 1 in
//! [`SAMPLE_ONE_IN`] of each layer's calls is timed. A layer's busy time
//! is estimated as its sampled time, minus the measured cost of an
//! empty timed call per sample, scaled by calls over samples.
//!
//! The fair scheduler is private to the explorer, so it is priced
//! differently: the wrapper records the traffic the explorer feeds it —
//! the enabled sets before and after each step, the scheduled thread
//! and whether it yielded — for 1 in 64 executions, and [`price_fair`]
//! replays that traffic through [`FairScheduler`] after the pass.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use chess_core::strategy::{SchedulePoint, Strategy};
use chess_core::{Decision, FairScheduler, StrategySnapshot, SystemStatus, TransitionSystem};
use chess_kernel::{Footprint, StepKind, ThreadId, TidSet};

use crate::stats::{median, splitmix};

/// A timed layer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TransitionSystem::step`.
    Step,
    /// Enabledness queries: `enabled`, `enabled_set(_into)`, `is_yielding`.
    Enabled,
    /// `TransitionSystem::status`.
    Status,
    /// `TransitionSystem::fingerprint` (cycle detection).
    Fingerprint,
    /// `TransitionSystem::footprint(_into)` and `dependent` (reduction).
    Footprint,
    /// `TransitionSystem::reset_from` (pooled execution reset).
    Reset,
    /// `Strategy::pick`.
    Pick,
    /// `Strategy::on_execution_end`.
    End,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 8] = [
        Layer::Step,
        Layer::Enabled,
        Layer::Status,
        Layer::Fingerprint,
        Layer::Footprint,
        Layer::Reset,
        Layer::Pick,
        Layer::End,
    ];

    /// The layer's name, the prefix of its metric names.
    pub fn name(self) -> &'static str {
        self.metrics()[0].trim_end_matches(".calls")
    }

    /// The layer's `calls`, `busy_s` and `ns` metric names.
    pub fn metrics(self) -> [&'static str; 3] {
        macro_rules! m {
            ($p:literal) => {
                [
                    concat!($p, ".calls"),
                    concat!($p, ".busy_s"),
                    concat!($p, ".ns"),
                ]
            };
        }
        match self {
            Layer::Step => m!("kernel.step"),
            Layer::Enabled => m!("kernel.enabled"),
            Layer::Status => m!("kernel.status"),
            Layer::Fingerprint => m!("kernel.fingerprint"),
            Layer::Footprint => m!("kernel.footprint"),
            Layer::Reset => m!("kernel.reset"),
            Layer::Pick => m!("strategy.pick"),
            Layer::End => m!("strategy.end"),
        }
    }
}

/// Mean gap between timed calls of one layer. Timing costs a timed call
/// ~100 ns, so at 1 in 16 a traced `table3-cb2` pass ran 17% slower;
/// at 1 in 256 it runs ~4–8% slower and each layer still gets thousands
/// of samples per pass.
pub(crate) const SAMPLE_ONE_IN: u64 = 256;
/// One execution in this many has its scheduler traffic recorded.
const TAPE_ONE_IN: u64 = 64;
/// Longest duration one sampled call may record, in nanoseconds.
const MAX_SAMPLE_NS: f64 = 50_000.0;
/// Sampled call spans kept per layer and pass.
const RESERVOIR: usize = 256;

/// Exact counts and sampled time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Time of the timed calls net of the timer's own cost, in
    /// nanoseconds.
    pub net_ns: f64,
}

impl LayerTotals {
    /// Estimated busy seconds: the timed calls' net time scaled from the
    /// sample to every call.
    pub fn busy_s(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.net_ns.max(0.0) * self.calls as f64 / self.sampled as f64 * 1e-9
    }

    fn minus(&self, earlier: &LayerTotals) -> LayerTotals {
        LayerTotals {
            calls: self.calls - earlier.calls,
            sampled: self.sampled - earlier.sampled,
            net_ns: self.net_ns - earlier.net_ns,
        }
    }
}

/// A snapshot of every counter the recorder keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Per-layer totals, indexed like [`Layer::ALL`].
    pub layers: [LayerTotals; 8],
    /// Options offered over all `pick` calls.
    pub options: u64,
    /// `pick` calls at points where fairness filtered an enabled thread.
    pub fairness_filtered: u64,
    /// `pick` calls that abandoned the execution.
    pub abandoned: u64,
    /// Steps of store-buffer flusher lanes.
    pub flush_steps: u64,
}

impl Totals {
    /// The totals of one layer.
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer as usize]
    }

    /// Counter increments between `earlier` and `self`.
    pub fn minus(&self, earlier: &Totals) -> Totals {
        let mut layers = [LayerTotals::default(); 8];
        for (i, l) in layers.iter_mut().enumerate() {
            *l = self.layers[i].minus(&earlier.layers[i]);
        }
        Totals {
            layers,
            options: self.options - earlier.options,
            fairness_filtered: self.fairness_filtered - earlier.fairness_filtered,
            abandoned: self.abandoned - earlier.abandoned,
            flush_steps: self.flush_steps - earlier.flush_steps,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        for (l, o) in self.layers.iter_mut().zip(&other.layers) {
            l.calls += o.calls;
            l.sampled += o.sampled;
            l.net_ns += o.net_ns;
        }
        self.options += other.options;
        self.fairness_filtered += other.fairness_filtered;
        self.abandoned += other.abandoned;
        self.flush_steps += other.flush_steps;
    }
}

/// One sampled call: offset from the pass start and duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Span {
    /// Seconds since the pass started.
    pub start_s: f64,
    /// Duration in nanoseconds (timer cost not subtracted).
    pub ns: f64,
}

/// Uniform sample of at most [`RESERVOIR`] spans (Vitter's algorithm R).
#[derive(Debug, Clone, Default)]
pub(crate) struct Reservoir {
    /// The kept spans.
    pub spans: Vec<Span>,
    seen: u64,
}

/// Scheduler traffic of one recorded execution.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    threads: usize,
    es0: Option<TidSet>,
    pending: Option<(ThreadId, bool, usize)>,
    steps: Vec<TapeStep>,
}

#[derive(Debug, Clone)]
struct TapeStep {
    thread: ThreadId,
    yielded: bool,
    threads_after: usize,
    es_after: TidSet,
}

/// The shared sink of a traced search: counters, the sampler, span
/// reservoirs and recorded scheduler tapes.
pub struct Recorder {
    calls: [Cell<u64>; 8],
    sampled: [Cell<u64>; 8],
    net_ns: [Cell<f64>; 8],
    next_sample: [Cell<u64>; 8],
    rng: Cell<u64>,
    timer_ns: Cell<f64>,
    epoch: Cell<Instant>,
    options: Cell<u64>,
    fairness_filtered: Cell<u64>,
    abandoned: Cell<u64>,
    flush_steps: Cell<u64>,
    reservoirs: RefCell<[Reservoir; 8]>,
    taping: Cell<bool>,
    tape: RefCell<Tape>,
    tapes: RefCell<Vec<Tape>>,
}

impl Recorder {
    /// A recorder whose sampling decisions follow from `seed`.
    pub fn new(seed: u64) -> Rc<Recorder> {
        Rc::new(Recorder::with_timer_cost(seed, timer_cost_ns()))
    }

    fn with_timer_cost(seed: u64, timer_ns: f64) -> Recorder {
        let rec = Recorder {
            calls: Default::default(),
            sampled: Default::default(),
            net_ns: Default::default(),
            next_sample: Default::default(),
            rng: Cell::new(seed ^ 0x7261_6365),
            timer_ns: Cell::new(timer_ns),
            epoch: Cell::new(Instant::now()),
            options: Cell::new(0),
            fairness_filtered: Cell::new(0),
            abandoned: Cell::new(0),
            flush_steps: Cell::new(0),
            reservoirs: RefCell::default(),
            taping: Cell::new(false),
            tape: RefCell::default(),
            tapes: RefCell::default(),
        };
        for next in &rec.next_sample {
            next.set(rec.gap());
        }
        rec
    }

    /// The cost of one empty timed call, as last calibrated.
    pub fn timer_ns(&self) -> f64 {
        self.timer_ns.get()
    }

    fn next(&self) -> u64 {
        let mut s = self.rng.get();
        let v = splitmix(&mut s);
        self.rng.set(s);
        v
    }

    /// A uniform draw from `0..n` (multiply-shift; no division).
    fn below(&self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Calls until the next timed one of a layer: uniform on
    /// `1..2·SAMPLE_ONE_IN`, mean [`SAMPLE_ONE_IN`].
    fn gap(&self) -> u64 {
        1 + self.below(2 * SAMPLE_ONE_IN - 1)
    }

    /// Runs `f` as one call of `layer`: always counted, timed when the
    /// layer's next sample is due. Timed and untimed calls run the same
    /// inlined code for `f`, so a timed call is not a colder copy.
    #[inline(always)]
    pub fn call<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let i = layer as usize;
        let n = self.calls[i].get() + 1;
        self.calls[i].set(n);
        let start = (n == self.next_sample[i].get()).then(warm_now);
        let r = f();
        if let Some(start) = start {
            self.record(layer, start, Instant::now());
        }
        r
    }

    #[cold]
    #[inline(never)]
    fn record(&self, layer: Layer, start: Instant, end: Instant) {
        let i = layer as usize;
        self.next_sample[i].set(self.calls[i].get() + self.gap());
        // A preempted call would count its whole time slice, scaled up
        // by the sampling rate; no layer call legitimately takes this long.
        let ns = (end.duration_since(start).as_secs_f64() * 1e9).min(MAX_SAMPLE_NS);
        self.sampled[i].set(self.sampled[i].get() + 1);
        self.net_ns[i].set(self.net_ns[i].get() + ns - self.timer_ns.get());
        let span = Span {
            start_s: start.duration_since(self.epoch.get()).as_secs_f64(),
            ns,
        };
        let mut reservoirs = self.reservoirs.borrow_mut();
        let r = &mut reservoirs[i];
        r.seen += 1;
        if r.spans.len() < RESERVOIR {
            r.spans.push(span);
        } else {
            let j = self.below(r.seen) as usize;
            if j < RESERVOIR {
                r.spans[j] = span;
            }
        }
    }

    /// Every counter as of now.
    pub fn totals(&self) -> Totals {
        let mut layers = [LayerTotals::default(); 8];
        for (i, l) in layers.iter_mut().enumerate() {
            *l = LayerTotals {
                calls: self.calls[i].get(),
                sampled: self.sampled[i].get(),
                net_ns: self.net_ns[i].get(),
            };
        }
        Totals {
            layers,
            options: self.options.get(),
            fairness_filtered: self.fairness_filtered.get(),
            abandoned: self.abandoned.get(),
            flush_steps: self.flush_steps.get(),
        }
    }

    /// Starts a pass: recalibrates the timer cost, which drifts with
    /// the machine's load, and counts span offsets from now.
    pub(crate) fn begin_pass(&self) {
        self.timer_ns.set(timer_cost_ns());
        self.epoch.set(Instant::now());
    }

    /// Ends a pass, handing back its span reservoirs and tapes.
    pub(crate) fn end_pass(&self) -> ([Reservoir; 8], Vec<Tape>) {
        self.finish_tape();
        let reservoirs = std::mem::take(&mut *self.reservoirs.borrow_mut());
        let tapes = std::mem::take(&mut *self.tapes.borrow_mut());
        (reservoirs, tapes)
    }

    fn finish_tape(&self) {
        if self.taping.replace(false) {
            let tape = std::mem::take(&mut *self.tape.borrow_mut());
            if !tape.steps.is_empty() {
                self.tapes.borrow_mut().push(tape);
            }
        }
    }

    /// An execution starts on a system with `threads` threads.
    fn begin_execution(&self, threads: usize) {
        self.finish_tape();
        if self.below(TAPE_ONE_IN) == 0 {
            self.taping.set(true);
            *self.tape.borrow_mut() = Tape {
                threads,
                ..Tape::default()
            };
        }
    }

    fn tape_enabled(&self, es: &TidSet) {
        if !self.taping.get() {
            return;
        }
        let mut tape = self.tape.borrow_mut();
        if tape.es0.is_none() {
            tape.es0 = Some(es.clone());
        } else if let Some((thread, yielded, threads_after)) = tape.pending.take() {
            tape.steps.push(TapeStep {
                thread,
                yielded,
                threads_after,
                es_after: es.clone(),
            });
        }
    }

    fn tape_step(&self, thread: ThreadId, yielded: bool, threads_after: usize) {
        if self.taping.get() {
            self.tape.borrow_mut().pending = Some((thread, yielded, threads_after));
        }
    }
}

/// Reads the clock twice and keeps the second reading: the first pulls
/// the clock's code and data into cache, so a rare timed call pays the
/// same timer cost as the calibration loop does.
#[inline(never)]
fn warm_now() -> Instant {
    black_box(Instant::now());
    Instant::now()
}

/// The cost of timing an empty call: the median of a thousand empty
/// calls timed by [`Recorder::call`] itself, so the timer sits behind
/// the same branches as in a real timed call.
fn timer_cost_ns() -> f64 {
    let probe = Recorder::with_timer_cost(0, 0.0);
    while probe.sampled[0].get() < 1_000 {
        probe.call(Layer::Step, || black_box(()));
    }
    let spans = &probe.reservoirs.borrow()[0].spans;
    median(&spans.iter().map(|s| s.ns).collect::<Vec<_>>())
}

/// A transition system whose layer calls are counted and sampled.
pub(crate) struct Traced<P> {
    inner: P,
    rec: Rc<Recorder>,
}

impl<P: TransitionSystem> Traced<P> {
    /// Wraps a freshly built system.
    pub fn new(inner: P, rec: Rc<Recorder>) -> Self {
        rec.begin_execution(inner.thread_count());
        Traced { inner, rec }
    }
}

impl<P: TransitionSystem> TransitionSystem for Traced<P> {
    // Trivial accessors and per-option queries used only to build the
    // option list are left untimed: their cost is part of the
    // explorer's own time.
    fn thread_count(&self) -> usize {
        self.inner.thread_count()
    }

    fn branching(&self, t: ThreadId) -> usize {
        self.inner.branching(t)
    }

    fn is_flush(&self, t: ThreadId) -> bool {
        self.inner.is_flush(t)
    }

    fn enabled(&self, t: ThreadId) -> bool {
        self.rec.call(Layer::Enabled, || self.inner.enabled(t))
    }

    fn enabled_set(&self) -> TidSet {
        self.rec.call(Layer::Enabled, || self.inner.enabled_set())
    }

    fn enabled_set_into(&self, out: &mut TidSet) {
        self.rec
            .call(Layer::Enabled, || self.inner.enabled_set_into(out));
        self.rec.tape_enabled(out);
    }

    fn is_yielding(&self, t: ThreadId) -> bool {
        self.rec.call(Layer::Enabled, || self.inner.is_yielding(t))
    }

    fn reset_from(&mut self, template: &Self) -> bool {
        let pooled = self
            .rec
            .call(Layer::Reset, || self.inner.reset_from(&template.inner));
        self.rec.begin_execution(self.inner.thread_count());
        pooled
    }

    fn step(&mut self, t: ThreadId, choice: u32) -> StepKind {
        if self.inner.is_flush(t) {
            self.rec.flush_steps.set(self.rec.flush_steps.get() + 1);
        }
        let kind = self.rec.call(Layer::Step, || self.inner.step(t, choice));
        self.rec
            .tape_step(t, kind.is_yield(), self.inner.thread_count());
        kind
    }

    fn footprint(&self, t: ThreadId) -> Footprint {
        self.rec.call(Layer::Footprint, || self.inner.footprint(t))
    }

    fn footprint_into(&self, t: ThreadId, fp: &mut Footprint) {
        self.rec
            .call(Layer::Footprint, || self.inner.footprint_into(t, fp))
    }

    fn dependent(&self, a: ThreadId, b: ThreadId) -> bool {
        self.rec
            .call(Layer::Footprint, || self.inner.dependent(a, b))
    }

    fn status(&self) -> SystemStatus {
        self.rec.call(Layer::Status, || self.inner.status())
    }

    fn fingerprint(&self) -> u64 {
        self.rec
            .call(Layer::Fingerprint, || self.inner.fingerprint())
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.inner.state_bytes()
    }

    fn state_bytes_into(&self, out: &mut Vec<u8>) {
        self.inner.state_bytes_into(out)
    }

    fn describe_op(&self, t: ThreadId) -> String {
        self.inner.describe_op(t)
    }

    fn thread_name(&self, t: ThreadId) -> String {
        self.inner.thread_name(t)
    }
}

/// A strategy whose decisions are counted and sampled.
pub(crate) struct TracedStrategy<St> {
    inner: St,
    rec: Rc<Recorder>,
}

impl<St: Strategy> TracedStrategy<St> {
    /// Wraps `inner`.
    pub fn new(inner: St, rec: Rc<Recorder>) -> Self {
        TracedStrategy { inner, rec }
    }
}

impl<St: Strategy> Strategy for TracedStrategy<St> {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        let rec = &self.rec;
        rec.options
            .set(rec.options.get() + point.options.len() as u64);
        if point.fairness_filtered {
            rec.fairness_filtered.set(rec.fairness_filtered.get() + 1);
        }
        let decision = rec.call(Layer::Pick, || self.inner.pick(point));
        if decision.is_none() {
            rec.abandoned.set(rec.abandoned.get() + 1);
        }
        decision
    }

    fn on_execution_end(&mut self) -> bool {
        self.rec.call(Layer::End, || self.inner.on_execution_end())
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }

    fn snapshot(&self) -> Option<StrategySnapshot> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<(), String> {
        self.inner.restore(snapshot)
    }
}

/// Per-call cost of the fair scheduler, from replayed tapes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct FairPrice {
    /// Nanoseconds per step for `schedulable_into` + `grow` +
    /// `on_scheduled` (scheduler construction amortized in).
    pub update_ns: f64,
    /// Nanoseconds per `state_fingerprint` call.
    pub fingerprint_ns: f64,
    /// Steps the tapes hold.
    pub steps: u64,
}

/// Replays every tape through a fresh [`FairScheduler`] (the paper's
/// `k = 1`), optionally fingerprinting the scheduler after every step as
/// cycle detection does. Returns a checksum so the work cannot be
/// optimized away.
fn replay(tapes: &[Tape], fingerprint: bool) -> u64 {
    let mut sum = 0u64;
    let mut schedulable = TidSet::new();
    for tape in tapes {
        let Some(es0) = &tape.es0 else { continue };
        let mut fair = FairScheduler::new(tape.threads);
        let mut es = es0;
        for step in &tape.steps {
            fair.schedulable_into(es, &mut schedulable);
            fair.grow(step.threads_after);
            fair.on_scheduled(step.thread, es, &step.es_after, step.yielded);
            if fingerprint {
                sum = sum.wrapping_add(fair.state_fingerprint());
            }
            sum = sum.wrapping_add(schedulable.len() as u64);
            es = &step.es_after;
        }
    }
    sum
}

/// Prices the fair scheduler by replaying `tapes`: the update cost per
/// step, and the fingerprint cost as the difference between replays
/// with and without fingerprints. Each replay is repeated until it has
/// run for 20 ms and its median repetition is used.
pub(crate) fn price_fair(tapes: &[Tape]) -> FairPrice {
    let steps: u64 = tapes.iter().map(|t| t.steps.len() as u64).sum();
    if steps == 0 {
        return FairPrice::default();
    }
    let per_step_ns = |fingerprint: bool| {
        let mut times = Vec::new();
        let started = Instant::now();
        while times.len() < 5 || started.elapsed() < Duration::from_millis(20) {
            let t = Instant::now();
            black_box(replay(black_box(tapes), fingerprint));
            times.push(t.elapsed().as_nanos() as f64 / steps as f64);
        }
        median(&times)
    };
    let update_ns = per_step_ns(false);
    let with_fp = per_step_ns(true);
    FairPrice {
        update_ns,
        fingerprint_ns: (with_fp - update_ns).max(0.0),
        steps,
    }
}
