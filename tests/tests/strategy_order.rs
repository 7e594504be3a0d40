//! Enumeration-order golden test for the systematic strategies.
//!
//! The other strategy tests pin what a search finds and how many
//! executions it spends; none of them notices a search that visits the
//! same executions in a different order, or that answers the snapshot
//! hooks differently. This test records every call the explorer makes
//! into `dfs` and `cb` — each pick with its `(execution, depth,
//! decision)`, each `on_execution_end`, `replay_depth`, `resume_at` and
//! `revisits` with its answer — folds the record into a digest, and
//! compares it with a pinned table. A change in exploration order, in
//! the sleep sets, the shard slice, the horizon's random tail or the
//! prefix-snapshot hooks changes a digest.
//!
//! Each row covers one search on one system, folded over the whole
//! search and root shards 0/2 and 1/2, each with pooling on and off.

use std::cell::RefCell;
use std::rc::Rc;

use chess_core::strategy::{ContextBounded, Dfs, SchedulePoint, Strategy};
use chess_core::{Config, Decision, Explorer, ShardSpec, StrategySnapshot, TransitionSystem};
use chess_kernel::{Effects, GuestThread, Kernel, MemoryModel, OpDesc, OpResult, StateWriter};
use chess_workloads::litmus::{iriw, store_buffering};
use chess_workloads::simple::{locked_counter, racy_counter};
use chess_workloads::spinloop::spinloop;

/// Executions per search: small enough for debug builds, large enough to
/// backtrack deep into every tree.
const BUDGET: u64 = 400;

/// 64-bit FNV-1a over little-endian words: stable across toolchains,
/// unlike the standard library's hashers.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The running digest of one search, shared with the explorer's
/// strategy.
#[derive(Debug)]
struct Record {
    hash: Fnv,
    execution: u64,
}

/// Forwards every [`Strategy`] hook to `inner` and folds each call and
/// its answer into the shared [`Record`].
struct Recording<S> {
    inner: S,
    record: Rc<RefCell<Record>>,
}

impl<S> Recording<S> {
    fn log(&self, words: &[u64]) {
        let mut r = self.record.borrow_mut();
        let execution = r.execution;
        r.hash.word(execution);
        for &w in words {
            r.hash.word(w);
        }
    }
}

fn decision_word(d: Option<Decision>) -> u64 {
    d.map_or(u64::MAX, |d| {
        ((d.thread.index() as u64) << 32) | u64::from(d.choice)
    })
}

impl<S: Strategy> Strategy for Recording<S> {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        let d = self.inner.pick(point);
        self.log(&[1, point.depth as u64, decision_word(d)]);
        d
    }

    fn on_execution_end(&mut self) -> bool {
        let more = self.inner.on_execution_end();
        self.log(&[2, u64::from(more)]);
        self.record.borrow_mut().execution += 1;
        more
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

    fn replay_depth(&self) -> usize {
        let depth = self.inner.replay_depth();
        self.log(&[3, depth as u64]);
        depth
    }

    fn resume_at(&mut self, depth: usize) {
        self.inner.resume_at(depth);
        self.log(&[4, depth as u64]);
    }

    fn revisits(&self, depth: usize) -> bool {
        let open = self.inner.revisits(depth);
        self.log(&[5, depth as u64, u64::from(open)]);
        open
    }
}

/// A thread taking `steps` local steps after an optional `width`-way
/// data choice.
#[derive(Clone)]
struct Worker {
    steps: u8,
    width: u8,
    pc: u8,
    chosen: Option<u32>,
}

impl Worker {
    fn new(steps: u8, width: u8) -> Self {
        Worker {
            steps,
            width,
            pc: 0,
            chosen: None,
        }
    }
}

impl GuestThread<()> for Worker {
    fn next_op(&self, _: &()) -> OpDesc {
        if self.width > 0 && self.chosen.is_none() {
            OpDesc::Choose(u32::from(self.width))
        } else if self.pc < self.steps {
            OpDesc::Local
        } else {
            OpDesc::Finished
        }
    }

    fn on_op(&mut self, r: OpResult, _: &mut (), _: &mut Effects<()>) {
        if self.width > 0 && self.chosen.is_none() {
            self.chosen = Some(r.as_choice());
        } else {
            self.pc += 1;
        }
    }

    fn capture(&self, w: &mut StateWriter) {
        w.write_u8(self.pc);
        w.write_u32(self.chosen.unwrap_or(u32::MAX));
    }

    fn box_clone(&self) -> Box<dyn GuestThread<()>> {
        Box::new(self.clone())
    }
}

/// Three threads of local steps, two of them opening with a data choice.
fn workers() -> Kernel<()> {
    let mut k = Kernel::new(());
    k.spawn(Worker::new(2, 2));
    k.spawn(Worker::new(2, 0));
    k.spawn(Worker::new(1, 3));
    k
}

/// The searches of the table, by row label. `shard` restricts the
/// search to one slice of the root decisions.
fn strategy(label: &str, shard: ShardSpec) -> Box<dyn Strategy> {
    match label {
        "dfs" => Box::new(Dfs::new().sharded(shard)),
        "dfs+sleep" => Box::new(Dfs::with_sleep_sets().sharded(shard)),
        "cb0" => Box::new(ContextBounded::new(0).sharded(shard)),
        "cb1" => Box::new(ContextBounded::new(1).sharded(shard)),
        "cb2" => Box::new(ContextBounded::new(2).sharded(shard)),
        "cb2+sleep" => Box::new(ContextBounded::with_sleep_sets(2).sharded(shard)),
        "dfs(db=3)" => Box::new(Dfs::with_horizon(3).with_seed(7).sharded(shard)),
        "cb1(db=3)" => Box::new(
            ContextBounded::with_horizon(1, 3)
                .with_seed(7)
                .sharded(shard),
        ),
        other => panic!("unknown search {other}"),
    }
}

const SEARCHES: [&str; 8] = [
    "dfs",
    "dfs+sleep",
    "cb0",
    "cb1",
    "cb2",
    "cb2+sleep",
    "dfs(db=3)",
    "cb1(db=3)",
];

/// Digest of one search on one system over the whole search and root
/// shards 0/2 and 1/2, each with pooling on and off, together with the
/// executions all six runs spent.
fn digest<P, F>(factory: F, label: &str) -> (u64, u64)
where
    P: TransitionSystem,
    F: Fn() -> P,
{
    let record = Rc::new(RefCell::new(Record {
        hash: Fnv::new(),
        execution: 0,
    }));
    let mut executions = 0;
    for shard in [
        ShardSpec::WHOLE,
        ShardSpec::new(0, 2).unwrap(),
        ShardSpec::new(1, 2).unwrap(),
    ] {
        for pooling in [true, false] {
            record.borrow_mut().execution = 0;
            let strategy = Recording {
                inner: strategy(label, shard),
                record: Rc::clone(&record),
            };
            let config = Config::fair()
                .with_stop_on_error(false)
                .with_max_executions(BUDGET)
                .with_pooling(pooling);
            let report = Explorer::new(&factory, strategy, config).run();
            executions += report.stats.executions;
            record.borrow_mut().hash.word(report.stats.executions);
        }
    }
    let hash = record.borrow().hash.0;
    (hash, executions)
}

/// Every `(system, search)` row's digest and execution count.
fn table() -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();
    for label in SEARCHES {
        let mut row = |system: &str, (hash, executions): (u64, u64)| {
            rows.push((format!("{system} {label}"), hash, executions));
        };
        row("workers", digest(workers, label));
        row("counter/racy", digest(|| racy_counter(3), label));
        row("counter/locked", digest(|| locked_counter(2), label));
        row("spinloop", digest(|| spinloop(2, true), label));
        row(
            "sb/tso",
            digest(|| store_buffering(MemoryModel::Tso), label),
        );
        row("iriw/tso", digest(|| iriw(MemoryModel::Tso), label));
    }
    rows
}

/// Pinned digests and execution counts, one row per `(system, search)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("workers dfs", 0xe0802cf561838d34, 2320),
    ("counter/racy dfs", 0x958a2376da853457, 2400),
    ("counter/locked dfs", 0xdcd0b758b2e8c589, 48),
    ("spinloop dfs", 0x5ddec24989c5057b, 1604),
    ("sb/tso dfs", 0xef98ffe5315f1913, 296),
    ("iriw/tso dfs", 0x40167c7104d1c42e, 2400),
    ("workers dfs+sleep", 0xe0802cf561838d34, 2320),
    ("counter/racy dfs+sleep", 0xde677777f2a8feb0, 1926),
    ("counter/locked dfs+sleep", 0x2701a96312ee4b8e, 36),
    ("spinloop dfs+sleep", 0x5ddec24989c5057b, 1604),
    ("sb/tso dfs+sleep", 0xebce204196781399, 80),
    ("iriw/tso dfs+sleep", 0xf71172358a818d6b, 2352),
    ("workers cb0", 0x63a42baf2ee8f4af, 144),
    ("counter/racy cb0", 0x9dde0f4d45fa7d5b, 24),
    ("counter/locked cb0", 0x39d7c166cecceae5, 8),
    ("spinloop cb0", 0xe0a33a068d4334e6, 24),
    ("sb/tso cb0", 0x49b04888b4372ba0, 72),
    ("iriw/tso cb0", 0xf5803a7cd5c99e7a, 1376),
    ("workers cb1", 0x9ecb8bab25ff9a68, 720),
    ("counter/racy cb1", 0x6093c3b02bb32a55, 168),
    ("counter/locked cb1", 0x9932f73cf3c08a85, 16),
    ("spinloop cb1", 0x8582edc55f9b7b9a, 184),
    ("sb/tso cb1", 0x593ccdbdb40decbc, 184),
    ("iriw/tso cb1", 0x665e3d1c3739044e, 2400),
    ("workers cb2", 0x8e0f514787b935f1, 1904),
    ("counter/racy cb2", 0xc7967c5d712f9a3d, 768),
    ("counter/locked cb2", 0x0c9ab7a092aa3745, 48),
    ("spinloop cb2", 0x97ec825635d8cec6, 648),
    ("sb/tso cb2", 0x07283f9ded4d5b84, 296),
    ("iriw/tso cb2", 0x99803f7c67738050, 2400),
    ("workers cb2+sleep", 0x8e0f514787b935f1, 1904),
    ("counter/racy cb2+sleep", 0x27f5221fbe91f82b, 440),
    ("counter/locked cb2+sleep", 0x16dd5c61b3c17b35, 32),
    ("spinloop cb2+sleep", 0x97ec825635d8cec6, 648),
    ("sb/tso cb2+sleep", 0x10b559e77caa09b9, 80),
    ("iriw/tso cb2+sleep", 0xa92b56a0379d8e77, 2352),
    ("workers dfs(db=3)", 0xa33bc0acef4c536a, 416),
    ("counter/racy dfs(db=3)", 0xb5fd4dec43af0411, 108),
    ("counter/locked dfs(db=3)", 0xd73d3f385c9ceae5, 8),
    ("spinloop dfs(db=3)", 0x82c215f2992eb7c2, 72),
    ("sb/tso dfs(db=3)", 0x1f67a2dfadbe8482, 64),
    ("iriw/tso dfs(db=3)", 0xd3105bebddb3d4f9, 240),
    ("workers cb1(db=3)", 0x42a8e9d5d8e34cdb, 184),
    ("counter/racy cb1(db=3)", 0x8e5acfb17b46e82c, 60),
    ("counter/locked cb1(db=3)", 0xa301782d6547b925, 8),
    ("spinloop cb1(db=3)", 0xcb53adaaa286fd23, 56),
    ("sb/tso cb1(db=3)", 0x17cc5afbca65fde4, 56),
    ("iriw/tso cb1(db=3)", 0xa5d91bbe4126bddd, 216),
];

#[test]
fn exploration_order_matches_the_pinned_digests() {
    let actual = table();
    let rendered: String = actual
        .iter()
        .map(|(row, hash, executions)| format!("    ({row:?}, {hash:#018x}, {executions}),\n"))
        .collect();
    let expected: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(row, hash, executions)| (row.to_string(), hash, executions))
        .collect();
    assert!(
        actual == expected,
        "exploration order changed; the table now reads:\n{rendered}"
    );
}
