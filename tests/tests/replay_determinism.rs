//! Stateless model checking stands on deterministic re-execution: the
//! same schedule must reproduce the same states, outcomes and
//! counterexamples, across every workload.

use chess_core::strategy::{FixedSchedule, RandomWalk};
use chess_core::{
    generate_system, replay, Config, Explorer, FuzzConfig, FuzzOp, FuzzSystem, Reduction, Schedule,
    Search, SearchOutcome, ShardRunner, SystemStatus, TransitionSystem,
};
use chess_workloads::channels::{fifo_pipeline, FifoConfig};
use chess_workloads::miniboot::{miniboot, BootConfig};
use chess_workloads::philosophers::{philosophers, PhilosophersConfig};
use chess_workloads::promise::{promises, PromiseConfig};
use chess_workloads::simple::racy_counter;
use chess_workloads::workerpool::{worker_pool, PoolConfig};
use chess_workloads::wsq::{wsq, WsqConfig};

/// Runs one random execution, recording the schedule and per-step
/// fingerprints; replays it and checks the fingerprints match exactly.
fn assert_replays<P, F>(mut factory: F)
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    use chess_core::Decision;

    let mut sys = factory();
    let mut schedule: Vec<Decision> = Vec::new();
    let mut fingerprints = vec![sys.fingerprint()];
    let mut rng: u64 = 0xDEADBEEF;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for _ in 0..400 {
        if !sys.status().is_running() {
            break;
        }
        let es = sys.enabled_set();
        let options: Vec<_> = es.iter().collect();
        let t = options[(next() % options.len() as u64) as usize];
        let branch = (next() % sys.branching(t) as u64) as u32;
        sys.step(t, branch);
        schedule.push(Decision {
            thread: t,
            choice: branch,
        });
        fingerprints.push(sys.fingerprint());
    }

    // Replay on a fresh instance.
    let mut sys2 = factory();
    let mut fingerprints2 = vec![sys2.fingerprint()];
    for d in &schedule {
        sys2.step(d.thread, d.choice);
        fingerprints2.push(sys2.fingerprint());
    }
    assert_eq!(fingerprints, fingerprints2, "nondeterministic replay");
    assert_eq!(sys.state_bytes(), sys2.state_bytes());
}

#[test]
fn all_workloads_replay_deterministically() {
    assert_replays(|| racy_counter(3));
    assert_replays(|| philosophers(PhilosophersConfig::table2(3)));
    assert_replays(|| wsq(WsqConfig::table2(2)));
    assert_replays(|| promises(PromiseConfig::correct()));
    assert_replays(|| worker_pool(PoolConfig::correct()));
    assert_replays(|| fifo_pipeline(FifoConfig::correct_fanin()));
    assert_replays(|| miniboot(BootConfig::small()));
}

/// A counterexample's schedule, replayed via the public `replay` helper,
/// reproduces the violation.
#[test]
fn counterexample_schedules_reproduce_violations() {
    let factory = || racy_counter(2);
    let report = Explorer::new(factory, RandomWalk::new(11), Config::fair()).run();
    let cex = match report.outcome {
        SearchOutcome::SafetyViolation(c) => c,
        o => panic!("expected violation, got {o:?}"),
    };
    let mut sys = factory();
    let status = replay(&mut sys, &cex.schedule);
    assert!(
        matches!(status, SystemStatus::Violation(..)),
        "replay produced {status:?}"
    );
}

/// The FixedSchedule strategy drives the explorer through exactly the
/// recorded execution.
#[test]
fn fixed_schedule_reproduces_search_outcome() {
    let factory = || racy_counter(2);
    let report = Explorer::new(factory, RandomWalk::new(11), Config::fair()).run();
    let cex = report.outcome.counterexample().unwrap().clone();

    let config = Config::fair();
    let report2 = Explorer::new(factory, FixedSchedule::new(cex.schedule.clone()), config).run();
    match report2.outcome {
        SearchOutcome::SafetyViolation(c2) => {
            assert_eq!(c2.schedule, cex.schedule);
            assert_eq!(c2.message, cex.message);
        }
        o => panic!("replay search produced {o:?}"),
    }
}

/// Rendering a counterexample twice gives identical text (pure replay).
#[test]
fn render_is_pure() {
    let factory = || racy_counter(2);
    let report = Explorer::new(factory, RandomWalk::new(3), Config::fair()).run();
    let cex = report.outcome.counterexample().unwrap();
    assert_eq!(cex.render(factory), cex.render(factory));
}

/// Replays `schedule` on a fresh system twice, recording the full
/// byte-level state trace of each run, and requires the two traces to be
/// identical (the fuzzer's "byte-identical replay" oracle).
fn assert_byte_identical_replays<P, F>(mut factory: F, schedule: &Schedule)
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    let trace = |sys: &mut P| {
        let mut bytes = vec![sys.state_bytes()];
        for d in schedule {
            sys.step(d.thread, d.choice);
            bytes.push(sys.state_bytes());
        }
        bytes
    };
    let (mut a, mut b) = (factory(), factory());
    assert_eq!(
        trace(&mut a),
        trace(&mut b),
        "two replays of the same schedule diverged at the byte level"
    );
}

/// A fuzzer-generated system with an injected safety bug found through
/// each of the shard runner's searches (DFS and context-bounded root
/// slices, seed-sharded random walks): every search's counterexample
/// replays byte-identically twice through [`FixedSchedule`], and the
/// explorer reproduces the same outcome.
#[test]
fn fuzzer_counterexamples_replay_across_parallel_modes() {
    let config = FuzzConfig {
        inject_safety: true,
        yield_percent: 100,
        ..FuzzConfig::default().with_seed(77)
    };
    let sys = generate_system(&config);
    let search = Config::fair().with_depth_bound(10_000);

    let sharded = |s| {
        ShardRunner::new(|| sys.clone(), search.clone(), s)
            .run_shards(2)
            .outcome
    };
    let outcomes = [
        ("dfs", sharded(Search::Dfs(Reduction::None))),
        ("random", sharded(Search::Random(7))),
        ("cb", sharded(Search::Cb(4, Reduction::None))),
    ];
    for (mode, outcome) in outcomes {
        let SearchOutcome::SafetyViolation(cex) = outcome else {
            panic!("{mode}: expected the injected safety violation, got {outcome:?}");
        };
        assert_byte_identical_replays(|| sys.clone(), &cex.schedule);

        let replayed = Explorer::new(
            || sys.clone(),
            FixedSchedule::new(cex.schedule.clone()),
            search.clone(),
        )
        .run();
        let SearchOutcome::SafetyViolation(cex2) = replayed.outcome else {
            panic!("{mode}: FixedSchedule did not reproduce the violation");
        };
        assert_eq!(cex2.schedule, cex.schedule, "{mode}: schedule changed");
        assert_eq!(cex2.message, cex.message, "{mode}: message changed");
    }
}

/// Golden output: rendering a counterexample on a hand-built fuzz
/// system is stable down to the exact text. Guards the corpus/report
/// format against accidental drift.
#[test]
fn render_golden_output_on_handbuilt_fuzz_system() {
    // The injected-safety pattern, pinned by hand: f0 increments then
    // decrements counter 0; f1 asserts it is zero in between.
    let scripts = vec![
        vec![FuzzOp::Inc(0), FuzzOp::Step, FuzzOp::Dec(0)],
        vec![FuzzOp::Step, FuzzOp::AssertZero(0)],
    ];
    let sys = FuzzSystem::from_scripts(scripts, 1, 0, 0);
    let report = Explorer::new(
        || sys.clone(),
        chess_core::strategy::Dfs::new(),
        Config::fair(),
    )
    .run();
    let SearchOutcome::SafetyViolation(cex) = report.outcome else {
        panic!(
            "expected the hand-built violation, got {:?}",
            report.outcome
        );
    };
    let rendered = cex.render(|| sys.clone());
    // Footprint annotations name the touched object on counter ops;
    // thread-local steps carry none.
    let golden = "\
safety violation (4 steps): f1: assert failed: c0 = 1 != 0
    0  f0               inc(c0)  [write counter0]
    1  f0               step
    2  f1               step
    3  f1               assert(c0 == 0)  [read counter0]
  =>  violation in t1: assert failed: c0 = 1 != 0
";
    assert_eq!(rendered, golden, "rendered:\n{rendered}");
}
