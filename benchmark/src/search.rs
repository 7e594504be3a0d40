//! The three search workloads: closed loops of in-process searches, one
//! at a time on one thread, each search's verdict checked against
//! `expected.txt`.

use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use chess_core::strategy::{ContextBounded, Dfs, RandomWalk, Strategy};
use chess_core::{Config, Explorer, SearchReport};
use chess_kernel::{Capture, Kernel, MemoryModel};
use chess_workloads::channels::{fifo_pipeline, ChannelBug, FifoConfig};
use chess_workloads::litmus::{
    dekker, dekker_fenced, iriw, load_buffering, message_passing, store_buffering,
};
use chess_workloads::miniboot::{miniboot, BootConfig};
use chess_workloads::treiber::{treiber_stack, TreiberConfig};
use chess_workloads::wsq::{wsq, WsqBug, WsqConfig};

use crate::expected::{Expected, Kind};
use crate::json::{number, quote};
use crate::report::{peak_rss_kb, Report, PER_LAYER};
use crate::stats::{derive, median, weighted_median};
use crate::trace::{
    price_fair, Layer, Recorder, Reservoir, Tape, Totals, Traced, TracedStrategy, SAMPLE_ONE_IN,
};
use crate::Options;

/// Random walks per `random-hunt` pass.
const WALKS_PER_PASS: u64 = 100;
/// Repetitions of each litmus and miniboot search in a `reduced-verify`
/// pass, so these millisecond searches add up to a measurable verdict.
const SHORT_REPEAT: u32 = 30;
/// Executions each case runs during set-up.
const WARM_EXECUTIONS: u64 = 200;
/// Cases warmed up during set-up.
const WARM_CASES: usize = 16;

type Runner = dyn Fn(Option<&Rc<Recorder>>, Option<u64>) -> SearchReport;

/// One search: a factory, a strategy and a configuration, run
/// `repeat` times per pass as one verdict.
pub struct Case {
    /// The case's name in `expected.txt`.
    pub name: &'static str,
    /// Runs per pass.
    pub repeat: u32,
    runner: Box<Runner>,
}

impl Case {
    /// Runs the search once, traced into `rec` when given.
    pub fn run(&self, rec: Option<&Rc<Recorder>>) -> SearchReport {
        (self.runner)(rec, None)
    }

    /// Runs the search once with at most `cap` executions.
    pub fn run_capped(&self, rec: Option<&Rc<Recorder>>, cap: u64) -> SearchReport {
        (self.runner)(rec, Some(cap))
    }
}

fn case<S, F, G>(name: &'static str, factory: F, strategy: G, config: Config) -> Case
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + 'static,
    G: Fn() -> Box<dyn Strategy> + 'static,
{
    // The fair-scheduler replay prices Algorithm 1 with k = 1.
    assert!(config.fairness.is_some_and(|f| f.k == 1));
    Case {
        name,
        repeat: 1,
        runner: Box::new(move |rec, cap| {
            let mut config = config.clone();
            if let Some(cap) = cap {
                let max = config.max_executions.map_or(cap, |m| m.min(cap));
                config = config.with_max_executions(max);
            }
            match rec {
                None => Explorer::new(&factory, strategy(), config).run(),
                Some(rec) => Explorer::new(
                    || Traced::new(factory(), Rc::clone(rec)),
                    TracedStrategy::new(strategy(), Rc::clone(rec)),
                    config,
                )
                .run(),
            }
        }),
    }
}

fn boxed<St: Strategy + 'static>(s: St) -> Box<dyn Strategy> {
    Box::new(s)
}

/// The cases of one pass of `workload`, or `None` for a name that is
/// not a search workload. Only `random-hunt` uses `seed` and `pass`.
pub fn cases(workload: &str, seed: u64, pass: u64) -> Option<Vec<Case>> {
    Some(match workload {
        "table3-cb2" => table3(),
        "random-hunt" => random_hunt(seed, pass),
        "reduced-verify" => reduced_verify(),
        _ => return None,
    })
}

/// The paper's Table 3 configuration: fair context bounding with bound
/// 2, cycle detection off, run to the first bug.
fn table3() -> Vec<Case> {
    let config = Config::fair().with_detect_cycles(false);
    let cb2 = || boxed(ContextBounded::new(2));
    let wsq_bug = |name, bug| {
        case(
            name,
            move || wsq(WsqConfig::with_bug(bug)),
            cb2,
            config.clone(),
        )
    };
    let fifo_bug = |name, bug| {
        case(
            name,
            move || fifo_pipeline(FifoConfig::with_bug(bug)),
            cb2,
            config.clone(),
        )
    };
    vec![
        wsq_bug("wsq/unlocked-pop", WsqBug::UnlockedConflictPop),
        wsq_bug("wsq/unsync-steal", WsqBug::UnsynchronizedSteal),
        wsq_bug("wsq/lost-tail", WsqBug::LostTailRestore),
        fifo_bug("channels/credit-leak", ChannelBug::CreditLeak),
        fifo_bug("channels/racy-seq", ChannelBug::RacySequence),
        fifo_bug("channels/eager-shutdown", ChannelBug::EagerShutdown),
        fifo_bug("channels/draining-shutdown", ChannelBug::DrainingShutdown),
    ]
}

/// Fair random walks with cycle detection, as `fair-chess check` runs
/// them, hunting the Treiber stack's ABA bug; the walk seeds follow
/// from `seed` and `pass`.
fn random_hunt(seed: u64, pass: u64) -> Vec<Case> {
    (0..WALKS_PER_PASS)
        .map(|i| {
            let walk = derive(seed, pass, i);
            case(
                "treiber/aba",
                || treiber_stack(TreiberConfig::aba()),
                move || boxed(RandomWalk::new(walk)),
                // A walk finds the bug in a few hundred executions; the
                // cap only stops a broken checker from spinning forever.
                Config::fair().with_max_executions(100_000),
            )
        })
        .collect()
}

/// Sleep-set searches to a verdict: exhaustive searches of wsq with one
/// thief and of miniboot, a 14-thread miniboot frontier, and the litmus
/// matrix under TSO and PSO.
///
/// wsq(1) at cb:3 stands in for wsq(2) at cb:2: it exhausts in 1.6 s
/// rather than 5.3 s, so a run holds enough of its verdicts for a
/// steady median, and sleep sets save more on it (2.1x, not 1.4x).
fn reduced_verify() -> Vec<Case> {
    let mut miniboot_dfs = case(
        "miniboot/dfs",
        || miniboot(BootConfig::small()),
        || boxed(Dfs::with_sleep_sets()),
        Config::fair(),
    );
    miniboot_dfs.repeat = SHORT_REPEAT;
    let mut out = vec![
        case(
            "wsq1/cb3",
            || wsq(WsqConfig::table2(1)),
            || boxed(ContextBounded::with_sleep_sets(3)),
            Config::fair(),
        ),
        case(
            "miniboot-full/cb1",
            || miniboot(BootConfig::full()),
            || boxed(ContextBounded::with_sleep_sets(1)),
            Config::fair().with_max_executions(2_000),
        ),
        miniboot_dfs,
    ];
    type Litmus = fn(MemoryModel) -> Kernel<chess_workloads::litmus::LitmusShared>;
    use MemoryModel::{Pso, Tso};
    let tests: [(&'static str, MemoryModel, Litmus); 12] = [
        ("sb/tso", Tso, store_buffering),
        ("sb/pso", Pso, store_buffering),
        ("dekker/tso", Tso, dekker),
        ("dekker/pso", Pso, dekker),
        ("dekker-fenced/tso", Tso, dekker_fenced),
        ("dekker-fenced/pso", Pso, dekker_fenced),
        ("mp/tso", Tso, message_passing),
        ("mp/pso", Pso, message_passing),
        ("lb/tso", Tso, load_buffering),
        ("lb/pso", Pso, load_buffering),
        ("iriw/tso", Tso, iriw),
        ("iriw/pso", Pso, iriw),
    ];
    for (name, model, litmus) in tests {
        let mut c = case(
            name,
            move || litmus(model),
            || boxed(Dfs::with_sleep_sets()),
            Config::fair(),
        );
        c.repeat = SHORT_REPEAT;
        out.push(c);
    }
    out
}

/// When a run of a case started and how long it took.
#[derive(Debug, Clone, Copy)]
struct Timing {
    start_s: f64,
    wall_s: f64,
}

/// What one case did in one pass: its untraced run and, in a traced
/// run, the traced run that follows it over the same inputs.
struct CaseRecord {
    name: &'static str,
    kind: Kind,
    executions: u64,
    transitions: u64,
    plain: Timing,
    traced: Option<(Timing, Totals)>,
}

/// What one pass did.
struct PassRecord {
    index: u64,
    timing: Timing,
    cases: Vec<CaseRecord>,
    reservoirs: Option<[Reservoir; 8]>,
    tapes: Vec<Tape>,
}

impl PassRecord {
    fn executions(&self) -> u64 {
        self.cases.iter().map(|c| c.executions).sum()
    }
}

/// One run of a case, all its repeats.
struct CaseRun {
    timing: Timing,
    kind: Kind,
    executions: u64,
    transitions: u64,
    verdict: Result<(), String>,
    /// The reports with their wall clock zeroed, for comparing a traced
    /// run with an untraced one.
    reports: Vec<SearchReport>,
}

fn run_case(
    workload: &str,
    case: &Case,
    rec: Option<&Rc<Recorder>>,
    expected: &Expected,
    t0: Instant,
) -> CaseRun {
    let start = Instant::now();
    let mut run = CaseRun {
        timing: Timing {
            start_s: start.duration_since(t0).as_secs_f64(),
            wall_s: 0.0,
        },
        kind: Kind::Incomplete,
        executions: 0,
        transitions: 0,
        verdict: Ok(()),
        reports: Vec::with_capacity(case.repeat as usize),
    };
    for _ in 0..case.repeat {
        let mut r = case.run(rec);
        run.kind = Kind::of(&r.outcome);
        run.executions += r.stats.executions;
        run.transitions += r.stats.transitions;
        let check = expected.check(workload, case.name, run.kind, r.stats.executions);
        if run.verdict.is_ok() {
            run.verdict = check;
        }
        r.stats.wall = Duration::ZERO;
        run.reports.push(r);
    }
    run.timing.wall_s = start.elapsed().as_secs_f64();
    run
}

/// Runs every case of a pass, checking each verdict. With a recorder,
/// each case runs untraced and then traced, back to back, so the two
/// timings see the same machine conditions, and the traced reports
/// must equal the untraced ones.
fn run_pass(
    workload: &str,
    index: u64,
    cases: &[Case],
    rec: Option<&Rc<Recorder>>,
    expected: &Expected,
    report: &mut Report,
    t0: Instant,
) -> PassRecord {
    if let Some(rec) = rec {
        rec.begin_pass();
    }
    let start = Instant::now();
    let mut records = Vec::with_capacity(cases.len());
    for case in cases {
        let plain = run_case(workload, case, None, expected, t0);
        report.verdict(plain.verdict.clone());
        let traced = rec.map(|rec| {
            let before = rec.totals();
            let run = run_case(workload, case, Some(rec), expected, t0);
            let totals = rec.totals().minus(&before);
            report.verdict(if run.reports == plain.reports {
                run.verdict
            } else {
                Err(format!(
                    "{workload}/{}: the traced search diverged from the untraced one",
                    case.name
                ))
            });
            (run.timing, totals)
        });
        records.push(CaseRecord {
            name: case.name,
            kind: plain.kind,
            executions: plain.executions,
            transitions: plain.transitions,
            plain: plain.timing,
            traced,
        });
    }
    let timing = Timing {
        start_s: start.duration_since(t0).as_secs_f64(),
        wall_s: start.elapsed().as_secs_f64(),
    };
    let (reservoirs, tapes) = match rec {
        Some(rec) => {
            let (reservoirs, tapes) = rec.end_pass();
            (Some(reservoirs), tapes)
        }
        None => (None, Vec::new()),
    };
    PassRecord {
        index,
        timing,
        cases: records,
        reservoirs,
        tapes,
    }
}

/// Builds the cases and warms them up: the work done before the first
/// timed pass. Returns how long that took.
fn set_up(workload: &str, seed: u64) -> f64 {
    let start = Instant::now();
    let cases = cases(workload, seed, 0).expect("a search workload");
    for case in cases.iter().take(WARM_CASES) {
        std::hint::black_box(case.run_capped(None, WARM_EXECUTIONS));
    }
    start.elapsed().as_secs_f64()
}

/// Whether every pass of `workload` repeats the same searches; only
/// `random-hunt` draws new walk seeds each pass.
fn passes_repeat(workload: &str) -> bool {
    workload != "random-hunt"
}

/// Runs a search workload for `opts.seconds` and reports its metrics:
/// the end-to-end metrics untraced, or the per-layer metrics from
/// untraced and traced runs of the same cases.
///
/// The set-up is timed before the first pass and again after every
/// pass, so its samples, like the passes', spread over the whole run.
pub fn run(opts: &Options) -> Result<Report, String> {
    let t0 = Instant::now();
    let expected = Expected::load();
    let mut report = Report::default();
    let workload = opts.workload.as_str();

    let mut setups = vec![set_up(workload, opts.seed)];
    let rec = opts.trace.then(|| Recorder::new(opts.seed));
    let measuring = Instant::now();
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    for index in 0.. {
        let cases = cases(workload, opts.seed, index).expect("a search workload");
        let pass = run_pass(
            workload,
            index,
            &cases,
            rec.as_ref(),
            &expected,
            &mut report,
            t0,
        );
        walls.push(pass.timing.wall_s);
        passes.push(pass);
        if !opts.trace {
            setups.push(set_up(workload, opts.seed));
        }
        // Start another pass only if a typical one still fits.
        if measuring.elapsed().as_secs_f64() + median(&walls) > opts.seconds {
            break;
        }
    }

    if let Some(rec) = &rec {
        per_layer(&mut report, &passes);
        write_trace(opts, &passes, rec.timer_ns())?;
    } else {
        report.set_summary("setup_s", "s", &setups);
        if passes_repeat(workload) {
            // Identical passes: a pass takes each search's typical time,
            // which one slow stretch of the machine does not skew.
            let per_case: Vec<Vec<f64>> = (0..passes[0].cases.len())
                .map(|i| passes.iter().map(|p| p.cases[i].plain.wall_s).collect())
                .collect();
            let pass_s: f64 = per_case.iter().map(|t| median(t)).sum();
            report.set("pass_s", pass_s);
            report.notes.push(format!(
                "pass_s: {pass_s} s (sum of {} searches' medians over {} passes; \
                 whole passes: median {} s)",
                per_case.len(),
                passes.len(),
                median(&walls)
            ));
        } else {
            report.set_summary("pass_s", "s", &walls);
        }
        let verdicts: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.cases.iter().map(|c| c.plain.wall_s))
            .collect();
        report.set_verdict_times(&verdicts);
        let executions: Vec<f64> = passes.iter().map(|p| p.executions() as f64).collect();
        report.set_summary("executions", "count", &executions);
        report.set("peak_rss_kb", peak_rss_kb(None)?);
    }
    Ok(report)
}

/// The per-layer metrics of a traced run, per pass.
fn per_layer(report: &mut Report, passes: &[PassRecord]) {
    // The daemon's layers are not reached and read 0.
    for (name, _) in PER_LAYER {
        report.set(name, 0.0);
    }
    let n = passes.len() as f64;
    let cases = || passes.iter().flat_map(|p| &p.cases);
    let mut totals = Totals::default();
    let mut traced_wall = 0.0;
    for (timing, t) in cases().filter_map(|c| c.traced.as_ref()) {
        totals.add(t);
        traced_wall += timing.wall_s;
    }
    let plain_wall: f64 = cases().map(|c| c.plain.wall_s).sum();
    let pass_wall: f64 = passes.iter().map(|p| p.timing.wall_s).sum();
    let steps: f64 = cases().map(|c| c.transitions as f64).sum();
    let executions: f64 = cases().map(|c| c.executions as f64).sum();

    let mut layer_busy = 0.0;
    for layer in Layer::ALL {
        let t = totals.layer(layer);
        let busy_s = t.busy_s();
        layer_busy += busy_s;
        let [calls, busy, ns] = layer.metrics();
        report.set(calls, t.calls as f64 / n);
        report.set(busy, busy_s / n);
        report.set(ns, ratio(busy_s * 1e9, t.calls as f64));
    }
    let step_calls = totals.layer(Layer::Step).calls as f64;
    let picks = totals.layer(Layer::Pick).calls as f64;
    report.set(
        "kernel.flush_frac",
        ratio(totals.flush_steps as f64, step_calls),
    );
    report.set(
        "strategy.options_per_point",
        ratio(totals.options as f64, picks),
    );
    report.set(
        "strategy.fairness_filtered_frac",
        ratio(totals.fairness_filtered as f64, picks),
    );
    report.set(
        "strategy.abandon_frac",
        ratio(totals.abandoned as f64, executions),
    );

    // Every case runs Algorithm 1: one update per step, and one
    // scheduler fingerprint per program fingerprint.
    let tapes: Vec<Tape> = passes.iter().flat_map(|p| p.tapes.clone()).collect();
    let fair = price_fair(&tapes);
    let fair_busy = (step_calls * fair.update_ns
        + totals.layer(Layer::Fingerprint).calls as f64 * fair.fingerprint_ns)
        * 1e-9;
    report.set("fair.update.ns", fair.update_ns);
    report.set("fair.fingerprint.ns", fair.fingerprint_ns);
    report.set("fair.busy_s_est", fair_busy / n);

    let self_s = traced_wall - layer_busy - fair_busy;
    report.set("explore.self_s", self_s / n);
    report.set("explore.steps_per_s", ratio(steps, plain_wall));
    report.set("explore.execs_per_s", ratio(executions, plain_wall));
    report.set("explore.steps_per_exec", ratio(steps, executions));
    // Time-weighted median over every case run both ways: robust to a
    // burst of load from elsewhere that slows one run of a pair.
    let slowdowns: Vec<(f64, f64)> = cases()
        .filter_map(|c| {
            let (traced, _) = c.traced.as_ref()?;
            Some((traced.wall_s / c.plain.wall_s, c.plain.wall_s))
        })
        .collect();
    report.set("trace.overhead_frac", weighted_median(&slowdowns) - 1.0);
    report.set(
        "trace.unattributed_frac",
        ratio(pass_wall - traced_wall - plain_wall, pass_wall),
    );
    report.notes.push(format!(
        "traced passes: {}, fair scheduler replayed over {} steps; the kernel, strategy and \
         fair layers account for {:.1}% of traced search time, explore.self_s for the rest",
        passes.len(),
        fair.steps,
        100.0 * ratio(layer_busy + fair_busy, traced_wall)
    ));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn timing_json(t: &Timing) -> String {
    format!(
        "{{\"start_s\": {}, \"dur_s\": {}}}",
        number(t.start_s),
        number(t.wall_s)
    )
}

/// Writes `trace-<workload>.json`. Spans nest pass → case → layer: each
/// case holds its untraced and traced runs, the traced run its
/// per-layer call counts and estimated busy time, and each pass a
/// reservoir of sampled call spans per layer. A span's self time is its
/// duration minus its children's.
fn write_trace(opts: &Options, passes: &[PassRecord], timer_ns: f64) -> Result<(), String> {
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {}, \"sample_one_in\": {}, \"timer_ns\": {}, \
         \"passes\": [\n",
        quote(&opts.workload),
        opts.seed,
        SAMPLE_ONE_IN,
        number(timer_ns)
    );
    for (i, p) in passes.iter().enumerate() {
        let cases: Vec<String> = p
            .cases
            .iter()
            .map(|c| {
                let traced = match &c.traced {
                    None => String::new(),
                    Some((timing, totals)) => {
                        let layers: Vec<String> = Layer::ALL
                            .iter()
                            .filter(|&&l| totals.layer(l).calls > 0)
                            .map(|&l| {
                                let t = totals.layer(l);
                                format!(
                                    "{}: {{\"calls\": {}, \"busy_s\": {}}}",
                                    quote(l.name()),
                                    t.calls,
                                    number(t.busy_s())
                                )
                            })
                            .collect();
                        format!(
                            ", \"traced\": {{\"start_s\": {}, \"dur_s\": {}, \"layers\": {{{}}}}}",
                            number(timing.start_s),
                            number(timing.wall_s),
                            layers.join(", ")
                        )
                    }
                };
                format!(
                    "{{\"name\": {}, \"verdict\": {}, \"executions\": {}, \"transitions\": {}, \
                     \"untraced\": {}{traced}}}",
                    quote(c.name),
                    quote(c.kind.name()),
                    c.executions,
                    c.transitions,
                    timing_json(&c.plain)
                )
            })
            .collect();
        let spans: Vec<String> = Layer::ALL
            .iter()
            .zip(p.reservoirs.iter().flatten())
            .filter(|(_, r)| !r.spans.is_empty())
            .map(|(l, r)| {
                let spans: Vec<String> = r
                    .spans
                    .iter()
                    .map(|s| format!("[{}, {}]", number(s.start_s), number(s.ns)))
                    .collect();
                format!("{}: [{}]", quote(l.name()), spans.join(", "))
            })
            .collect();
        out.push_str(&format!(
            "{{\"pass\": {}, \"start_s\": {}, \"dur_s\": {}, \"cases\": [{}], \
             \"sampled_spans\": {{{}}}}}{}\n",
            p.index,
            number(p.timing.start_s),
            number(p.timing.wall_s),
            cases.join(", "),
            spans.join(", "),
            if i + 1 < passes.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    write_out(
        &opts.out_dir,
        &format!("trace-{}.json", opts.workload),
        &out,
    )
}

/// Writes `name` under `dir`, creating the directory.
pub(crate) fn write_out(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
