//! Self-tests of the benchmark itself:
//! `cargo test --manifest-path benchmark/Cargo.toml`.

use std::path::PathBuf;
use std::time::Duration;

use chess_benchmark::campaign::{case_of, manifest};
use chess_benchmark::expected::Expected;
use chess_benchmark::json::Value;
use chess_benchmark::report::{Decl, END_TO_END, PER_LAYER, WORKLOADS};
use chess_benchmark::search::cases;
use chess_benchmark::stats::{quantile, weighted_median, Summary};
use chess_benchmark::trace::{Layer, Recorder};
use chess_benchmark::{run, Options};

const SEARCH_WORKLOADS: [&str; 3] = ["table3-cb2", "random-hunt", "reduced-verify"];

/// Executions per case in these tests: enough to reach every layer,
/// few enough for a build with debug assertions.
const CAP: u64 = 3_000;

#[test]
fn traced_and_untraced_searches_agree() {
    for workload in SEARCH_WORKLOADS {
        let rec = Recorder::new(7);
        for case in cases(workload, 1, 0).expect("a search workload") {
            let mut plain = case.run_capped(None, CAP);
            let mut traced = case.run_capped(Some(&rec), CAP);
            plain.stats.wall = Duration::ZERO;
            traced.stats.wall = Duration::ZERO;
            assert_eq!(plain, traced, "{workload}/{}", case.name);
        }
        assert!(rec.totals().layer(Layer::Step).calls > 0, "{workload}");
    }
}

#[test]
fn percentiles_follow_the_exclusive_method() {
    let v: Vec<f64> = (1..=120).map(f64::from).collect();
    let p90 = quantile(&v, 0.9);
    assert_eq!(v.iter().filter(|&&x| x > p90).count(), 12, "p90 = {p90}");
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // Half the weight sits at or below 3.0.
    assert_eq!(
        weighted_median(&[(5.0, 1.0), (1.0, 1.0), (3.0, 3.0), (9.0, 1.0)]),
        3.0
    );
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(decls: &[Decl]) -> Vec<(String, String)> {
    decls
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn emitted_names_are_declared_in_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    let valid = |s: &str| {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    for name in WORKLOADS
        .iter()
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| n))
    {
        assert!(valid(name), "{name:?}");
    }

    // A real run prints exactly the declared metrics, with their units.
    for trace in [false, true] {
        let opts = Options {
            workload: "random-hunt".to_string(),
            seed: 3,
            seconds: 0.01,
            trace,
            out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
            fair_chess: PathBuf::new(),
        };
        let report = run(&opts).expect("random-hunt runs");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let line = Value::parse(&report.result_line(trace)).expect("result line parses");
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics object");
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                (name.clone(), unit.to_string())
            })
            .collect();
        let want = declared(&doc, if trace { "per_layer" } else { "end_to_end" });
        assert_eq!(emitted, want, "trace {trace}");
    }
}

#[test]
fn every_verdict_has_a_known_answer() {
    let expected = Expected::load();
    for workload in SEARCH_WORKLOADS {
        for case in cases(workload, 1, 0).expect("a search workload") {
            assert!(
                expected.get(workload, case.name).is_some(),
                "{workload}/{} is missing from expected.txt",
                case.name
            );
        }
    }
    let doc = Value::parse(&manifest(1, 0)).expect("manifest parses");
    for job in doc.get("jobs").and_then(Value::as_array).expect("jobs") {
        let id = job.get("id").and_then(Value::as_str).expect("id");
        assert!(
            expected.get("campaign", case_of(id)).is_some(),
            "campaign job {id} has no expected verdict"
        );
    }
}
