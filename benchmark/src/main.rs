//! `benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]`
//!
//! Prints each metric's median, quartiles and sample count, then — as
//! the last line — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 0 when every verdict matched `expected.txt`,
//! 1 when one did not, 2 on a usage or measurement error (without a
//! result line).

use std::path::PathBuf;
use std::process::ExitCode;

use chess_benchmark::{run, Options};

const USAGE: &str = "usage: benchmark run --workload <name> --seed <n> [--seconds <s>] \
                     [--trace [0|1]] [--fair-chess <path>] [--out <dir>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut args = args.iter().peekable();
    if args.next().map(String::as_str) != Some("run") {
        return Err(USAGE.to_string());
    }
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        fair_chess: PathBuf::from("target/release/fair-chess"),
    };
    let mut seed = None;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--trace" => {
                opts.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--fair-chess" => opts.fair_chess = PathBuf::from(value()?),
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if opts.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    opts.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.failures {
        eprintln!("wrong verdict: {failure}");
    }
    println!("{}", report.result_line(opts.trace));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
