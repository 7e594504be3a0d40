#!/usr/bin/env bash
# Builds fair-chess and the benchmark in release mode, then runs the
# benchmark from the repository root.
#
#   benchmark/run.sh
#       every workload, untraced and then traced, seed 1; each run's
#       output goes to benchmark/out/<workload>-trace<0|1>.txt, traces to
#       benchmark/out/trace-<workload>.json
#   benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#       one run; the last line of standard output is the JSON result
#
# Build output goes to $CARGO_TARGET_DIR (default: target/). Builds are
# offline: every dependency is a path crate of this repository.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p chess-cli --bin fair-chess >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/benchmark"
fair_chess="$CARGO_TARGET_DIR/release/fair-chess"

if [ "$#" -gt 0 ]; then
  exec "$bin" run --fair-chess "$fair_chess" "$@"
fi

mkdir -p benchmark/out
for trace in 0 1; do
  for workload in table3-cb2 random-hunt reduced-verify campaign; do
    echo "== $workload (trace $trace)" >&2
    "$bin" run --fair-chess "$fair_chess" --workload "$workload" --seed 1 --trace "$trace" \
      > "benchmark/out/$workload-trace$trace.txt"
    tail -n 1 "benchmark/out/$workload-trace$trace.txt"
  done
done
