#!/usr/bin/env bash
# The perf gate: a short run of every time-to-verdict benchmark workload
# (benchmark/run.sh, seed 1, 5 s each). It fails when a run exits
# non-zero (a verdict that differs from benchmark/expected.txt exits 1),
# prints no result line, counts a failed verdict, or spends other than
# its pinned number of executions per pass.
#
#   scripts/bench_gate.sh
#
# The searches of table3-cb2, reduced-verify and campaign are
# deterministic, so their executions per pass are exact and a changed
# count means the search itself changed; a timing gate on a shared
# machine cannot see that. A change that alters a count on purpose
# updates its pin here and says why. random-hunt has no pin: its count
# follows the walk seeds, which follow the pass count, so it is gated on
# its known answers only.
set -uo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT
failures=0
fail() {
  echo "bench gate: $1" >&2
  failures=$((failures + 1))
}

for entry in table3-cb2:102740 random-hunt: reduced-verify:94747 campaign:118207; do
  workload=${entry%%:*}
  pin=${entry#*:}
  echo "== $workload" >&2
  code=0
  bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 5 > "$out" || code=$?
  cat "$out"
  if [ "$code" -ne 0 ]; then
    fail "$workload: run exited $code"
    continue
  fi
  result=$(tail -n 1 "$out")
  if [[ "$result" != '{"correct": '* ]]; then
    fail "$workload: no result line"
    continue
  fi
  failed=$(sed -n 's/.*"failed": \([0-9]*\),.*/\1/p' <<< "$result")
  if [ "$failed" != 0 ]; then
    fail "$workload: $failed failed verdicts, expected 0"
  fi
  executions=$(sed -n 's/.*"executions": {"value": \([^,]*\),.*/\1/p' <<< "$result")
  if [ -n "$pin" ] && [ "$executions" != "$pin" ]; then
    fail "$workload: expected $pin executions per pass, measured ${executions:-none}"
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "bench gate: $failures check(s) failed" >&2
  exit 1
fi
echo "bench gate: every workload matched its known answers and pins" >&2
