#!/usr/bin/env bash
# Daemon smoke for the campaign daemon: socket front-end, persistent
# store, sharded check jobs, and crash recovery.
#
# Six acts; the first five against the same store directory:
#
#   1. Baseline: a `serve` run of the unsharded manifest; its report
#      (wall-clock free) is the reference output.
#   2. Sharded submit: the same campaign with the big check job split
#      across shards, submitted over the unix socket with --watch. The
#      merged report must be byte-identical to the unsharded baseline.
#   3. Cached resubmit: submitting the identical manifest again must be
#      answered from the store ("cached") without re-running anything.
#   4. SIGKILL the daemon mid-campaign (a second, fresh campaign), then
#      restart on the same socket and store; the resumed campaign's
#      report must be byte-identical to a clean serve of it.
#   5. Chaos garbage: a client that leads with a garbage line must get a
#      structured error and the daemon must keep serving.
#   6. Degraded: with no worker spawnable (FAIR_CHESS_WORKER_BIN points
#      nowhere), a second daemon on its own store runs the unsharded
#      manifest in-process; its results must be byte-identical to a
#      serve of that manifest under the same variable.
#
# Usage: scripts/daemon_smoke.sh  (FAIR_CHESS overrides the binary path)
set -euo pipefail

BIN="${FAIR_CHESS:-target/release/fair-chess}"
WORKDIR="$(mktemp -d)"
SOCK="$WORKDIR/daemon.sock"
STORE="$WORKDIR/store"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2> /dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

expect_exit() {
  local want="$1"; shift
  local got=0
  "$@" || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "expected exit $want, got $got: $*" >&2
    exit 1
  fi
}

start_daemon() {
  "$BIN" daemon --listen "$SOCK" --store "$STORE" --workers 2 \
    > "$WORKDIR/daemon.log" 2>&1 &
  DAEMON_PID=$!
  local tries=0
  until "$BIN" status --connect "$SOCK" > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -gt 500 ]; then
      echo "daemon never came up" >&2
      cat "$WORKDIR/daemon.log" >&2
      exit 1
    fi
    if ! kill -0 "$DAEMON_PID" 2> /dev/null; then
      echo "daemon exited at startup" >&2
      cat "$WORKDIR/daemon.log" >&2
      exit 1
    fi
    sleep 0.02
  done
}

# The check job is clean and exhausts its space well inside the budget,
# so the sharded merge is guaranteed byte-identical to the sequential
# run; the racy job and the fuzz job stay unsharded.
UNSHARDED="$WORKDIR/unsharded.json"
cat > "$UNSHARDED" <<'EOF'
{"jobs": [
  {"id": "wide", "workload": "counter", "max_executions": 100000},
  {"id": "racy", "workload": "counter", "bug": "racy", "max_executions": 20000},
  {"id": "fuzz-1", "kind": "fuzz", "seed": 7, "systems": 4, "inject": ["deadlock"], "max_states": 50000}
]}
EOF
SHARDED="$WORKDIR/sharded.json"
cat > "$SHARDED" <<'EOF'
{"jobs": [
  {"id": "wide", "workload": "counter", "max_executions": 100000, "shards": 2},
  {"id": "racy", "workload": "counter", "bug": "racy", "max_executions": 20000},
  {"id": "fuzz-1", "kind": "fuzz", "seed": 7, "systems": 4, "inject": ["deadlock"], "max_states": 50000}
]}
EOF

echo "== baseline: unsharded serve run is the reference report"
expect_exit 1 "$BIN" serve "$UNSHARDED" --workers 2 > "$WORKDIR/baseline.out"

echo "== daemon up on a unix socket"
start_daemon

echo "== sharded submit over the socket merges byte-identically"
expect_exit 1 "$BIN" submit "$SHARDED" --connect "$SOCK" --watch \
  > "$WORKDIR/submit.out" 2> "$WORKDIR/submit.err"
CAMPAIGN="$(awk '/^campaign /{print $2}' "$WORKDIR/submit.out" | head -n 1 | tr -d ':')"
[ -n "$CAMPAIGN" ] || { echo "no campaign digest in submit output" >&2; exit 1; }
grep -q "wide#0:" "$WORKDIR/submit.out"
grep -q "wide#1:" "$WORKDIR/submit.out"
expect_exit 1 "$BIN" results "$CAMPAIGN" --connect "$SOCK" > "$WORKDIR/sharded.out"
diff "$WORKDIR/baseline.out" "$WORKDIR/sharded.out"

echo "== resubmit of the finished campaign is answered from the store"
expect_exit 1 "$BIN" submit "$SHARDED" --connect "$SOCK" > "$WORKDIR/resubmit.out"
grep -q "cached" "$WORKDIR/resubmit.out"

echo "== SIGKILL the daemon mid-campaign, restart resumes byte-identically"
SLOW="$WORKDIR/slow.json"
cat > "$SLOW" <<'EOF'
{"jobs": [
  {"id": "p1", "workload": "philosophers", "strategy": "random:1", "max_executions": 8000},
  {"id": "p2", "workload": "philosophers", "strategy": "random:2", "max_executions": 8000},
  {"id": "p3", "workload": "philosophers", "strategy": "random:3", "max_executions": 8000},
  {"id": "p4", "workload": "philosophers", "strategy": "random:4", "max_executions": 8000},
  {"id": "p5", "workload": "philosophers", "strategy": "random:5", "max_executions": 8000},
  {"id": "p6", "workload": "philosophers", "strategy": "random:6", "max_executions": 8000}
]}
EOF
expect_exit 3 "$BIN" serve "$SLOW" --workers 2 > "$WORKDIR/slow-baseline.out"

"$BIN" submit "$SLOW" --connect "$SOCK" > "$WORKDIR/slow-submit.out"
SLOW_CAMPAIGN="$(awk '/^campaign /{print $2}' "$WORKDIR/slow-submit.out" | head -n 1 | tr -d ':')"
[ -n "$SLOW_CAMPAIGN" ] || { echo "no campaign digest for slow submit" >&2; exit 1; }
tries=0
until "$BIN" status "$SLOW_CAMPAIGN" --connect "$SOCK" 2> /dev/null \
    | grep -q '"done": [1-5]'; do
  tries=$((tries + 1))
  if [ "$tries" -gt 1500 ]; then echo "campaign never made progress" >&2; exit 1; fi
  sleep 0.02
done
kill -KILL "$DAEMON_PID" 2> /dev/null || true
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""

start_daemon
expect_exit 3 "$BIN" watch "$SLOW_CAMPAIGN" --connect "$SOCK" > /dev/null 2>&1
expect_exit 3 "$BIN" results "$SLOW_CAMPAIGN" --connect "$SOCK" > "$WORKDIR/slow-resumed.out"
diff "$WORKDIR/slow-baseline.out" "$WORKDIR/slow-resumed.out"

echo "== chaos garbage gets a structured error, daemon keeps serving"
FAIR_CHESS_CHAOS="garbage:1,seed:7" \
  expect_exit 0 "$BIN" status --connect "$SOCK" > /dev/null 2> "$WORKDIR/chaos.err"
grep -q "chaos garbage" "$WORKDIR/chaos.err"
expect_exit 0 "$BIN" status --connect "$SOCK" > /dev/null

echo "== clean shutdown over the socket"
expect_exit 0 "$BIN" shutdown --connect "$SOCK"
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""

echo "== degraded: no worker spawnable, daemon results equal serve's byte-for-byte"
NO_WORKER=/nonexistent/fair-chess
FAIR_CHESS_WORKER_BIN="$NO_WORKER" \
  expect_exit 1 "$BIN" serve "$UNSHARDED" --workers 2 \
  > "$WORKDIR/degraded-serve.out" 2> "$WORKDIR/degraded-serve.err"
grep -q "in-process" "$WORKDIR/degraded-serve.err"
SOCK="$WORKDIR/degraded.sock"
STORE="$WORKDIR/degraded-store"
FAIR_CHESS_WORKER_BIN="$NO_WORKER" start_daemon
expect_exit 1 "$BIN" submit "$UNSHARDED" --connect "$SOCK" --watch \
  > "$WORKDIR/degraded-submit.out" 2> /dev/null
DEGRADED_CAMPAIGN="$(awk '/^campaign /{print $2}' "$WORKDIR/degraded-submit.out" | head -n 1 | tr -d ':')"
[ -n "$DEGRADED_CAMPAIGN" ] || { echo "no campaign digest for degraded submit" >&2; exit 1; }
expect_exit 1 "$BIN" results "$DEGRADED_CAMPAIGN" --connect "$SOCK" > "$WORKDIR/degraded-daemon.out"
diff "$WORKDIR/degraded-serve.out" "$WORKDIR/degraded-daemon.out"
expect_exit 0 "$BIN" shutdown --connect "$SOCK"
wait "$DAEMON_PID" 2> /dev/null || true
DAEMON_PID=""
grep -q "in-process" "$WORKDIR/daemon.log"

echo "daemon smoke passed: sharded, cached, killed, resumed, and degraded campaigns all converge"
