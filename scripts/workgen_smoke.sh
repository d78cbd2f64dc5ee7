#!/usr/bin/env bash
# Workgen smoke (`make workgen-smoke`, the CI trace gate): drive a
# pathological template and a load shape through a race-instrumented
# pd2d, record each run's applied command stream as a trace, then replay
# each trace against a fresh daemon and require byte-identical per-shard
# state digests.
# Along the way the anomaly counters must prove graceful degradation:
# the camp run draws rejections while failed applies stay zero.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
  if [ -n "$daemon_pid" ]; then kill "$daemon_pid" 2>/dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT

addr="127.0.0.1:${PD2D_SMOKE_PORT:-8400}"

echo "workgen-smoke: building race-instrumented pd2d and pd2load"
go build -race -o "$tmp/pd2d" ./cmd/pd2d
go build -race -o "$tmp/pd2load" ./cmd/pd2load

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "workgen-smoke: daemon on $addr never became healthy" >&2
  sed 's/^/pd2d: /' "$1" >&2 || true
  return 1
}

echo "workgen-smoke: starting pd2d (2 shards, M=2, drift bound 1/1024) on $addr"
"$tmp/pd2d" -addr "$addr" -shards 2 -m 2 -drift-bound 1/1024 >"$tmp/pd2d.log" 2>&1 &
daemon_pid=$!
wait_healthy "$tmp/pd2d.log"

# Admission camping: the shard is filled to M - 1/64 and then flooded
# with fitting-looking joins. -strict here asserts graceful degradation
# (zero failed applies, zero violations) while the 409s flow; -record
# captures the applied log for the replay differential below.
echo "workgen-smoke: admission-camp template, 1200 commands, recording trace"
"$tmp/pd2load" -addr "http://$addr" -shards 2 -workers 2 \
  -requests 1200 -batch 8 -advance-every 16 \
  -template admission-camp -record "$tmp/camp.trace" -strict \
  | tee "$tmp/camp.out"
grep -q "graceful degradation" "$tmp/camp.out" || {
  echo "workgen-smoke: camp run did not pass the strict degradation audit" >&2
  exit 1
}
grep -q "rejected" "$tmp/camp.out" || {
  echo "workgen-smoke: camp run output lost its stats line" >&2
  exit 1
}
# The camp must actually bounce joins: a zero rejection count means the
# template never hit the admission wall.
rejected="$(sed -n 's/^pd2load: [0-9]* commands in .*posts, [0-9]* retries, \([0-9]*\) rejected.*/\1/p' "$tmp/camp.out")"
if [ -z "$rejected" ] || [ "$rejected" -eq 0 ]; then
  echo "workgen-smoke: camp run drew no rejections (rejected=${rejected:-unset})" >&2
  exit 1
fi
[ -s "$tmp/camp.trace" ] || {
  echo "workgen-smoke: no trace recorded" >&2
  exit 1
}

# The anomaly counters must have fired server-side.
curl -fsS "http://$addr/metrics" >"$tmp/metrics.out"
grep -q 'pd2d_anomaly_reject_spikes_total{shard="0"} [1-9]' "$tmp/metrics.out" || {
  echo "workgen-smoke: reject-spike anomaly counter never fired" >&2
  grep pd2d_anomaly "$tmp/metrics.out" >&2 || true
  exit 1
}

echo "workgen-smoke: stopping the recorded daemon"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "workgen-smoke: replaying the trace against a fresh daemon"
"$tmp/pd2d" -addr "$addr" -shards 2 -m 2 >"$tmp/pd2d-replay.log" 2>&1 &
daemon_pid=$!
wait_healthy "$tmp/pd2d-replay.log"

"$tmp/pd2load" -addr "http://$addr" -replay "$tmp/camp.trace" | tee "$tmp/replay.out"
grep -q "replay verified 2 shard(s) byte-identical" "$tmp/replay.out" || {
  echo "workgen-smoke: replay did not verify both shards" >&2
  exit 1
}

# A phase-modulated shape run proves the shape path end to end too.
# The replayed daemon is camped at M - 1/64 per shard, so the shape
# anchors need a fresh daemon of their own.
echo "workgen-smoke: restarting for the shape run"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""
"$tmp/pd2d" -addr "$addr" -shards 2 -m 2 >"$tmp/pd2d-shape.log" 2>&1 &
daemon_pid=$!
wait_healthy "$tmp/pd2d-shape.log"

echo "workgen-smoke: flash-crowd shape, 1500 commands (strict), recording trace"
"$tmp/pd2load" -addr "http://$addr" -shards 2 -workers 2 \
  -requests 1500 -batch 8 -tasks 8 -advance-every 16 \
  -shape flash-crowd -prefix W -record "$tmp/shape.trace" -strict \
  | tee "$tmp/shape.out"
grep -q "strict checks passed" "$tmp/shape.out" || {
  echo "workgen-smoke: shape run failed its strict audit" >&2
  exit 1
}

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

# The camp trace holds little beyond the camp's set-up joins (every
# later command is rejected); the shape trace carries the reweights,
# churn joins and leaves, so the replay gate covers every wire op.
echo "workgen-smoke: replaying the shape trace against a fresh daemon"
"$tmp/pd2d" -addr "$addr" -shards 2 -m 2 >"$tmp/pd2d-shape-replay.log" 2>&1 &
daemon_pid=$!
wait_healthy "$tmp/pd2d-shape-replay.log"

"$tmp/pd2load" -addr "http://$addr" -replay "$tmp/shape.trace" | tee "$tmp/shape-replay.out"
grep -q "replay verified 2 shard(s) byte-identical" "$tmp/shape-replay.out" || {
  echo "workgen-smoke: shape replay did not verify both shards" >&2
  exit 1
}

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

# Early release: a task runs subtasks ahead of its windows, so rule L
# holds each leave well past the slot it was admitted in. The engine
# fixes that wait when the leave reaches it, so the strict drain must
# empty every queue, and the replayed log, which holds leaves that
# waited out such a lead, must reproduce both digests. The churn's
# joins also wait in the engine for condition J (the phases above read
# a deferred-join depth of 0), so the run must report a non-zero depth:
# this is the phase whose replay covers joins logged while held.
echo "workgen-smoke: early-release daemon, join-leave-churn, 4000 commands (strict), recording trace"
"$tmp/pd2d" -addr "$addr" -shards 2 -m 2 -early-release >"$tmp/pd2d-er.log" 2>&1 &
daemon_pid=$!
wait_healthy "$tmp/pd2d-er.log"

"$tmp/pd2load" -addr "http://$addr" -shards 2 \
  -requests 4000 -batch 4 -advance-every 2 \
  -template join-leave-churn -record "$tmp/er.trace" -strict \
  | tee "$tmp/er.out"
grep -q "strict checks passed" "$tmp/er.out" || {
  echo "workgen-smoke: early-release churn run failed its strict audit" >&2
  exit 1
}
grep -Eq "max deferred-join depth [1-9]" "$tmp/er.out" || {
  echo "workgen-smoke: early-release churn held no join for condition J" >&2
  exit 1
}

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "workgen-smoke: replaying the early-release trace against a fresh daemon"
"$tmp/pd2d" -addr "$addr" -shards 2 -m 2 -early-release >"$tmp/pd2d-er-replay.log" 2>&1 &
daemon_pid=$!
wait_healthy "$tmp/pd2d-er-replay.log"

"$tmp/pd2load" -addr "http://$addr" -replay "$tmp/er.trace" | tee "$tmp/er-replay.out"
grep -q "replay verified 2 shard(s) byte-identical" "$tmp/er-replay.out" || {
  echo "workgen-smoke: early-release replay did not verify both shards" >&2
  exit 1
}

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "workgen-smoke: OK"
