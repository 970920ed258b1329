#!/usr/bin/env bash
# Smoke test for dpmserved: start the daemon, verify health, run one
# optimize query end to end (cold solve, then an exact cache hit), take a
# one-shot dpmtop snapshot, stream a short drifting workload at the
# online-adaptation endpoint (dpmfeed) and assert a warm drift refresh
# happened, and shut it down cleanly. CI runs this against a
# race-instrumented daemon (`make smoke`); it needs only bash + curl + the
# three binaries. A model too large to compile quickly must be refused with
# 400 without stalling the daemon, and a sweep asking for 4096 workers must
# be answered (the daemon clamps it to its CPU count) without stalling it.
set -euo pipefail

USAGE="usage: smoke.sh path/to/dpmserved path/to/dpmfeed path/to/dpmtop"
BIN="${1:?$USAGE}"
FEED="${2:?$USAGE}"
TOP="${3:?$USAGE}"
LOG="$(mktemp)"
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

"$BIN" -addr 127.0.0.1:0 >"$LOG" 2>&1 &
PID=$!

# The daemon prints "dpmserved: listening on http://127.0.0.1:PORT".
URL=""
for _ in $(seq 1 100); do
  URL=$(sed -n 's/^dpmserved: listening on \(http:\/\/[^ ]*\)$/\1/p' "$LOG" | head -n1)
  [ -n "$URL" ] && break
  kill -0 "$PID" 2>/dev/null || { echo "smoke: daemon died at startup"; cat "$LOG"; exit 1; }
  sleep 0.1
done
[ -n "$URL" ] || { echo "smoke: no listening line in log"; cat "$LOG"; exit 1; }
echo "smoke: daemon at $URL"

fail() { echo "smoke: $1"; echo "--- response: $2"; exit 1; }

HEALTH=$(curl -sSf "$URL/v1/healthz")
echo "$HEALTH" | grep -q '"status": "ok"' || fail "healthz not ok" "$HEALTH"

REQ='{"model":"disk","objective":"power","bounds":[{"metric":"penalty","rel":"<=","value":1.0}]}'
COLD=$(curl -sSf -X POST -d "$REQ" "$URL/v1/optimize")
echo "$COLD" | grep -q '"status": "optimal"' || fail "cold solve not optimal" "$COLD"
echo "$COLD" | grep -q '"cache": "cold"' || fail "first query not a cold solve" "$COLD"

HIT=$(curl -sSf -X POST -d "$REQ" "$URL/v1/optimize")
echo "$HIT" | grep -q '"cache": "hit"' || fail "repeat query not a cache hit" "$HIT"
echo "$HIT" | grep -q '"pivots": 0' || fail "cache hit paid pivots" "$HIT"

# Composite registry coverage: the Kronecker-compiled heterogeneous preset
# (disk+CPU+NIC with single-command-bus masking) must be resident and
# solvable through the same serving path.
HREQ='{"model":"heterogeneous","objective":"power","bounds":[{"metric":"penalty","rel":"<=","value":1.5}]}'
HET=$(curl -sSf -X POST -d "$HREQ" "$URL/v1/optimize")
echo "$HET" | grep -q '"status": "optimal"' || fail "heterogeneous solve not optimal" "$HET"
echo "$HET" | grep -q '"cache": "cold"' || fail "heterogeneous query not a cold solve" "$HET"

# Posted-model size limits: a one-state SP and SR behind a 100000-slot
# queue composes to 100001 states, over the limit. It must be refused with
# 400 before anything compiles, and the daemon must answer right after.
BIG='{"sp":{"p":[[[1]]],"service_rate":[[0.5]],"power":[[1]]},"sr":{"p":[[1]],"requests":[1]},"queue_cap":100000}'
BIG_OUT="$(mktemp)"
BIG_CODE=$(curl -sS -o "$BIG_OUT" -w '%{http_code}' -X POST -d "$BIG" "$URL/v1/models")
[ "$BIG_CODE" = 400 ] || fail "oversized model got status $BIG_CODE, want 400" "$(cat "$BIG_OUT")"
grep -q 'over the limit' "$BIG_OUT" || fail "oversized model refused for another reason" "$(cat "$BIG_OUT")"
rm -f "$BIG_OUT"
HEALTH=$(curl -sSf --max-time 5 "$URL/v1/healthz")
echo "$HEALTH" | grep -q '"status": "ok"' || fail "healthz not ok after the oversized model" "$HEALTH"

# Sweep worker bound: a client asking for 4096 workers on a 64-point sweep
# gets at most one worker per CPU, each assembling one LP; the sweep must
# succeed and the daemon must answer right after.
WVALS=$(seq 0.60 0.01 1.23 | paste -sd, -)
WREQ='{"model":"disk","objective":"power","sweep":{"metric":"penalty","rel":"<=","values":['"$WVALS"'],"workers":4096}}'
WIDE_OUT="$(mktemp)"
WIDE_CODE=$(curl -sS -o "$WIDE_OUT" -w '%{http_code}' -X POST -d "$WREQ" "$URL/v1/sweep")
[ "$WIDE_CODE" = 200 ] || fail "workers-4096 sweep got status $WIDE_CODE, want 200" "$(cat "$WIDE_OUT")"
rm -f "$WIDE_OUT"
HEALTH=$(curl -sSf --max-time 5 "$URL/v1/healthz")
echo "$HEALTH" | grep -q '"status": "ok"' || fail "healthz not ok after the workers-4096 sweep" "$HEALTH"

# has VAR PATTERN: grep without -q so the whole (large) input is consumed —
# with -q, grep exits at the first match and the echo side of the pipe dies
# on SIGPIPE, which pipefail turns into a spurious failure. /metrics and
# /v1/trace responses are big enough (histogram families, span trees) to
# hit that.
has() { echo "$1" | grep -e "$2" >/dev/null; }

EARLY=$(curl -sSf "$URL/metrics")
has "$EARLY" '^dpmserved_exact_hits_total 1$' || { echo "smoke: exact_hits counter != 1"; exit 1; }

# Request tracing: the cold solve above must be retrievable with its span
# tree, and the solve span carries the simplex annotations.
TRACES=$(curl -sSf "$URL/v1/trace?n=10")
has "$TRACES" '"name": "solve"' || fail "no solve span in /v1/trace" "$TRACES"
has "$TRACES" '"name": "build"' || fail "no build span in /v1/trace" "$TRACES"

# Flight recorder: a long serial sweep on the heterogeneous preset keeps one
# solve in flight for a while; GET /v1/solves polled from outside must catch
# the live row with nonzero pivots, and the table must be empty again once
# the sweep completes. This is the mid-flight introspection the unit tests
# can't see: the live table observed over the wire against a running daemon.
VALS=$(seq 0.50 0.005 1.50 | paste -sd, -)
SWEEPREQ='{"model":"heterogeneous","objective":"power","sweep":{"metric":"penalty","rel":"<=","values":['"$VALS"'],"workers":1}}'
SWEEP_OUT="$(mktemp)"
curl -sSf -X POST -d "$SWEEPREQ" "$URL/v1/sweep" >"$SWEEP_OUT" &
SWEEP_PID=$!
# The payload sorts "events" before "solves", so everything from the
# "solves" key onward is the live table — sliced off so journal events
# (whose attrs also carry pivot counts from earlier phases) can't satisfy
# the mid-flight check.
rows() { echo "$1" | sed -n '/"solves":/,$p'; }
LIVE=""
for _ in $(seq 1 200); do
  SOLVES=$(rows "$(curl -sSf "$URL/v1/solves")")
  if echo "$SOLVES" | grep -e '"pivots": [1-9]' >/dev/null; then LIVE="$SOLVES"; break; fi
  kill -0 "$SWEEP_PID" 2>/dev/null || break
  sleep 0.02
done
[ -n "$LIVE" ] || { echo "smoke: sweep never appeared in /v1/solves with pivots"; curl -s "$URL/v1/solves"; exit 1; }
has "$LIVE" '"endpoint": "sweep"' || fail "live row is not the sweep" "$LIVE"
wait "$SWEEP_PID" || { echo "smoke: background sweep failed"; cat "$SWEEP_OUT"; exit 1; }
rm -f "$SWEEP_OUT"
AFTER=$(curl -sSf "$URL/v1/solves")
has "$(rows "$AFTER")" '"endpoint"' && fail "solve table not empty after sweep" "$AFTER"
has "$AFTER" '"kind": "solve_start"' || fail "journal lost the sweep lifecycle" "$AFTER"
has "$AFTER" '"kind": "solve_finish"' || fail "journal has no solve_finish" "$AFTER"
GAUGES=$(curl -sSf "$URL/metrics")
has "$GAUGES" '^dpmserved_solves_inflight 0$' || { echo "smoke: solves_inflight gauge not back to 0"; echo "$GAUGES" | grep solves; exit 1; }

# dpmtop: one plain snapshot of /v1/solves and /v1/stats, decoded with the
# daemon's own wire types, must render its counters line.
TOPOUT=$("$TOP" -url "$URL" -n 1 -plain) || { echo "smoke: dpmtop failed"; exit 1; }
has "$TOPOUT" '^served: optimize ' || fail "dpmtop printed no served: line" "$TOPOUT"

# Online adaptation: stream a short two-regime trace at the race-instrumented
# daemon. dpmfeed itself exits non-zero unless at least one drift-triggered
# refresh happened (-expect-drift default); the counters then assert the
# refresh took the warm patched path rather than rebuilding and solving cold.
"$FEED" -url "$URL" -model disk -slices 1600 -flip 800 -chunk 50 \
  -p01 0.03 -p10 0.25 -p01b 0.20 -p10b 0.10 \
  -decay 0.99 -min-slices 200 -q \
  || { echo "smoke: dpmfeed failed"; exit 1; }
METRICS=$(curl -sSf "$URL/metrics")
has "$METRICS" '^dpmserved_online_drift_refreshes_total [1-9]' \
  || { echo "smoke: no drift refresh recorded"; echo "$METRICS" | grep online; exit 1; }
has "$METRICS" '^dpmserved_online_warm_total [1-9]' \
  || { echo "smoke: no warm online refresh recorded"; echo "$METRICS" | grep online; exit 1; }
has "$METRICS" '^dpmserved_online_patched_total [1-9]' \
  || { echo "smoke: no patched online refresh recorded"; echo "$METRICS" | grep online; exit 1; }

kill -TERM "$PID"
wait "$PID" || { echo "smoke: daemon exited non-zero on SIGTERM"; exit 1; }
echo "smoke: ok (cold solve, cache hit, composite preset, oversized model refused, wide sweep clamped, trace retrieval, live /v1/solves mid-flight, dpmtop snapshot, online drift refresh, clean shutdown)"
