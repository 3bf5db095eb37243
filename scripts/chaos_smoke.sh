#!/usr/bin/env bash
# Chaos smoke gate: the service must degrade gracefully, not fail, when
# the resctrl backend misbehaves.
#
# Starts `ccp serve` with the in-memory fake resctrl backend and an
# armed fault window (every schemata write fails with EBUSY for the
# first 80 hits), drives it with `ccp bench-serve`, and asserts:
#
#   * >=99% of queries succeed (bench-serve exits 0 with a 1% gate) —
#     partitioning is an optimization, never a gate;
#   * the `ccp_resctrl_degraded` gauge flips 0 -> 1 (observed live
#     mid-run) -> 0 (after the re-probe loop burns through the window),
#     with breaker-trip and restore counters recording the transitions;
#   * zero worker panics end to end;
#   * with reuse on (a second server, same window), queries whose misses
#     bind into failing writes still succeed >=99%.
#
# Usage:
#   scripts/chaos_smoke.sh [PORT]          # default: 19191 (and PORT+1)
#
# Tunables (environment):
#   CCP_CHAOS_QPS        offered load (default 40)
#   CCP_CHAOS_SECS       bench duration in seconds (default 6)
#   CCP_CHAOS_PROFILE    cargo profile to build/run (default release)
#   CCP_SMOKE_ARTIFACTS  directory to receive server log + final
#                        /metrics when the script fails (for CI uploads)

set -euo pipefail

PORT="${1:-19191}"
ADDR="127.0.0.1:${PORT}"
QPS="${CCP_CHAOS_QPS:-40}"
SECS="${CCP_CHAOS_SECS:-6}"
PROFILE="${CCP_CHAOS_PROFILE:-release}"
# A bounded window: enough failing writes that the breaker trips (3
# exhausted ops of 3 attempts each) and degraded mode lasts a couple of
# seconds of 150ms re-probes, small enough that the run always heals.
FAULTS="resctrl.write_schemata=err@1+80"

cd "$(dirname "$0")/.."
. scripts/lib.sh

ccp_build "$PROFILE"
ccp_init

# Reuse off: every q1/q2 of the mix then runs on the OLAP workers and
# switches their mask, so the failing schemata writes come from real
# binds. (With reuse on, the mix is served from the cache after its first
# two queries; the `oltp` share never binds — it runs on the connection
# thread — so nothing would reach the fault window.)
ccp_launch_server serve "$ADDR" --fake-resctrl --control-interval-ms 150 \
  --no-reuse --faults "$FAULTS"

ccp_scrape "$ADDR" /stats "$WORK/stats.json"
grep -qF '"supervised":true' "$WORK/stats.json" || {
  echo "engine is not under resctrl supervision:" >&2
  cat "$WORK/stats.json" >&2
  exit 1
}

echo "== bench-serve under fault plan '${FAULTS}': ${QPS} qps for ${SECS}s"
"$CCP" bench-serve --addr "$ADDR" --qps "$QPS" --duration "$SECS" \
  --concurrency 2 --max-error-pct 1 &
BENCH_PID=$!

# While the bench runs, watch for the degraded gauge going high: the
# breaker trips within the first few hundred milliseconds of load and
# degraded mode lasts a couple of seconds, so 100ms polls cannot miss it.
SAW_DEGRADED=0
while kill -0 "$BENCH_PID" 2>/dev/null; do
  if ccp_scrape "$ADDR" /metrics "$WORK/metrics.txt" 2>/dev/null \
    && grep -qE '^ccp_resctrl_degraded 1' "$WORK/metrics.txt"; then
    SAW_DEGRADED=1
  fi
  sleep 0.1
done
wait "$BENCH_PID" # propagates bench-serve's >=99%-success gate

if [[ "$SAW_DEGRADED" != 1 ]]; then
  echo "ccp_resctrl_degraded never went high under the fault plan" >&2
  exit 1
fi
echo "   observed degraded mode mid-run"

# The re-probe loop must heal once the fault window is exhausted.
HEALED=0
for _ in $(seq 1 100); do
  ccp_scrape "$ADDR" /metrics "$WORK/metrics.txt"
  if grep -qE '^ccp_resctrl_degraded 0' "$WORK/metrics.txt"; then
    HEALED=1
    break
  fi
  sleep 0.1
done
if [[ "$HEALED" != 1 ]]; then
  echo "server never recovered from degraded mode:" >&2
  grep '^ccp_resctrl' "$WORK/metrics.txt" >&2 || true
  exit 1
fi
echo "   healed back to partitioned mode"

TRIPS=$(ccp_metric "$WORK/metrics.txt" ccp_resctrl_breaker_trips_total)
RESTORES=$(ccp_metric "$WORK/metrics.txt" ccp_resctrl_restores_total)
if [[ -z "$TRIPS" || "$TRIPS" == 0 || -z "$RESTORES" || "$RESTORES" == 0 ]]; then
  echo "transition counters missing the 0->1->0 episode: trips=${TRIPS:-?} restores=${RESTORES:-?}" >&2
  exit 1
fi
echo "   breaker_trips=${TRIPS} restores=${RESTORES}"

ccp_assert_no_panics "$WORK/metrics.txt"
echo "   jobs_panicked = 0"

# Reuse on, same fault window: the mix's first q1 and q2 miss and bind
# into the failing writes, every later one is a cache hit. Serving must
# stay >=99% successful while the window is still open.
REUSE_ADDR="127.0.0.1:$((PORT + 1))"
ccp_launch_server serve-reuse "$REUSE_ADDR" --fake-resctrl \
  --control-interval-ms 150 --faults "$FAULTS"
echo "== bench-serve with reuse on under '${FAULTS}': ${QPS} qps for 3s"
"$CCP" bench-serve --addr "$REUSE_ADDR" --qps "$QPS" --duration 3 \
  --concurrency 2 --max-error-pct 1
ccp_scrape "$REUSE_ADDR" /metrics "$WORK/reuse_metrics.txt"
BIND_FAILS=$(ccp_metric "$WORK/reuse_metrics.txt" 'ccp_executor_bind_failures_total{pool="olap"}')
HITS=$(ccp_metric "$WORK/reuse_metrics.txt" ccp_reuse_hits_total)
if [[ -z "$BIND_FAILS" || "$BIND_FAILS" == 0 || -z "$HITS" || "$HITS" == 0 ]]; then
  echo "reuse-on phase missed the window: olap bind_failures=${BIND_FAILS:-?} reuse hits=${HITS:-?}" >&2
  exit 1
fi
ccp_assert_no_panics "$WORK/reuse_metrics.txt"
echo "   reuse on: bind_failures{pool=olap}=${BIND_FAILS} reuse_hits=${HITS}"

echo "chaos smoke OK"
