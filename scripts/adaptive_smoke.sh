#!/usr/bin/env bash
# Adaptive-vs-static gate for the closed-loop occupancy controller.
#
# Phase 1 (A/B): starts two servers on the fake resctrl backend — one
# static, one with `--adaptive` fed a scripted occupancy trace in which
# the sensitive class's working set collapses after ~600ms — waits for
# the controller to repartition, then drives both with a single
# `ccp bench-serve --ab-addr` run per round — five rounds, each a static
# phase then an adaptive one, so the two alternate — and asserts:
#
#   * the controller repartitioned at least once and is not thrashing
#     (repartitions <= CCP_ADAPT_MAX_REPARTS, zero reverts);
#   * the way masks are in force, not merely reported: no OLAP bind
#     failed and the controller's schemata writes show in /metrics —
#     on a 4-CLOSID tree (`--fake-closids 4`, the root plus one plan's
#     three groups), where a repartition must retire the groups of the
#     plan it replaces before it can make its own;
#   * `ccp_control_mask_ways{class="sensitive"}` shrank below the full
#     20 ways while the polluter kept >= 2 ways;
#   * median over rounds of the adaptive p95 <= median over rounds of
#     the static p95 * 1.10 + CCP_AB_SLACK_US (the slack absorbs
#     scheduler jitter on loaded CI runners at microsecond scales; one
#     round's p95 is one sample of host noise, so the gate compares
#     medians and prints every round);
#   * zero worker panics on either server;
#   * the adaptive server's exit sweep removes at most three groups and
#     leaves zero.
#
# Phase 2 (chaos): a third adaptive server starts with schemata writes
# failing for a bounded window plus a one-shot `control.apply` fault,
# and must (a) clamp to the static masks while degraded, (b) record at
# least one revert, and (c) land the adaptive plan after healing — on
# 4 CLOSIDs as well.
#
# Usage:
#   scripts/adaptive_smoke.sh [PORT_STATIC] [PORT_ADAPTIVE]  # 19290/19291
#
# Tunables (environment):
#   CCP_ADAPT_QPS         offered load per phase (default 40)
#   CCP_ADAPT_SECS        bench duration per phase in seconds (default 3)
#   CCP_ADAPT_PROFILE     cargo profile to build/run (default release)
#   CCP_ADAPT_MAX_REPARTS thrash ceiling on repartitions (default 8)
#   CCP_AB_SLACK_US       absolute p95 slack in microseconds (default 2000)
#   CCP_SMOKE_ARTIFACTS   directory to receive server logs + final
#                         /metrics when the script fails (for CI uploads)

set -euo pipefail

PORT_STATIC="${1:-19290}"
PORT_ADAPTIVE="${2:-19291}"
PORT_CHAOS=$((PORT_ADAPTIVE + 1))
QPS="${CCP_ADAPT_QPS:-40}"
SECS="${CCP_ADAPT_SECS:-3}"
ROUNDS=5
PROFILE="${CCP_ADAPT_PROFILE:-release}"
MAX_REPARTS="${CCP_ADAPT_MAX_REPARTS:-8}"
SLACK_US="${CCP_AB_SLACK_US:-2000}"
# Sensitive occupancy sits at 95% of its allocation for 6 monitor ticks
# (the classifier needs a stable window), then collapses to 12%: the
# controller must shrink the sensitive mask and regrow the polluter's.
TRACE='sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02'
SENS_WAYS='ccp_control_mask_ways{class="sensitive"}'
POLL_WAYS='ccp_control_mask_ways{class="polluting"}'

cd "$(dirname "$0")/.."
. scripts/lib.sh

ccp_build "$PROFILE"
ccp_init

ADDR_STATIC="127.0.0.1:${PORT_STATIC}"
ADDR_ADAPTIVE="127.0.0.1:${PORT_ADAPTIVE}"
ADDR_CHAOS="127.0.0.1:${PORT_CHAOS}"

ccp_launch_server static "$ADDR_STATIC" --fake-resctrl
ccp_launch_server adaptive "$ADDR_ADAPTIVE" --fake-resctrl --fake-closids 4 --adaptive \
  --control-interval-ms 100 \
  --occupancy-script "$TRACE"
ADAPTIVE_PID="${CCP_SERVER_PIDS[${#CCP_SERVER_PIDS[@]}-1]}"
ADAPTIVE_LOG="${CCP_SERVER_LOGS[${#CCP_SERVER_LOGS[@]}-1]}"

# Let the controller converge before measuring: the scripted collapse
# lands after 6 monitor ticks, the dwell gate 3 control ticks later.
echo "== waiting for the adaptive controller to repartition"
CONVERGED=0
for _ in $(seq 1 150); do
  if ccp_scrape "$ADDR_ADAPTIVE" /metrics "$WORK/adaptive.metrics.txt" 2>/dev/null; then
    REPARTS=$(ccp_metric "$WORK/adaptive.metrics.txt" ccp_control_repartitions_total)
    if [[ -n "$REPARTS" && "$REPARTS" != 0 ]]; then
      CONVERGED=1
      break
    fi
  fi
  sleep 0.1
done
if [[ "$CONVERGED" != 1 ]]; then
  echo "controller never repartitioned on the scripted trace:" >&2
  grep '^ccp_control' "$WORK/adaptive.metrics.txt" >&2 || true
  exit 1
fi
echo "   repartitions=${REPARTS}"

for round in $(seq 1 "$ROUNDS"); do
  echo "== A/B round ${round}/${ROUNDS}: ${QPS} qps for ${SECS}s per phase (static, then adaptive)"
  "$CCP" bench-serve --addr "$ADDR_STATIC" --ab-addr "$ADDR_ADAPTIVE" \
    --qps "$QPS" --duration "$SECS" --concurrency 2 --max-error-pct 1 \
    --json-out "$WORK/ab-${round}.json"
done

echo "== checking controller state after load"
ccp_scrape "$ADDR_ADAPTIVE" /metrics "$WORK/adaptive.metrics.txt"
REPARTS=$(ccp_metric "$WORK/adaptive.metrics.txt" ccp_control_repartitions_total)
if [[ -z "$REPARTS" || "$REPARTS" == 0 ]]; then
  echo "repartitions counter went missing after the bench" >&2
  exit 1
fi
if (( REPARTS > MAX_REPARTS )); then
  echo "controller is thrashing: ${REPARTS} repartitions > ${MAX_REPARTS}" >&2
  grep '^ccp_control' "$WORK/adaptive.metrics.txt" >&2 || true
  exit 1
fi
SENS=$(ccp_metric "$WORK/adaptive.metrics.txt" "$SENS_WAYS")
POLL=$(ccp_metric "$WORK/adaptive.metrics.txt" "$POLL_WAYS")
awk -v s="$SENS" -v p="$POLL" 'BEGIN {
  if (s == "" || s >= 20) { print "sensitive mask never shrank: " s > "/dev/stderr"; exit 1 }
  if (p == "" || p < 2)   { print "polluter starved: " p > "/dev/stderr"; exit 1 }
}'
echo "   repartitions=${REPARTS} mask_ways sensitive=${SENS} polluting=${POLL}"
REVERTS=$(ccp_metric "$WORK/adaptive.metrics.txt" ccp_control_reverts_total)
BIND_FAILURES=$(ccp_metric "$WORK/adaptive.metrics.txt" 'ccp_executor_bind_failures_total{pool="olap"}')
WRITES=$(ccp_metric "$WORK/adaptive.metrics.txt" ccp_resctrl_schemata_writes_total)
if [[ "$REVERTS" != 0 || "$BIND_FAILURES" != 0 || -z "$WRITES" || "$WRITES" == 0 ]]; then
  echo "adaptive plan not in force on 4 CLOSIDs: reverts=${REVERTS:-?}" \
    "olap bind_failures=${BIND_FAILURES:-?} schemata_writes=${WRITES:-?}" >&2
  exit 1
fi
echo "   reverts=0, olap bind_failures=0, schemata_writes=${WRITES}"

echo "== p95 gate (median adaptive <= median static * 1.10 + ${SLACK_US}us over ${ROUNDS} rounds)"
python3 - "$SLACK_US" "$WORK"/ab-*.json <<'PY'
import json, statistics, sys

static_p95s, adaptive_p95s = [], []
for path in sys.argv[2:]:
    with open(path) as f:
        doc = json.load(f)
    assert doc["mode"] == "ab", f"{path}: expected an A/B report, got {doc['mode']!r}"
    static_p95s.append(doc["static"]["total"]["p95_us"])
    adaptive_p95s.append(doc["adaptive"]["total"]["p95_us"])
    print(f"   {path.rsplit('/', 1)[-1]}: static p95 {static_p95s[-1]}us, "
          f"adaptive p95 {adaptive_p95s[-1]}us")
static_p95 = statistics.median(static_p95s)
adaptive_p95 = statistics.median(adaptive_p95s)
limit = static_p95 * 1.10 + int(sys.argv[1])
assert adaptive_p95 <= limit, (
    f"median adaptive p95 {adaptive_p95}us regressed past median static "
    f"{static_p95}us (limit {limit:.0f}us)"
)
print(f"   median over {len(static_p95s)} rounds: static p95 {static_p95}us, "
      f"adaptive p95 {adaptive_p95}us (limit {limit:.0f}us)")
PY

ccp_assert_no_panics "$WORK/adaptive.metrics.txt"
ccp_scrape "$ADDR_STATIC" /metrics "$WORK/static.metrics.txt"
ccp_assert_no_panics "$WORK/static.metrics.txt"
echo "   jobs_panicked = 0 on both servers"

# The tree held one plan at a time: the exit sweep finds at most the
# three groups of the plan in force, and leaves none.
echo "== SIGINT the adaptive server: at most 3 groups to sweep, zero may remain"
kill -INT "$ADAPTIVE_PID"
wait "$ADAPTIVE_PID" 2>/dev/null || true
if ! grep -qE 'reconcile shutdown sweep: removed [0-3] group\(s\), 0 ccp- group\(s\) remain' "$ADAPTIVE_LOG"; then
  echo "adaptive server's shutdown sweep:" >&2
  grep 'reconcile' "$ADAPTIVE_LOG" >&2 || cat "$ADAPTIVE_LOG" >&2
  exit 1
fi
echo "   $(grep -o 'removed [0-9]* group(s), 0 ccp- group(s) remain' "$ADAPTIVE_LOG")"

# ---------------------------------------------------------------------------
# Phase 2: the controller must revert cleanly when the backend misbehaves.
# A one-shot control.apply fault fails the first repartition outright and
# a bounded schemata-write window trips the supervisor's breaker; while
# degraded the controller must clamp to the static masks, and once the
# re-probe loop heals the backend it must land the adaptive plan.
# ---------------------------------------------------------------------------
FAULTS='resctrl.write_schemata=err@1+40,control.apply=err@1+1'
echo "== chaos variant under fault plan '${FAULTS}'"
ccp_launch_server chaos "$ADDR_CHAOS" --fake-resctrl --fake-closids 4 --adaptive \
  --control-interval-ms 100 \
  --occupancy-script "$TRACE" --faults "$FAULTS"

# (a) degraded mode observed with the controller clamped to static masks.
CLAMPED=0
for _ in $(seq 1 150); do
  if ccp_scrape "$ADDR_CHAOS" /metrics "$WORK/chaos.metrics.txt" 2>/dev/null \
    && grep -qE '^ccp_resctrl_degraded 1' "$WORK/chaos.metrics.txt"; then
    CSENS=$(ccp_metric "$WORK/chaos.metrics.txt" "$SENS_WAYS")
    if awk -v s="$CSENS" 'BEGIN { exit !(s != "" && s == 20) }' \
      && grep -qE '^ccp_control_clamped 1' "$WORK/chaos.metrics.txt"; then
      CLAMPED=1
      break
    fi
  fi
  sleep 0.1
done
if [[ "$CLAMPED" != 1 ]]; then
  echo "never observed the controller clamped to static masks while degraded" >&2
  grep -E '^ccp_(control|resctrl)' "$WORK/chaos.metrics.txt" >&2 || true
  exit 1
fi
echo "   degraded=1 with sensitive=20 ways and ccp_control_clamped=1"

# (b) the backend heals once the fault window is exhausted.
HEALED=0
for _ in $(seq 1 200); do
  ccp_scrape "$ADDR_CHAOS" /metrics "$WORK/chaos.metrics.txt"
  if grep -qE '^ccp_resctrl_degraded 0' "$WORK/chaos.metrics.txt"; then
    HEALED=1
    break
  fi
  sleep 0.1
done
if [[ "$HEALED" != 1 ]]; then
  echo "server never recovered from degraded mode:" >&2
  grep '^ccp_resctrl' "$WORK/chaos.metrics.txt" >&2 || true
  exit 1
fi
echo "   healed back to partitioned mode"

# (c) at least one recorded revert, and the adaptive plan lands post-heal.
LANDED=0
for _ in $(seq 1 150); do
  ccp_scrape "$ADDR_CHAOS" /metrics "$WORK/chaos.metrics.txt"
  REVERTS=$(ccp_metric "$WORK/chaos.metrics.txt" ccp_control_reverts_total)
  CREPARTS=$(ccp_metric "$WORK/chaos.metrics.txt" ccp_control_repartitions_total)
  CSENS=$(ccp_metric "$WORK/chaos.metrics.txt" "$SENS_WAYS")
  if [[ -n "$REVERTS" && "$REVERTS" != 0 && -n "$CREPARTS" && "$CREPARTS" != 0 ]] \
    && awk -v s="$CSENS" 'BEGIN { exit !(s != "" && s < 20) }'; then
    LANDED=1
    break
  fi
  sleep 0.1
done
if [[ "$LANDED" != 1 ]]; then
  echo "adaptive plan never landed after healing:" >&2
  grep '^ccp_control' "$WORK/chaos.metrics.txt" >&2 || true
  exit 1
fi
echo "   reverts=${REVERTS} repartitions=${CREPARTS} sensitive=${CSENS} ways"

ccp_assert_no_panics "$WORK/chaos.metrics.txt"
echo "   jobs_panicked = 0"

echo "adaptive smoke OK"
