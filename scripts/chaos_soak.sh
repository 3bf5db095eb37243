#!/usr/bin/env bash
# Probabilistic chaos soak against the adaptive controller.
#
# Unlike chaos_smoke.sh (a deterministic, bounded fault window), this
# soak arms *probabilistic* failpoints — every schemata write fails with
# 2% probability, every CAT bind and every controller apply with 1% —
# seeded so any failure reproduces exactly, and drives an adaptive
# server with bench-serve for CCP_SOAK_SECS (default 600s). The point is
# to shake out ordering bugs between the controller, the supervisor's
# breaker, and the query path that the scripted windows can't reach.
#
# Asserts at the end of the soak:
#
#   * the server is still alive and answering scrapes;
#   * >= CCP_SOAK_MIN_OK% of queries succeeded (default 95 — the faults
#     are probabilistic, so some in-flight queries legitimately error);
#   * the controller kept making decisions (decisions > 0) and every
#     revert had a matching recovery path (degraded is 0 or 1, never
#     stuck mid-transition, and the live mask stayed non-empty: a
#     panicked worker or a poisoned control thread would freeze both);
#   * zero worker panics.
#
# Usage:
#   scripts/chaos_soak.sh [PORT]           # default: 19490
#
# Tunables (environment):
#   CCP_SOAK_SECS        soak duration in seconds (default 600)
#   CCP_SOAK_QPS         offered load (default 40)
#   CCP_SOAK_SEED        failpoint RNG seed (default: derived from date)
#   CCP_SOAK_MIN_OK      minimum query success percentage (default 95)
#   CCP_SOAK_PROFILE     cargo profile to build/run (default release)
#   CCP_SMOKE_ARTIFACTS  directory to receive server log + final
#                        /metrics when the script fails (for CI uploads)

set -euo pipefail

PORT="${1:-19490}"
ADDR="127.0.0.1:${PORT}"
SECS="${CCP_SOAK_SECS:-600}"
QPS="${CCP_SOAK_QPS:-40}"
SEED="${CCP_SOAK_SEED:-$(date +%Y%m%d)}"
MIN_OK="${CCP_SOAK_MIN_OK:-95}"
PROFILE="${CCP_SOAK_PROFILE:-release}"
MAX_ERR_PCT=$((100 - MIN_OK))
TRACE='sensitive:0.95x6,0.12x6,0.95;polluting:0.08;mixed:0.02'
FAULTS="resctrl.write_schemata=err@p2s${SEED},engine.bind=err@p1s${SEED},control.apply=err@p1s${SEED}"

cd "$(dirname "$0")/.."
. scripts/lib.sh

ccp_build "$PROFILE"
ccp_init

echo "== chaos soak: seed=${SEED} plan='${FAULTS}' for ${SECS}s at ${QPS} qps"
ccp_launch_server soak "$ADDR" --fake-resctrl --adaptive \
  --control-interval-ms 100 \
  --occupancy-script "$TRACE" --faults "$FAULTS"

"$CCP" bench-serve --addr "$ADDR" --qps "$QPS" --duration "$SECS" \
  --concurrency 2 --max-error-pct "$MAX_ERR_PCT" &
BENCH_PID=$!

# Liveness watchdog: the server process and its scrape endpoint must
# stay up for the entire soak; a wedged /metrics is a finding even when
# the queries still flow.
while kill -0 "$BENCH_PID" 2>/dev/null; do
  sleep 5
  if ! ccp_scrape "$ADDR" /metrics "$WORK/metrics.txt" 2>/dev/null; then
    echo "metrics scrape failed mid-soak" >&2
    kill "$BENCH_PID" 2>/dev/null || true
    exit 1
  fi
done
wait "$BENCH_PID" # propagates the bench success-rate gate

ccp_scrape "$ADDR" /metrics "$WORK/metrics.txt"
DECISIONS=$(ccp_metric "$WORK/metrics.txt" ccp_control_decisions_total)
REPARTS=$(ccp_metric "$WORK/metrics.txt" ccp_control_repartitions_total)
REVERTS=$(ccp_metric "$WORK/metrics.txt" ccp_control_reverts_total)
DEGRADED=$(ccp_metric "$WORK/metrics.txt" ccp_resctrl_degraded)
if [[ -z "$DECISIONS" || "$DECISIONS" == 0 ]]; then
  echo "controller stopped making decisions under chaos" >&2
  grep '^ccp_control' "$WORK/metrics.txt" >&2 || true
  exit 1
fi
if ! awk -v d="$DEGRADED" 'BEGIN { exit !(d == 0 || d == 1) }'; then
  echo "degraded gauge in an impossible state: '${DEGRADED}'" >&2
  exit 1
fi
SENS=$(ccp_metric "$WORK/metrics.txt" 'ccp_control_mask_ways{class="sensitive"}')
if ! awk -v s="$SENS" 'BEGIN { exit !(s != "" && s >= 1) }'; then
  echo "sensitive class left with an empty mask: '${SENS}'" >&2
  exit 1
fi
ccp_assert_no_panics "$WORK/metrics.txt"

echo "   decisions=${DECISIONS} repartitions=${REPARTS:-0} reverts=${REVERTS:-0}"
echo "   degraded=${DEGRADED} sensitive_ways=${SENS} jobs_panicked=0"
echo "chaos soak OK (seed=${SEED})"
