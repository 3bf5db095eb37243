#!/usr/bin/env bash
# Reuse-cache gate: drives a server with a repeated-query mix and
# asserts the artifact cache actually pays for itself.
#
# Phase 1 (warm): five rounds of `ccp bench-serve` firing the identical
# q1 at the server, with a `POST /data/bump` between rounds; in each
# round everything after the first scan must be a cache hit. A round holds hundreds of hits but
# only the one miss, so one round's miss latency is one sample; the
# gate compares medians across rounds. Asserts from each round's
# --json-out and a /metrics scrape:
#
#   * every round's server-side reuse hit rate >= CCP_REUSE_MIN_HIT_RATE
#     (default 0.5);
#   * median over rounds of the client hit p95 <= 0.5 x median over
#     rounds of the miss p95 (a hit must skip the scan, not just relabel
#     it);
#   * ccp_reuse_bytes <= the configured budget.
#
# Phase 2 (invalidate): `POST /data/bump` advances the data version
# and sweeps the stale entries at once — a scrape taken right after it,
# before any other query, must read ccp_reuse_bytes 0 and
# ccp_reuse_invalidations_total >= 1. The next q1 must rebuild
# (reuse=miss) and the one after must hit again.
#
# Zero worker panics throughout.
#
# Usage:
#   scripts/reuse_smoke.sh [PORT]      # default 19390
#
# Tunables (environment):
#   CCP_REUSE_QPS           offered load in phase 1 (default 100)
#   CCP_REUSE_SECS          duration of one phase-1 round in seconds
#                           (default 2)
#   CCP_REUSE_PROFILE       cargo profile to build/run (default release)
#   CCP_REUSE_MIN_HIT_RATE  server hit-rate floor (default 0.5)
#   CCP_REUSE_BUDGET_MB     server cache budget in MiB (default 8)
#   CCP_SMOKE_ARTIFACTS     directory to receive server logs + final
#                           /metrics when the script fails

set -euo pipefail

PORT="${1:-19390}"
QPS="${CCP_REUSE_QPS:-100}"
SECS="${CCP_REUSE_SECS:-2}"
ROUNDS=5
PROFILE="${CCP_REUSE_PROFILE:-release}"
MIN_HIT_RATE="${CCP_REUSE_MIN_HIT_RATE:-0.5}"
BUDGET_MB="${CCP_REUSE_BUDGET_MB:-8}"

cd "$(dirname "$0")/.."
. scripts/lib.sh

ccp_build "$PROFILE"
ccp_init

ADDR="127.0.0.1:${PORT}"
# A big enough table that a real scan is clearly slower than a cache
# hit — the hit-vs-miss latency gate depends on that separation.
ccp_launch_server reuse "$ADDR" --rows 2000000 --reuse-budget-mb "$BUDGET_MB"

for round in $(seq 1 "$ROUNDS"); do
  if (( round > 1 )); then
    ccp_post "$ADDR" /data/bump "" "$WORK/round-bump.json"
    grep -qF '"status":"ok"' "$WORK/round-bump.json" || {
      echo "bump before round ${round} failed: $(cat "$WORK/round-bump.json")" >&2
      exit 1
    }
  fi
  echo "== warm round ${round}/${ROUNDS}: identical q1 at ${QPS} qps for ${SECS}s"
  "$CCP" bench-serve --addr "$ADDR" --qps "$QPS" --duration "$SECS" \
    --concurrency 2 --workload q1 --max-error-pct 1 \
    --json-out "$WORK/warm-${round}.json"
done

echo "== reuse gates (hit rate >= ${MIN_HIT_RATE} each round, median hit p95 <= 0.5 x median miss p95)"
python3 - "$MIN_HIT_RATE" "$WORK"/warm-*.json <<'PY'
import json, statistics, sys

floor = float(sys.argv[1])
hit_p95s, miss_p95s = [], []
for path in sys.argv[2:]:
    with open(path) as f:
        reuse = json.load(f)["bench"]["reuse"]
    rate = reuse["server_hit_rate"]
    assert rate is not None, "server exposed no reuse counters: is the cache on?"
    assert rate >= floor, f"{path}: server hit rate {rate:.3f} below the {floor} floor"
    hits, misses = reuse["hits"], reuse["misses"]
    assert hits > 0 and misses > 0, f"{path}: need both outcomes to compare ({reuse})"
    hit_p95s.append(reuse["hit_p95_us"])
    miss_p95s.append(reuse["miss_p95_us"])
    print(f"   {path.rsplit('/', 1)[-1]}: hit rate {rate:.3f}, hit p95 "
          f"{reuse['hit_p95_us']}us, miss p95 {reuse['miss_p95_us']}us "
          f"({hits} hits / {misses} misses)")
hit_p95, miss_p95 = statistics.median(hit_p95s), statistics.median(miss_p95s)
assert hit_p95 * 2 <= miss_p95, (
    f"median hit p95 {hit_p95}us not under half of median miss p95 {miss_p95}us — "
    "hits are not skipping the scan"
)
print(f"   median over {len(hit_p95s)} rounds: hit p95 {hit_p95}us, miss p95 {miss_p95}us")
PY

ccp_scrape "$ADDR" /metrics "$WORK/warm.metrics.txt"
BYTES=$(ccp_metric "$WORK/warm.metrics.txt" ccp_reuse_bytes)
awk -v b="$BYTES" -v mb="$BUDGET_MB" 'BEGIN {
  budget = mb * 1024 * 1024
  if (b == "" || b > budget) {
    print "ccp_reuse_bytes " b " exceeds the " budget "-byte budget" > "/dev/stderr"
    exit 1
  }
}'
echo "   ccp_reuse_bytes=${BYTES} within ${BUDGET_MB}MiB"

echo "== bump phase: /data/bump invalidates, next q1 rebuilds, then hits"
ccp_post "$ADDR" /data/bump "" "$WORK/bump.json"
grep -qF '"status":"ok"' "$WORK/bump.json" || {
  echo "bump failed: $(cat "$WORK/bump.json")" >&2
  exit 1
}
ccp_scrape "$ADDR" /metrics "$WORK/bump.metrics.txt"
SWEPT_BYTES=$(ccp_metric "$WORK/bump.metrics.txt" ccp_reuse_bytes)
SWEPT=$(ccp_metric "$WORK/bump.metrics.txt" ccp_reuse_invalidations_total)
awk -v b="$SWEPT_BYTES" -v n="$SWEPT" 'BEGIN {
  if (b == "" || b + 0 != 0 || n == "" || n + 0 < 1) {
    print "bump left stale entries resident: ccp_reuse_bytes=" b \
      ", ccp_reuse_invalidations_total=" n > "/dev/stderr"
    exit 1
  }
}'
echo "   bump swept at once: ccp_reuse_bytes=${SWEPT_BYTES}, invalidations=${SWEPT}"
Q1='{"workload":"q1","threshold":100}'
ccp_post "$ADDR" /query "$Q1" "$WORK/rebuild.json"
grep -qF '"reuse":"miss"' "$WORK/rebuild.json" || {
  echo "post-bump q1 did not rebuild: $(cat "$WORK/rebuild.json")" >&2
  exit 1
}
ccp_post "$ADDR" /query "$Q1" "$WORK/refill.json"
grep -qF '"reuse":"hit"' "$WORK/refill.json" || {
  echo "post-rebuild q1 did not hit: $(cat "$WORK/refill.json")" >&2
  exit 1
}
ccp_scrape "$ADDR" /metrics "$WORK/final.metrics.txt"
INVALIDATIONS=$(ccp_metric "$WORK/final.metrics.txt" ccp_reuse_invalidations_total)
if [[ -z "$INVALIDATIONS" || "$INVALIDATIONS" == 0 ]]; then
  echo "bump never invalidated anything (ccp_reuse_invalidations_total=${INVALIDATIONS})" >&2
  grep '^ccp_reuse' "$WORK/final.metrics.txt" >&2 || true
  exit 1
fi
echo "   invalidations=${INVALIDATIONS}, rebuild->hit recovery confirmed"

ccp_assert_no_panics "$WORK/final.metrics.txt"
echo "   jobs_panicked = 0"

echo "reuse smoke OK"
