#!/usr/bin/env bash
# End-to-end smoke test for the networked service layer.
#
# Starts `ccp serve` on an ephemeral local port, drives it for a couple of
# seconds with `ccp bench-serve` over real sockets, then scrapes /metrics
# and /trace and fails on malformed or incomplete output:
#
#   * bench-serve must exit 0 (its own error-rate gate);
#   * /metrics must carry the server families and a per-CUID-class
#     llc-occupancy gauge for each of polluting/sensitive/mixed;
#   * /trace must be a valid Chrome trace-event JSON document with a
#     non-empty traceEvents array.
#
# Usage:
#   scripts/serve_smoke.sh [PORT]          # default: 19090
#
# Tunables (environment):
#   CCP_SMOKE_QPS        offered load (default 40)
#   CCP_SMOKE_SECS       bench duration in seconds (default 2)
#   CCP_SMOKE_PROFILE    cargo profile to build/run (default release)
#   CCP_SMOKE_ARTIFACTS  directory to receive server log + final
#                        /metrics when the script fails (for CI uploads)

set -euo pipefail

PORT="${1:-19090}"
ADDR="127.0.0.1:${PORT}"
QPS="${CCP_SMOKE_QPS:-40}"
SECS="${CCP_SMOKE_SECS:-2}"
PROFILE="${CCP_SMOKE_PROFILE:-release}"

cd "$(dirname "$0")/.."
. scripts/lib.sh

ccp_build "$PROFILE"
ccp_init

ccp_launch_server serve "$ADDR"

echo "== bench-serve: ${QPS} qps for ${SECS}s against ${ADDR}"
"$CCP" bench-serve --addr "$ADDR" --qps "$QPS" --duration "$SECS" --concurrency 2

echo "== scraping /metrics"
ccp_scrape "$ADDR" /metrics "$WORK/metrics.txt"
for needle in \
  'ccp_server_requests_total' \
  'ccp_executor_jobs_total' \
  'ccp_llc_occupancy_bytes{class="polluting"}' \
  'ccp_llc_occupancy_bytes{class="sensitive"}' \
  'ccp_llc_occupancy_bytes{class="mixed"}'; do
  if ! grep -qF "$needle" "$WORK/metrics.txt"; then
    echo "missing from /metrics: ${needle}" >&2
    exit 1
  fi
done
echo "   all expected families present ($(wc -l <"$WORK/metrics.txt") lines)"

# No worker thread may have died serving the load: a panicked job is a
# bug even when the request that triggered it got an error response.
ccp_assert_no_panics "$WORK/metrics.txt"
echo "   jobs_panicked = 0"

echo "== thread priorities"
# Only the OLAP workers give way (`dual_pool::OLAP_NICE`); every other
# thread of the server keeps nice 0.
OLAP_NICE=$(sed -n 's/^pub const OLAP_NICE: i32 = \(-\{0,1\}[0-9]\{1,\}\);$/\1/p' crates/engine/src/dual_pool.rs)
[[ -n "$OLAP_NICE" ]] || { echo "OLAP_NICE not found in dual_pool.rs" >&2; exit 1; }
olap_workers=0
for task in /proc/"${CCP_SERVER_PIDS[0]}"/task/*; do
  # A thread may exit between the listing and the reads.
  comm=$(<"$task/comm") 2>/dev/null || continue
  stat=$(<"$task/stat") 2>/dev/null || continue
  # Field 19 of stat; the name in field 2 may hold spaces, so split after
  # its closing ')' (field 3 comes first there).
  read -r -a fields <<<"${stat##*) }"
  nice=${fields[16]}
  want=0
  if [[ "$comm" == olap-worker-* ]]; then
    want=$OLAP_NICE
    olap_workers=$((olap_workers + 1))
  fi
  if [[ "$nice" != "$want" ]]; then
    echo "thread ${comm} ($(basename "$task")) runs at nice ${nice}, want ${want}" >&2
    exit 1
  fi
done
if [[ $olap_workers == 0 ]]; then
  echo "no olap-worker-* thread in the server" >&2
  exit 1
fi
echo "   ${olap_workers} olap-worker thread(s) at nice ${OLAP_NICE}, every other thread at 0"

echo "== scraping /trace"
ccp_scrape "$ADDR" /trace "$WORK/trace.json"
python3 - "$WORK/trace.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
cats = {e.get("cat") for e in events if e.get("ph") != "M"}
for layer in ("server", "admission", "bind", "op", "query"):
    assert layer in cats, f"no {layer!r} spans in trace (got {sorted(filter(None, cats))})"
print(f"   valid Chrome trace JSON: {len(events)} events, layers {sorted(filter(None, cats))}")
PY

echo "serve smoke OK"
