#!/usr/bin/env bash
# Tenant smoke gate: quotas bite per tenant, tenancy costs no CLOSIDs,
# and shutdown leaves zero `ccp-` groups behind.
#
# Starts `ccp serve` with the fake resctrl tree capped at 4 CLOSIDs — a
# common CAT part: the root plus exactly the three mask groups workers
# bind into — and four tenants configured by quota alone (there are no
# grant weights: admission grants in arrival order), then:
#
#   * a zero-quota tenant is 429'd at arrival while a quota'd tenant
#     serves 200 through the very same queue (quotas are per tenant,
#     not a shared valve);
#   * `ccp bench-serve --tenant-mix alpha:50,beta:30,gamma:20` drives a
#     skewed three-tenant mix with a 1% error gate;
#   * the way masks are in force under that budget: the OLAP pool
#     switched masks and not one bind failed;
#   * the mix's oltp share is served inline on the connection threads:
#     the OLTP pool ran no job and failed no bind;
#   * SIGINT shutdown runs the final sweep and the server's own exit
#     log proves 0 `ccp-` groups remain;
#   * zero worker panics end to end.
#
# Usage:
#   scripts/tenant_smoke.sh [PORT]          # default: 19393
#
# Tunables (environment):
#   CCP_TENANT_QPS       offered load (default 40)
#   CCP_TENANT_SECS      bench duration in seconds (default 6)
#   CCP_TENANT_PROFILE   cargo profile to build/run (default release)
#   CCP_SMOKE_ARTIFACTS  directory to receive server log + final
#                        /metrics when the script fails (for CI uploads)

set -euo pipefail

PORT="${1:-19393}"
ADDR="127.0.0.1:${PORT}"
QPS="${CCP_TENANT_QPS:-40}"
SECS="${CCP_TENANT_SECS:-6}"
PROFILE="${CCP_TENANT_PROFILE:-release}"

cd "$(dirname "$0")/.."
. scripts/lib.sh

ccp_build "$PROFILE"
ccp_init

ccp_launch_server serve "$ADDR" \
  --fake-closids 4 \
  --tenant-quota alpha=8 \
  --tenant-quota beta=8 \
  --tenant-quota gamma=8 \
  --tenant-quota tiny=0
SERVER_PID="${CCP_SERVER_PIDS[${#CCP_SERVER_PIDS[@]}-1]}"
SERVER_LOG="${CCP_SERVER_LOGS[${#CCP_SERVER_LOGS[@]}-1]}"

# Numeric comparison helpers over scraped samples (empty = missing).
num_eq() { [[ -n "${1:-}" ]] && awk -v a="$1" -v b="$2" 'BEGIN { exit (a+0 == b+0) ? 0 : 1 }'; }
num_gt0() { [[ -n "${1:-}" ]] && awk -v a="$1" 'BEGIN { exit (a+0 > 0) ? 0 : 1 }'; }

# POST /query as a tenant; echoes the HTTP status code.
post_as_tenant() {
  local tenant="$1" body="$2"
  if command -v curl >/dev/null 2>&1; then
    curl -s -o /dev/null -w '%{http_code}' -X POST \
      -H "X-CCP-Tenant: ${tenant}" --data "$body" "http://${ADDR}/query"
  else
    # wget exits non-zero on 4xx; read the status off --server-response.
    wget -q -O /dev/null --server-response \
      --header="X-CCP-Tenant: ${tenant}" --post-data="$body" \
      "http://${ADDR}/query" 2>&1 \
      | awk '/^  HTTP\// { code=$2 } END { print code }'
  fi
}

ccp_scrape "$ADDR" /stats "$WORK/stats.json"
grep -qF '"tenants"' "$WORK/stats.json" || {
  echo "/stats is missing the tenants section:" >&2
  cat "$WORK/stats.json" >&2
  exit 1
}
grep -qF '"reconciler":{"enabled":true' "$WORK/stats.json" || {
  echo "/stats says the orphan sweeps are not running:" >&2
  cat "$WORK/stats.json" >&2
  exit 1
}

echo "== per-tenant quotas: tiny (quota 0) is rejected, alpha serves"
STATUS_TINY="$(post_as_tenant tiny '{"workload":"q1"}')"
STATUS_ALPHA="$(post_as_tenant alpha '{"workload":"q1"}')"
if [[ "$STATUS_TINY" != 429 ]]; then
  echo "tenant tiny (quota 0) got HTTP ${STATUS_TINY}, expected 429" >&2
  exit 1
fi
if [[ "$STATUS_ALPHA" != 200 ]]; then
  echo "tenant alpha (quota 8) got HTTP ${STATUS_ALPHA}, expected 200" >&2
  exit 1
fi
echo "   tiny -> 429, alpha -> 200"

echo "== bench-serve --tenant-mix alpha:50,beta:30,gamma:20 on 4 CLOSIDs: ${QPS} qps for ${SECS}s"
"$CCP" bench-serve --addr "$ADDR" --qps "$QPS" --duration "$SECS" \
  --concurrency 2 --max-error-pct 1 \
  --tenant-mix alpha:50,beta:30,gamma:20 # propagates the >=99% gate

# Four CLOSIDs hold the three mask groups, so every bind must land: the
# masks are in force, not merely reported in the replies.
ccp_scrape "$ADDR" /metrics "$WORK/metrics.txt"
SWITCHES=$(ccp_metric "$WORK/metrics.txt" 'ccp_executor_mask_switches_total{pool="olap"}')
BIND_FAILURES=$(ccp_metric "$WORK/metrics.txt" 'ccp_executor_bind_failures_total{pool="olap"}')
if ! num_gt0 "$SWITCHES" || ! num_eq "$BIND_FAILURES" 0; then
  echo "way masks not in force under 4 CLOSIDs: mask_switches=${SWITCHES:-?} bind_failures=${BIND_FAILURES:-?}" >&2
  grep '^ccp_executor_\(mask_switches\|bind_failures\)' "$WORK/metrics.txt" >&2 || true
  exit 1
fi
echo "   olap mask_switches=${SWITCHES}, bind_failures=0"

# The mix's oltp share is served inline on the connection threads, which
# never bind: the OLTP pool ran no job and so failed no bind.
OLTP_BIND_FAILURES=$(ccp_metric "$WORK/metrics.txt" 'ccp_executor_bind_failures_total{pool="oltp"}')
OLTP_JOBS=$(awk '/^ccp_executor_jobs_total\{.*pool="oltp"/ { sum += $NF } END { print sum + 0 }' "$WORK/metrics.txt")
if [[ -n "$OLTP_BIND_FAILURES" ]] && ! num_eq "$OLTP_BIND_FAILURES" 0; then
  echo "oltp statements bound a mask: bind_failures{pool=\"oltp\"}=${OLTP_BIND_FAILURES}" >&2
  exit 1
fi
if ! num_eq "$OLTP_JOBS" 0; then
  echo "oltp statements went through the OLTP pool: ${OLTP_JOBS} job(s)" >&2
  grep '^ccp_executor_jobs_total' "$WORK/metrics.txt" >&2 || true
  exit 1
fi
echo "   oltp served inline: 0 OLTP-pool jobs, oltp bind_failures=${OLTP_BIND_FAILURES:-absent}"

# Every tenant's traffic is labelled in the scrape. The mix's oltp
# share (and reuse-predicted scan hits) are admitted as sensitive, so
# that family exists for every tenant regardless of reuse behaviour.
for tenant in alpha beta gamma; do
  SEEN=$(ccp_metric "$WORK/metrics.txt" \
    "ccp_server_tenant_requests_total{class=\"sensitive\",tenant=\"${tenant}\"}")
  if ! num_gt0 "$SEEN"; then
    echo "no labelled requests for tenant ${tenant} in /metrics" >&2
    exit 1
  fi
done
echo "   per-tenant request families present for alpha/beta/gamma"

ccp_assert_no_panics "$WORK/metrics.txt"
echo "   jobs_panicked = 0"

# Graceful shutdown must run the final sweep: the server's own exit log
# is the witness that zero ccp- groups outlive the process.
echo "== SIGINT shutdown: zero ccp- groups may remain"
kill -INT "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
if ! grep -qE 'reconcile shutdown sweep: removed [0-9]+ group\(s\), 0 ccp- group\(s\) remain' "$SERVER_LOG"; then
  echo "shutdown sweep did not report zero remaining ccp- groups:" >&2
  grep 'reconcile' "$SERVER_LOG" >&2 || cat "$SERVER_LOG" >&2
  exit 1
fi
echo "   shutdown sweep left 0 ccp- group(s)"

echo "tenant smoke OK"
