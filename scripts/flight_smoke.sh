#!/usr/bin/env bash
# End-to-end gate for the flight recorder.
#
# An adaptive server on the fake resctrl backend is fed the scripted
# occupancy collapse; once the controller repartitions, a bench run
# drives load and `bench-serve --timeline-out` saves the recorder's
# `/timeline`. Asserts:
#
#   * the timeline carries >= 1 `repartition` event, with per-class
#     `ccp_llc_occupancy_bytes` points both before and after the event's
#     sequence number (the black box shows cause and effect);
#   * a client tailing `/timeline?since=<cursor>` through the bench run,
#     with each reply's `tick` as its next cursor, gets every point of
#     the `ccp_build_info` gauge exactly once (the documented `?since=`
#     contract, live);
#   * the bench report carries the build provenance it measured, and its
#     `git_sha` is the checkout's HEAD (a stale build fails the gate).
#
# Usage:
#   scripts/flight_smoke.sh [PORT]   # default 19390
#
# Tunables (environment):
#   CCP_FLIGHT_QPS        offered load (default 40)
#   CCP_FLIGHT_SECS       bench duration in seconds (default 3)
#   CCP_FLIGHT_PROFILE    cargo profile to build/run (default release)
#   CCP_SMOKE_ARTIFACTS   directory to receive logs + scrapes on failure

set -euo pipefail

PORT_FLIGHT="${1:-19390}"
QPS="${CCP_FLIGHT_QPS:-40}"
SECS="${CCP_FLIGHT_SECS:-3}"
PROFILE="${CCP_FLIGHT_PROFILE:-release}"
TRACE='sensitive:0.95x6,0.12;polluting:0.08;mixed:0.02'

cd "$(dirname "$0")/.."
. scripts/lib.sh

ccp_build "$PROFILE"
ccp_init

ADDR_FLIGHT="127.0.0.1:${PORT_FLIGHT}"

ccp_launch_server flight "$ADDR_FLIGHT" --fake-resctrl --adaptive \
  --control-interval-ms 50 \
  --occupancy-script "$TRACE"

echo "== waiting for the adaptive controller to repartition"
CONVERGED=0
for _ in $(seq 1 150); do
  if ccp_scrape "$ADDR_FLIGHT" /metrics "$WORK/flight.metrics.txt" 2>/dev/null; then
    REPARTS=$(ccp_metric "$WORK/flight.metrics.txt" ccp_control_repartitions_total)
    if [[ -n "$REPARTS" && "$REPARTS" != 0 ]]; then
      CONVERGED=1
      break
    fi
  fi
  sleep 0.1
done
if [[ "$CONVERGED" != 1 ]]; then
  echo "controller never repartitioned on the scripted trace:" >&2
  grep '^ccp_control' "$WORK/flight.metrics.txt" >&2 || true
  exit 1
fi
echo "   repartitions=${REPARTS}"

echo "== bench with a live timeline tail beside the load"
"$CCP" bench-serve --addr "$ADDR_FLIGHT" \
  --qps "$QPS" --duration "$SECS" --concurrency 2 --max-error-pct 1 \
  --json-out "$WORK/bench.json" --timeline-out "$WORK/timeline.json" &
BENCH_PID=$!
# Tail the timeline beside the load: one pull every 50 ms for ~3 s, each
# passing the previous reply's `tick`. The build-info gauge has a point
# at every tick, so its sequence numbers must come back as exactly the
# ticks the tail covered.
python3 - "$ADDR_FLIGHT" >"$WORK/tail.txt" 2>&1 <<'PY' &
import json, sys, time, urllib.request

addr = sys.argv[1]

def pull(since):
    url = f"http://{addr}/timeline?since={since}&series=ccp_build_info"
    with urllib.request.urlopen(url, timeout=5) as reply:
        return json.load(reply)

first = cursor = pull(0)["tick"]
seqs = {}
deadline = time.monotonic() + 3.0
while time.monotonic() < deadline:
    time.sleep(0.05)
    tl = pull(cursor)
    for name, pts in tl["series"].items():
        seqs.setdefault(name, []).extend(int(seq) for seq, _ in pts)
    cursor = tl["tick"]
want = list(range(first + 1, cursor + 1))
assert want and seqs, f"tail saw no build-info points (ticks {first}..{cursor})"
for name, got in seqs.items():
    assert got == want, (
        f"{name}: tail got {len(got)} points {got[:4]}..{got[-4:]}, "
        f"want ticks {first + 1}..={cursor} once each"
    )
print(f"   tailed ticks {first + 1}..={cursor}: every build-info point once, in order")
PY
TAIL_PID=$!
wait "$BENCH_PID"
if ! wait "$TAIL_PID"; then
  cat "$WORK/tail.txt" >&2
  exit 1
fi
cat "$WORK/tail.txt"

echo "== checking the timeline black box"
python3 - "$WORK/timeline.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    tl = json.load(f)

events = tl["events"]
reparts = [e for e in events if e["kind"] == "repartition"]
assert reparts, f"no repartition event in the timeline; kinds: {[e['kind'] for e in events]}"
ev = reparts[0]

occ = {name: pts for name, pts in tl["series"].items()
       if name.startswith("ccp_llc_occupancy_bytes")}
assert occ, f"no occupancy series in the timeline; have: {sorted(tl['series'])[:10]}"
for name, pts in occ.items():
    seqs = [seq for seq, _ in pts]
    assert any(s < ev["seq"] for s in seqs) and any(s > ev["seq"] for s in seqs), (
        f"{name} lacks points around the repartition at seq {ev['seq']}: "
        f"seqs {seqs[:3]}..{seqs[-3:]}"
    )

ways = [name for name in tl["series"] if name.startswith("ccp_control_mask_ways")]
assert ways, "mask-way series missing from the timeline"
print(f"   repartition at seq {ev['seq']} ({ev['detail']}), "
      f"{len(occ)} occupancy series bracket it")
PY

# The bench report must carry the build it measured, and that build must
# be this checkout's HEAD.
python3 - "$WORK/bench.json" "$(git rev-parse --short HEAD)" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
head = sys.argv[2]
build = doc.get("build")
assert build and build.get("version") and build.get("git_sha") and build.get("profile"), (
    f"bench report lacks build provenance: {build!r}"
)
assert build["git_sha"] == head, (
    f"bench report built from {build['git_sha']}, but HEAD is {head}: stale build provenance"
)
print(f"   bench report built from {build['git_sha']} = HEAD ({build['profile']})")
PY

ccp_assert_no_panics "$WORK/flight.metrics.txt"

echo "flight smoke OK"
