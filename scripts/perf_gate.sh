#!/usr/bin/env bash
# Perf-regression gate for the cache-allocation fast path, the storage
# kernels (compressed scan, aggregation hash table), the grouped
# aggregation operator and a request's fixed costs in the server.
#
# Runs the `micro_alloc`, `storage_micro`, `engine_micro` and
# `server_micro` criterion benchmarks several times on the current tree
# and on a base ref (checked out into a throwaway git worktree),
# alternating the two round by round so host drift lands on both sides,
# compares per-benchmark medians, and fails if any gated benchmark got
# more than the threshold slower. A bench target a tree does not have is
# skipped there. The measurements come from the JSON lines the vendored
# criterion stand-in appends when CCP_BENCH_JSON is set.
#
# Usage:
#   scripts/perf_gate.sh [BASE_REF]        # default: origin/main, then main
#
# Tunables (environment):
#   CCP_PERF_RUNS       repetitions per side (default 5)
#   CCP_PERF_THRESHOLD  allowed slowdown in percent (default 15)
#   CCP_PERF_GATE_IDS   space-separated benchmark ids to gate
#                       (default: the mask-rebind fast path, the mask
#                       switch, the 20-bit scan, the hash-table update,
#                       the served q2 MAX aggregation, the served q3
#                       join probe, a wide-domain column build,
#                       alternating-class job dispatch, and a request's
#                       fixed costs: reply render, request-line parse,
#                       HTTP read and a metric-family label lookup)
#   CCP_BENCH_MS        measuring window per benchmark in ms (default 120)

set -euo pipefail

RUNS="${CCP_PERF_RUNS:-5}"
THRESHOLD="${CCP_PERF_THRESHOLD:-15}"
GATE_IDS="${CCP_PERF_GATE_IDS:-alloc/fast_path/rebind_same_mask alloc/switch/alternate_masks storage/scan/count_range_20bit storage/hashtable/update_100k_groups engine/aggregate/q2_max_64_groups engine/join/q3_probe_19bit storage/dict/build_256k_wide engine/dispatch/alternating_class_jobs server/json/render_reply server/json/parse_request_line server/http/read_request obs/family/get_or_create_hit}"
export CCP_BENCH_MS="${CCP_BENCH_MS:-120}"

REPO_ROOT="$(git rev-parse --show-toplevel)"
cd "$REPO_ROOT"

BASE_REF="${1:-}"
if [[ -z "$BASE_REF" ]]; then
    if git rev-parse --verify -q origin/main >/dev/null; then
        BASE_REF=origin/main
    else
        BASE_REF=main
    fi
fi

WORK_DIR="$(mktemp -d)"
BASE_TREE="$WORK_DIR/base"
PR_JSON="$WORK_DIR/pr.jsonl"
BASE_JSON="$WORK_DIR/base.jsonl"
cleanup() {
    git worktree remove --force "$BASE_TREE" >/dev/null 2>&1 || true
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# package:bench-target:crate-dir
BENCHES="ccp-bench:micro_alloc:crates/bench ccp-storage:storage_micro:crates/storage ccp-engine:engine_micro:crates/engine ccp-server:server_micro:crates/server"

run_round() { # run_round <tree-dir> <json-out>: one run of every bench the tree has
    local tree="$1" out="$2" entry pkg bench dir
    for entry in $BENCHES; do
        IFS=: read -r pkg bench dir <<<"$entry"
        [[ -f "$tree/$dir/benches/$bench.rs" ]] || continue
        (cd "$tree" && CCP_BENCH_JSON="$out" cargo bench -p "$pkg" --bench "$bench" >/dev/null)
    done
}

# Anything written here lands in the GitHub Actions job summary; local
# runs just drop it.
SUMMARY="${GITHUB_STEP_SUMMARY:-/dev/null}"

echo "== perf gate: current tree vs $BASE_REF (runs=$RUNS, threshold=${THRESHOLD}%) =="
git worktree add --detach "$BASE_TREE" "$BASE_REF" >/dev/null
for ((i = 1; i <= RUNS; i++)); do
    echo "-- round $i/$RUNS: current tree, then base ($BASE_REF)"
    run_round "$REPO_ROOT" "$PR_JSON"
    run_round "$BASE_TREE" "$BASE_JSON"
done

if [[ ! -s "$PR_JSON" ]]; then
    # A silently-empty measurement file must never read as "no
    # regression": it means the bench harness itself broke.
    echo "perf gate: no CCP_BENCH_JSON lines from the current tree — the" >&2
    echo "vendored criterion stand-in emitted no measurements (is the" >&2
    echo "micro_alloc/storage_micro/engine_micro/server_micro benches still wired to CCP_BENCH_JSON?)" >&2
    echo "### Perf gate: FAILED — no measurements from the current tree" >>"$SUMMARY"
    exit 1
fi

if [[ ! -s "$BASE_JSON" ]]; then
    # The base ref predates CCP_BENCH_JSON support in the vendored
    # criterion stand-in; there is nothing to compare against yet.
    echo "-- base produced no measurements; gate passes vacuously"
    {
        echo "### Perf gate (micro_alloc, storage_micro, engine_micro, server_micro)"
        echo
        echo "Vacuous pass: base \`${BASE_REF}\` produced no CCP_BENCH_JSON measurements."
    } >>"$SUMMARY"
    exit 0
fi

STATUS=0
python3 - "$PR_JSON" "$BASE_JSON" "$THRESHOLD" "$WORK_DIR/summary.md" $GATE_IDS <<'PY' || STATUS=$?
import json
import statistics
import sys

pr_path, base_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
summary_path = sys.argv[4]
gate_ids = sys.argv[5:]


def medians(path):
    by_id = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            by_id.setdefault(rec["id"], []).append(rec["ns_per_iter"])
    return {bench: statistics.median(v) for bench, v in by_id.items()}


pr, base = medians(pr_path), medians(base_path)
failed = False
rows = []
for bench in gate_ids:
    if bench not in pr:
        print(f"FAIL {bench}: missing from current-tree measurements")
        rows.append((bench, "—", "—", "—", "FAIL (not measured)"))
        failed = True
        continue
    if bench not in base:
        print(f"skip {bench}: not measured on base (new benchmark)")
        rows.append((bench, "—", f"{pr[bench]:.1f}", "—", "skip (new)"))
        continue
    delta = (pr[bench] - base[bench]) / base[bench] * 100.0
    verdict = "FAIL" if delta > threshold else "ok"
    print(
        f"{verdict:4s} {bench}: base {base[bench]:10.1f} ns  "
        f"pr {pr[bench]:10.1f} ns  delta {delta:+6.1f}%"
    )
    rows.append(
        (bench, f"{base[bench]:.1f}", f"{pr[bench]:.1f}", f"{delta:+.1f}%", verdict)
    )
    if delta > threshold:
        failed = True

with open(summary_path, "w") as f:
    f.write("### Perf gate (micro_alloc, storage_micro, engine_micro, server_micro)\n\n")
    f.write(f"Threshold: {threshold:.0f}% slowdown on medians.\n\n")
    f.write("| benchmark | base (ns/iter) | pr (ns/iter) | delta | verdict |\n")
    f.write("|---|---:|---:|---:|---|\n")
    for row in rows:
        f.write("| " + " | ".join(row) + " |\n")

sys.exit(1 if failed else 0)
PY
cat "$WORK_DIR/summary.md" >>"$SUMMARY"
if [[ $STATUS -ne 0 ]]; then
    exit "$STATUS"
fi
echo "== perf gate passed =="
