#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (BENCHMARK.json).
#
#   scripts/bench_ab.sh [--base REV] [--rounds N] [--seed N] [WORKLOAD...]
#
# Builds the benchmark twice: at the base commit REV, exported with `git
# archive` into a temporary directory, and from this checkout's working
# tree (the head). REV defaults to HEAD, the commit the working tree sits
# on, which measures uncommitted changes; measure a committed change with
# `--base HEAD~1`. Then, per workload (default: all of BENCHMARK.json's), it runs
# base and head interleaved for N rounds (default 10, at least 10) of
# BENCHMARK.json's `run_seconds` each, swapping which side goes first
# every round so that a host drifting in one direction favours neither
# side.
#
# For every end-to-end metric it prints the base and head medians, the
# head/base ratio, how much worse the head is as a share of the base
# median, and the metric's BENCHMARK.json bound. After the rounds it makes
# one traced run (`--trace 1`) per side per workload and prints base,
# head and head/base for every BENCHMARK.json `per_layer` metric: single
# runs, for attribution only, never gated. Failed checks of base runs are
# reported too. It exits 1 if any metric is worse than its bound or any
# head run (timed or traced) failed a check, 2 on a usage or build error,
# and 0 otherwise.
#
# Compare only runs taken on the same host in one invocation: the bounds
# were fixed on a 2-vCPU VM whose speed drifts by up to 30%, and fewer
# than 10 rounds breached a 0.25 bound by chance on an unchanged tree.
set -euo pipefail

usage() {
    sed -n '3,4p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

ROOT="$(git rev-parse --show-toplevel)"
SPEC="$ROOT/BENCHMARK.json"
BASE_REV="HEAD"
ROUNDS=10
SEED=1
WORKLOADS=()
while (($#)); do
    case "$1" in
        --base) BASE_REV="${2:?--base needs a revision}"; shift 2 ;;
        --rounds) ROUNDS="${2:?--rounds needs a number}"; shift 2 ;;
        --seed) SEED="${2:?--seed needs a number}"; shift 2 ;;
        -h | --help) usage ;;
        -*) echo "bench_ab: unknown option $1" >&2; usage ;;
        *) WORKLOADS+=("$1"); shift ;;
    esac
done
if ! [[ "$ROUNDS" =~ ^[0-9]+$ ]] || ((ROUNDS < 10)); then
    echo "bench_ab: --rounds must be at least 10" >&2
    exit 2
fi
SECONDS_PER_RUN="$(jq -r '.run_seconds' "$SPEC")"
if ((${#WORKLOADS[@]} == 0)); then
    mapfile -t WORKLOADS < <(jq -r '.workloads[].name' "$SPEC")
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
BASE_DIR="$WORK/base"
trap 'rm -rf "$WORK"' EXIT

mkdir "$BASE_DIR"
git -C "$ROOT" archive "$BASE_REV" | tar -x -C "$BASE_DIR" ||
    { echo "bench_ab: cannot export $BASE_REV" >&2; exit 2; }
MANIFEST="crates/bench/src/bin/benchmark/Cargo.toml"
build() {
    echo "bench_ab: building $2 in $1" >&2
    cargo build --release --quiet --offline --manifest-path "$1/$MANIFEST" ||
        { echo "bench_ab: build of $2 failed" >&2; exit 2; }
}
build "$BASE_DIR" base
build "$ROOT" head
BIN_base="$BASE_DIR/crates/bench/src/bin/benchmark/target/release/benchmark"
BIN_head="$ROOT/crates/bench/src/bin/benchmark/target/release/benchmark"

# One run: the benchmark's last stdout line (its JSON summary) goes to
# $WORK/<workload>.<side>.jsonl, or .traced.jsonl for a traced run
# (`trace` = 1); a run that prints none counts as failed.
run() {
    local side="$1" workload="$2" trace="${3:-0}" bin="BIN_$1" out suffix=""
    ((trace)) && suffix=".traced"
    out="$(cd "$WORK" && "${!bin}" --workload "$workload" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace "$trace" 2>>"$WORK/$workload.$side.err" | tail -n 1)" || true
    if [[ "$out" != \{* ]]; then
        out='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    fi
    echo "$out" >>"$WORK/$workload.$side$suffix.jsonl"
}

for workload in "${WORKLOADS[@]}"; do
    for ((round = 1; round <= ROUNDS; round++)); do
        echo "bench_ab: $workload round $round/$ROUNDS" >&2
        if ((round % 2)); then
            run base "$workload"
            run head "$workload"
        else
            run head "$workload"
            run base "$workload"
        fi
    done
    echo "bench_ab: $workload traced runs" >&2
    run base "$workload" 1
    run head "$workload" 1
done

python3 - "$SPEC" "$WORK" "${WORKLOADS[@]}" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
work, workloads = sys.argv[2], sys.argv[3:]
breach = False


def runs(workload, side):
    with open(f"{work}/{workload}.{side}.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()]


def value(run, name):
    return run["metrics"].get(name, {}).get("value")


def cell(x):
    return f"{x:>12.4g}" if x is not None else f"{'-':>12}"


print(f"{'workload':<11} {'metric':<14} {'base':>12} {'head':>12} "
      f"{'head/base':>9} {'worse':>7} {'bound':>6}")
for workload in workloads:
    base, head = runs(workload, "base"), runs(workload, "head")
    traced = {side: runs(workload, f"{side}.traced") for side in ("base", "head")}
    for side, side_runs in (("base", base + traced["base"]), ("head", head + traced["head"])):
        failed = sum(r["failed"] for r in side_runs)
        if failed:
            # A failed base check is reported; only the head's gates.
            breach |= side == "head"
            print(f"{workload:<11} {side} runs failed {failed} check(s)"
                  f"{'  BREACH' if side == 'head' else ''}")
    for m in spec["end_to_end"]:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        h = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
        if not b or not h:
            breach = True
            print(f"{workload:<11} {name:<14} missing  BREACH")
            continue
        mb, mh = statistics.median(b), statistics.median(h)
        ratio = mh / mb if mb else float("inf")
        worse = 1 - ratio if m["better"] == "higher" else ratio - 1
        flag = worse > m["bound"]
        breach |= flag
        print(f"{workload:<11} {name:<14} {mb:>12.4g} {mh:>12.4g} {ratio:>9.3f} "
              f"{worse:>+7.1%} {m['bound']:>6.2f}{'  BREACH' if flag else ''}")

# One traced run per side: attribution only, never gated.
print(f"\n{'workload':<11} {'per-layer metric (1 traced run)':<31} "
      f"{'base':>12} {'head':>12} {'head/base':>9}")
for workload in workloads:
    base, head = (runs(workload, f"{side}.traced")[0] for side in ("base", "head"))
    for m in spec["per_layer"]:
        b, h = value(base, m["name"]), value(head, m["name"])
        if b is None and h is None:
            continue
        ratio = f"{h / b:>9.3f}" if b and h is not None else f"{'-':>9}"
        print(f"{workload:<11} {m['name']:<31} {cell(b)} {cell(h)} {ratio}")
sys.exit(1 if breach else 0)
EOF
