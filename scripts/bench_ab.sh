#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (BENCHMARK.json).
#
#   scripts/bench_ab.sh [--base REV] [--rounds N] [--seed N] [WORKLOAD...]
#
# Builds the benchmark twice: at the base commit REV, checked out into a
# temporary `git worktree`, and from this checkout's working tree (the
# head). REV defaults to HEAD, the commit the working tree sits on, which
# measures uncommitted changes; measure a committed change with `--base
# HEAD~1`. Then, per workload (default: all of BENCHMARK.json's), it runs
# base and head interleaved for N rounds (default 10, at least 10) of
# BENCHMARK.json's `run_seconds` each, swapping which side goes first
# every round so that a host drifting in one direction favours neither
# side.
#
# For every end-to-end metric it prints the base and head medians, the
# head/base ratio, how much worse the head is as a share of the base
# median, and the metric's BENCHMARK.json bound. It exits 1 if any metric
# is worse than its bound or any head run failed a check, 2 on a usage or
# build error, and 0 otherwise.
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
cleanup() {
    git -C "$ROOT" worktree remove --force "$BASE_DIR" >/dev/null 2>&1 || true
    git -C "$ROOT" worktree prune >/dev/null 2>&1 || true
    rm -rf "$WORK"
}
trap cleanup EXIT

git -C "$ROOT" worktree add --detach --quiet "$BASE_DIR" "$BASE_REV"
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
# $WORK/<workload>.<side>.jsonl; a run that prints none counts as failed.
run() {
    local side="$1" workload="$2" bin="BIN_$1" out
    out="$(cd "$WORK" && "${!bin}" --workload "$workload" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>>"$WORK/$workload.$side.err" | tail -n 1)" || true
    if [[ "$out" != \{* ]]; then
        out='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    fi
    echo "$out" >>"$WORK/$workload.$side.jsonl"
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


print(f"{'workload':<11} {'metric':<14} {'base':>12} {'head':>12} "
      f"{'head/base':>9} {'worse':>7} {'bound':>6}")
for workload in workloads:
    base, head = runs(workload, "base"), runs(workload, "head")
    failed = sum(r["failed"] for r in head)
    if failed:
        breach = True
        print(f"{workload:<11} head runs failed {failed} check(s)  BREACH")
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
sys.exit(1 if breach else 0)
EOF
