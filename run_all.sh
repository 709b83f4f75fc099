#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation, plus the
# ablations, into results/. Pass --quick for a smoke pass or --full for
# the paper's own workload counts (102/259/120 mixes; hours of runtime).
set -euo pipefail
EFFORT="${1:-}"

cargo build --workspace --release

mkdir -p results
BINARIES=(
    fig6_single_core
    fig7_multicore
    fig8_scurve
    table3_fairness
    table4_storage
    table5_power
    table6_awb_sensitivity
    table6b_clb_sensitivity
    table7_cache_size
    case_study
    ablation_replacement
    ablation_awb_filter
    ablation_dbi_assoc
    ablation_drain_policy
    ablation_l2_dbi
    ablation_channels
    ablation_bankgroups
    workload_report
)
for bin in "${BINARIES[@]}"; do
    echo "== $bin =="
    # shellcheck disable=SC2086
    ./target/release/"$bin" $EFFORT | tee "results/$bin.txt"
done

echo "== microbenchmarks =="
cargo bench --workspace

echo
echo "All outputs are under results/; compare against EXPERIMENTS.md."
