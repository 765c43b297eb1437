#!/usr/bin/env bash
# Regenerates every experiment table in EXPERIMENTS.md.
# Usage: ./run_experiments.sh [output-dir]
set -euo pipefail

out="${1:-experiment-results}"
mkdir -p "$out"

echo "Building release binaries..."
cargo build --release -p lfrc-bench --bins

for exp in exp1_ops exp2_deque exp3_memory exp4_stall exp5_aba \
           exp6_cycles exp7_dcas exp8_destroy exp9_breadth \
           exp10_extensions exp11_latency; do
    echo "=== $exp ==="
    cargo run --release -q -p lfrc-bench --bin "$exp" | tee "$out/$exp.txt"
    echo
done

# E12 runs through `cargo bench` rather than a table binary.
echo "=== e12_pool ==="
cargo bench -q -p lfrc-bench --bench e12_pool | tee "$out/e12_pool_regen.txt"

# E17 is two-part: the shard-count × skew sweep and batch-amortization
# tables come from the bench, then the sustained soak (>= 60s, paced)
# records the per-op-type tail table and writes the timeline JSONL to
# $out/obs/e17_kv.timeline.jsonl.
echo "=== e17_kv ==="
{
    cargo bench -q -p lfrc-bench --bench e17_kv
    echo
    echo "== sustained soak (LFRC_SOAK=1) =="
    LFRC_SOAK=1 LFRC_OBS_DIR="$out/obs" \
        cargo run --release -q -p lfrc-bench --bin kv_soak
} | tee "$out/e17_kv.txt"

echo "All experiment outputs written to $out/"
