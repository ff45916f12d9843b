#!/usr/bin/env bash
# Reproduces every figure/table of the paper's evaluation at the scale given
# by PAC_* environment variables (see README). Results land in results/.
set -u
SCALE_ARGS="${PAC_KEYS:=60000} ${PAC_OPS:=20000} ${PAC_THREADS:=16} ${PAC_DILATION:=192}"
export PAC_KEYS PAC_OPS PAC_THREADS PAC_DILATION
echo "scale: keys=$PAC_KEYS ops=$PAC_OPS threads<=$PAC_THREADS dilation=$PAC_DILATION"
mkdir -p results
for fig in fig02_coherence fig03_allocator fig04_lookup_bw fig05_scan_bw \
           fig06_htm fig09_ycsb_string fig10_ycsb_int fig11_low_bw \
           fig12_factor fig13_tail fig14_single fig15_skew \
           exp_jump_distance exp_directory_traffic exp_alloc_share exp_eadr \
           exp_recovery_time; do
  echo "=== running $fig"
  cargo run -q --release -p bench --bin "$fig" > "results/$fig.txt" 2>&1 || echo "  FAILED ($fig)"
done
echo "=== running exp_recovery (PAC_CRASH_ROUNDS=${PAC_CRASH_ROUNDS:=25})"
export PAC_CRASH_ROUNDS
cargo run -q --release -p bench --bin exp_recovery > results/exp_recovery.txt 2>&1 || echo "  FAILED (exp_recovery)"
echo "=== running observability (obsv-report)"
cargo run -q --release -p bench --bin obsv-report > results/obsv_report.txt 2>&1 || echo "  FAILED (obsv-report)"
python3 scripts/validate_obsv_json.py results/obsv_report.json results/fig13_tail.json || echo "  FAILED (obsv JSON validation)"
echo "done; see results/"
