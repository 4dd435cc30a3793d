#!/usr/bin/env bash
# Thread-scaling bench: run the parallel/encode_frame/threads=N and
# parallel/decode_frame/threads=N series, write BENCH_scaling.json at
# the repo root, and print the speedup tables via `bench_compare
# --scaling` (which also enforces the machine-aware threads=4 speedup
# floors, encode and decode; override the floor with
# M4PS_MIN_SCALING=<x>).
#
# Offline like everything else; CI uploads BENCH_scaling.json as an
# artifact next to BENCH_smoke.json.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== thread-scaling bench (parallel/{encode,decode}_frame) =="
# threads=N series only ("frame/threads" matches the encode and decode
# series and nothing else): the obs=on/off overhead pair is gated by
# verify.sh's baseline comparison, and the 1-iteration smoke medians
# are too noisy to gate it twice.
cargo bench --offline -p m4ps-bench --bench kernels -- \
    --smoke --json "$PWD/BENCH_scaling.json" frame/threads

# The report stamps the resolved SIMD kernel tier into meta.kernel_tier
# (bench_compare refuses to diff reports from different tiers); surface
# it here so CI logs say which tier produced these numbers.
tier=$(grep -o '"kernel_tier": "[a-z0-9]*"' BENCH_scaling.json | cut -d'"' -f4)
echo "kernel tier: ${tier:-unknown} (M4PS_KERNELS=${M4PS_KERNELS:-auto})"

scaling_args=(--scaling BENCH_scaling.json)
if [[ -n "${M4PS_MIN_SCALING:-}" ]]; then
    scaling_args+=(--min-scaling "$M4PS_MIN_SCALING")
fi
cargo run -q --release --offline -p m4ps-testkit --bin bench_compare -- \
    "${scaling_args[@]}"

echo "scaling report: $PWD/BENCH_scaling.json"
