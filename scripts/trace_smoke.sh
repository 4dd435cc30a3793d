#!/usr/bin/env bash
# Observability smoke: run a tiny encode with the flight recorder on and
# validate its outputs. `trace_smoke` (crates/bench/src/bin/trace_smoke.rs)
# checks that the per-phase profile partitions the aggregate counters
# bit-for-bit and that the dump's Chrome trace-event export round-trips
# through the in-tree parser, then writes:
#
#   TRACE_smoke.jsonl      — the flight-recorder dump (m4ps-obs report)
#   TRACE_smoke.trace.json — its Chrome trace: load in chrome://tracing
#                            or Perfetto
#   PHASES_smoke.jsonl     — per-phase counters + modelled stall cycles,
#                            consumed by `bench_compare --phases`
#
# Everything runs --offline like the rest of CI.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== trace smoke (offline) =="
cargo run -q --release --offline -p m4ps-bench --bin trace_smoke -- \
    "$PWD/TRACE_smoke.jsonl" "$PWD/PHASES_smoke.jsonl"
echo "dump:   $PWD/TRACE_smoke.jsonl"
echo "trace:  $PWD/TRACE_smoke.trace.json"
echo "phases: $PWD/PHASES_smoke.jsonl"
