#!/usr/bin/env bash
# repro output gate: every experiment at smoke scale (one frame, diamond
# search ±4), diffed against the checked-in REPRO_smoke.txt. Simulated
# numbers are identical across kernel tiers and thread counts, so any
# difference is a change in what the study computes: a change that
# means to move them regenerates the file (and repro_output.txt) with
#
#   cargo run -q --release --offline -p m4ps-bench --bin repro -- \
#       --frames 1 --search diamond --search-range 4 all > REPRO_smoke.txt
#
# Runs --offline like the rest of CI.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== repro smoke (offline) =="
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
cargo run -q --release --offline -p m4ps-bench --bin repro -- \
    --frames 1 --search diamond --search-range 4 all > "$out"
if ! diff -u REPRO_smoke.txt "$out"; then
    echo "repro smoke: output differs from REPRO_smoke.txt" >&2
    exit 1
fi
echo "repro smoke: output matches REPRO_smoke.txt"
