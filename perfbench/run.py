#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload <study_o2|codec_null|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build). The run's
human-readable report is passed through; the last line of standard
output is the JSON result. Exits non-zero, without a result, when the
build or the run fails.

The measured program runs without the M4PS_* variables that change what
is measured (thread counts, scheduling grain, trace and dump files), so
every run uses the library defaults. M4PS_KERNELS, which forces a kernel
tier, is passed on and recorded in the run's machine stamp.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("M4PS_") or k == "M4PS_KERNELS"}
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state", os.path.join(target, "perfbench-digests.txt"),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"perfbench: last line is not JSON: {e}", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"perfbench: result keys {sorted(result)} != {sorted(RESULT_KEYS)}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
