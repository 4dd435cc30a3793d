#!/usr/bin/env python3
"""Run a result set: every workload, once per seed, and summarize it.

Usage (from the repository root):

    python3 perfbench/set.py                 # untraced set: end-to-end metrics
    python3 perfbench/set.py --trace 1       # traced set: per-layer ledger
    python3 perfbench/set.py --runs 5 --workloads serve_mix

Prints each metric by name with its unit, median, quartiles, spread
(interquartile range over median, as statistics.quantiles(n=4) gives
them) and sample counts, stamped with the machine the set ran on, and
writes the same as JSON (default: $CARGO_TARGET_DIR or .bench_build,
perfbench-set-trace<k>.json). Exits non-zero if any run fails or any
output check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines
    return json.loads(lines[-1]), lines


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    out = args.out or os.path.join(target, f"perfbench-set-trace{args.trace}.json")
    ok = True
    machine = None
    summary = {}
    for workload in args.workloads.split(","):
        values, samples, units, failures = {}, {}, {}, []
        for seed in range(1, args.runs + 1):
            result, lines = run_one(workload, seed, args.seconds, args.trace)
            for line in lines:
                if machine is None and " machine " in line:
                    machine = line.split(" machine ", 1)[1]
                m = METRIC_LINE.match(line)
                if m:
                    samples.setdefault(m.group(1), []).append(int(m.group(4)))
                    units[m.group(1)] = m.group(3)
                if line.startswith("check FAIL") or (args.trace and line.startswith("ledger")):
                    print(f"[{workload} seed={seed}] {line}")
            if result is None or not result["correct"] or result["failed"]:
                ok = False
                failures.append(seed)
                print(f"[{workload} seed={seed}] run failed or incorrect", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"\n{workload}: {args.runs} runs, trace={args.trace}, failed seeds {failures}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- spread above bound/3"
            bound_txt = f" bound {bound:.3f}" if bound is not None else ""
            n = statistics.median(samples.get(name, [0]))
            print(f"  {name:34s} {med:14.6g} {units.get(name, ''):6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{bound_txt} n/run {n:g} runs {len(vals)}{flag}")
            rows[name] = {"unit": units.get(name), "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "samples_per_run": n,
                          "runs": len(vals), "values": vals}
        summary[workload] = {"failed_seeds": failures, "metrics": rows}
    doc = {"machine": machine, "trace": args.trace, "seconds": args.seconds,
           "seeds": list(range(1, args.runs + 1)), "workloads": summary}
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"\nmachine {machine}\nwrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
