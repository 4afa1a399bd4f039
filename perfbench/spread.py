#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) from
the repository root and prints, per metric, the median and the spread:
the distance between the first and third quartiles of the runs
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json, then the medians of the plain
host-time figures of the untraced runs. Exits 1 if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    wall = {}  # host-time figures, reported but not gated
    for seed in range(a.first_seed, a.first_seed + a.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", a.trace],
            capture_output=True, text=True, cwd=ROOT)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: run failed (exit {proc.returncode})\n"
                  f"{proc.stderr[-500:]}", file=sys.stderr)
            return 1
        result = json.loads(last)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in proc.stdout.splitlines():
            if line.startswith("perfbench-wall "):
                for name, v in json.loads(line[len("perfbench-wall "):]).items():
                    if name != "units":
                        wall.setdefault(name, []).append(v)
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(result["metrics"].items())))
    print(f"\n{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:40} {med:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    for name, vs in sorted(wall.items()):
        print(f"{'wall.' + name:40} {statistics.median(vs):14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
