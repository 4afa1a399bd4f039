#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

    python3 perfbench/selftest.py [--binary PATH]

Without --binary it builds the benchmark first, as run.py does. Checks, at
self-test sizes:
  * every workload in BENCHMARK.json passes its correctness gates and, with
    --trace 0, emits exactly the end_to_end metrics and, with --trace 1,
    exactly the per_layer metrics, each with its declared unit;
  * both seeded negative controls fire (a log-divergence stream and a
    deliberately wrong explorer property): exit code 1, correct false;
  * the exact counters repeat bit for bit across two processes;
  * the binary refuses to report timings when WFD_AUDIT is set.
Exits 0 when every check passes, 1 otherwise.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(binary, work_dir, *args, env=None):
    proc = subprocess.run(
        [binary, "--seconds", "1", "--tiny", "--work-dir", work_dir] + list(args),
        capture_output=True, text=True, env=env, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    counters = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("perfbench-counters "):
            counters = json.loads(line[len("perfbench-counters "):])
    return proc, result, counters


def metrics_match(result, declared, label):
    got = result["metrics"] if result else {}
    want = {m["name"]: m["unit"] for m in declared}
    check(set(got) == set(want),
          f"{label}: emits exactly the declared metrics "
          f"(missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))})")
    bad_units = [n for n in want if n in got and got[n]["unit"] != want[n]]
    check(not bad_units, f"{label}: units match BENCHMARK.json {bad_units}")
    bad_values = [n for n in got
                  if not isinstance(got[n]["value"], (int, float))
                  or not math.isfinite(got[n]["value"])]
    check(not bad_values, f"{label}: every value is a finite number {bad_values}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary")
    binary = ap.parse_args().binary
    if binary is None:
        sys.path.insert(0, HERE)
        import run as bench_run  # perfbench/run.py
        binary = bench_run.build(os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    with tempfile.TemporaryDirectory() as work:
        for wl in spec["workloads"]:
            name = wl["name"]
            for trace, declared in (("0", spec["end_to_end"]),
                                    ("1", spec["per_layer"])):
                label = f"{name} --trace {trace}"
                proc, result, counters = run(binary, work, "--workload", name,
                                             "--seed", "7", "--trace", trace)
                check(proc.returncode == 0 and result is not None
                      and result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1,
                      f"{label}: exits 0 and passes every gate "
                      f"(exit {proc.returncode}; {proc.stderr.strip()[-300:]})")
                metrics_match(result, declared, label)
                if trace == "0":
                    for m in spec["end_to_end"]:
                        v = (result or {}).get("metrics", {}).get(m["name"], {})
                        check(v.get("value", 0) > 0, f"{label}: {m['name']} > 0")
                check(counters is not None and counters["exact"],
                      f"{label}: reports exact counters")

        _, _, first = run(binary, work, "--workload", "stream", "--seed", "9",
                          "--trace", "0")
        _, _, second = run(binary, work, "--workload", "stream", "--seed", "9",
                           "--trace", "0")
        check(first is not None and second is not None
              and first["exact"] == second["exact"],
              "stream: exact counters repeat across processes")

        for name, control, caught in (
                ("stream", "log-divergence", "stream verdict log_divergence"),
                ("certify", "wrong-property", "certify found a violation")):
            proc, result, _ = run(binary, work, "--workload", name, "--seed", "7",
                                  "--trace", "0", "--control", control)
            check(proc.returncode == 1 and result is not None
                  and not result["correct"] and result["failed"] >= 1
                  and caught in proc.stderr,
                  f"{name}: negative control {control} fires "
                  f"(exit {proc.returncode}; {proc.stderr.strip()[-200:]})")

        env = dict(os.environ, WFD_AUDIT="throw")
        proc, result, _ = run(binary, work, "--workload", "stream", "--seed", "7",
                              "--trace", "0", env=env)
        check(proc.returncode != 0 and result is None,
              "refuses to report timings with WFD_AUDIT set")

    print(f"{len(failures)} failure(s)" if failures else "all self-tests pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
