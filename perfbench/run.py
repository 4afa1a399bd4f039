#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload stream|certify|campaign \
        --seed N --seconds S --trace 0|1 [--tiny] [--control NAME]

Configures and builds perfbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
benchmark binary with the given flags. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result; the exit code is the
binary's. Traced runs write their spans to <build>/spans/.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", "2"],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found at src/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if flag(args, "--work-dir") is None:
        args += ["--work-dir", os.path.join(build_dir, "work")]
    if flag(args, "--trace") == "1" and flag(args, "--spans") is None:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(
            spans, f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.json")]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
