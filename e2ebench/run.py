#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench) and is incremental after the first run;
traced runs write their span file into .bench_out/. The last line of stdout
is the result object; everything before it (run stamp, notes) is context.
Exit status is non-zero when the build fails, the run fails or a check does.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    if run_quiet(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", BUILD_JOBS]) != 0:
        return None
    return os.path.join(build_dir, "e2ebench")


def commit():
    # Only this checkout's own history counts, never that of an enclosing repo.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "e2ebench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 2

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", commit(), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 2

    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                        "metrics"}:
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit status {proc.returncode})")
        return proc.returncode or 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
