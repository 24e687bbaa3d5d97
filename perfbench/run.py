#!/usr/bin/env python3
"""Builds and runs the resched repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite_pa --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the resched libraries
from src/ plus the benchmark binary) in Release mode under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later runs only
re-check the build. Build output goes to stderr; stdout carries the
binary's provenance line and, last, one JSON result line. The exit status
is non-zero when the build fails, the binary fails a check, or the binary
exceeds its time limit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("suite_pa", "par_restarts", "fleet_mix")
# A run is allowed 180 s; stop the binary well before that.
RUN_TIMEOUT_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(REPO_ROOT, path)
    return os.path.join(path, "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target",
                  "resched_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out_dir, "resched_perfbench")


def git_describe():
    """`git describe` of the checkout, or "unknown" outside a git one."""
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    try:
        run = subprocess.run(
            ["git", "-C", REPO_ROOT, "describe", "--always", "--dirty"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return run.stdout.strip() if run.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources: provenance when git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(REPO_ROOT, "src")
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git", git_describe(), "--src-digest", source_digest(),
           "--work-dir", os.path.join(out_dir, "work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected result keys")
    except (IndexError, ValueError) as e:
        print("run.py: benchmark printed no result (%s)" % e, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    if run.returncode != 0 or result["correct"] is not True:
        print("run.py: benchmark reported a failed check", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
