#!/usr/bin/env python3
"""End-to-end all-pairs benchmark: build perfbench_e2e from this checkout, run
one workload, and print one JSON result line.

    python3 perfbench/run.py --workload forensics-4node --seed 1 \
        --seconds 10 --trace 0

Run from the root of the repository. The build goes to .bench_build/ and
per-run outputs (result JSON, Chrome traces) to .bench_build/perfbench-out/.
Extra flags after the four required ones (--tiny, --inject KIND) are passed
to perfbench_e2e; perfbench/test_checks.py uses them. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
PROGRAM = os.path.join(BUILD_DIR, "perfbench_e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build perfbench_e2e and the rocket library it links."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_e2e",
         "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"{stem}.trace.json")]
    cmd += extra
    # perfbench_e2e times its set-up from this instant (same monotonic clock).
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"perfbench: perfbench_e2e exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: perfbench_e2e printed no result line")
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as out:
        json.dump(result, out, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
