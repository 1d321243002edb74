#!/usr/bin/env python3
"""Build and run the host-cost benchmark of the HADES simulator.

    python3 hostbench/run.py --workload ycsb_a_hades --seed 42 \
        --seconds 30 --trace 0
    python3 hostbench/run.py --self-test

Run from the repository root. The benchmark is built from source into
.bench_build/hostbench (CMake, the repository's default build type).
Each invocation first runs the untimed audited check of the workload's
spec, then the timed pass; the last line of standard output is the
result object. Result and span files go to .bench_build/hostbench/out.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("ycsb_a_hades", "tpcc_baseline", "tatp_hades")
BUDGET_S = 170  # an invocation must end within 180 s once built


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Run cmd to completion (killing it on timeout); build chatter goes
    to stderr so the result stays the last line of stdout."""
    try:
        proc = subprocess.run(cmd, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    return proc


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to hostbench/")
    if run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
           600).returncode:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
           840).returncode:
        fail("build failed")


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        build(["hostbench_tests"])
        sys.exit(run([os.path.join(BUILD, "hostbench_tests")], 600).returncode)
    if not args.workload:
        ap.error("--workload is required")

    build(["hostbench"])
    start = time.monotonic()
    exe = os.path.join(BUILD, "hostbench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    check = run([exe, "check"] + common, BUDGET_S, capture=True)
    verdict = last_json(check.stdout) or {}
    if check.returncode or not verdict.get("ok"):
        print("hostbench: audited check failed: " + check.stdout.strip(),
              file=sys.stderr)
        fingerprint = "0"  # every timed run then fails its check
    else:
        fingerprint = verdict["fingerprint"]

    os.makedirs(OUT, exist_ok=True)
    remaining = BUDGET_S - (time.monotonic() - start)
    timed = run([exe, "time"] + common +
                ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--expect-fingerprint", fingerprint, "--out-dir", OUT],
                max(remaining, 1), capture=True)
    result = last_json(timed.stdout)
    if timed.returncode or result is None:
        fail("timed pass failed (exit %d)" % timed.returncode)
    sys.stdout.write(timed.stdout)


if __name__ == "__main__":
    main()
