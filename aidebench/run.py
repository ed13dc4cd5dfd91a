#!/usr/bin/env python3
"""Builds and runs the AIDE end-to-end benchmark.

Run from the root of a checkout:

    python3 aidebench/run.py --workload cold-dig --seed 1 --seconds 30 --trace 0
    python3 aidebench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 aidebench/run.py --selftest

With --trace 0 the run spawns the server process and replays the
workload over TCP, printing the end-to-end metrics; with --trace 1 it
replays the workload in process with per-layer spans, printing the
per-layer metrics. The last line of standard output is the JSON result;
with --workload all, every workload runs in turn and prints its own.
The benchmark package is built from the repository sources in this
checkout with cargo (offline); it exits non-zero, printing no result,
when those sources are not there.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("cold-dig", "hot-revisit", "write-churn")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"aidebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        fail("repository sources (crates/) not found next to the benchmark")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "aidebench")


def run(binary, args):
    """Runs the binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(
            [binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def selftest(binary):
    """Tiny lists of every workload end to end, traced and untraced, and
    a deliberately wrong expected digest that must count as a failure."""
    ok = True
    for workload in WORKLOADS:
        for mode in ("drive", "trace"):
            code, lines = run(binary, [mode, "--workload", workload, "--seed", "7", "--tiny"])
            result = json.loads(lines[-1]) if code == 0 and lines else None
            passed = bool(result) and result["correct"] and result["failed"] == 0
            print(f"{'PASS' if passed else 'FAIL'} {mode} {workload}")
            ok &= passed
    for workload in WORKLOADS:
        code, lines = run(
            binary, ["drive", "--workload", workload, "--seed", "7", "--tiny", "--poison-digest"]
        )
        result = json.loads(lines[-1]) if code == 0 and lines else None
        passed = bool(result) and not result["correct"] and result["failed"] >= 1
        print(f"{'PASS' if passed else 'FAIL'} wrong digest reported as a failure on {workload}")
        ok &= passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    mode = "trace" if args.trace else "drive"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code, lines = run(
            binary,
            [
                mode,
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
            ],
        )
        if code != 0 or not lines:
            fail(f"{mode} {workload} exited with {code}")
        json.loads(lines[-1])
        print("\n".join(lines), flush=True)
    sys.exit(0)


if __name__ == "__main__":
    main()
