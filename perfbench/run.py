#!/usr/bin/env python3
"""End-to-end benchmark of the containment service.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the library and the benchmark (Release) into .bench_build/perfbench on
first use, then runs one workload in its own process (perfbench_driver). The
last line printed is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. A traced run first makes an untraced pass with the same seed
and length, so it can report the tracing overhead (traced vs untraced p50).
Workloads: warm_wide, cold_mixed, fleet_rw, schema_evolve (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ("warm_wide", "cold_mixed", "fleet_rw", "schema_evolve")
PASS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        log(f"library sources not found under {ROOT}/src")
        return False
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_pass(workload, seed, seconds, trace):
    """Runs perfbench_driver once; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", WORK]
    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} pass timed out after {PASS_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1

    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode

    untraced = None
    if args.trace:
        code, lines = run_pass(args.workload, args.seed, args.seconds, False)
        untraced = result_of(lines)
        if code != 0 or untraced is None:
            log("untraced pass of the traced run failed")
            print("\n".join(lines[:-1]))
            return 1
        print(f"# untraced pass: p50_us={untraced['metrics']['p50_us']['value']}")

    code, lines = run_pass(args.workload, args.seed, args.seconds, bool(args.trace))
    result = result_of(lines)
    if result is None:
        print("\n".join(lines))
        log("perfbench_driver printed no result")
        return 1
    if untraced is not None:
        base = untraced["metrics"]["p50_us"]["value"]
        traced = result["metrics"]["trace.engine_p50_us"]["value"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": 100.0 * (traced - base) / base if base > 0 else 0.0,
            "unit": "pct"}
        result["correct"] = result["correct"] and untraced["correct"]
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
