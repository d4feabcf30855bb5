#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload service --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. The first run configures and builds the
sac library and the benchmark into .bench_build/ (later runs rebuild only
what changed), then runs the benchmark's self-test. One workload prints
its result object as the last line of stdout; `all` runs every workload
named in BENCHMARK.json and prints each end-to-end metric by name and
unit. The exit code is non-zero if the build, the self-test or a run
fails, or if a workload's outputs were wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK_DIR = os.path.join(BUILD, "work")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    steps.append([os.path.join(CMAKE_DIR, "perfbench_selftest")])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: '%s' failed with exit code %d"
                % (" ".join(cmd), proc.returncode))
            return False
    return True


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    cmd = [os.path.join(CMAKE_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", WORK_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not build():
        return 1

    if args.workload != "all":
        code, lines = run_one(args.workload, args.seed, seconds, args.trace)
        for line in lines:
            print(line)
        return code

    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        code, lines = run_one(w, args.seed, seconds, 0)
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None or not result["correct"]:
            ok = False
        if result is None:
            print("%-12s failed to run (exit %d)" % (w, code))
            continue
        print("%-12s correct=%s attempted=%d failed=%d" % (
            w, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-16s %14.4f %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
