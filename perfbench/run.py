#!/usr/bin/env python3
"""Build and run the layered sdcgmres benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The first call configures and builds the
harness (perfbench/CMakeLists.txt, which builds the repository's sdcgmres
library from src/) into $CARGO_TARGET_DIR or .bench_build; later calls
only rebuild what changed.  Build output goes to stderr; the harness's
stdout passes through unchanged, so its last line is the result object.

--smoke runs every workload at tiny sizes in both trace modes, checks that
every metric BENCHMARK.json names appears with its unit, and checks that
the correctness oracle flags deliberately corrupted outputs.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# Kernel OpenMP threads per workload (OMP_NUM_THREADS is read when the
# OpenMP runtime starts, so it is set here, before the harness starts).
THREADS = {"solve-dram": 2, "solve-ca": 2, "sweep-fig3": 2, "serve-burst": 1}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "solver", "solver.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("sdcgmres sources missing (%s); run from a full checkout" % need)
    root = build_root()
    cmake_dir = os.path.join(root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    exe = os.path.join(cmake_dir, "perfbench")
    if not os.path.exists(exe):
        fail("build produced no harness binary")
    return exe


def commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (an exported tree inside some other repository included)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        top, head = out.stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return "unknown"


def harness(exe, workload, extra, capture=False):
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS.get(workload, 1)))
    work = os.path.join(build_root(), "work", workload or "selftest")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--work", work, "--commit", commit()] + extra
    if capture:
        return subprocess.run(cmd, env=env, capture_output=True, text=True)
    return subprocess.run(cmd, env=env)


def smoke(exe):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = harness(exe, name, ["--workload", name, "--seed", "7",
                                       "--seconds", "1", "--trace", trace,
                                       "--smoke"], capture=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append("%s trace=%s: exit %d\n%s" %
                                (name, trace, done.returncode, done.stderr))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%s: oracle failed" % (name, trace))
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s trace=%s: metric %s missing or "
                                    "wrong unit" % (name, trace, metric["name"]))
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s trace=%s: undeclared metrics %s" %
                                (name, trace, sorted(extra)))
            print("smoke %-12s trace=%s: %d metrics" %
                  (name, trace, len(result["metrics"])), file=sys.stderr)
    done = harness(exe, None, ["--selftest-oracle"], capture=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or result.get("failed") != result.get("attempted"):
        problems.append("oracle self-test: corrupted outputs not flagged\n" +
                        done.stdout + done.stderr)
    else:
        print("smoke oracle: %d/%d corrupted outputs flagged" %
              (result["failed"], result["attempted"]), file=sys.stderr)
    for p in problems:
        print("SMOKE FAIL: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or pass --smoke)")
    exe = build()
    if args.smoke:
        return smoke(exe)
    return harness(exe, args.workload,
                   ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
