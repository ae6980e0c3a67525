#!/usr/bin/env python3
"""Build the program in Release and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

The repository's own CMake files build its libraries into
$CARGO_TARGET_DIR/hprng (default .bench_build/hprng); this directory's
CMakeLists.txt builds the driver against them. Build output goes to
stderr; the driver's last line on stdout is the result JSON. Exits
non-zero, printing no result, when the sources are missing or the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve-small", "bulk-fill", "wire-pipelined"]


def sh(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "serve", "service.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("perfbench: no repository sources here (missing %s)" % need)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    lib_dir = os.path.join(out, "hprng")
    drv_dir = os.path.join(out, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", lib_dir, "--target", "hprng_net", "-j", jobs])
    if not os.path.exists(os.path.join(drv_dir, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", drv_dir, "-DCMAKE_BUILD_TYPE=Release",
            "-DHPRNG_SOURCE_DIR=" + ROOT, "-DHPRNG_BUILD_DIR=" + lib_dir])
    sh(["cmake", "--build", drv_dir, "-j", jobs])
    return os.path.join(drv_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check rejects corrupted streams")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    os.chdir(ROOT)
    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.self_test:
        return subprocess.call([binary, "--self-test", "--seed", str(args.seed)])
    # setup_s counts from here: the driver's cold start (exec, loading,
    # static initialisation) is part of its set-up.
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", out_dir, "--spawn-ns", str(spawn_ns)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: driver exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
