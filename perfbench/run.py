#!/usr/bin/env python3
"""Builds the enforcement benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

NAME is analytic_fig8, point_rw or adhoc_policy_churn. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root; build output goes to stderr, so the benchmark's own result
line stays the last line of stdout. Exits non-zero, printing no result,
when the build fails (for instance when the system sources are missing).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(targets):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                 targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            sys.exit(2)
    return build_dir


def main(argv):
    if argv == ["--selftest"]:
        build_dir = build(["perfbench_selftest"])
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode
    build_dir = build(["perfbench"])
    sys.stdout.flush()
    proc = subprocess.Popen([os.path.join(build_dir, "perfbench")] + argv)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
