#!/usr/bin/env python3
"""Run one benchmark workload of mtperf, from the root of a source tree.

    python3 perfbench/run.py --workload serve-cold-whatif --seed 1 \
        --seconds 20 --trace 0

Builds the repository's libraries, mtperf_serve and the perfbench harness
into .bench_build/ (Release; incremental after the first run), then runs the
harness.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Spans and a full report of each run land
in .bench_build/out/.

    python3 perfbench/run.py --selftest    # tests of the harness helpers
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
WORKLOADS = ("serve-cold-whatif", "serve-hot-zipf", "pipeline-chebyshev")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configure once, then build `targets` incrementally; output to a log."""
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt"))):
        fail("no mtperf sources next to perfbench/; run from a source tree")
    # Compiler temporaries stay inside the tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 2), "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode != 0:
                fail("build failed: " + " ".join(cmd) + " (see " + log_path + ")")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness helper tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench", "mtperf_serve"])
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--server-binary", os.path.join(BUILD, "mtperf", "tools", "mtperf_serve"),
           "--out-dir", os.path.join(BUILD, "out"),
           "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
