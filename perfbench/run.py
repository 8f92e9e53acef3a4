#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built (CMake, Release)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, and rebuilt
incrementally on every call; build output goes to stderr. Its
standard output is passed through: its last line is the JSON result.
A traced run also writes its spans next to the build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "long_cell", "tenant_mix", "secure_memory")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT + "/src")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected_digests.json"),
                        help="committed seed-0 output digests")
    parser.add_argument("--write-digests", default="",
                        help="record this run's digests here instead of "
                             "checking them (seed 0 maintenance)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    program = build(build_dir)

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--expected", args.expected]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    if args.write_digests:
        cmd += ["--write-digests", args.write_digests]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
