#!/usr/bin/env python3
"""The benchmark's output check must reject a wrong committed digest.

    python3 perfbench/tests/test_output_check.py

Runs the secure_memory and long_cell workloads at seed 0 (one
repetition each) twice: against the committed digests, where every
check must pass, and against a copy in which one digest per workload is
corrupted, where the run must report correct=false with exactly that
cell failed. Exits non-zero on any violation.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
COMMITTED = os.path.join(BENCH, "expected_digests.json")


def run(workload, expected):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", "0",
         "--expected", expected],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def main():
    with open(COMMITTED) as f:
        digests = json.load(f)
    failures = []
    for workload in ("secure_memory", "long_cell"):
        result, _ = run(workload, COMMITTED)
        if not result["correct"] or result["failed"] != 0:
            failures.append("%s fails against the committed digests: %s"
                            % (workload, result))

        corrupted = json.loads(json.dumps(digests))
        cell = sorted(corrupted[workload])[0]
        good = corrupted[workload][cell]
        corrupted[workload][cell] = ("0" if good[0] != "0" else "1") + good[1:]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(corrupted, f)
            path = f.name
        try:
            result, lines = run(workload, path)
        finally:
            os.unlink(path)
        if result["correct"] or result["failed"] != 1:
            failures.append("%s: corrupted digest of %s not caught: %s"
                            % (workload, cell, result))
        if not any(l.startswith("FAIL output of " + cell) for l in lines):
            failures.append("%s: no FAIL line names %s" % (workload, cell))
    for f in failures:
        print("FAIL", f)
    print("ok" if not failures else "%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
