#!/usr/bin/env python3
"""The same-host A/B gate end to end: bench-self feeds
compare_baseline.py, which must pass a result against itself and fail
a 3% throughput shortfall or a config mismatch instead of skipping.

Usage: bench_self_gate.py SHMGPU COMPARE_BASELINE_PY
"""

import json
import os
import subprocess
import sys
import tempfile


def main():
    shmgpu, compare = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        result = os.path.join(tmp, "bench.json")
        subprocess.run([shmgpu, "bench-self", "--reps", "1",
                        "--out", result], check=True)
        with open(result, encoding="utf-8") as f:
            doc = json.load(f)

        def variant(name, key, value):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(dict(doc, **{key: value}), f)
            return path

        cases = [
            ("itself", result, 0),
            ("base 3% faster",
             variant("faster.json", "best_cells_per_second",
                     doc["best_cells_per_second"] * 1.03), 1),
            ("cells changed",
             variant("cells.json", "cells", doc["cells"] + 1), 1),
        ]
        failed = False
        for label, base, want in cases:
            rc = subprocess.run([sys.executable, compare, result,
                                 base]).returncode
            if rc != want:
                print(f"FAIL: {label}: exit {rc}, expected {want}")
                failed = True
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
