#!/usr/bin/env python3
"""Same-host A/B gate over two `shmgpu bench-self` results.

Usage: compare_baseline.py HEAD.json BASE.json

Both files must come from one host, benched back to back: BASE.json
from the merge-base binary, HEAD.json from the change under test. The
gate exits 1 when HEAD's best_cells_per_second falls more than 2%
below BASE's. It also exits 1 when either file lacks a config key, or
the two disagree on one: such a pair measured different grids, and
passing it would silently skip the gate. Keys only one side writes
(an older bench-self recorded more) are ignored.
"""

import argparse
import json
import sys

# The grid identity bench-self writes; both sides must match on all.
CONFIG_KEYS = ("benchmark", "gpu", "max_cycles_per_kernel", "cells")
METRIC = "best_cells_per_second"
# The largest same-host shortfall the gate tolerates.
THRESHOLD = 0.02


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("head")
    parser.add_argument("base")
    args = parser.parse_args()

    head = load(args.head)
    base = load(args.base)

    for key in CONFIG_KEYS + (METRIC,):
        for name, doc in (("head", head), ("base", base)):
            if key not in doc:
                print(f"::error::{name} result has no '{key}'; "
                      "not a bench-self result")
                return 1
    for key in CONFIG_KEYS:
        if head[key] != base[key]:
            print(f"::error::bench-self configs differ on '{key}' "
                  f"({head[key]!r} vs base {base[key]!r}); the A/B "
                  "pair must run one grid")
            return 1

    head_cps = head[METRIC]
    base_cps = base[METRIC]
    if base_cps <= 0:
        print("::error::base throughput is not positive")
        return 1

    ratio = head_cps / base_cps
    line = (f"bench-self: {head_cps:.2f} cells/s vs base "
            f"{base_cps:.2f} ({ratio:.2%})")
    if ratio < 1.0 - THRESHOLD:
        print(f"::error::{line} — regression beyond "
              f"{THRESHOLD:.0%} on a same-host A/B")
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
