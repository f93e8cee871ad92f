#!/usr/bin/env python3
"""A/A comparison: do two complete sets of runs agree within the bounds?

``python3 perfbench/aa.py A.json B.json`` takes two records written by
``run.py --out`` (``run.py --aa`` produces and compares both) and
prints, for every end-to-end metric on every workload, both values, by
how much B is *worse* than A as a share of A, and the metric's bound
from ``BENCHMARK.json``.  Exits non-zero when any cell is worse by more
than its bound or any delivery failed.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if better == "lower" else -change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        first = json.load(f)
    with open(argv[1]) as f:
        second = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    breaches = 0
    print(f"{'workload':16s} {'metric':14s} {'A':>12s} {'B':>12s} "
          f"{'B worse by':>10s} {'bound':>6s}")
    for name, cell in first["workloads"].items():
        other = second["workloads"][name]
        for metric in metrics:
            a = cell["end_to_end"][metric["name"]]["value"]
            b = other["end_to_end"][metric["name"]]["value"]
            worse = worse_by(a, b, metric["better"])
            breach = worse > metric["bound"]
            breaches += breach
            print(f"{name:16s} {metric['name']:14s} {a:12.4f} {b:12.4f} "
                  f"{worse:+10.1%} {metric['bound']:6.0%}"
                  f"{'  BREACH' if breach else ''}")
        failed = cell["failed"] + other["failed"]
        if failed:
            breaches += 1
            print(f"{name:16s} {failed} failed deliveries  BREACH")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
