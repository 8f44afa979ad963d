"""Compare two sets of benchmark runs: ``compare.py A B``.

A and B are ``--out`` directories of ``run.py`` (or their
``results.json``).  One row per (workload, end-to-end metric) gives each
side's median and quartiles, the change of B against A, and the metric's
bound from ``BENCHMARK.json``.  The verdict is

* ``regressed`` when B's median is worse than A's by more than the bound
  and both sides' spreads (quartile distance over median) are within it;
* ``unresolved`` when a spread is wider than the bound, unless every run
  of B reads better than every run of A;
* ``ok`` otherwise.

Failed or mismatched cells in B are a regression.  Exits 1 on any
``regressed`` row.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "results.json")
    with open(path) as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    """``(verdict, relative change of B vs A, worst spread)``."""
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    change = (qb[1] - qa[1]) / qa[1]
    worse = change if better == "lower" else -change
    all_better = (max(b) < min(a)) if better == "lower" else \
        (min(b) > max(a))
    if spread > bound and not all_better:
        return "unresolved", change, spread
    if worse > bound:
        return "regressed", change, spread
    return "ok", change, spread


def compare(doc_a, doc_b, spec):
    rows = []
    for name in sorted(set(doc_a["workloads"]) & set(doc_b["workloads"])):
        wa, wb = doc_a["workloads"][name], doc_b["workloads"][name]
        for m in spec["end_to_end"]:
            a = wa["end_to_end"][m["name"]]["values"]
            b = wb["end_to_end"][m["name"]]["values"]
            v, change, spread = verdict(a, b, m["better"], m["bound"])
            rows.append((name, m["name"], quartiles(a), quartiles(b),
                         change, spread, m["bound"], v))
        bad = wb["failed"] + wb["mismatches"]
        rows.append((name, "failed+mismatched", (0, 0, 0), (bad,) * 3,
                     0.0, 0.0, 0, "regressed" if bad else "ok"))
    return rows


def main(argv):
    if len(argv) != 2:
        print("usage: compare.py A B  (run.py --out directories or "
              "results.json files)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':<14}{'metric':<18}{'A median [q1, q3]':>32}"
          f"{'B median [q1, q3]':>32}{'change':>9}{'spread':>8}"
          f"{'bound':>7}  verdict")
    for name, metric, qa, qb, change, spread, bound, v in rows:
        def fmt(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{name:<14}{metric:<18}{fmt(qa):>32}{fmt(qb):>32}"
              f"{change * 100:>8.1f}%{spread * 100:>7.1f}%{bound:>7}  {v}")
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
