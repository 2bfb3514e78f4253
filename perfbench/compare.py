#!/usr/bin/env python3
"""Compares two sets of benchmark runs (JSON lines from sweep.py).

    python3 perfbench/compare.py base.jsonl [new.jsonl]

For every workload and end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles (statistics.quantiles, n=4) and the spread, the
quartile distance as a share of the median. With two sets it then says
whether the second is
  within      its median is within the metric's bound of the first's, and
              both spreads are within the bound too;
  better      every run of the second beats every run of the first, or
              its median is better by more than the bound and by more
              than the first set's spread;
  worse       its median is worse than the first's by more than the bound;
  unresolved  otherwise (a spread wider than the bound hides the answer).
It also compares the share of failed operations, which must be equal.
With one set it checks that every spread is within the bound. Exit 1
when any line is worse, unresolved or failed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace", 0) == 0:
                    runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(metric, base, new):
    bound, lower = metric["bound"], metric["better"] == "lower"
    bmed, _, _, bspread = stats(base)
    nmed, _, _, nspread = stats(new)
    worse_by = (nmed - bmed) / bmed * (1 if lower else -1)
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if all_better or (-worse_by > bound and -worse_by > bspread):
        return "better", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if max(bspread, nspread) > bound:
        return "unresolved", worse_by
    return "within", worse_by


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sets = [load(p) for p in sys.argv[1:]]
    bad = False
    for w in bench["workloads"]:
        name = w["name"]
        results = [s.get(name, []) for s in sets]
        if any(not r or any(x is None or not x["correct"] for x in r) for r in results):
            print(f"{name}: missing or incorrect runs")
            bad = True
            continue
        shares = [{x["failed"] / x["attempted"] for x in r} for r in results]
        if len(set().union(*shares)) > 1:
            print(f"{name}: failed-operation shares differ: {sorted(set().union(*shares))}")
            bad = True
        print(f"== {name} ({', '.join(str(len(r)) + ' runs' for r in results)})")
        for m in bench["end_to_end"]:
            values = [[x["metrics"][m["name"]]["value"] for x in r] for r in results]
            cells = []
            for v in values:
                med, q1, q3, spread = stats(v)
                cells.append(f"{med:12.4f} [{q1:.4f}, {q3:.4f}] {100 * spread:5.1f}%")
            line = f"  {m['name']:26s} {m['unit']:9s} " + " | ".join(cells)
            if len(values) == 2:
                v, by = verdict(m, values[0], values[1])
                line += f"  {v} ({100 * by:+.1f}% worse, bound {100 * m['bound']:.0f}%)"
                bad |= v in ("worse", "unresolved")
            elif stats(values[0])[3] > m["bound"]:
                line += f"  SPREAD ABOVE BOUND {100 * m['bound']:.0f}%"
                bad = True
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
