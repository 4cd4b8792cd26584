#!/usr/bin/env python3
"""Determine small Ramsey values exactly and cross-check three ways:
backtracking search, unpruned exhaustive enumeration, and CNF satisfiability.
The last two share one enumerator, so the independent check is the search
against either of them.
"""

import time

from ramseylab import (
    cnf_satisfiable,
    decide_ramsey,
    exhaustive_decide,
    export_cnf,
    serialize_coloring,
)

print("=" * 70)
print("  GRAPH CASE (k=2): R for the 3-edge path, per color count")
print("=" * 70)

for r in (1, 2, 3):
    verdicts = {}
    for n in range(2, 9):
        outcome = decide_ramsey(2, r, n)
        verdicts[n] = outcome.verdict
        if outcome.verdict == "holds":
            break
    value = min(n for n, v in verdicts.items() if v == "holds")
    print(f"  r={r}: R = {value}   (2r + c_r with c_r = {value - 2 * r})")

print()
print("=" * 70)
print("  TRIPLE CHECK on (k=2, r=2, n=4) and (k=2, r=2, n=5)")
print("=" * 70)

for n in (4, 5):
    t0 = time.perf_counter()
    search = decide_ramsey(2, 2, n)
    oracle = exhaustive_decide(2, 2, n)
    instance = export_cnf(2, 2, n)
    sat = cnf_satisfiable(instance)
    agree = search.verdict == oracle.verdict and sat == (search.verdict == "fails")
    print(
        f"  n={n}: search={search.verdict}, exhaustive={oracle.verdict},"
        f" cnf_satisfiable={sat} -> {'agree' if agree else 'MISMATCH'}"
        f"  ({time.perf_counter() - t0:.2f}s,"
        f" {instance.num_vars} vars / {len(instance.clauses)} clauses)"
    )

witness = decide_ramsey(2, 2, 4).witness
print()
print("  witness 2-coloring of K_4 with no monochromatic 3-edge path:")
for line in serialize_coloring(witness).strip().splitlines()[1:]:
    *edge, color = line.split()
    print(f"    edge {{{edge[0]},{edge[1]}}} -> color {color}")
