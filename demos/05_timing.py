"""Where the closed forms earn their keep: evaluation cost as z approaches 1.

The defining series needs O(1/(1-|z|)) terms, so at z = 0.999 it grinds
through tens of thousands of them.  The reduction formula is a fixed handful
of logarithms no matter where z sits.  The benchmark harness also grades
each method: its relative difference from the closed form, rel_diff, sits
next to its time.
"""

from fractions import Fraction

from betareduce import Method, run_bench

GRID = [
    (Fraction(1, 2), complex(0.5)),
    (Fraction(1, 2), complex(0.9)),
    (Fraction(1, 2), complex(0.99)),
    (Fraction(1, 2), complex(0.999)),
]
METHODS = (Method.REDUCTION, Method.SERIES, Method.QUADRATURE_BETA)

print("median evaluation time, 50 repetitions each (ns), and rel_diff from the closed form:")
print(f"{'z':>7}" + "".join(f"  {m.value:>14} {'rel_diff':>8}" for m in METHODS) + "  series/reduction")
records = run_bench(GRID, repetitions=50, warmup=5)
by_point = {}
for rec in records:
    by_point.setdefault(rec.z, {})[rec.method] = rec

for z, by_method in by_point.items():
    cells = "".join(
        f"  {by_method[m].median_nanos:14d} {by_method[m].rel_diff:8.1e}" for m in METHODS
    )
    ratio = by_method[Method.SERIES].median_nanos / by_method[Method.REDUCTION].median_nanos
    print(f"{z.real:7.3f}{cells}  {ratio:15.0f}x")

print()
print("(the CSV form of this table: `betareduce bench --preset near-one`)")
