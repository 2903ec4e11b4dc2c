"""Where the closed forms earn their keep: evaluation cost as z approaches 1.

The defining series needs O(1/(1-|z|)) terms, so at z = 0.999 it grinds
through tens of thousands of them.  The reduction formula is a fixed handful
of logarithms no matter where z sits.  The benchmark harness validates that
all methods agree at each point before timing anything.
"""

from fractions import Fraction

from betareduce import Method, run_bench

GRID = [
    (Fraction(1, 2), complex(0.5)),
    (Fraction(1, 2), complex(0.9)),
    (Fraction(1, 2), complex(0.99)),
    (Fraction(1, 2), complex(0.999)),
]

print("median evaluation time, 50 repetitions each (ns):")
print(f"{'z':>7}  {'reduction':>12} {'series':>12} {'quadrature':>12}  {'series/reduction':>17}")
records = run_bench(GRID, repetitions=50, warmup=5)
by_point = {}
for rec in records:
    by_point.setdefault(rec.z, {})[rec.method] = rec.median_nanos

for z, timings in by_point.items():
    reduction = timings[Method.REDUCTION]
    series = timings[Method.SERIES]
    quadrature = timings[Method.QUADRATURE_BETA]
    print(
        f"{z.real:7.3f}  {reduction:12d} {series:12d} {quadrature:12d}"
        f"  {series / reduction:16.0f}x"
    )

print()
print("(the CSV form of this table: `betareduce bench --preset near-one`)")
