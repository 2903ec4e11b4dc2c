"""The branch cut of B(nu, 0, z) on the real ray z > 1.

Past z = 1 the function picks up a constant imaginary part: exactly -pi,
from the k = 0 principal logarithm (all other root-of-unity terms pair into
conjugates).  General-purpose numerical evaluators are known to wobble here;
the closed form nails the constant to machine precision.  The same data is
available from the command line as `betareduce figure`.
"""

import math
from fractions import Fraction

from betareduce import decompose_pos, reduce_beta

NU = Fraction(123, 10)
dec = decompose_pos(NU)

print(f"Im B({NU}, 0, z) on z in [1.1, 10]  (expected: -pi everywhere)")
print(f"{'z':>8}  {'Im B':>22}  {'Im B + pi':>12}")
worst = 0.0
for j in range(50):
    z = 1.1 + j * (10.0 - 1.1) / 49
    value = reduce_beta(dec, complex(z)).value
    deviation = value.imag + math.pi
    worst = max(worst, abs(deviation))
    if j % 7 == 0:
        print(f"{z:8.3f}  {value.imag:22.17f}  {deviation:12.3e}")

print(f"\nworst |Im B + pi| over 50 points: {worst:.3e}")
print(f"-pi = {-math.pi!r}")

print()
print("The same constant appears for every rational parameter, any q:")
for nu in [Fraction(1, 2), Fraction(2, 3), Fraction(7, 12), Fraction(-13, 12) + 4]:
    value = reduce_beta(decompose_pos(nu), complex(3.7)).value
    print(f"  nu = {str(nu):>6}:  Im B = {value.imag:.17f}")
