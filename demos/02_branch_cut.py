"""The branch cut of B(nu, 0, z) on the real ray z > 1.

Past z = 1 the function picks up a constant imaginary part: exactly -pi,
from the k = 0 principal logarithm (all other root-of-unity terms pair into
conjugates).  General-purpose numerical evaluators are known to wobble here;
the closed form nails the constant to the last bit.  Both evaluation paths
pair the conjugate rows k and q - k at real z > 0 by construction: the
scalar kernel behind `reduce_beta` and every value caller, and the batch
`reduce_beta_many` behind `betareduce figure`, which prints the same data
from the command line.  The script exits 1 if either path misses -pi.
"""

import math
import sys
from fractions import Fraction

from betareduce import decompose_pos, reduce_beta, reduce_beta_many

NU = Fraction(123, 10)
dec = decompose_pos(NU)

print(f"Im B({NU}, 0, z) on z in [1.1, 10]  (expected: -pi everywhere)")
print(f"{'z':>8}  {'Im B':>22}  {'Im B + pi':>12}")
zs = [1.1 + j * (10.0 - 1.1) / 49 for j in range(50)]
worst = 0.0
for j, z in enumerate(zs):
    value = reduce_beta(dec, complex(z)).value
    deviation = value.imag + math.pi
    worst = max(worst, abs(deviation))
    if j % 7 == 0:
        print(f"{z:8.3f}  {value.imag:22.17f}  {deviation:12.3e}")

worst_batch = max(abs(value.imag + math.pi) for value in reduce_beta_many(dec, zs))
print(f"\nworst |Im B + pi| over 50 points: {worst:.3e} (reduce_beta), "
      f"{worst_batch:.3e} (reduce_beta_many, the figure path)")
print(f"-pi = {-math.pi!r}")

print()
print("The same constant appears for every rational parameter, any q, on both paths:")
for nu in [Fraction(1, 2), Fraction(2, 3), Fraction(7, 12), Fraction(-13, 12) + 4]:
    value = reduce_beta(decompose_pos(nu), complex(3.7)).value
    batch = reduce_beta_many(decompose_pos(nu), [3.7])[0]
    print(f"  nu = {str(nu):>6}:  Im B = {value.imag:.17f} (reduce_beta), "
          f"{batch.imag:.17f} (reduce_beta_many)")
    worst = max(worst, abs(value.imag + math.pi))
    worst_batch = max(worst_batch, abs(batch.imag + math.pi))

if worst != 0.0 or worst_batch != 0.0:
    print(f"\nIm B missed -pi: by {worst:.3e} (reduce_beta), {worst_batch:.3e} (reduce_beta_many)")
    sys.exit(1)
