"""Closed forms for B(nu, 0, z) and Phi(z, 1, nu) at rational parameters.

The incomplete beta function with second parameter 0 is an infinite series,
but for rational nu it collapses to finitely many elementary terms: logs over
roots of unity plus a finite power sum.  This script walks the special cases
(integer, half-integer) and the general rational case, split as a signed
integer shift m plus a fraction r in (0, 1], checking each against an
elementary constant or the direct series.
"""

import math
from fractions import Fraction

from betareduce import (
    beta_series,
    decompose,
    decompose_pos,
    incomplete_beta,
    lerch_reduce,
    reduce_beta,
)

print("Integer parameter: B(1, 0, z) = -log(1 - z)")
value = incomplete_beta(Fraction(1), 0, 0.5)
print(f"  B(1, 0, 0.5)      = {value.real!r}")
print(f"  log 2             = {math.log(2)!r}")

print()
print("Half-integer parameter: B(1/2, 0, z) = 2 atanh(sqrt(z))")
value = incomplete_beta(Fraction(1, 2), 0, 0.25)
print(f"  B(1/2, 0, 0.25)   = {value.real!r}")
print(f"  log 3             = {math.log(3)!r}")

print()
print("Negative half-integer: B(-1/2, 0, z) = 2 (atanh(sqrt(z)) - 1/sqrt(z))")
value = incomplete_beta(Fraction(-1, 2), 0, 0.25)
print(f"  B(-1/2, 0, 0.25)  = {value.real!r}")
print(f"  log 3 - 4         = {math.log(3) - 4!r}")

print()
print("General rational parameter, checked against the series:")
for nu, z in [(Fraction(5, 4), 0.3), (Fraction(123, 10), 0.5), (Fraction(-17, 12), 0.85)]:
    dec = decompose(nu)
    reduction, trace = reduce_beta(dec, z)
    oracle = beta_series(nu, z)
    print(
        f"  nu = {str(nu):>6} = {dec.m:>2} + {str(dec.r):>4}, z = {z}:  reduction = {reduction.real:.15f}"
        f"  series = {oracle.value.real:.15f}"
        f"  ({len(trace.terms)} log terms, {oracle.terms_or_nodes} series terms)"
    )

print()
print("The Lerch transcendent rides along: Phi(z, 1, nu) = z^(-nu) B(nu, 0, z)")
value = lerch_reduce(decompose_pos(Fraction(1)), 0.5)
print(f"  Phi(0.5, 1, 1)    = {value.real!r}")
print(f"  2 log 2           = {2 * math.log(2)!r}")
