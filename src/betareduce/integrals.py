"""Closed-form evaluation of the two application integral families.

Both families are thin wrappers over the mu = 0 reduction:

* integral_0^1 t^(nu-1)/(1 - z*t) dt  =  z^(-nu) * B(nu, 0, z)
  (equal to the semi-infinite form integral_0^inf e^(-(nu-1)t)/(e^t - z) dt);
* integral_0^z tanh^(2*lambda-1) t dt  =  B(lambda, 0, tanh^2 z) / 2.

The tanh family deliberately computes through the complex reduction and then
asserts the imaginary part vanishes, so every call exercises the branch
logic; a surviving imaginary residual signals a branch-handling bug.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OutsideDomain, ResidualImaginary, BranchPoint
from .rationals import decompose_pos
from .reduction import lerch_reduce, reduce_beta

# tanh(z)^2 this close to 1 would feed a meaningless log(1 - ~ulp).
TANH_SQ_CEILING = 1.0 - 1e-15

# Imaginary residue allowed on the (mathematically real) tanh integral.
IMAG_RESIDUAL_REL = 1e-13


def int_power_over_linear(nu: Fraction, z: complex) -> complex:
    """integral_0^1 t^(nu-1)/(1 - z*t) dt in elementary terms, nu > 0 rational.

    This is Phi(z, 1, nu) = z^(-nu) * B(nu, 0, z), i.e. :func:`lerch_reduce`;
    nu <= 0 raises :class:`OutsideDomain`, and branch and zero errors
    propagate (z = 0 raises :class:`ZeroArgument` from the negative power).
    """
    return lerch_reduce(decompose_pos(nu), z)


def int_tanh_power(lam: Fraction, z: float) -> float:
    """integral_0^z tanh^(2*lam-1) t dt for rational lam > 0 and real z > 0."""
    lam = Fraction(lam)
    if lam <= 0:
        raise OutsideDomain(f"the integral needs lambda > 0, got {lam}")
    z = float(z)
    if z <= 0:
        raise OutsideDomain(f"the integral needs z > 0, got {z}")
    w = math.tanh(z) ** 2
    if w >= TANH_SQ_CEILING:
        raise BranchPoint(f"tanh(z)^2 = {w} saturates the branch guard near 1")
    value = reduce_beta(decompose_pos(lam), complex(w)).value
    half = 0.5 * value
    # rounding dust scales with the roots-of-unity terms, not the (possibly
    # tiny) result, so the residual bound is relative to max(1, |value|);
    # an actual branch error would show up at O(pi), thirteen orders above
    if abs(half.imag) > IMAG_RESIDUAL_REL * max(1.0, abs(half)):
        raise ResidualImaginary(
            f"imaginary residue {half.imag} exceeds "
            f"{IMAG_RESIDUAL_REL} * max(1, |{abs(half)}|)"
        )
    return half.real
