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
import sys
from fractions import Fraction

from .errors import OutsideDomain, ResidualImaginary
from .principal import finite_complex, finite_double, rational_power, to_double
from .rationals import decompose_pos
from .reduction import beta_value, lerch_reduce

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
    """integral_0^z tanh^(2*lam-1) t dt for rational lam > 0 and finite real z > 0.

    It diverges as z -> inf: an infinite or NaN z raises :class:`OutsideDomain`.
    """
    dec = decompose_pos(lam)
    z = to_double(z)
    if not 0 < z < math.inf:
        raise OutsideDomain(f"the integral needs a finite z > 0, got {z}")
    t = math.tanh(z)
    if t**2 < sys.float_info.min:
        # a subnormal t^2 loses digits; the terms past t^(2 lam) / (2 lam) add a relative t^2
        value = rational_power(t, 2 * lam).real / finite_double(2 * lam, "2 lambda")
        return finite_complex(value, "the integral").real
    # tanh(z)^2 within the guard band of 1 raises BranchPoint from the kernel
    half = 0.5 * beta_value(dec, complex(t**2))
    # rounding dust scales with the roots-of-unity terms, not the (possibly
    # tiny) result, so the residual bound is relative to max(1, |half|);
    # an actual branch error would show up at O(pi), thirteen orders above
    if abs(half.imag) > IMAG_RESIDUAL_REL * max(1.0, abs(half)):
        raise ResidualImaginary(
            f"imaginary residue {half.imag} exceeds "
            f"{IMAG_RESIDUAL_REL} * max(1, |{abs(half)}|)"
        )
    return half.real
