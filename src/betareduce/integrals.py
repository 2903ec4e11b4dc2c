"""Closed-form evaluation of the two application integral families.

Both families are thin wrappers over the mu = 0 reduction:

* integral_0^1 t^(nu-1)/(1 - z*t) dt  =  z^(-nu) * B(nu, 0, z)
  (equal to the semi-infinite form integral_0^inf e^(-(nu-1)t)/(e^t - z) dt);
* integral_0^z tanh^(2*lambda-1) t dt  =  B(lambda, 0, tanh^2 z) / 2.

The tanh family computes through the complex reduction at the real argument
tanh^2 z in (0, 1), where the kernel pairs conjugate rows at every q, so the
value's imaginary part is exactly 0.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import OutsideDomain
from .principal import finite_complex, finite_double, rational_power, to_double
from .rationals import decompose_pos
from .reduction import lerch_reduce, reduce_beta


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
    return 0.5 * reduce_beta(dec, complex(t**2)).value.real
