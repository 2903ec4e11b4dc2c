"""Principal-branch complex helpers and exactly rounded complex summation.

Every multivalued operation in the package funnels through these functions so
the whole library shares one branch convention: Im(log) lies in (-pi, pi],
with arguments on the negative real axis taking the +pi edge.  Plain
``cmath.log`` would put an exact negative real with a -0.0 imaginary part on
the -pi side; we normalize signed zeros first so exact real inputs always see
the closed upper edge of the cut.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

from .errors import OutsideDomain, ZeroArgument


def finite_complex(z: complex) -> complex:
    """complex(z); an infinite or NaN part raises :class:`OutsideDomain`."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise OutsideDomain(f"z must be finite, got {z}")
    return z


def principal_log(w: complex) -> complex:
    """Complex log with Im in (-pi, pi]; exact negative reals map to +i*pi."""
    w = complex(w)
    if w.imag == 0.0:
        w = complex(w.real, 0.0)
    return cmath.log(w)


def principal_sqrt(w: complex) -> complex:
    """Square root on the same branch as :func:`principal_log`."""
    w = complex(w)
    if w.imag == 0.0:
        w = complex(w.real, 0.0)
    return cmath.sqrt(w)


def principal_root(z: complex, q: int) -> complex:
    """Principal q-th root exp(log(z)/q).  Requires z != 0."""
    if q == 1:
        return complex(z)
    if q == 2:
        return principal_sqrt(z)
    return cmath.exp(principal_log(z) / q)


def atanh(w: complex) -> complex:
    """Inverse hyperbolic tangent on the package branch convention.

    Real arguments inside (-1, 1) use the libm real path; everything else is
    (log(1+w) - log(1-w))/2 with the (-pi, pi] logs, so real w > 1 lands on
    the lower edge: Im = -pi/2.
    """
    w = complex(w)
    if w.imag == 0.0 and -1.0 < w.real < 1.0:
        return complex(math.atanh(w.real), 0.0)
    return 0.5 * (principal_log(1 + w) - principal_log(1 - w))


def rational_power(z: complex, expo: Fraction) -> complex:
    """z**expo with the principal fractional branch.

    The integer part goes through exact complex integer powers and the
    fractional remainder through the principal root/log, so real positive z
    yields an exactly real result and half-integer exponents stay as accurate
    as a square root.  An integer power outside the double range raises
    :class:`OutsideDomain`.
    """
    expo = Fraction(expo)
    z = complex(z)
    if z == 0:
        if expo > 0:
            return 0j
        raise ZeroArgument("0 cannot be raised to a non-positive power")
    n, rem = divmod(expo.numerator, expo.denominator)
    try:
        out = z**n if n else complex(1.0)
    except OverflowError as exc:
        raise OutsideDomain(f"z**{n} outside the double range") from exc
    if rem:
        den = expo.denominator
        if den == 2:
            out *= principal_sqrt(z)
        else:
            out *= cmath.exp((rem / den) * principal_log(z))
    return out


def fsum_complex(terms: Sequence[complex]) -> complex:
    """Exactly rounded sum of complex terms: ``math.fsum`` on each lane.

    A non-finite result raises :class:`OutsideDomain`: a lane that overflows,
    adds inf to -inf, or holds an infinite or NaN term.
    """
    try:
        total = complex(math.fsum([t.real for t in terms]), math.fsum([t.imag for t in terms]))
    except (OverflowError, ValueError) as exc:
        raise OutsideDomain(f"sum outside the double range: {exc}") from exc
    if not cmath.isfinite(total):
        raise OutsideDomain(f"sum is not finite: {total}")
    return total
