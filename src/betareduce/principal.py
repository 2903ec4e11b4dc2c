"""Principal-branch complex helpers, exactly rounded complex summation, and
the :class:`Evaluation` result that every closed form and oracle returns.

Every multivalued operation in the package funnels through these functions so
the whole library shares one branch convention: Im(log) lies in (-pi, pi],
with arguments on the negative real axis taking the +pi edge.  Plain
``cmath.log`` would put an exact negative real with a -0.0 imaginary part on
the -pi side; we normalize signed zeros first so exact real inputs always see
the closed upper edge of the cut.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import OutsideDomain, ZeroArgument


class Method(enum.Enum):
    INTEGER_LOG = "IntegerLog"
    HALF_ATANH = "HalfAtanh"
    ROOTS_OF_UNITY_POS = "RootsOfUnityPos"
    ROOTS_OF_UNITY_NEG = "RootsOfUnityNeg"
    SERIES = "Series"
    SHIFTED_SERIES = "ShiftedSeries"
    QUADRATURE_BETA = "QuadratureBeta"
    QUADRATURE_PHI = "QuadraturePhi"


@dataclass(frozen=True)
class Evaluation:
    """A value, the method that produced it, its work and an error estimate.

    ``parts`` holds a closed form's signed summands, the phased logs and
    then the power-tail sum; an oracle has none.
    """

    value: complex
    method: Method
    error_estimate: float
    terms_or_nodes: int
    parts: Tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if not (self.error_estimate >= 0.0 and math.isfinite(self.error_estimate)):
            raise ValueError(f"error_estimate must be finite and >= 0, got {self.error_estimate}")
        if self.terms_or_nodes < 1:
            raise ValueError(f"terms_or_nodes must be >= 1, got {self.terms_or_nodes}")

    def contributions(self) -> List[complex]:
        return list(self.parts)


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
