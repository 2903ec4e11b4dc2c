"""Principal-branch complex helpers, exactly rounded complex summation, and
the :class:`Evaluation` result that every closed form and oracle returns,
tagged with the :class:`Method` (one member per algorithm) that produced it.

Every multivalued operation in the package funnels through these functions so
the whole library shares one branch convention: Im(log) lies in (-pi, pi],
with arguments on the negative real axis taking the +pi edge.  Plain
``cmath.log`` would put an exact negative real with a -0.0 imaginary part on
the -pi side; we normalize signed zeros first so exact real inputs always see
the closed upper edge of the cut.  The closed form's row logs live here too.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BranchPoint, OutsideDomain, ZeroArgument
from .rationals import exact_rational

if TYPE_CHECKING:
    import numpy as np

# Cells of a numpy block in both grid batches, read here at call time: 1 MB per complex matrix.
BATCH_CELLS = 2**16

# Refuse logarithms whose argument is closer than this to the branch point.
BRANCH_GUARD = 1e-14


class Method(enum.Enum):
    """The algorithm that produced a value; each member is one algorithm that runs."""

    REDUCTION = "Reduction"
    SERIES = "Series"
    SHIFTED_SERIES = "ShiftedSeries"
    QUADRATURE_BETA = "QuadratureBeta"
    QUADRATURE_PHI = "QuadraturePhi"


# the fields of Evaluation, which checks them in a __new__ that a NamedTuple body may not define
class _EvaluationFields(NamedTuple):
    value: complex
    method: Method
    error_estimate: float
    terms_or_nodes: int
    parts: Tuple[complex, ...] = ()


class Evaluation(_EvaluationFields):
    """A value, the method that produced it, its work and an error estimate.

    ``parts`` is every summand of a closed form, logs then tail terms: ``value`` is
    their exactly rounded sum and ``error_estimate`` 2^-53 * sum|parts|; oracles have none.
    A tuple: it indexes, unpacks and compares as the tuple of its fields, and
    ``_make`` and ``_replace`` check their fields as the constructor does.
    """

    __slots__ = ()

    def __new__(
        cls, value: complex, method: Method, error_estimate: float, terms_or_nodes: int,
        parts: Tuple[complex, ...] = (),
    ) -> Evaluation:
        if not (error_estimate >= 0.0 and math.isfinite(error_estimate)):
            raise ValueError(f"error_estimate must be finite and >= 0, got {error_estimate}")
        if terms_or_nodes < 1:
            raise ValueError(f"terms_or_nodes must be >= 1, got {terms_or_nodes}")
        return tuple.__new__(cls, (value, method, error_estimate, terms_or_nodes, parts))

    @classmethod
    def _make(cls, iterable) -> Evaluation:
        return cls(*iterable)


def to_double(x, kind=float):
    """kind(x), kind float or complex, with an exact real beyond the double range
    rounded to +-inf, as the literal 1e400 is, where kind(x) raises OverflowError."""
    try:
        return kind(x)
    except OverflowError:
        return kind(math.inf if x > 0 else -math.inf)


def finite_complex(z: complex, name: str = "z") -> complex:
    """complex(z); an infinite or NaN part raises :class:`OutsideDomain` naming it."""
    z = to_double(z, complex)
    if not cmath.isfinite(z):
        raise OutsideDomain(f"{name} must be finite, got {z}")
    return z


def finite_double(x, name: str) -> float:
    """float(x); one that overflows or rounds to 0.0 raises :class:`OutsideDomain` naming it."""
    f = to_double(x)
    if not (f and math.isfinite(f)):
        raise OutsideDomain(f"{name} = {x} does not round to a finite non-zero double")
    return f


def principal_log(w: complex) -> complex:
    """Complex log with Im in (-pi, pi]; exact negative reals map to +i*pi, 0 raises BranchPoint."""
    if not isinstance(w, complex):
        w = to_double(w, complex)
    try:
        return cmath.log(w if w.imag else complex(w.real, 0.0))
    except ValueError:  # cmath.log refuses 0 alone
        raise BranchPoint("log of 0, the logarithmic branch point") from None


def principal_logs(ws: Sequence[complex]) -> List[complex]:
    """``[principal_log(w) for w in ws]`` for complex ws, in one call: the same rules."""
    try:
        return [cmath.log(w if w.imag else complex(w.real, 0.0)) for w in ws]
    except ValueError:
        raise BranchPoint("log of 0, the logarithmic branch point") from None


def row_logs(zq: complex, roots: Sequence[complex], rows: Optional[int] = None) -> List[complex]:
    """``[principal_log(1 - zq*root) for root in roots[:rows]]``: the row logs, zq = z^(1/q).

    At |zq| < 1/2 every row is ``0.5*log1p(x*x + y*y - 2x) + i*atan2(-y, 1 - x)``, u = x + iy
    = zq*root, which keeps the digits of 1 - u that rounding would drop at small |u|.
    A row inside ``BRANCH_GUARD`` raises :class:`BranchPoint` naming its k and q = len(roots);
    one past the double range (only at q = 1: from q = 3 on, |zq| < 2^342) :class:`OutsideDomain`.
    """
    x, y = zq.real, zq.imag
    if x * x + y * y < 0.25:  # the parts, not abs(zq), which overflows past the double range
        logs = []
        for root in roots[:rows]:
            u = zq * root
            x, y = u.real, u.imag
            logs.append(complex(0.5 * math.log1p(x * x + y * y - 2 * x), math.atan2(-y, 1 - x)))
        return logs
    ws = [1 - zq * root for root in roots[:rows]]
    try:
        near = min(map(abs, ws))
    except OverflowError as exc:
        raise OutsideDomain(f"log argument {ws[0]} outside the double range") from exc
    if near < BRANCH_GUARD:
        k = next(k for k, w in enumerate(ws) if abs(w) < BRANCH_GUARD)
        raise BranchPoint(
            f"log argument {ws[k]} within {BRANCH_GUARD} of the branch point (k={k}, q={len(roots)})"
        )
    return principal_logs(ws)


def row_logs_array(z_root: np.ndarray, roots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`row_logs` in numpy, a row per root and a column per lane of z_root, with the
    mask of the columns that have a row inside twice ``BRANCH_GUARD``, left to the caller.
    Its log1p rule takes real ``np.log1p``: the complex one drops the real part at small |u|."""
    import numpy as np  # here, so the scalar path never loads numpy
    u = roots[:, None] * z_root
    w = 1 - u
    log_w = np.log(w)
    small = z_root.real**2 + z_root.imag**2 < 0.25  # the screen of row_logs
    if small.any():
        x, y = u.real[:, small], u.imag[:, small]
        log_w.real[:, small] = 0.5 * np.log1p(x * x + y * y - 2 * x)
        log_w.imag[:, small] = np.arctan2(-y, 1 - x)
    return log_w, (np.abs(w) < 2 * BRANCH_GUARD).any(axis=0)


def principal_sqrt(w: complex) -> complex:
    """Square root on the same branch as :func:`principal_log`."""
    if not isinstance(w, complex):
        w = to_double(w, complex)
    return cmath.sqrt(w if w.imag else complex(w.real, 0.0))


def rational_power(z: complex, expo: Fraction) -> complex:
    """z**expo with the principal fractional branch.

    The integer part, truncated toward zero, goes through exact complex
    integer powers and the signed remainder through the principal root/log,
    so real positive z yields an exactly real result and half-integer
    exponents stay as accurate as a square root.  A result outside the
    double range raises :class:`OutsideDomain`: the integer power lies
    between 1 and the result, so it overflows only with the result.
    :func:`rational_powers` computes it, so many exponents at one z can
    share the split of each exponent and one log (or square root) of z.
    """
    return rational_powers(z, [exponent_parts(expo)])[0]


def exponent_parts(expo: Fraction) -> Tuple[Fraction, int, int, int]:
    """(expo, n, rem, den): expo = n + rem/den, n truncated toward zero, rem of its sign."""
    expo = exact_rational(expo)
    p, den = expo.numerator, expo.denominator
    n = p // den if p >= 0 else -(-p // den)  # toward zero: |z**n| lies between 1 and |z**expo|
    return expo, n, p - n * den, den


def rational_powers(z: complex, parts: Sequence[Tuple]) -> List[complex]:
    """z**expo for each expo, given as its :func:`exponent_parts`.

    One principal log of z serves every remainder and one principal square
    root every half-integer one, each computed the first time an exponent
    needs it, so the values are bitwise those of single
    :func:`rational_power` calls; the first refused exponent raises the
    error its single call raises.
    """
    z = to_double(z, complex)
    if z == 0:
        if all(n > 0 or rem > 0 for _, n, rem, _ in parts):
            return [0j] * len(parts)
        raise ZeroArgument("0 cannot be raised to a non-positive power")
    log = root = None
    powers = []
    for expo, n, rem, den in parts:
        try:
            out = z**n if n else complex(1.0)
            if rem:
                if den == 2:
                    if root is None:
                        root = principal_sqrt(z)
                    out = out * root if rem > 0 else out / root
                else:
                    if log is None:
                        log = principal_log(z)
                    out *= cmath.exp((rem / den) * log)
        except (OverflowError, ZeroDivisionError) as exc:  # z**-k divides by an underflowed z**k
            raise OutsideDomain(f"z**{expo} outside the double range") from exc
        if not cmath.isfinite(out):  # complex ** gives nan+nanj, and * or / inf, not an error
            raise OutsideDomain(f"z**{expo} outside the double range: {out}")
        powers.append(out)
    return powers


_REAL, _IMAG = operator.attrgetter("real"), operator.attrgetter("imag")


def fsum_complex(terms: Sequence[complex]) -> complex:
    """Exactly rounded sum of complex terms: ``math.fsum`` on each lane.

    A non-finite result raises :class:`OutsideDomain`: a lane that overflows,
    adds inf to -inf, or holds an infinite or NaN term.
    """
    try:
        total = complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
    except (OverflowError, ValueError) as exc:
        raise OutsideDomain(f"sum outside the double range: {exc}") from exc
    if not cmath.isfinite(total):
        raise OutsideDomain(f"sum is not finite: {total}")
    return total
