"""Elementary closed forms for the mu = 0 incomplete beta and relatives.

For rational nu = m + p/q (signed integer m = ceil(nu) - 1, 0 < p/q <= 1),
B(nu, 0, z) collapses to a q-term sum of principal logarithms over the q-th
roots of unity plus a finite power correction:

    B = -sum_{k=0}^{q-1} e^(-2*pi*i*p*k/q) log(1 - z^(1/q) e^(2*pi*i*k/q))
        - sgn(m) * sum_{k in [min(0,m), max(0,m))} z^(k+p/q) / (k + p/q)

The log sum is B(p/q, 0, z); the correction undoes the integer shift by the
contiguous relation B(a+1, 0, z) = B(a, 0, z) - z^a/a (DLMF 8.17).  Integer
nu is the q = 1 case, where the log sum is the single term -log(1 - z).
Half-integer nu takes an atanh fast path, measured faster, that the q = 2
general form must reproduce.  Every log goes through the package-wide
principal branch, which is what makes Im(B) = -pi come out on the real ray
z > 1.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import BranchPoint, OutsideDomain, PoleInSum, ZeroArgument
from .principal import (
    atanh,
    finite_complex,
    fsum_complex,
    principal_log,
    principal_root,
    principal_sqrt,
    rational_power,
)
from .rationals import Decomposition, decompose

# Refuse logarithms whose argument is closer than this to the branch point.
BRANCH_GUARD = 1e-14

_TWO_PI = 2.0 * math.pi


class Method(enum.Enum):
    INTEGER_LOG = "IntegerLog"
    HALF_ATANH = "HalfAtanh"
    ROOTS_OF_UNITY_POS = "RootsOfUnityPos"
    ROOTS_OF_UNITY_NEG = "RootsOfUnityNeg"
    POLYNOMIAL_MU = "PolynomialMu"


@dataclass
class ReductionTrace:
    """Diagnostic decomposition of one reduction evaluation.

    ``terms`` holds ``(k, root_phase, log_term)`` triples; each contributes
    ``-root_phase * log_term`` to the value.  ``tail_sum`` is the finite
    power correction with its sign already applied, so the contributions
    plus the tail reproduce the returned value up to final rounding.
    """

    method: Method
    terms: List[Tuple[int, complex, complex]]
    tail_sum: complex

    def contributions(self) -> List[complex]:
        return [-phase * logterm for _, phase, logterm in self.terms]

    def total(self) -> complex:
        return fsum_complex(self.contributions() + [self.tail_sum])


def _root_table(q: int) -> Tuple[complex, ...]:
    # e^(2*pi*i*j/q) from the exact angle of each j, not by repeated
    # multiplication: keeps the phase tight for large k*p products.
    return tuple(complex(math.cos(_TWO_PI * j / q), math.sin(_TWO_PI * j / q)) for j in range(q))


# q up to this keeps its table in the cache (64 tables, 10 MB at most); larger q builds its own.
ROOT_CACHE_MAX_Q = 4096
_unit_roots = functools.lru_cache(maxsize=64)(_root_table)


def _roots_log_sum(p: int, q: int, z: complex):
    """The q-term principal-log sum: B(p/q, 0, z) is minus its phased total."""
    roots = _unit_roots(q) if q <= ROOT_CACHE_MAX_Q else _root_table(q)
    zq = principal_root(z, q)
    terms = []
    for k in range(q):
        w = 1 - zq * roots[k]
        if abs(w) < BRANCH_GUARD:
            raise BranchPoint(
                f"log argument {w} within {BRANCH_GUARD} of the branch point (k={k}, q={q})"
            )
        terms.append((k, roots[-p * k % q], principal_log(w)))
    return terms


def _method(dec: Decomposition) -> Method:
    # labels only: every q >= 3 (and q = 1) evaluation runs _roots_form
    if dec.r.denominator == 1:
        return Method.INTEGER_LOG
    return Method.ROOTS_OF_UNITY_POS if dec.m >= 0 else Method.ROOTS_OF_UNITY_NEG


def reduce_beta(dec: Decomposition, z: complex) -> Tuple[complex, ReductionTrace]:
    """B(m + r, 0, z) for a decomposed rational parameter, with its diagnostic trace.

    Half-integers take the atanh form, everything else the roots-of-unity
    sum.  Raises :class:`BranchPoint` at z = 1 or whenever a log argument
    falls inside the guard band, :class:`ZeroArgument` at z = 0 for m < 0
    (negative powers of z appear), :class:`OutsideDomain` for an infinite
    or NaN z.

    Runs through :func:`reduce_beta_pos` (m >= 0) or :func:`reduce_beta_neg`
    (m < 0): one kernel under two names, timed and counted by name in traced runs.
    """
    return (reduce_beta_pos if dec.m >= 0 else reduce_beta_neg)(dec, z)


def reduce_beta_pos(dec: Decomposition, z: complex) -> Tuple[complex, ReductionTrace]:
    """:func:`reduce_beta` for m >= 0, i.e. nu > 0."""
    return _reduce(dec, z)


def reduce_beta_neg(dec: Decomposition, z: complex) -> Tuple[complex, ReductionTrace]:
    """:func:`reduce_beta` for m < 0, i.e. nu < 0."""
    return _reduce(dec, z)


def _reduce(dec: Decomposition, z: complex) -> Tuple[complex, ReductionTrace]:
    z = finite_complex(z)
    if z == 0:
        if dec.m < 0:
            raise ZeroArgument("negative powers of z require z != 0")
        method = Method.HALF_ATANH if dec.r.denominator == 2 else _method(dec)
        return 0j, ReductionTrace(method, [], 0j)
    if z == 1:
        raise BranchPoint("z = 1 is the logarithmic branch point")
    if dec.r.denominator == 2:
        return _half_atanh(dec, z)
    return _roots_form(dec, z)


def _half_atanh(dec: Decomposition, z: complex):
    # B(n+1/2, 0, z) = 2*(atanh(sqrt(z)) - sum_{k=0}^{n-1} z^(k+1/2)/(2k+1))
    # B(-n+1/2, 0, z) = 2*(atanh(sqrt(z)) - sum_{k=0}^{n-1} z^(-k-1/2)/(2k+1))
    neg = dec.m < 0
    sq = principal_sqrt(z)
    _guard_half(sq)
    at = atanh(sq)
    tail = []
    zk = sq / z if neg else sq
    for k in range(dec.n):
        tail.append(-2.0 * zk / (2 * k + 1))
        zk = zk / z if neg else zk * z
    tail_sum = fsum_complex(tail)
    trace = ReductionTrace(Method.HALF_ATANH, [(0, complex(-2.0), at)], tail_sum)
    return 2.0 * at + tail_sum, trace


def _guard_half(sq: complex) -> None:
    if abs(1 - sq) < BRANCH_GUARD or abs(1 + sq) < BRANCH_GUARD:
        raise BranchPoint("sqrt(z) within the guard band of an atanh singularity")


def _roots_form(dec: Decomposition, z: complex):
    p, q = dec.r.numerator, dec.r.denominator
    terms = _roots_log_sum(p, q, z)
    r = p / q
    # the tail walks outward from k = 0 (m > 0) or k = -1 (m < 0), one
    # multiplication or division by z per term
    tail = []
    zk = rational_power(z, dec.r)
    for k in range(dec.m):
        tail.append(-zk / (k + r))
        zk *= z
    for k in range(-1, dec.m - 1, -1):
        zk /= z
        tail.append(zk / (k + r))
    trace = ReductionTrace(_method(dec), terms, fsum_complex(tail))
    return fsum_complex(trace.contributions()) + trace.tail_sum, trace


# Binomial sums above this length would be numerically and practically useless.
MAX_BINOMIAL_M = 10**6


def beta_mu_posint(nu: Fraction, m: int, z: complex) -> complex:
    """B(nu, m+1, z) as the finite binomial sum z^nu * sum C(m,k)(-z)^k/(k+nu).

    Valid for any rational nu outside {0, -1, ..., -m}; those values hit a
    vanishing denominator and raise :class:`PoleInSum`.
    """
    nu = Fraction(nu)
    if m < 0 or m > MAX_BINOMIAL_M:
        raise OutsideDomain(f"m must be in [0, {MAX_BINOMIAL_M}], got {m}")
    if nu.denominator == 1 and -m <= nu <= 0:
        raise PoleInSum(f"k + nu vanishes at k = {-int(nu)} for nu = {nu}")
    z = finite_complex(z)
    if z == 0:
        if nu > 0:
            return 0j
        raise ZeroArgument(f"z = 0 needs nu > 0, got nu = {nu}")
    nuf = float(nu)
    terms = []
    binom = 1.0
    zk = complex(1.0)  # (-z)^k
    for k in range(m + 1):
        terms.append(binom * zk / (k + nuf))
        zk *= -z
        binom = binom * (m - k) / (k + 1)
    return rational_power(z, nu) * fsum_complex(terms)


def lerch_reduce(dec: Decomposition, z: complex) -> complex:
    """Phi(z, 1, nu) for decomposed rational nu, as z^(-nu) * B(nu, 0, z)."""
    z = complex(z)
    if z == 0:
        raise ZeroArgument("the bridge to B(nu,0,z) needs z != 0")
    value, _ = reduce_beta(dec, z)
    return rational_power(z, -dec.reconstruct()) * value


def incomplete_beta(nu: Fraction, mu: int, z: complex) -> complex:
    """B(nu, mu, z) for rational nu and integer mu >= 0.

    mu = 0 routes to the closed-form reduction;
    mu >= 1 to the finite binomial sum.  Non-positive integer nu with mu = 0
    raises :class:`DivergentParameter`; non-finite z :class:`OutsideDomain`.
    """
    nu = Fraction(nu)
    if not isinstance(mu, int) or mu < 0:
        raise OutsideDomain(f"mu must be a non-negative integer, got {mu!r}")
    if mu == 0:
        return reduce_beta(decompose(nu), z)[0]
    return beta_mu_posint(nu, mu - 1, z)


def connection_check(nu: Fraction, mu: int, z: complex) -> float:
    """Residual of B(nu,mu,z) = B(nu+1,mu,z) + B(nu,mu+1,z), scaled.

    Returns |lhs - rhs| / max(1, |lhs|); evaluation errors propagate.
    """
    nu = Fraction(nu)
    b = incomplete_beta(nu, mu, z)
    b_up_nu = incomplete_beta(nu + 1, mu, z)
    b_up_mu = incomplete_beta(nu, mu + 1, z)
    return abs(b - b_up_nu - b_up_mu) / max(1.0, abs(b))
