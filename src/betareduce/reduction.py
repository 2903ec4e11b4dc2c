"""Elementary closed forms for the mu = 0 incomplete beta and relatives.

For rational parameters, B(nu, 0, z) collapses to a q-term sum of principal
logarithms over the q-th roots of unity plus a finite power correction:

    positive nu = n + p/q, 0 < p < q:
        B = -sum_{k=0}^{q-1} e^(-2*pi*i*p*k/q) log(1 - z^(1/q) e^(2*pi*i*k/q))
            - sum_{k=0}^{n-1} z^(k+p/q) / (k + p/q)

    negative nu = -n + p/q:  same log sum, with the finite correction
        + sum_{k=1}^{n} z^(p/q-k) / (p/q - k)  added instead.

Integer nu uses the plain -log(1-z) form (the general sum does not cover it)
and half-integer nu dispatches to an atanh fast path that the q = 2 general
form must reproduce.  Every log goes through the package-wide principal
branch, which is what makes Im(B) = -pi come out on the real ray z > 1.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import BranchPoint, DivergentParameter, OutsideDomain, PoleInSum, ZeroArgument
from .principal import (
    atanh,
    finite_complex,
    fsum_complex,
    principal_log,
    principal_root,
    principal_sqrt,
    rational_power,
)
from .rationals import NegDecomposition, PosDecomposition, decompose_neg, decompose_pos

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
    """The q-term principal-log sum shared by both signed-parameter forms."""
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


def reduce_beta_pos(nu: PosDecomposition, z: complex) -> Tuple[complex, ReductionTrace]:
    """B(nu, 0, z) for positive rational nu, with its diagnostic trace.

    Dispatches on the decomposition: exact integers take the pure-log form,
    half-integers the atanh form, everything else the roots-of-unity sum.
    Raises :class:`BranchPoint` at z = 1 or whenever a log argument falls
    inside the guard band, :class:`OutsideDomain` for an infinite or NaN z.
    """
    z = finite_complex(z)
    if z == 1:
        raise BranchPoint("z = 1 is the logarithmic branch point")
    if z == 0:
        method = (
            Method.INTEGER_LOG
            if nu.r_is_one
            else (Method.HALF_ATANH if nu.q == 2 else Method.ROOTS_OF_UNITY_POS)
        )
        return 0j, ReductionTrace(method, [], 0j)
    if nu.r_is_one:
        return _integer_log_form(nu.n, z)
    if nu.q == 2:
        return _half_atanh(nu.n, z, neg=False)
    return _roots_form_pos(nu, z)


def reduce_beta_neg(nu: NegDecomposition, z: complex) -> Tuple[complex, ReductionTrace]:
    """B(nu, 0, z) for negative non-integer rational nu.

    Needs finite z, z != 0 (negative powers of z appear) and z != 1.
    """
    z = finite_complex(z)
    if z == 0:
        raise ZeroArgument("negative powers of z require z != 0")
    if z == 1:
        raise BranchPoint("z = 1 is the logarithmic branch point")
    if nu.q == 2:
        return _half_atanh(nu.n, z, neg=True)
    return _roots_form_neg(nu, z)


def _integer_log_form(n: int, z: complex):
    # B(n+1, 0, z) = -log(1-z) - sum_{k=1}^{n} z^k/k
    w = 1 - z
    if abs(w) < BRANCH_GUARD:
        raise BranchPoint(f"1 - z = {w} within {BRANCH_GUARD} of the branch point")
    logterm = principal_log(w)
    tail = []
    zk = complex(1.0)
    for k in range(1, n + 1):
        zk *= z
        tail.append(-zk / k)
    tail_sum = fsum_complex(tail)
    trace = ReductionTrace(Method.INTEGER_LOG, [(0, complex(1.0), logterm)], tail_sum)
    return -logterm + tail_sum, trace


def _half_atanh(n: int, z: complex, neg: bool):
    # B(n+1/2, 0, z) = 2*(atanh(sqrt(z)) - sum_{k=0}^{n-1} z^(k+1/2)/(2k+1))
    # B(-n+1/2, 0, z) = 2*(atanh(sqrt(z)) - sum_{k=0}^{n-1} z^(-k-1/2)/(2k+1))
    sq = principal_sqrt(z)
    _guard_half(sq)
    at = atanh(sq)
    tail = []
    zk = sq / z if neg else sq
    for k in range(n):
        tail.append(-2.0 * zk / (2 * k + 1))
        zk = zk / z if neg else zk * z
    tail_sum = fsum_complex(tail)
    trace = ReductionTrace(Method.HALF_ATANH, [(0, complex(-2.0), at)], tail_sum)
    return 2.0 * at + tail_sum, trace


def _guard_half(sq: complex) -> None:
    if abs(1 - sq) < BRANCH_GUARD or abs(1 + sq) < BRANCH_GUARD:
        raise BranchPoint("sqrt(z) within the guard band of an atanh singularity")


def _roots_form_pos(nu: PosDecomposition, z: complex):
    terms = _roots_log_sum(nu.p, nu.q, z)
    r = nu.p / nu.q
    tail = []
    zk = rational_power(z, Fraction(nu.p, nu.q))
    for k in range(nu.n):
        tail.append(-zk / (k + r))
        zk *= z
    trace = ReductionTrace(Method.ROOTS_OF_UNITY_POS, terms, fsum_complex(tail))
    return fsum_complex(trace.contributions()) + trace.tail_sum, trace


def _roots_form_neg(nu: NegDecomposition, z: complex):
    terms = _roots_log_sum(nu.p, nu.q, z)
    r = nu.p / nu.q
    tail = []
    zk = rational_power(z, Fraction(nu.p, nu.q))
    for k in range(1, nu.n + 1):
        zk /= z
        tail.append(zk / (r - k))
    trace = ReductionTrace(Method.ROOTS_OF_UNITY_NEG, terms, fsum_complex(tail))
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


def lerch_reduce(nu: PosDecomposition, z: complex) -> complex:
    """Phi(z, 1, nu) for positive rational nu, as z^(-nu) * B(nu, 0, z)."""
    z = complex(z)
    if z == 0:
        raise ZeroArgument("the bridge to B(nu,0,z) needs z != 0")
    value, _ = reduce_beta_pos(nu, z)
    return rational_power(z, -nu.reconstruct()) * value


def incomplete_beta(nu: Fraction, mu: int, z: complex) -> complex:
    """B(nu, mu, z) for rational nu and integer mu >= 0.

    mu = 0 routes to the closed-form reductions (positive or negative nu);
    mu >= 1 to the finite binomial sum.  Non-positive integer nu with mu = 0
    raises :class:`DivergentParameter`; non-finite z :class:`OutsideDomain`.
    """
    nu = Fraction(nu)
    if not isinstance(mu, int) or mu < 0:
        raise OutsideDomain(f"mu must be a non-negative integer, got {mu!r}")
    if mu == 0:
        if nu.denominator == 1 and nu <= 0:
            raise DivergentParameter(f"B({nu}, 0, z) diverges")
        if nu > 0:
            return reduce_beta_pos(decompose_pos(nu), z)[0]
        return reduce_beta_neg(decompose_neg(nu), z)[0]
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
