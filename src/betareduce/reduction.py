"""Elementary closed forms for the mu = 0 incomplete beta and relatives.

For rational nu = m + p/q (signed integer m = ceil(nu) - 1, 0 < p/q <= 1),
B(nu, 0, z) collapses to a q-term sum of principal logarithms over the q-th
roots of unity plus a finite power correction:

    B = -sum_{k=0}^{q-1} e^(-2*pi*i*p*k/q) log(1 - z^(1/q) e^(2*pi*i*k/q))
        - sgn(m) * sum_{k in [min(0,m), max(0,m))} z^(k+p/q) / (k + p/q)

The log sum is B(p/q, 0, z); the correction undoes the integer shift by the
contiguous relation B(a+1, 0, z) = B(a, 0, z) - z^a/a (DLMF 8.17).  Integer
nu is the q = 1 case, where the log sum is the single term -log(1 - z).
One kernel evaluates every case; at q = 2 its log part is 2*atanh(sqrt(z)),
which is more accurate at small real z than the two logs it replaces.  Every
log goes through the package-wide principal branch, which is what makes
Im(B) = -pi come out on the real ray z > 1.  :func:`reduce_beta_many`
evaluates the general form for one nu at many z with numpy, one column per z.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Iterable, List, Tuple

import numpy as np

from .errors import BranchPoint, MaxTermsExceeded, OutsideDomain, PoleInSum, ZeroArgument
from .principal import (
    Evaluation,
    Method,
    atanh,
    finite_complex,
    fsum_complex,
    principal_log,
    principal_sqrt,
    rational_power,
)
from .rationals import Decomposition, decompose

# Refuse logarithms whose argument is closer than this to the branch point.
BRANCH_GUARD = 1e-14

# Power tails longer than this are refused before any work: time and memory grow with |m|.
MAX_TAIL_TERMS = 10**6

_TWO_PI = 2.0 * math.pi


def _root_table(q: int) -> Tuple[complex, ...]:
    # e^(2*pi*i*j/q) from the exact angle of each j, not by repeated
    # multiplication: keeps the phase tight for large k*p products.
    return tuple(complex(math.cos(_TWO_PI * j / q), math.sin(_TWO_PI * j / q)) for j in range(q))


# q up to this keeps its table in the cache (64 tables, 10 MB at most); larger q builds its own.
ROOT_CACHE_MAX_Q = 4096
_unit_roots = functools.lru_cache(maxsize=64)(_root_table)


def _roots(q: int) -> Tuple[complex, ...]:
    return _unit_roots(q) if q <= ROOT_CACHE_MAX_Q else _root_table(q)


def _roots_and_powers(zs: List[complex], dec: Decomposition) -> Tuple[List[complex], List[complex]]:
    """The principal z^(1/q) and z^r of each z != 0: the log sum's root and the tail's start."""
    q = dec.r.denominator
    if q == 1:
        return zs, zs
    if q == 2:
        roots = [principal_sqrt(z) for z in zs]
        return roots, roots
    # both from one log: exp(log(z)/q), exp((p/q) log(z))
    r = dec.r.numerator / q
    logs = [principal_log(z) for z in zs]
    return [cmath.exp(lz / q) for lz in logs], [cmath.exp(r * lz) for lz in logs]


def _roots_log_sum(p: int, q: int, zq: complex) -> List[complex]:
    """The q phased principal logs whose sum is B(p/q, 0, z), from zq = z^(1/q)."""
    roots = _roots(q)
    logs = []
    for k in range(q):
        w = 1 - zq * roots[k]
        try:
            near = abs(w)
        except OverflowError as exc:
            raise OutsideDomain(f"log argument {w} outside the double range") from exc
        if near < BRANCH_GUARD:
            raise BranchPoint(
                f"log argument {w} within {BRANCH_GUARD} of the branch point (k={k}, q={q})"
            )
        logs.append(-roots[-p * k % q] * principal_log(w))
    return logs


def _method(dec: Decomposition) -> Method:
    # labels only: every case runs _reduce, which differs by q only in its log part
    if dec.r.denominator == 1:
        return Method.INTEGER_LOG
    if dec.r.denominator == 2:
        return Method.HALF_ATANH
    return Method.ROOTS_OF_UNITY_POS if dec.m >= 0 else Method.ROOTS_OF_UNITY_NEG


def reduce_beta(dec: Decomposition, z: complex) -> Evaluation:
    """B(m + r, 0, z) for a decomposed rational parameter, as an :class:`Evaluation`.

    One kernel: the q phased logs (at q = 2 the single 2*atanh(sqrt(z)), more
    accurate at small real z), then the signed power tail.  The error
    estimate is the condition of the sum, 2^-53 * sum|parts|.
    Raises :class:`BranchPoint` at z = 1 or whenever a log argument falls
    inside the guard band, :class:`ZeroArgument` at z = 0 for m < 0,
    :class:`OutsideDomain` for an infinite or NaN z or a sum outside the
    double range, :class:`MaxTermsExceeded` for |m| or q above
    ``MAX_TAIL_TERMS``, before any work.

    Runs through :func:`reduce_beta_pos` (m >= 0) or :func:`reduce_beta_neg`
    (m < 0): one kernel under two names, timed and counted by name in traced runs.
    """
    return (reduce_beta_pos if dec.m >= 0 else reduce_beta_neg)(dec, z)


def reduce_beta_pos(dec: Decomposition, z: complex) -> Evaluation:
    """:func:`reduce_beta` for m >= 0, i.e. nu > 0."""
    return _reduce(dec, z)


def reduce_beta_neg(dec: Decomposition, z: complex) -> Evaluation:
    """:func:`reduce_beta` for m < 0, i.e. nu < 0."""
    return _reduce(dec, z)


def _reduce(dec: Decomposition, z: complex) -> Evaluation:
    z = finite_complex(z)
    method = _method(dec)
    if z == 0:
        if dec.m < 0:
            raise ZeroArgument("negative powers of z require z != 0")
        return Evaluation(0j, method, 0.0, 1)
    if z == 1:
        raise BranchPoint("z = 1 is the logarithmic branch point")
    p, q = dec.r.numerator, dec.r.denominator
    if dec.n > MAX_TAIL_TERMS:
        raise MaxTermsExceeded(f"{dec.n} power-tail terms exceed the budget of {MAX_TAIL_TERMS}")
    if q > MAX_TAIL_TERMS:
        raise MaxTermsExceeded(f"{q} roots of unity exceed the budget of {MAX_TAIL_TERMS}")
    (zq,), (zk,) = _roots_and_powers([z], dec)
    if q == 2:
        # B(1/2, 0, z) = 2*atanh(sqrt(z)): at small real z more accurate than its two logs
        if abs(1 - zq) < BRANCH_GUARD or abs(1 + zq) < BRANCH_GUARD:
            raise BranchPoint("sqrt(z) within the guard band of an atanh singularity")
        logs = [2.0 * atanh(zq)]
    else:
        logs = _roots_log_sum(p, q, zq)
    r = p / q
    # the tail walks outward from z^r at k = 0 (m > 0) or k = -1 (m < 0), one
    # multiplication or division by z per term
    tail = []
    for k in range(dec.m):
        tail.append(-zk / (k + r))
        zk *= z
    for k in range(-1, dec.m - 1, -1):
        zk /= z
        tail.append(zk / (k + r))
    return _closed_form(method, logs, tail, len(logs) + dec.n)


def _closed_form(method: Method, logs: List[complex], tail: List[complex], work: int) -> Evaluation:
    tail_sum = fsum_complex(tail)
    parts = (*logs, tail_sum)
    try:
        spread = math.fsum(map(abs, parts))
    except OverflowError as exc:
        raise OutsideDomain("sum of the |parts| outside the double range") from exc
    return Evaluation(fsum_complex(logs) + tail_sum, method, 2.0**-53 * spread, work, parts)


# A batch chunk holds at most this many (q + |m|) x columns cells: 1 MB per complex matrix.
BATCH_CELLS = 2**16

# The batch leaves to reduce_beta any z, and any part, with a lane this large: its sums
# stay far inside the double range, so it never meets an overflow the scalar path reports.
_BATCH_LIMIT = 2.0**1000


def reduce_beta_many(dec: Decomposition, zs: Iterable[complex]) -> List[complex]:
    """The values ``[reduce_beta(dec, z).value for z in zs]``, computed with numpy.

    One column per z holds the q phased logs of the general form (q = 1 and
    q = 2 included) and the |m| power-tail terms, built a chunk of columns
    at a time (at most ``BATCH_CELLS`` cells) and summed exactly rounded by
    ``math.fsum`` per lane.  Values agree with :func:`reduce_beta` to a few
    units of its error estimate.  A point the batch cannot finish regularly
    -- z = 0, a lane of z or of a part beyond 2^1000 or not finite, a log
    argument near the guard band (z = 1 among them) -- goes to
    :func:`reduce_beta` in order, so the batch raises the first error the
    scalar loop would.
    """
    zs = [complex(z) for z in zs]
    p, q = dec.r.numerator, dec.r.denominator
    width = q + dec.n
    if width > BATCH_CELLS:
        # one column alone would pass the budget (this covers |m| or q > MAX_TAIL_TERMS)
        return [reduce_beta(dec, z).value for z in zs]
    roots = np.array(_roots(q))
    phases = -roots[-p * np.arange(q) % q]
    # the tail's denominators with its sign folded in, exact for IEEE division:
    # -(k + r) for k = 0..m-1, k + r for k = -1..m
    r = p / q
    ks = np.arange(dec.m) if dec.m > 0 else np.arange(-1, dec.m - 1, -1)
    dens = -(ks + r) if dec.m > 0 else ks + r
    step = BATCH_CELLS // width
    out: List[complex] = []
    # non-finite parts are found by explicit checks, not by numpy's warnings
    with np.errstate(all="ignore"):
        for start in range(0, len(zs), step):
            out.extend(_batch_chunk(dec, roots, phases, dens[:, None], zs[start : start + step]))
    return out


def _batch_chunk(dec, roots, phases, dens, zs: List[complex]) -> List[complex]:
    q, m = len(roots), dec.m
    regular = [z != 0 and abs(z.real) < _BATCH_LIMIT and abs(z.imag) < _BATCH_LIMIT for z in zs]
    # points left to reduce_beta keep a harmless z in their column
    base = [z if ok else 0.5 + 0j for z, ok in zip(zs, regular)]
    z_root, z_power = _roots_and_powers(base, dec)
    parts = np.empty((q + abs(m), len(zs)), dtype=complex)
    w = 1 - roots[:, None] * np.array(z_root)
    w.imag[w.imag == 0.0] = 0.0  # -0.0 takes the +pi edge, as in principal_log
    # twice the guard (z = 1 among them): a point near its edge is decided by reduce_beta
    unfinished = ~np.array(regular) | (np.abs(w) < 2 * BRANCH_GUARD).any(axis=0)
    np.multiply(phases[:, None], np.log(w), out=parts[:q])
    if m:
        # the walk outward from z^r, one multiplication (m > 0) or division (m < 0) per row
        walk = np.empty((abs(m) + 1, len(zs)), dtype=complex)
        walk[0] = z_power
        walk[1:] = base
        (np.multiply if m > 0 else np.divide).accumulate(walk, axis=0, out=walk)
        powers = walk[:-1] if m > 0 else walk[1:]
        tail = parts[q:]
        # lane by lane, as Python divides a complex by a float
        tail.real = powers.real / dens
        tail.imag = powers.imag / dens
        inside = (np.abs(tail.real) < _BATCH_LIMIT) & (np.abs(tail.imag) < _BATCH_LIMIT)
        unfinished |= ~inside.all(axis=0)
    lanes = zip(zs, unfinished.tolist(), parts.real.T.tolist(), parts.imag.T.tolist())
    return [
        reduce_beta(dec, z).value if left else complex(math.fsum(re), math.fsum(im))
        for z, left, re, im in lanes
    ]


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
    value = reduce_beta(dec, z).value
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
        return reduce_beta(decompose(nu), z).value
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
