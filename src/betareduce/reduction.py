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
For real z > 0 it pairs the conjugate rows k and q - k, which halves its
logs and leaves the imaginary part to the k = 0 log alone: 0 on (0, 1) and
exactly -pi on the ray z > 1.

Every closed form is therefore one algorithm, ``Method.REDUCTION``; the q = 2
log part shows only in the count of parts, 1 + |m| where any other q has q + |m|.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .errors import BranchPoint, MaxTermsExceeded, OutsideDomain, PoleInSum, ZeroArgument
from .principal import (
    Evaluation,
    Method,
    atanh,
    finite_complex,
    finite_double,
    fsum_complex,
    principal_log,
    principal_sqrt,
    rational_power,
    to_double,
)
from .rationals import Decomposition, decompose

# Refuse logarithms whose argument is closer than this to the branch point.
BRANCH_GUARD = 1e-14

# Power tails longer than this are refused before any work: time and memory grow with |m|.
MAX_TAIL_TERMS = 10**6

_TWO_PI = 2.0 * math.pi


def _root_table(q: int) -> Tuple[Tuple[complex, ...], np.ndarray]:
    # e^(2*pi*i*j/q) from the exact angle of each j, not by repeated
    # multiplication: keeps the phase tight for large k*p products.  The
    # tuple serves the scalar kernel, a read-only array of it the batch.
    roots = tuple(complex(math.cos(_TWO_PI * j / q), math.sin(_TWO_PI * j / q)) for j in range(q))
    table = np.array(roots)
    table.flags.writeable = False
    return roots, table


# q up to this keeps its tuple and array in the cache (64 q, 15 MB at most); larger q builds anew.
ROOT_CACHE_MAX_Q = 4096
_unit_roots = functools.lru_cache(maxsize=64)(_root_table)


def _roots(q: int) -> Tuple[Tuple[complex, ...], np.ndarray]:
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
    roots = _roots(q)[0]
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


def reduce_beta(dec: Decomposition, z: complex) -> Evaluation:
    """B(m + r, 0, z) for a decomposed rational parameter, as an :class:`Evaluation`.

    One kernel: the q phased logs (at q = 2 the single 2*atanh(sqrt(z)), more
    accurate at small real z) and the |m| power-tail terms, summed exactly
    rounded at once; the error estimate is that sum's condition, 2^-53 * sum|parts|.
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
    if z == 0:
        if dec.m < 0:
            raise ZeroArgument("negative powers of z require z != 0")
        return Evaluation(0j, Method.REDUCTION, 0.0, 1)
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
        parts = [2.0 * atanh(zq)]
    else:
        parts = _roots_log_sum(p, q, zq)
    r = p / q
    # the tail walks outward from z^r at k = 0 (m > 0) or k = -1 (m < 0), one
    # multiplication or division by z per term
    for k in range(dec.m):
        parts.append(-zk / (k + r))
        zk *= z
    for k in range(-1, dec.m - 1, -1):
        zk /= z
        parts.append(zk / (k + r))
    return _closed_form(parts)


def _closed_form(parts: List[complex]) -> Evaluation:
    try:
        spread = math.fsum(map(abs, parts))
    except OverflowError as exc:
        raise OutsideDomain("sum of the |parts| outside the double range") from exc
    return Evaluation(fsum_complex(parts), Method.REDUCTION, 2.0**-53 * spread, len(parts), tuple(parts))


# A batch chunk holds at most this many (q + |m|) x columns cells: 1 MB per complex matrix.
BATCH_CELLS = 2**16

# The batch leaves to reduce_beta any z, and any part, with a lane this large: its sums
# stay far inside the double range, so it never meets an overflow the scalar path reports.
_BATCH_LIMIT = 2.0**1000


def reduce_beta_many(dec: Decomposition, zs: Iterable[complex]) -> List[complex]:
    """The values ``[reduce_beta(dec, z).value for z in zs]``, computed with numpy.

    One column per z holds the q phased logs of the general form (q = 1
    included) and the |m| power-tail terms, built a chunk of columns at a
    time (at most ``BATCH_CELLS`` cells) and summed exactly rounded by
    ``math.fsum`` per lane.  A lane whose z is real and positive pairs the
    conjugate rows k and q - k: it computes rows 0 .. q//2 only, takes
    2*Re of each row 0 < k < q/2 and Re of the self-conjugate row q/2, so
    its value is real on (0, 1) and has Im = -pi exactly on the ray z > 1,
    from row 0 alone.  Every other lane computes all q rows.  Pairing is
    decided per lane, so a value does not depend on the other points of the
    call.  Values agree with :func:`reduce_beta` to a few units of its error
    estimate.  A point the batch cannot finish regularly -- z = 0, a lane of
    z or of a part beyond 2^1000 or not finite, a log argument near the guard
    band (z = 1 among them) -- goes to :func:`reduce_beta` in order, so the
    batch raises the first error the scalar loop would.  So does a q = 2
    point with real z in (0, 1), where the scalar atanh is more accurate:
    there the batch equals :func:`reduce_beta` bitwise.
    """
    zs = [to_double(z, complex) for z in zs]
    p, q = dec.r.numerator, dec.r.denominator
    width = q + dec.n
    if width > BATCH_CELLS:
        # one column alone would pass the budget (this covers |m| or q > MAX_TAIL_TERMS)
        return [reduce_beta(dec, z).value for z in zs]
    roots = _roots(q)[1]
    phases = -roots[-p * np.arange(q) % q]  # each log row's phase -e^(-2*pi*i*p*k/q)
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
    za = np.array(zs, dtype=complex)
    regular = (za != 0) & (np.abs(za.real) < _BATCH_LIMIT) & (np.abs(za.imag) < _BATCH_LIMIT)
    # real z > 0, either sign of zero: the lanes that pair conjugate rows
    paired = (za.imag == 0) & (za.real > 0)
    if q == 2:
        # real z in (0, 1) takes the scalar kernel's atanh, more accurate there than two logs
        regular &= ~(paired & (za.real < 1))
    unfinished = ~regular
    # points left to reduce_beta keep a harmless z in their column
    base = np.where(regular, za, 0.5)
    z_root, z_power = _roots_and_powers(base.tolist(), dec)
    z_root = np.array(z_root)
    tail = np.empty((abs(m), len(zs)), dtype=complex)
    if m:
        # the walk outward from z^r, one multiplication (m > 0) or division (m < 0) per row
        walk = np.empty((abs(m) + 1, len(zs)), dtype=complex)
        walk[0] = z_power
        walk[1:] = base
        (np.multiply if m > 0 else np.divide).accumulate(walk, axis=0, out=walk)
        powers = walk[:-1] if m > 0 else walk[1:]
        # lane by lane, as Python divides a complex by a float
        tail.real = powers.real / dens
        tail.imag = powers.imag / dens
        inside = (np.abs(tail.real) < _BATCH_LIMIT) & (np.abs(tail.imag) < _BATCH_LIMIT)
        unfinished |= ~inside.all(axis=0)
    values: List[Optional[complex]] = [None] * len(zs)
    for lanes, pair in ((np.flatnonzero(paired), True), (np.flatnonzero(~paired), False)):
        if not lanes.size:
            continue
        w = 1 - roots[: q // 2 + 1 if pair else q, None] * z_root[lanes]
        w.imag[w.imag == 0.0] = 0.0  # -0.0 takes the +pi edge, as in principal_log
        # twice the guard (z = 1 among them): a point near its edge is decided by reduce_beta
        left = unfinished[lanes] | (np.abs(w) < 2 * BRANCH_GUARD).any(axis=0)
        logs = phases[: len(w), None] * np.log(w)
        re, im = logs.real, logs.imag
        if pair:
            # row k < q/2 stands for k and q - k; row 0 alone keeps its imaginary part
            re[1 : (q + 1) // 2] *= 2
            im = im[:1]
        re = np.concatenate((re, tail.real[:, lanes])).T.tolist()
        im = np.concatenate((im, tail.imag[:, lanes])).T.tolist()
        for i, skip, re_i, im_i in zip(lanes.tolist(), left.tolist(), re, im):
            if not skip:
                values[i] = complex(math.fsum(re_i), math.fsum(im_i))
    return [reduce_beta(dec, z).value if v is None else v for z, v in zip(zs, values)]


# Binomial sums above this length would be numerically and practically useless.
MAX_BINOMIAL_M = 10**6


def beta_mu_posint(nu: Fraction, m: int, z: complex) -> complex:
    """B(nu, m+1, z) as the finite binomial sum z^nu * sum C(m,k)(-z)^k/(k+nu).

    Valid for any rational nu outside {0, -1, ..., -m}; those values hit a
    vanishing denominator and raise :class:`PoleInSum`.  A value outside
    the double range, or a nu that does not round to a finite non-zero
    double, raises :class:`OutsideDomain`.
    """
    nu = Fraction(nu)
    if m < 0 or m > MAX_BINOMIAL_M:
        raise OutsideDomain(f"m must be in [0, {MAX_BINOMIAL_M}], got {m}")
    if nu.denominator == 1 and -m <= nu.numerator <= 0:
        raise PoleInSum(f"k + nu vanishes at k = {-int(nu)} for nu = {nu}")
    z = finite_complex(z)
    if z == 0:
        if nu > 0:
            return 0j
        raise ZeroArgument(f"z = 0 needs nu > 0, got nu = {nu}")
    nuf = finite_double(nu, "nu")
    terms = []
    binom = 1.0
    zk = complex(1.0)  # (-z)^k
    for k in range(m + 1):
        terms.append(binom * zk / (k + nuf))
        zk *= -z
        binom = binom * (m - k) / (k + 1)
    return finite_complex(rational_power(z, nu) * fsum_complex(terms), "B(nu, mu, z)")


def lerch_reduce(dec: Decomposition, z: complex) -> complex:
    """Phi(z, 1, nu) = z^(-nu) * B(nu, 0, z); a value past the double range raises OutsideDomain."""
    value = reduce_beta(dec, z).value * rational_power(z, -dec.reconstruct())
    return finite_complex(value, "Phi(z, 1, nu)")


def incomplete_beta(nu: Fraction, mu: int, z: complex) -> complex:
    """B(nu, mu, z) for rational nu and integer mu >= 0.

    mu = 0 routes to the closed-form reduction;
    mu >= 1 to the finite binomial sum.  Non-positive integer nu with mu = 0
    raises :class:`DivergentParameter`; non-finite z :class:`OutsideDomain`.
    """
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
