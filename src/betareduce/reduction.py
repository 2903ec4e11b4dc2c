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
Im(B) = -pi come out on the real ray z > 1.  One cache entry per q holds
the q-th roots of unity and the row phases, as tuples for the scalar kernel
and read-only arrays for the batch.  :func:`reduce_beta_rows` evaluates the
general form for many nu at many z with numpy, one column per z: it groups
the nu by denominator q and builds one log table per (q, z) that every p/q
and every integer shift shares, and leaves None each point it cannot finish,
for the caller's :func:`beta_value`; :func:`reduce_beta_many`, one decomposed
nu at many z, is its one-row case.  For real z > 0 it pairs the conjugate
rows k and q - k, which halves its logs and leaves the imaginary part to
the k = 0 log alone: 0 on (0, 1) and exactly -pi on the ray z > 1.

Every closed form is therefore one algorithm, ``Method.REDUCTION``; the q = 2
log part shows only in the count of parts, 1 + |m| where any other q has q + |m|.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BetaReduceError, BranchPoint, MaxTermsExceeded, OutsideDomain, PoleInSum
from .errors import ZeroArgument
from . import principal
from .principal import (
    Evaluation,
    Method,
    atanh,
    finite_complex,
    finite_double,
    fsum_complex,
    principal_log,
    principal_logs,
    principal_sqrt,
    rational_power,
    to_double,
)
from .rationals import Decomposition, decompose, exact_rational

# Refuse logarithms whose argument is closer than this to the branch point.
BRANCH_GUARD = 1e-14

# A finite sum added up in Python (a power tail, the q roots, the binomial sum of
# beta_mu_posint) longer than this is refused before any work: time and memory grow with it.
MAX_TAIL_TERMS = 10**6

_TWO_PI = 2.0 * math.pi


def _build_tables(q: int) -> Tuple[Tuple[tuple, tuple], Tuple[np.ndarray, np.ndarray]]:
    # the roots e^(2*pi*i*j/q) from the exact angle of each j, not by repeated
    # multiplication: keeps the phase tight for large k*p products; and the
    # phase -e^(-2*pi*i*j/q) of log row j at p = 1: the fraction p/q takes row
    # p*k mod q for its log row k, the same number as -e^(-2*pi*i*p*k/q).  The
    # tuples serve the scalar kernel, read-only arrays of them the batch.
    roots = tuple(complex(math.cos(_TWO_PI * j / q), math.sin(_TWO_PI * j / q)) for j in range(q))
    phases = tuple([-roots[-j % q] for j in range(q)])
    arrays = np.array(roots), np.array(phases)
    for table in arrays:
        table.flags.writeable = False
    return (roots, phases), arrays


# q up to this keeps its tables in the cache (64 q, 30 MB at most); larger q builds anew.
ROOT_CACHE_MAX_Q = 4096
_cached_tables = functools.lru_cache(maxsize=64)(_build_tables)


def _tables(q: int) -> Tuple[Tuple[tuple, tuple], Tuple[np.ndarray, np.ndarray]]:
    """((roots, phases), (root array, phase array)) of q: one entry per q, read by every p/q."""
    return _cached_tables(q) if q <= ROOT_CACHE_MAX_Q else _build_tables(q)


def _roots_and_logs(zs: List[complex], q: int) -> Tuple[List[complex], Optional[List[complex]]]:
    """Batch helper: the principal z^(1/q) of each z != 0 and, for q >= 3, the log of z."""
    if q == 1:
        return zs, None
    if q == 2:
        return [principal_sqrt(z) for z in zs], None
    logs = [principal_log(z) for z in zs]
    return [cmath.exp(lz / q) for lz in logs], logs


def _powers(roots: List[complex], logs: Optional[List[complex]], r: Fraction) -> List[complex]:
    """Batch helper: z^r of each z, the tail's start, from :func:`_roots_and_logs`."""
    if logs is None:
        return roots
    x = r.numerator / r.denominator
    return [cmath.exp(x * lz) for lz in logs]


def _roots_log_sum(p: int, q: int, zq: complex) -> List[complex]:
    """The q phased principal logs whose sum is B(p/q, 0, z), from zq = z^(1/q)."""
    roots, phases = _tables(q)[0]
    ws = [1 - zq * root for root in roots]
    try:
        near = min(map(abs, ws))
    except OverflowError as exc:  # only at q = 1: from q = 3 on, |zq| < 2^342
        raise OutsideDomain(f"log argument {ws[0]} outside the double range") from exc
    if near < BRANCH_GUARD:
        k = next(k for k, w in enumerate(ws) if abs(w) < BRANCH_GUARD)
        raise BranchPoint(
            f"log argument {ws[k]} within {BRANCH_GUARD} of the branch point (k={k}, q={q})"
        )
    return [phases[p * k % q] * lw for k, lw in enumerate(principal_logs(ws))]


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

    Only this function builds the :class:`Evaluation`; the value callers
    take the same parts through :func:`beta_value`.  Every evaluation gets
    them from :func:`reduce_beta_pos` (m >= 0) or :func:`reduce_beta_neg`
    (m < 0) once: one kernel under two names, timed and counted by name in traced runs.
    """
    parts = (reduce_beta_pos if dec.m >= 0 else reduce_beta_neg)(dec, z)
    spread, value = _spread(parts), fsum_complex(parts)
    return Evaluation(value, Method.REDUCTION, 2.0**-53 * spread, len(parts) or 1, tuple(parts))


def beta_value(dec: Decomposition, z: complex) -> complex:
    """``reduce_beta(dec, z).value`` and its errors, bitwise, without the :class:`Evaluation`.

    The value of :func:`incomplete_beta` at mu = 0, :func:`lerch_reduce`, the
    integrals and each point the batch leaves None.  Log parts stay below
    2^10 and the tail's moduli |z|^x / |x| are log-convex in x, so while the
    tail's ends have lanes below ``_BATCH_LIMIT`` the sum|parts| (at most
    2^21 parts) cannot overflow and is not taken.
    """
    parts = (reduce_beta_pos if dec.m >= 0 else reduce_beta_neg)(dec, z)
    if dec.m and parts:
        a, b = parts[-abs(dec.m)], parts[-1]
        if not (
            abs(a.real) < _BATCH_LIMIT and abs(a.imag) < _BATCH_LIMIT
            and abs(b.real) < _BATCH_LIMIT and abs(b.imag) < _BATCH_LIMIT
        ):
            _spread(parts)
    return fsum_complex(parts)


def reduce_beta_pos(dec: Decomposition, z: complex) -> List[complex]:
    """The parts of :func:`reduce_beta` for m >= 0, i.e. nu > 0: logs, then tail terms."""
    return _kernel(dec, z)


def reduce_beta_neg(dec: Decomposition, z: complex) -> List[complex]:
    """The parts of :func:`reduce_beta` for m < 0, i.e. nu < 0: logs, then tail terms."""
    return _kernel(dec, z)


def _kernel(dec: Decomposition, z: complex) -> List[complex]:
    z = finite_complex(z)
    m, p, q = dec.m, dec.r.numerator, dec.r.denominator
    if z == 0:
        if m < 0:
            raise ZeroArgument("negative powers of z require z != 0")
        return []
    if z == 1:
        raise BranchPoint("z = 1 is the logarithmic branch point")
    if abs(m) > MAX_TAIL_TERMS:
        raise MaxTermsExceeded(f"{abs(m)} power-tail terms exceed the budget of {MAX_TAIL_TERMS}")
    if q > MAX_TAIL_TERMS:
        raise MaxTermsExceeded(f"{q} roots of unity exceed the budget of {MAX_TAIL_TERMS}")
    # z^(1/q) and z^r, the tail's start, by the operations of _roots_and_logs and _powers
    r = p / q
    if q == 2:
        # B(1/2, 0, z) = 2*atanh(sqrt(z)): at small real z more accurate than its two logs
        zq = zk = principal_sqrt(z)
        if abs(1 - zq) < BRANCH_GUARD or abs(1 + zq) < BRANCH_GUARD:
            raise BranchPoint("sqrt(z) within the guard band of an atanh singularity")
        parts = [2.0 * atanh(zq)]
    else:
        zq = zk = z
        if q > 2:
            lz = principal_log(z)
            zq, zk = cmath.exp(lz / q), cmath.exp(r * lz)
        parts = _roots_log_sum(p, q, zq)
    # the tail walks outward from z^r at k = 0 (m > 0) or k = -1 (m < 0), one
    # multiplication or division by z per term
    for k in range(m):
        parts.append(-zk / (k + r))
        zk *= z
    for k in range(-1, m - 1, -1):
        zk /= z
        parts.append(zk / (k + r))
    return parts


def _spread(parts: List[complex]) -> float:
    """sum|parts|; one outside the double range raises :class:`OutsideDomain`."""
    try:
        return math.fsum(map(abs, parts))
    except OverflowError as exc:
        raise OutsideDomain("sum of the |parts| outside the double range") from exc


# The batch leaves None any z, and any part, with a lane this large: its sums
# stay far inside the double range, so it never meets an overflow the scalar path reports.
_BATCH_LIMIT = 2.0**1000


def reduce_beta_many(dec: Decomposition, zs: Iterable[complex]) -> List[complex]:
    """The values ``[reduce_beta(dec, z).value for z in zs]``, computed with numpy.

    The one-row case of :func:`reduce_beta_rows`; each point it leaves None
    goes to :func:`beta_value` in z order, so the batch raises the first
    error the scalar loop would.  Values agree with :func:`reduce_beta` to
    a few units of its error estimate, and equal it bitwise at those points.
    """
    zs = [to_double(z, complex) for z in zs]
    row = _grouped_rows([dec], zs)[0]
    return [beta_value(dec, z) if v is None else v for z, v in zip(zs, row)]


def reduce_beta_rows(nus: Sequence[Fraction], zs: List[complex]) -> List[List[Optional[complex]]]:
    """Per nu, ``[reduce_beta(decompose(nu), z).value for z in zs]``, None where left.

    The nu may have any denominators: each is decomposed once, and the
    decompositions are grouped by q, one batch per q.  Every z is a float
    or complex (:func:`to_double` of the input).  One column per z holds
    the q phased logs of the general form (q = 1 included) and the |m|
    power-tail terms, built a chunk of columns at a time (at most
    ``principal.BATCH_CELLS`` cells per matrix) and summed exactly rounded
    by ``math.fsum`` per lane.
    The log table -- the root z^(1/q) (with the one log of z it comes
    from), the rows w = 1 - z^(1/q) e^(2*pi*i*k/q), their guard-band mask
    and log(w) -- is built once per (q, z) and shared by every p/q and
    every integer shift; each decomposition adds its row phases, z^r and
    its tail.  A lane whose z is real and positive pairs the conjugate rows
    k and q - k: it computes rows 0 .. q//2 only, takes 2*Re of each row
    0 < k < q/2 and Re of the self-conjugate row q/2, so its value is real
    on (0, 1) and has Im = -pi exactly on the ray z > 1, from row 0 alone.
    Every other lane computes all q rows.  Pairing is decided per lane, so
    a value depends neither on the other points nor on the other rows of
    the call.  A point the batch cannot finish regularly is None, for the
    caller's :func:`beta_value`, which owns every refusal: z = 0, a lane
    of z or of a part beyond 2^1000 or not finite, a log argument near the
    guard band (z = 1 among them), and a q = 2 point with real z in
    (0, 1), where the scalar atanh is more accurate.  So is every point of
    a nu that :func:`decompose` refuses or whose one column alone passes
    ``principal.BATCH_CELLS`` (|m| or q above ``MAX_TAIL_TERMS`` among them).
    """
    decs: List[Optional[Decomposition]] = []
    for nu in nus:
        try:
            decs.append(decompose(nu))
        except BetaReduceError:
            decs.append(None)
    return _grouped_rows(decs, zs)


def _grouped_rows(
    decs: Sequence[Optional[Decomposition]], zs: List[complex]
) -> List[List[Optional[complex]]]:
    """:func:`reduce_beta_rows` of the decompositions, None standing for a refused nu."""
    rows = [[None] * len(zs) for _ in decs]
    by_q: Dict[int, List[int]] = {}
    for i, dec in enumerate(decs):
        if dec and dec.r.denominator + dec.n <= principal.BATCH_CELLS:
            by_q.setdefault(dec.r.denominator, []).append(i)
    for q, group in by_q.items():
        fit = [decs[i] for i in group]
        step = principal.BATCH_CELLS // (q + max(dec.n for dec in fit))
        # non-finite parts are found by explicit checks, not by numpy's warnings
        with np.errstate(all="ignore"):
            chunks = [_rows_chunk(q, fit, zs[s : s + step]) for s in range(0, len(zs), step)]
        for i, parts in zip(group, zip(*chunks)):
            rows[i] = [v for part in parts for v in part]
    return rows


def _rows_chunk(q: int, decs, zs: List[complex]) -> List[List[Optional[complex]]]:
    roots, phases = _tables(q)[1]
    za = np.array(zs, dtype=complex)
    regular = (za != 0) & (np.abs(za.real) < _BATCH_LIMIT) & (np.abs(za.imag) < _BATCH_LIMIT)
    # real z > 0, either sign of zero: the lanes that pair conjugate rows
    paired = (za.imag == 0) & (za.real > 0)
    if q == 2:
        # real z in (0, 1) takes the scalar kernel's atanh, more accurate there than two logs
        regular &= ~(paired & (za.real < 1))
    # points left None keep a harmless z in their column
    base = np.where(regular, za, 0.5)
    z_roots, z_logs = _roots_and_logs(base.tolist(), q)
    z_root = np.array(z_roots)
    # the log table of each lane group, shared by every decomposition
    tables = []
    for lanes, pair in ((np.flatnonzero(paired), True), (np.flatnonzero(~paired), False)):
        if lanes.size:
            w = 1 - roots[: q // 2 + 1 if pair else q, None] * z_root[lanes]
            # twice the guard (z = 1 among them): a point near its edge is left None
            left = ~regular[lanes] | (np.abs(w) < 2 * BRANCH_GUARD).any(axis=0)
            tables.append((lanes, pair, left, np.log(w)))
    out: List[List[Optional[complex]]] = []
    for dec in decs:
        if dec.m:
            tail = _tail(dec, base, _powers(z_roots, z_logs, dec.r))
            inside = (np.abs(tail.real) < _BATCH_LIMIT) & (np.abs(tail.imag) < _BATCH_LIMIT)
            outside = ~inside.all(axis=0)  # a lane with a part past the limit is left None
        row_phases = phases[dec.r.numerator * np.arange(q) % q]
        values: List[Optional[complex]] = [None] * len(zs)
        for lanes, pair, left, log_w in tables:
            logs = row_phases[: len(log_w), None] * log_w
            re, im = logs.real, logs.imag
            if pair:
                # row k < q/2 stands for k and q - k; row 0 alone keeps its imaginary part
                re[1 : (q + 1) // 2] *= 2
                im = im[:1]
            if dec.m:
                re = np.concatenate((re, tail.real[:, lanes]))
                im = np.concatenate((im, tail.imag[:, lanes]))
                left = left | outside[lanes]
            re, im = re.T.tolist(), im.T.tolist()
            for i, skip, re_i, im_i in zip(lanes.tolist(), left.tolist(), re, im):
                if not skip:
                    values[i] = complex(math.fsum(re_i), math.fsum(im_i))
        out.append(values)
    return out


def _tail(dec: Decomposition, base: np.ndarray, z_power: List[complex]) -> np.ndarray:
    """The |m| x columns signed power-tail terms, walking outward from z^r, one row per term."""
    m, r = dec.m, dec.r.numerator / dec.r.denominator
    # the denominators with the tail's sign folded in, exact for IEEE division:
    # -(k + r) for k = 0..m-1, k + r for k = -1..m
    ks = np.arange(m) if m > 0 else np.arange(-1, m - 1, -1)
    dens = (-(ks + r) if m > 0 else ks + r)[:, None]
    # one multiplication (m > 0) or division (m < 0) by z per row
    walk = np.empty((abs(m) + 1, len(base)), dtype=complex)
    walk[0] = z_power
    walk[1:] = base
    (np.multiply if m > 0 else np.divide).accumulate(walk, axis=0, out=walk)
    powers = walk[:-1] if m > 0 else walk[1:]
    # lane by lane, as Python divides a complex by a float
    tail = np.empty(powers.shape, dtype=complex)
    tail.real = powers.real / dens
    tail.imag = powers.imag / dens
    return tail


def beta_mu_posint(nu: Fraction, m: int, z: complex) -> complex:
    """B(nu, m+1, z) as the finite binomial sum z^nu * sum C(m,k)(-z)^k/(k+nu).

    Valid for any rational nu outside {0, -1, ..., -m}; those values hit a
    vanishing denominator and raise :class:`PoleInSum`.  An m that is not an
    int in [0, ``MAX_TAIL_TERMS``], a value outside the double range, or a nu
    that does not round to a finite non-zero double raises :class:`OutsideDomain`.
    """
    nu = exact_rational(nu)
    if not isinstance(m, int) or m < 0 or m > MAX_TAIL_TERMS:
        raise OutsideDomain(f"m must be an integer in [0, {MAX_TAIL_TERMS}], got {m!r}")
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
    value = beta_value(dec, z) * rational_power(z, -dec.reconstruct())
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
        return beta_value(decompose(nu), z)
    return beta_mu_posint(nu, mu - 1, z)


def connection_check(nu: Fraction, mu: int, z: complex) -> float:
    """Residual of B(nu,mu,z) = B(nu+1,mu,z) + B(nu,mu+1,z), scaled.

    Returns |lhs - rhs| / max(1, |lhs|); evaluation errors propagate.
    """
    nu = exact_rational(nu)
    b = incomplete_beta(nu, mu, z)
    b_up_nu = incomplete_beta(nu + 1, mu, z)
    b_up_mu = incomplete_beta(nu, mu + 1, z)
    return abs(b - b_up_nu - b_up_mu) / max(1.0, abs(b))
