"""Elementary closed forms for the mu = 0 incomplete beta and relatives.

For rational nu = m + p/q (signed integer m = ceil(nu) - 1, 0 < p/q <= 1),
B(nu, 0, z) collapses to a q-term sum of principal logarithms over the q-th
roots of unity plus a finite power correction:

    B = -sum_{k=0}^{q-1} e^(-2*pi*i*p*k/q) log(1 - z^(1/q) e^(2*pi*i*k/q))
        - sgn(m) * sum_{k in [min(0,m), max(0,m))} z^(k+p/q) / (k + p/q)

The log sum is B(p/q, 0, z); the correction undoes the integer shift by the
contiguous relation B(a+1, 0, z) = B(a, 0, z) - z^a/a (DLMF 8.17).  Integer
nu is the q = 1 case, where the log sum is the single term -log(1 - z).
One kernel evaluates every q.  Every log goes through the package-wide
principal branch, which makes Im(B) = -pi come out on the real ray z > 1,
and at |z^(1/q)| < 1/2 through a log1p rule that keeps its digits at small
|z|.  For real z > 0 the scalar kernel and the batch both pair the
conjugate rows k and q - k: they compute rows 0 .. q//2 only, keep row 0
whole, and take 2*Re of each row 0 < k < q/2 and Re of the self-conjugate
row q/2, so row 0 alone holds the imaginary part: 0 on (0, 1) and exactly
-pi on the ray z > 1, on every path.
One cache entry per q holds the q-th roots of unity and the row phases as
tuples for the scalar kernel, and read-only arrays of them that the batch
makes on its first use of q, so a scalar call never loads numpy; the two
take their row logs and guard band from :func:`row_logs` and
:func:`row_logs_array`.  :func:`reduce_beta_rows` evaluates the general form
for many nu at many z with numpy, one column per z: it groups the nu by
denominator q and builds one log table per (q, z) that every p/q and every
integer shift shares, and leaves None each point it cannot finish, for the
caller's :func:`reduce_beta`; :func:`reduce_beta_many`, one decomposed nu at
many z, is its one-row case.

Every closed form is therefore one algorithm, ``Method.REDUCTION``; the log
part shows only in the count of parts: q//2 + 1 + |m| at real z > 0, and
q + |m| otherwise.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BetaReduceError, BranchPoint, MaxTermsExceeded, OutsideDomain, PoleInSum
from .errors import ZeroArgument
from . import principal
from .principal import (
    Evaluation,
    Method,
    finite_complex,
    finite_double,
    fsum_complex,
    principal_log,
    principal_sqrt,
    rational_power,
    row_logs,
    row_logs_array,
    to_double,
)
from .rationals import Decomposition, decompose, exact_rational

if TYPE_CHECKING:
    import numpy as np

# A finite sum added up in Python (a power tail, the q roots, the binomial sum of
# beta_mu_posint) longer than this is refused before any work: time and memory grow with it.
MAX_TAIL_TERMS = 10**6

_TWO_PI = 2.0 * math.pi
# the quarter turns 4j/q = 0, 1, 2, 3 exactly: row q/2 at q = 2 is the exact 1 + sqrt(z)
_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))


def _build_tables(q: int) -> list:
    # the roots e^(2*pi*i*j/q) from the exact angle of each j (the quarter turns
    # exact), not by repeated multiplication: keeps the phase tight for large k*p
    # products; and the phase -e^(-2*pi*i*j/q) of log row j at p = 1: the fraction
    # p/q takes row p*k mod q for its log row k, the same number as -e^(-2*pi*i*p*k/q).
    # The tuples serve the scalar kernel; the slot after them keeps the batch's
    # read-only arrays of them, made by _table_arrays on its first use of q.
    roots = tuple(
        _QUARTER_TURNS[4 * j // q] if 4 * j % q == 0
        else complex(math.cos(_TWO_PI * j / q), math.sin(_TWO_PI * j / q))
        for j in range(q)
    )
    phases = tuple([-roots[-j % q] for j in range(q)])
    return [(roots, phases), None]


# q up to this keeps its tables in the cache (64 q, 30 MB at most); larger q builds anew.
ROOT_CACHE_MAX_Q = 4096
_cached_tables = functools.lru_cache(maxsize=64)(_build_tables)


def _tables(q: int) -> list:
    """[(roots, phases), their arrays or None] of q: one entry per q, read by every p/q."""
    return _cached_tables(q) if q <= ROOT_CACHE_MAX_Q else _build_tables(q)


def _table_arrays(q: int) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only root and phase arrays of q, made in its entry on the first call for q."""
    entry = _tables(q)
    if entry[1] is None:
        import numpy as np  # here, so a scalar call never loads numpy
        arrays = np.array(entry[0][0]), np.array(entry[0][1])
        for table in arrays:
            table.flags.writeable = False
        entry[1] = arrays
    return entry[1]


def _roots_and_logs(zs: List[complex], q: int) -> Tuple[List[complex], Optional[List[complex]]]:
    """Batch helper: the principal z^(1/q) of each z != 0 and, for q >= 3, the log of z."""
    if q == 1:
        return zs, None
    if q == 2:
        return [principal_sqrt(z) for z in zs], None
    logs = [principal_log(z) for z in zs]
    return [cmath.exp(lz / q) for lz in logs], logs


def _root_and_power(z: complex, q: int, r: float) -> Tuple[complex, complex]:
    """z^(1/q) and z^r of one z != 0: bitwise :func:`_roots_and_logs` and :func:`_powers`."""
    if q > 2:
        lz = principal_log(z)
        return cmath.exp(lz / q), cmath.exp(r * lz)
    zq = principal_sqrt(z) if q == 2 else z
    return zq, zq


def _powers(roots: List[complex], logs: Optional[List[complex]], r: Fraction) -> List[complex]:
    """Batch helper: z^r of each z, the tail's start, from :func:`_roots_and_logs`."""
    if logs is None:
        return roots
    x = r.numerator / r.denominator
    return [cmath.exp(x * lz) for lz in logs]


def reduce_beta(dec: Decomposition, z: complex) -> Evaluation:
    """B(m + r, 0, z) for a decomposed rational parameter, as an :class:`Evaluation`.

    One kernel: the q phased logs (at real z > 0 the q//2 + 1 paired rows)
    and the |m| power-tail terms, summed exactly rounded at once; the error
    estimate is that sum's condition, 2^-53 * sum|parts|.
    Raises :class:`BranchPoint` at z = 1 or whenever a log argument falls
    inside the guard band, :class:`ZeroArgument` at z = 0 for m < 0,
    :class:`OutsideDomain` for an infinite or NaN z or a sum outside the
    double range, :class:`MaxTermsExceeded` for |m| or q above
    ``MAX_TAIL_TERMS``, before any work.

    Only this function finishes a closed form: every value caller reads
    ``reduce_beta(dec, z).value``.  Every evaluation gets its parts from
    :func:`reduce_beta_pos` (m >= 0) or :func:`reduce_beta_neg` (m < 0)
    once: one kernel under two names, timed and counted by name in traced runs.
    """
    parts = (reduce_beta_pos if dec.m >= 0 else reduce_beta_neg)(dec, z)
    spread, value = _spread(parts), fsum_complex(parts)
    return Evaluation(value, Method.REDUCTION, 2.0**-53 * spread, len(parts) or 1, tuple(parts))


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
    r = p / q
    zq, zk = _root_and_power(z, q, r)  # z^r is the tail's start
    # the paired rows of the module docstring at real z > 0: row k < q/2 stands for k and q - k
    paired = z.imag == 0 and z.real > 0
    rows = q // 2 + 1 if paired else q
    roots, phases = _tables(q)[0]
    parts = [phases[p * k % q] * lw for k, lw in enumerate(row_logs(zq, roots, rows))]
    if paired:
        for k in range(1, rows):
            parts[k] = complex((2.0 if 2 * k < q else 1.0) * parts[k].real)
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
    goes to :func:`reduce_beta` in z order, so the batch raises the first
    error the scalar loop would.  Values agree with :func:`reduce_beta` to
    a few units of its error estimate, and equal it bitwise at those points.
    """
    zs = [to_double(z, complex) for z in zs]
    row = _grouped_rows([dec], zs)[0]
    return [reduce_beta(dec, z).value if v is None else v for z, v in zip(zs, row)]


def reduce_beta_rows(nus: Sequence[Fraction], zs: List[complex]) -> List[List[Optional[complex]]]:
    """Per nu, ``[reduce_beta(decompose(nu), z).value for z in zs]``, None where left.

    The nu may have any denominators: each is decomposed once, and the
    decompositions are grouped by q, one batch per q.  Every z is a float
    or complex (:func:`to_double` of the input).  One column per z holds
    the q phased logs of the general form (every q) and the |m|
    power-tail terms, built a chunk of columns at a time (at most
    ``principal.BATCH_CELLS`` cells per matrix) and summed exactly rounded
    by ``math.fsum`` per lane.
    The log table -- the root z^(1/q) (with the one log of z it comes
    from), and the logs of the rows 1 - z^(1/q) e^(2*pi*i*k/q) with their
    guard-band mask, from :func:`row_logs_array` -- is built once per (q, z)
    and shared by every p/q and every integer shift; each decomposition adds
    its row phases, z^r and its tail.  A lane whose z is real and positive
    pairs the conjugate rows as the scalar kernel does (the module docstring);
    every other lane computes all q rows.  Pairing is decided per lane, so
    a value depends neither on the other points nor on the other rows of
    the call.  A point the batch cannot finish regularly is None, for the
    caller's :func:`reduce_beta`, which owns every refusal: z = 0, a lane
    of z or of a part beyond 2^1000 or not finite, and a log argument near
    the guard band (z = 1 among them).  So is every point of a nu that
    :func:`decompose` refuses or whose one column alone passes
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
        import numpy as np  # here, past the work budget: a refused nu never loads numpy
        # non-finite parts are found by explicit checks, not by numpy's warnings
        with np.errstate(all="ignore"):
            chunks = [_rows_chunk(q, fit, zs[s : s + step]) for s in range(0, len(zs), step)]
        for i, parts in zip(group, zip(*chunks)):
            rows[i] = [v for part in parts for v in part]
    return rows


def _rows_chunk(q: int, decs, zs: List[complex]) -> List[List[Optional[complex]]]:
    import numpy as np
    roots, phases = _table_arrays(q)
    za = np.array(zs, dtype=complex)
    regular = (za != 0) & (np.abs(za.real) < _BATCH_LIMIT) & (np.abs(za.imag) < _BATCH_LIMIT)
    # real z > 0, either sign of zero: the lanes that pair conjugate rows
    paired = (za.imag == 0) & (za.real > 0)
    # points left None keep a harmless z in their column
    base = np.where(regular, za, 0.5)
    z_roots, z_logs = _roots_and_logs(base.tolist(), q)
    z_root = np.array(z_roots)
    # the log table of each lane group, shared by every decomposition
    tables = []
    for lanes, pair in ((np.flatnonzero(paired), True), (np.flatnonzero(~paired), False)):
        if lanes.size:
            log_w, near = row_logs_array(z_root[lanes], roots[: q // 2 + 1 if pair else q])
            tables.append((lanes, pair, ~regular[lanes] | near, log_w))
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
                # row k < q/2 stands for k and q - k; row 0 alone keeps its imaginary part,
                # and a real z's tail is real: + 0.0 gives fsum's 0.0 for a signed zero
                re[1 : (q + 1) // 2] *= 2
                im = im[0] + 0.0
            if dec.m:
                re = np.concatenate((re, tail.real[:, lanes]))
                if not pair:
                    im = np.concatenate((im, tail.imag[:, lanes]))
                left = left | outside[lanes]
            re, im = re.T.tolist(), im.T.tolist()
            for i, skip, re_i, im_i in zip(lanes.tolist(), left.tolist(), re, im):
                if not skip:
                    values[i] = complex(math.fsum(re_i), im_i if pair else math.fsum(im_i))
        out.append(values)
    return out


def _tail(dec: Decomposition, base: np.ndarray, z_power: List[complex]) -> np.ndarray:
    """The |m| x columns signed power-tail terms, walking outward from z^r, one row per term."""
    import numpy as np
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
    value = reduce_beta(dec, z).value * rational_power(z, -dec.reconstruct())
    return finite_complex(value, "Phi(z, 1, nu)")


def incomplete_beta(nu: Fraction, mu: int, z: complex) -> complex:
    """B(nu, mu, z) for rational nu and integer mu >= 0.

    mu = 0 routes to the closed-form reduction;
    mu >= 1 to the finite binomial sum.  Non-positive integer nu with mu = 0
    raises :class:`DivergentParameter`; non-finite z, or a mu that is not an int
    in [0, ``MAX_TAIL_TERMS`` + 1], :class:`OutsideDomain`.
    """
    if not isinstance(mu, int) or not 0 <= mu <= MAX_TAIL_TERMS + 1:
        raise OutsideDomain(f"mu must be an integer in [0, {MAX_TAIL_TERMS + 1}], got {mu!r}")
    if mu == 0:
        return reduce_beta(decompose(nu), z).value
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
