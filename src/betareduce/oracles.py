"""Independent reference evaluations for validating the closed forms.

Two families of oracle, deliberately far from the reduction formulas:

* direct series summation of sum z^k/(k+nu) (exactly rounded by
  ``math.fsum``, with a three-consecutive-small-terms stopping rule and an
  error bound: the geometric tail bound plus the rounding of the terms),
  plus the shifted split for negative nu;
  :func:`beta_series_columns` gives the plain values of many nu at each of
  many z, one numpy pass per group of z that share a column count and a
  lane (a ring of z on one circle, say), assembled as :func:`beta_series`
  assembles them, so bitwise alike: the split of each nu and the parts of
  its exponent are computed once for all z, the log (or square root) of
  each z once for all nu; a point the pass cannot finish is None, and
  :func:`beta_series`, point by point, owns every refusal;
* adaptive quadrature of the defining integrals by QUADPACK -- on [0,1] for
  the beta integrand (with a power substitution that removes the t = 0
  singularity), and by its infinite-interval rule on [0, inf) for the
  paper's semi-infinite integral of the Lerch form.

Every oracle returns an :class:`Evaluation` with an a-posteriori error bound;
the columns hold values only, with one method per nu.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .errors import (
    BetaReduceError,
    DivergentParameter,
    MaxTermsExceeded,
    OutsideDomain,
    QuadratureNonConvergence,
)
from . import principal
from .principal import Evaluation, Method, exponent_parts, finite_complex, fsum_complex
from .principal import finite_double, rational_power, rational_powers, to_double
from .rationals import decompose, exact_rational


# Machine epsilon, twice the unit roundoff: the unit of the series oracles' rounding bounds.
_EPS = 2.0**-52

# Series truncation: stop after three consecutive terms below SERIES_REL_TOL * |running sum|.
SERIES_REL_TOL = 1e-16
SERIES_MAX_TERMS = 10**7

# QUADPACK's absolute and relative tolerance for beta_quadrature.
QUAD_TOL = 1e-12

# QUADPACK's relative tolerance for phi_quadrature.
PHI_REL_TOL = 1e-13


def _sum_inverse_linear(z: complex, a: float):
    """Exactly rounded sum of z^k/(k+a) with the 3-small-terms stopping rule.

    The rule reads a plain running sum.  Returns (sum, error bound, terms):
    the bound is the geometric tail |last term| / (1 - |z|) plus the
    rounding of the terms it holds (see :func:`_rounding`).  Raises
    :class:`MaxTermsExceeded` when the budget runs out first, at once
    when a bound shows that no term within the budget can meet the rule.
    """
    n, b = SERIES_MAX_TERMS, abs(a)
    delta = a if a > 0 else abs(a - round(a))  # distance to the nearest non-positive integer
    floor = abs(z) ** (n - 1) / (n - 1 + b)  # no term before the budget is smaller
    ceiling = 2 / delta + 2 * (1 + math.log(n + b)) if delta else math.inf  # no partial sum larger
    if floor <= 2 * SERIES_REL_TOL * ceiling:  # else the stop rule cannot fire within the budget
        terms = []
        running = 0j
        zk = complex(1.0)
        small = 0
        for k in range(n):
            term = zk / (k + a)
            terms.append(term)
            running += term
            last = abs(term)
            if last <= SERIES_REL_TOL * abs(running):
                small += 1
                if small >= 3:
                    total = fsum_complex(terms)
                    return total, last / (1.0 - abs(z)) + _rounding(z, terms, total), k + 1
            else:
                small = 0
            zk *= z
    raise MaxTermsExceeded(
        f"no convergence within {SERIES_MAX_TERMS} terms (|z| = {abs(z)})"
    )


def _rounding(z: complex, terms: List[complex], total: complex) -> float:
    """A bound on the rounding in ``total``, the exactly rounded sum of the terms z^k/(k+a).

    Term k carries the k - 1 products of the walk z^k (each of relative
    error 2^-53, or sqrt(5) * 2^-53 < 3 * 2^-53 for a complex z), k + a and
    the quotient, so at most (c*k + 2) * 2^-53 of its modulus, c = 1 or 3;
    the sum adds 2^-53 * |total|.  Counted in 2^-52, which also covers the
    second-order terms.  The suffix sums of the moduli add up to
    sum (k+1) * |term k|, the last of them to sum |term k|, so the bound is
    at least sum (c*k + 2) * |term k|; each modulus is scaled by its unit
    before any addition, so a first term 1/a near the double limit cannot
    overflow it.
    """
    suffix = list(accumulate(map(abs, reversed(terms))))
    return (3.0 * _EPS if z.imag else _EPS) * sum(suffix) + _EPS * suffix[-1] + _EPS * abs(total)


def _block_columns(z: complex) -> int:
    """The columns of z's :func:`_sums_inverse_linear` block: log(SERIES_REL_TOL)/log|z| + 4."""
    # terms fall below SERIES_REL_TOL of the sum from about this one on; the stop needs two more
    return math.ceil(math.log(SERIES_REL_TOL) / math.log(abs(z))) + 4


def _sums_inverse_linear(
    zs: Sequence[complex], avals: Sequence[float]
) -> Optional[List[List[Optional[complex]]]]:
    """Per z, ``[_sum_inverse_linear(z, a)[0] for a in avals]`` as one numpy pass, or None.

    Needs finite z with 0 < |z| < 1 and every a >= 1e-300 (the caller's
    screen), and z that share their :func:`_block_columns` and their lane,
    all real or all complex.  One row per (z, a) and one column per k, at
    most ``principal.BATCH_CELLS`` cells a block (all a of several z, or
    some a of one z), repeat the scalar loop's arithmetic in its order:
    one walk z^k per z (``np.multiply.accumulate`` from 1), each term lane
    by lane as z^k/(a + k), the running sums by ``np.cumsum`` along the
    row, the moduli by ``np.hypot`` as ``abs`` does (``np.abs`` of a
    complex rounds differently), the three-small-terms stop, and
    ``math.fsum`` over each row's terms through the stop, which lie
    contiguous, read from the block's buffer through a ``memoryview`` (no
    list per row).  A real z (``z.imag == 0``, either sign of zero) carries
    the real lane alone: its imaginary terms are zeros, so the moduli are
    the ``np.abs`` of the real ones and the imaginary total is the 0.0 that
    ``math.fsum`` gives for zeros.  So every total is bitwise the scalar
    one, and a one-member group is one z alone.  (CPython's complex / float
    adds ``im*0.0`` to the real lane and ``-re*0.0`` to the imaginary one;
    that changes only the sign of a zero term, which neither a modulus nor
    an exactly rounded sum whose first term is 1/a + 0j can see.)  None
    when the columns do not fit in a block; the total of a row that has
    not stopped within them is None alone, for :func:`beta_series`.
    """
    terms = _block_columns(zs[0])
    if terms > principal.BATCH_CELLS:
        return None
    import numpy as np  # here, so the scalar oracles never load numpy
    lane = bool(zs[0].imag)  # the imaginary lane: complex z
    walk = np.empty((len(zs), terms), dtype=complex)
    walk[:, 0] = 1.0
    walk[:, 1:] = np.array(zs, dtype=complex)[:, None]
    zk = np.multiply.accumulate(walk, axis=1)[:, None, :]
    ks = np.arange(terms, dtype=float)
    width = principal.BATCH_CELLS // terms  # the rows of a block
    a_step = min(width, len(avals)) or 1
    z_step = width // a_step
    out: List[List[Optional[complex]]] = [[] for _ in zs]
    for z0 in range(0, len(zs), z_step):
        walks = zk[z0 : z0 + z_step]
        for a0 in range(0, len(avals), a_step):
            dens = np.array(avals[a0 : a0 + a_step])[:, None] + ks
            re = walks.real / dens
            if lane:
                im = walks.imag / dens
                running = np.hypot(np.cumsum(re, axis=2), np.cumsum(im, axis=2))
                small = np.hypot(re, im) <= SERIES_REL_TOL * running
            else:  # one lane: hypot(x, +-0) == |x|, and the fsum of the zero lane is 0.0
                running = np.abs(np.cumsum(re, axis=2))
                small = np.abs(re) <= SERIES_REL_TOL * running
            third = small[..., 2:] & small[..., 1:-1] & small[..., :-2]
            stops = third.argmax(axis=2) + 3  # the terms through the third small one
            stopped = third.any(axis=2).tolist()
            for b, (block_stops, block_stopped) in enumerate(zip(stops.tolist(), stopped)):
                sums = out[z0 + b]
                for c, (k, done) in enumerate(zip(block_stops, block_stopped)):
                    imag = math.fsum(memoryview(im[b, c, :k])) if lane else 0.0
                    sums.append(complex(math.fsum(memoryview(re[b, c, :k])), imag) if done else None)
    return out


def lerch_series(z: complex, nu: float) -> Evaluation:
    """Phi(z, 1, nu) by direct summation; |z| < 1, nu not in {0, -1, ...}.

    The reported error estimate bounds the error: the geometric tail bound
    |last term| / (1 - |z|) plus the rounding of the terms and their sum.
    At z = 0 the value is the one quotient 1/nu: exact, or within 2^-53 * |1/nu|.
    """
    z = finite_complex(z)
    nu = to_double(nu)
    if not math.isfinite(nu):
        raise OutsideDomain(f"nu must be finite, got {nu}")
    if not _in_unit_disk(z):
        raise OutsideDomain(f"series needs |z| < 1, got z = {z}")
    if nu <= 0 and nu == math.floor(nu):
        raise DivergentParameter(f"nu = {nu} is a non-positive integer")
    total, err, terms = _sum_inverse_linear(z, nu)
    if z == 0:
        err = 0.0 if Fraction(total.real) == 1 / Fraction(nu) else _EPS / 2 * abs(total)
    return Evaluation(total, Method.SERIES, err, terms)


def beta_series(nu: Fraction, z: complex) -> Evaluation:
    """B(nu, 0, z) summed term by term; the independent check on the reductions.

    Positive nu sums z^nu * sum z^k/(k+nu) directly.  Negative non-integer
    nu = -n + r uses the shifted split: the same series at r plus the exact
    finite correction sum z^(r-k)/(r-k), k = 1..n.  The reported error
    estimate bounds the error: the series' own bound scaled by |z^expo|, plus
    the rounding of z^expo, of its product with the sum, of the corrections
    and of their sums (see :func:`_series_error`).
    """
    nu = exact_rational(nu)
    if nu.denominator == 1 and nu <= 0:
        raise DivergentParameter(f"divergent at the non-positive integer {nu}")
    z = finite_complex(z)
    if z == 0:
        if nu > 0:
            return Evaluation(0j, Method.SERIES, 0.0, 1)
        raise OutsideDomain("negative parameters need 0 < |z| < 1")
    if not _in_unit_disk(z):
        raise OutsideDomain(f"series needs |z| < 1, got z = {z}")
    expo, a, n = _series_split(nu)
    total, err, terms = _sum_inverse_linear(z, a)
    prefactor = rational_power(z, expo)
    corr = _corrections(z, a, n, prefactor)
    value = _series_value(total, prefactor, corr)
    err = _series_error(z, a, err, total, prefactor, corr, value)
    return Evaluation(value, _series_method(nu), err, terms + n)


def beta_series_columns(
    nus: Sequence[Fraction], zs: Sequence[complex]
) -> Tuple[List[Method], List[List[Optional[complex]]]]:
    """Each nu's method, and per z the values ``[beta_series(nu, z).value for nu in nus]``.

    Work that depends on nu alone runs once for all z: the splits, their
    distinct a (a negative nu reuses the sum of its n = 0 sibling) and the
    :func:`exponent_parts` of each prefactor.  The z are grouped by their
    :func:`_block_columns` and lane (real or complex), and one
    :func:`_sums_inverse_linear` pass per group sums the series of the
    distinct a at each of its z: on the default grid the 11 z of the
    |z| = 0.5 ring are one group, and each real z a group alone.  Per z,
    one :func:`rational_powers` call, with one log (or square root) of z,
    gives every prefactor.  The methods are those of :func:`beta_series`,
    refused points included.  A value the pass cannot finish is None: at
    every z, that of a nu whose split is refused or whose a is below
    1e-300; at every nu, that of a z the pass cannot take (0, |z| >= 1,
    not finite, or columns that do not fit in a block); and a point whose
    series does not stop within the pass's columns or whose value is refused.  The caller then calls
    :func:`beta_series`, which owns every refusal, point by point.
    """
    nus = [exact_rational(nu) for nu in nus]
    methods = [_series_method(nu) for nu in nus]
    splits = []
    for nu in nus:
        try:
            split = _series_split(nu)
        except (BetaReduceError, ArithmeticError):
            split = None  # refused: its points go to beta_series alone
        # a >= 1e-300: partial sums of at most BATCH_CELLS terms, each <= 1/a, stay finite
        splits.append(split if split and split[1] >= 1e-300 else None)
    kept = [i for i, split in enumerate(splits) if split]
    avals = list(dict.fromkeys(splits[i][1] for i in kept))
    slots = {a: slot for slot, a in enumerate(avals)}
    parts = [exponent_parts(splits[i][0]) for i in kept]
    zs = [to_double(z, complex) for z in zs]
    # the z the pass takes, one block per group that shares its columns and lane
    groups = {}
    for j, z in enumerate(zs):
        if z != 0 and _in_unit_disk(z):
            groups.setdefault((_block_columns(z), not z.imag), []).append(j)
    sums_at = [None] * len(zs)
    for group in groups.values():
        block = _sums_inverse_linear([zs[j] for j in group], avals)
        for j, sums in zip(group, block or ()):
            sums_at[j] = sums
    columns = []
    for z, sums in zip(zs, sums_at):
        column: List[Optional[complex]] = [None] * len(nus)
        # every exponent is positive and 0 < |z| < 1: a power can only underflow, never be refused
        powers = [] if sums is None else rational_powers(z, parts)
        for i, power in zip(kept, powers):
            _, a, n = splits[i]
            try:
                if sums[slots[a]] is not None:  # else its row did not stop: to beta_series
                    corr = _corrections(z, a, n, power) if n else ()
                    column[i] = _series_value(sums[slots[a]], power, corr)
            except (BetaReduceError, ArithmeticError):
                pass  # refused: this point goes to beta_series alone
        columns.append(column)
    return methods, columns


def _in_unit_disk(z: complex) -> bool:
    """|z| < 1, the parts first: ``abs(z)`` raises OverflowError beyond the double range."""
    return abs(z.real) < 1.0 and abs(z.imag) < 1.0 and abs(z) < 1.0


def _series_method(nu: Fraction) -> Method:
    """The method of every B(nu, 0, z) the series gives: the shifted split for negative nu."""
    return Method.SERIES if nu > 0 else Method.SHIFTED_SERIES


def _series_split(nu: Fraction):
    """(expo, a, n) with B(nu, 0, z) = z^expo * sum z^k/(k+a) + n correction terms.

    Refuses a non-positive integer nu and n beyond ``SERIES_MAX_TERMS`` as
    beta_series does, and an a that is no finite non-zero double: where it
    rounds to 0.0 the value (about z^a/a) lies outside the double range.
    """
    if nu > 0:
        expo, n = nu, 0
    else:
        dec = decompose(nu)
        expo, n = dec.r, -dec.m
        if n > SERIES_MAX_TERMS:
            raise MaxTermsExceeded(f"{n} correction terms exceed the budget of {SERIES_MAX_TERMS}")
    return expo, finite_double(expo, "the series parameter"), n


def _corrections(z: complex, a: float, n: int, prefactor: complex) -> List[complex]:
    """The shifted split's terms z^(expo-k)/(a-k), k = 1..n, walked down from z^expo."""
    corr = []
    zk = prefactor
    for k in range(1, n + 1):
        zk /= z
        corr.append(zk / (a - k))
    return corr


def _series_value(total: complex, prefactor: complex, corr: Sequence[complex]) -> complex:
    """B(nu, 0, z) from the sum of its series, z^expo and its :func:`_corrections`."""
    return prefactor * total + fsum_complex(corr) if corr else prefactor * total


def _series_error(z, a, err, total, prefactor, corr, value) -> float:
    """A bound on the error of :func:`beta_series`'s value, given its series' bound ``err``.

    In units of 2^-53 of each modulus: z^a carries a * (3*|log z| + 1) + 6*b
    + 4, b the bits of its integer part (the exponent's roundings grow by
    |a * log z| through exp, a rounded |z| by a through a power, and a power
    by squaring takes two complex products a bit); its product with the sum
    3 more; correction k the prefactor's, k quotients of the walk (1 each,
    or 3 for a complex z), a - k, its quotient and its share of the sum, 3;
    the last sum 1.  Counted in 2^-52 like :func:`_rounding`, and scaled by
    it before any addition.
    """
    log_z = math.hypot(math.log(abs(z)), math.atan2(z.imag, z.real))
    power = a * (3.0 * log_z + 1.0) + 6.0 * int(a).bit_length() + 4.0
    walk = 3.0 if z.imag else 1.0
    corrections = sum(_EPS * (power + walk * k + 3.0) * abs(c) for k, c in enumerate(corr, 1))
    product = _EPS * (power + 3.0) * abs(prefactor * total)
    return abs(prefactor) * err + product + corrections + _EPS * abs(value)


def beta_quadrature(nu: float, mu: float, z: float) -> Evaluation:
    """B(nu, mu, z) = z^nu * integral_0^1 t^(nu-1) (1-z*t)^(mu-1) dt by QUADPACK.

    Real parameters only: nu > 0, z in (0, 1).  For nu < 1 the endpoint
    singularity is removed exactly by t = u^(1/nu), which turns the
    integrand into (1 - z*u^(1/nu))^(mu-1)/nu, bounded on [0, 1].
    """
    nu, mu, z = to_double(nu), to_double(mu), to_double(z)
    if not (math.isfinite(nu) and math.isfinite(mu) and math.isfinite(z)):
        raise OutsideDomain(f"nu, mu and z must be finite, got nu = {nu}, mu = {mu}, z = {z}")
    if nu <= 0:
        raise OutsideDomain(f"quadrature needs nu > 0, got {nu}")
    # the integrand below is about 1/nu, and QUADPACK's sums of it overflow past 2^1023
    if not 1.0 / nu < 2.0**1023:
        raise OutsideDomain(f"quadrature needs 1/nu below 2^1023, got nu = {nu}")
    if not (0.0 < z < 1.0):
        raise OutsideDomain(f"quadrature needs z in (0, 1), got {z}")

    if nu >= 1.0:

        def integrand(t: float) -> float:
            return t ** (nu - 1.0) * (1.0 - z * t) ** (mu - 1.0)

    else:
        inv_nu = 1.0 / nu

        def integrand(u: float) -> float:
            return (1.0 - z * u**inv_nu) ** (mu - 1.0) * inv_nu

    integral, abserr, neval = _quad(integrand, 0.0, 1.0, QUAD_TOL, QUAD_TOL)
    scale = z**nu
    return Evaluation(complex(scale * integral), Method.QUADRATURE_BETA, scale * abserr, neval)


def phi_quadrature(z: float, nu: float) -> Evaluation:
    """Phi(z, 1, nu) = integral_0^inf e^(-(nu-1)t) / (e^t - z) dt by QUADPACK.

    Real z < 1, nu > 0.  The integrand, written e^(-nu*t) / (1 - z*e^(-t))
    so that nothing overflows, goes to QUADPACK's infinite-interval rule at
    relative tolerance ``PHI_REL_TOL`` (Phi > 0 here) in s = max(1, nu)*t:
    in t, the rule's first nodes all underflow for nu above about 2e5.  Below
    nu of about 2e-5 the rule often stops short and raises
    :class:`QuadratureNonConvergence`, at every z for nu <= 1.3e-6.
    """
    z, nu = to_double(z), to_double(nu)
    if not (math.isfinite(z) and math.isfinite(nu)):
        raise OutsideDomain(f"z and nu must be finite, got z = {z}, nu = {nu}")
    if z >= 1.0:
        raise OutsideDomain(f"the integral needs z < 1, got {z}")
    if nu <= 0:
        raise OutsideDomain(f"the integral needs nu > 0, got {nu}")
    c = max(1.0, nu)

    def integrand(s: float) -> float:
        # for z > 0, 1 - z*e^(-t) as (1 - z) - z*expm1(-t): no cancellation near z = 1
        den = 1.0 - z - z * math.expm1(-s / c) if z > 0 else 1.0 - z * math.exp(-s / c)
        return math.exp(-nu / c * s) / den

    integral, abserr, neval = _quad(integrand, 0.0, math.inf, 0.0, PHI_REL_TOL)
    return Evaluation(complex(integral / c), Method.QUADRATURE_PHI, abserr / c, neval)


def _quad(integrand, a: float, b: float, abs_tol: float, rel_tol: float):
    """(integral, abserr, neval) of QUADPACK over [a, b]; its warning raises QuadratureNonConvergence."""
    from scipy.integrate import quad  # here, so importing the package does not load scipy
    try:
        # positional: no extra args, full output, absolute and relative tolerance, 200 subintervals
        result = quad(integrand, a, b, (), 1, abs_tol, rel_tol, 200)
    except OverflowError as exc:  # the value lies beyond the double range
        raise OutsideDomain(f"the integrand overflows the double range: {exc}") from exc
    if len(result) > 3:
        raise QuadratureNonConvergence(str(result[3]))
    return result[0], result[1], result[2]["neval"]  # integral, abserr, evaluations
