"""Independent reference evaluations for validating the closed forms.

Two families of oracle, deliberately far from the reduction formulas:

* direct series summation of sum z^k/(k+nu) (exactly rounded by
  ``math.fsum``, with a three-consecutive-small-terms stopping rule and a
  rigorous geometric tail bound), plus the shifted split for negative nu.
  :func:`beta_series_many` sums the series of many nu at one z as a numpy
  block, bitwise equal to :func:`beta_series` point by point;
* adaptive quadrature of the defining integrals -- QUADPACK on [0,1] for
  the beta integrand (with a power substitution that removes the t = 0
  singularity), and a tanh-sinh rule on the exponentially mapped
  semi-infinite integral for the Lerch form.

Every oracle returns an :class:`Evaluation` with an a-posteriori error bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .errors import (
    BetaReduceError,
    DivergentParameter,
    MaxTermsExceeded,
    OutsideDomain,
    QuadratureNonConvergence,
)
from .principal import Evaluation, Method, finite_complex, fsum_complex, rational_power
from .rationals import decompose


# Series truncation: stop after three consecutive terms below SERIES_REL_TOL * |running sum|.
SERIES_REL_TOL = 1e-16
SERIES_MAX_TERMS = 10**7

# A series block holds at most this many rows x columns cells: 0.5 MB per float matrix.
SERIES_BLOCK_CELLS = 2**16

# QUADPACK's absolute and relative tolerance for beta_quadrature.
QUAD_TOL = 1e-12

# tanh-sinh stops when two refinement levels agree to TS_REL_TOL, within TS_MAX_LEVEL halvings.
TS_REL_TOL = 1e-13
TS_MAX_LEVEL = 10


def _sum_inverse_linear(z: complex, a: float):
    """Exactly rounded sum of z^k/(k+a) with the 3-small-terms stopping rule.

    The rule reads a plain running sum.  Returns (sum, |last term|, terms);
    raises :class:`MaxTermsExceeded` when the budget runs out first.
    """
    terms = []
    running = 0j
    zk = complex(1.0)
    small = 0
    for k in range(SERIES_MAX_TERMS):
        term = zk / (k + a)
        terms.append(term)
        running += term
        last = abs(term)
        if last <= SERIES_REL_TOL * abs(running):
            small += 1
            if small >= 3:
                return fsum_complex(terms), last, k + 1
        else:
            small = 0
        zk *= z
    raise MaxTermsExceeded(
        f"no convergence within {SERIES_MAX_TERMS} terms (|z| = {abs(z)})"
    )


def _sums_inverse_linear(z: complex, avals: Sequence[float]) -> list:
    """``[_sum_inverse_linear(z, a) for a in avals]``, computed as numpy blocks.

    Needs a finite z with 0 < |z| < 1.  A block holds rows k and columns a,
    at most ``SERIES_BLOCK_CELLS`` cells, and repeats the scalar loop's
    arithmetic in its order: one walk z^k (``np.multiply.accumulate`` from
    1), each term lane by lane as z^k/(k + a), the running sums by
    ``np.cumsum``, the moduli by ``np.hypot`` as ``abs`` does (``np.abs``
    rounds differently), the three-small-terms stop, and ``math.fsum`` over
    each column's first k + 1 terms.  So every result is bitwise the scalar
    one.  (CPython's complex / float adds ``im*0.0`` to the real lane and
    ``-re*0.0`` to the imaginary one; that changes only the sign of a zero
    term, which neither a modulus nor an exactly rounded sum whose first
    term is 1/a + 0j can see.)  The rows start at log(SERIES_REL_TOL)/log|z|,
    plus a margin, and double while a block of one column still fits; a
    column that has not stopped by then, or whose a is below 1e-300, goes to
    :func:`_sum_inverse_linear`, which keeps its term budget and errors.
    """
    avals = [float(a) for a in avals]
    out = [None] * len(avals)
    # a >= 1e-300: partial sums of at most SERIES_BLOCK_CELLS terms, each <= 1/a, stay finite
    pending = [j for j, a in enumerate(avals) if a >= 1e-300]
    # terms fall below SERIES_REL_TOL of the sum from about this row on; the stop needs two more
    rows = math.ceil(math.log(SERIES_REL_TOL) / math.log(abs(z))) + 4
    while pending and rows <= SERIES_BLOCK_CELLS:
        walk = np.full(rows, z)
        walk[0] = 1.0
        zk = np.multiply.accumulate(walk)[:, None]
        ks = np.arange(rows, dtype=float)[:, None]
        width = SERIES_BLOCK_CELLS // rows
        left = []
        for start in range(0, len(pending), width):
            cols = pending[start : start + width]
            dens = ks + np.array([avals[j] for j in cols])
            re = zk.real / dens
            im = zk.imag / dens
            last = np.hypot(re, im)
            small = last <= SERIES_REL_TOL * np.hypot(np.cumsum(re, axis=0), np.cumsum(im, axis=0))
            third = small[2:] & small[1:-1] & small[:-2]
            stops = third.argmax(axis=0) + 2
            for c, j in enumerate(cols):
                k = int(stops[c])
                if not third[k - 2, c]:
                    left.append(j)
                    continue
                total = complex(math.fsum(re[: k + 1, c].tolist()), math.fsum(im[: k + 1, c].tolist()))
                out[j] = (total, float(last[k, c]), k + 1)
        pending = left
        rows *= 2
    return [_sum_inverse_linear(z, a) if res is None else res for a, res in zip(avals, out)]


def lerch_series(z: complex, nu: float) -> Evaluation:
    """Phi(z, 1, nu) by direct summation; |z| < 1, nu not in {0, -1, ...}.

    The reported error estimate is the geometric tail bound
    |last term| / (1 - |z|).
    """
    z = finite_complex(z)
    nu = float(nu)
    if not math.isfinite(nu):
        raise OutsideDomain(f"nu must be finite, got {nu}")
    if abs(z) >= 1.0:
        raise OutsideDomain(f"series needs |z| < 1, got |z| = {abs(z)}")
    if nu <= 0 and nu == math.floor(nu):
        raise DivergentParameter(f"nu = {nu} is a non-positive integer")
    total, last, terms = _sum_inverse_linear(z, nu)
    err = last / (1.0 - abs(z))
    return Evaluation(total, Method.SERIES, err, terms)


def beta_series(nu: Fraction, z: complex) -> Evaluation:
    """B(nu, 0, z) summed term by term; the independent check on the reductions.

    Positive nu sums z^nu * sum z^k/(k+nu) directly.  Negative non-integer
    nu = -n + r uses the shifted split: the same series at r plus the exact
    finite correction sum z^(r-k)/(r-k), k = 1..n.
    """
    nu = Fraction(nu)
    if nu.denominator == 1 and nu <= 0:
        raise DivergentParameter(f"divergent at the non-positive integer {nu}")
    z = finite_complex(z)
    if z == 0:
        if nu > 0:
            return Evaluation(0j, Method.SERIES, 0.0, 1)
        raise OutsideDomain("negative parameters need 0 < |z| < 1")
    if abs(z) >= 1.0:
        raise OutsideDomain(f"series needs |z| < 1, got |z| = {abs(z)}")
    if nu > 0:
        prefactor = rational_power(z, nu)
        total, last, terms = _sum_inverse_linear(z, float(nu))
        err = abs(prefactor) * last / (1.0 - abs(z))
        return Evaluation(prefactor * total, Method.SERIES, err, terms)
    dec = decompose(nu)
    if -dec.m > SERIES_MAX_TERMS:
        raise MaxTermsExceeded(f"{-dec.m} correction terms exceed the budget of {SERIES_MAX_TERMS}")
    r = dec.r
    prefactor = rational_power(z, r)
    total, last, terms = _sum_inverse_linear(z, float(r))
    corr = []
    zk = prefactor
    for k in range(1, -dec.m + 1):
        zk /= z
        corr.append(zk / (float(r) - k))
    value = prefactor * total + fsum_complex(corr)
    err = abs(prefactor) * last / (1.0 - abs(z))
    return Evaluation(value, Method.SHIFTED_SERIES, err, terms - dec.m)


def beta_series_many(nus: Sequence[Fraction], z: complex) -> List[Evaluation]:
    """The evaluations ``[beta_series(nu, z) for nu in nus]``, bitwise.

    The series of every nu is summed in one :func:`_sums_inverse_linear`
    call over the distinct a values: float(nu) for positive nu and float(r)
    for the shifted split of nu = -n + r, so a negative nu reuses the sum of
    its n = 0 sibling.  The prefactor and the finite correction follow per
    point, as in :func:`beta_series`.  A z the block cannot take (0, |z| >= 1,
    not finite), or any refused point, sends the whole list through the
    scalar loop, which raises the first error it meets.
    """
    nus = [nu if isinstance(nu, Fraction) else Fraction(nu) for nu in nus]
    z = complex(z)
    if z != 0 and abs(z.real) < 1.0 and abs(z.imag) < 1.0 and abs(z) < 1.0:
        try:
            return _beta_series_block(nus, z)
        except (BetaReduceError, ArithmeticError):
            pass  # some point is refused: the scalar loop below meets the first refusal
    return [beta_series(nu, z) for nu in nus]


def _beta_series_block(nus: List[Fraction], z: complex) -> List[Evaluation]:
    points = []
    for nu in nus:
        if nu > 0:
            points.append((nu, float(nu), 0))
            continue
        dec = decompose(nu)  # a non-positive integer raises DivergentParameter
        if -dec.m > SERIES_MAX_TERMS:
            raise MaxTermsExceeded("correction beyond the budget")  # as beta_series does
        points.append((dec.r, float(dec.r), -dec.m))
    avals = list(dict.fromkeys(a for _, a, _ in points))
    sums = dict(zip(avals, _sums_inverse_linear(z, avals)))
    out = []
    for expo, a, n in points:
        prefactor = rational_power(z, expo)
        total, last, terms = sums[a]
        err = abs(prefactor) * last / (1.0 - abs(z))
        if not n:
            out.append(Evaluation(prefactor * total, Method.SERIES, err, terms))
            continue
        corr = []
        zk = prefactor
        for k in range(1, n + 1):
            zk /= z
            corr.append(zk / (a - k))
        value = prefactor * total + fsum_complex(corr)
        out.append(Evaluation(value, Method.SHIFTED_SERIES, err, terms + n))
    return out


def beta_quadrature(nu: float, mu: float, z: float) -> Evaluation:
    """B(nu, mu, z) = z^nu * integral_0^1 t^(nu-1) (1-z*t)^(mu-1) dt by QUADPACK.

    Real parameters only: nu > 0, z in (0, 1).  For nu < 1 the endpoint
    singularity is removed exactly by t = u^(1/nu), which turns the
    integrand into (1 - z*u^(1/nu))^(mu-1)/nu, bounded on [0, 1].
    """
    nu = float(nu)
    mu = float(mu)
    z = float(z)
    if not (math.isfinite(nu) and math.isfinite(mu) and math.isfinite(z)):
        raise OutsideDomain(f"nu, mu and z must be finite, got nu = {nu}, mu = {mu}, z = {z}")
    if nu <= 0:
        raise OutsideDomain(f"quadrature needs nu > 0, got {nu}")
    if not (0.0 < z < 1.0):
        raise OutsideDomain(f"quadrature needs z in (0, 1), got {z}")

    if nu >= 1.0:

        def integrand(t: float) -> float:
            return t ** (nu - 1.0) * (1.0 - z * t) ** (mu - 1.0)

    else:
        inv_nu = 1.0 / nu

        def integrand(u: float) -> float:
            return (1.0 - z * u**inv_nu) ** (mu - 1.0) * inv_nu

    from scipy.integrate import quad  # here, so importing the package does not load scipy
    # positional: no extra args, full output, absolute and relative tolerance, 200 subintervals
    result = quad(integrand, 0.0, 1.0, (), 1, QUAD_TOL, QUAD_TOL, 200)
    if len(result) > 3:
        raise QuadratureNonConvergence(str(result[3]))
    integral, abserr, info = result
    scale = z**nu
    return Evaluation(
        complex(scale * integral), Method.QUADRATURE_BETA, scale * abserr, info["neval"]
    )


def phi_quadrature(z: float, nu: float) -> Evaluation:
    """Phi(z, 1, nu) from its semi-infinite integral representation.

    The substitution u = e^(-t) maps Phi onto
    integral_0^1 u^(nu-1) / (1 - z*u) du, whose algebraic endpoint
    singularity at 0 a tanh-sinh rule absorbs.  Real z < 1, nu > 0.
    """
    z = float(z)
    nu = float(nu)
    if not (math.isfinite(z) and math.isfinite(nu)):
        raise OutsideDomain(f"z and nu must be finite, got z = {z}, nu = {nu}")
    if z >= 1.0:
        raise OutsideDomain(f"the integral needs z < 1, got {z}")
    if nu <= 0:
        raise OutsideDomain(f"the integral needs nu > 0, got {nu}")

    def mapped(log_u: float, log_1mu: float) -> float:
        # integrand times u*(1-u), assembled in log space so u^(nu-1) never
        # overflows at the deep nodes: u^nu * (1-u) / (1-z*u)
        return math.exp(nu * log_u + log_1mu) / (1.0 - z * math.exp(log_u))

    integral, err, nodes = _tanh_sinh_logistic(mapped)
    return Evaluation(complex(integral), Method.QUADRATURE_PHI, err, nodes)


# tanh-sinh abscissa range: pi*sinh(6.11) ~ 708, the edge of double range.
_TS_TMAX = 6.11


def _softplus(x: float) -> float:
    if x > 36.0:
        return x
    return math.log1p(math.exp(x))


def _tanh_sinh_logistic(f):
    """Tanh-sinh quadrature over (0, 1) for integrands in logistic form.

    ``f(log_u, log_1mu)`` must return integrand(u) * u * (1-u); the node
    u = 1/(1 + e^(-pi*sinh t)) then carries weight pi*cosh(t)*h.  Error
    estimate is the difference between the last two refinement levels.
    """

    def node_sum(h: float, odd_only: bool) -> tuple[float, int]:
        total = 0.0
        count = 0
        j = 1 if odd_only else 0
        step = 2 if odd_only else 1
        while j * h <= _TS_TMAX:
            for t in ((j * h,) if j == 0 else (j * h, -j * h)):
                a = math.pi * math.sinh(t)
                log_u = -_softplus(-a)
                log_1mu = -_softplus(a)
                total += f(log_u, log_1mu) * math.pi * math.cosh(t)
                count += 1
            j += step
        return total, count

    h = 1.0
    total, nodes = node_sum(h, odd_only=False)
    estimate = h * total
    err = math.inf
    for _ in range(TS_MAX_LEVEL):
        h *= 0.5
        extra, count = node_sum(h, odd_only=True)
        nodes += count
        new_estimate = 0.5 * estimate + h * extra
        err = abs(new_estimate - estimate)
        estimate = new_estimate
        if err <= TS_REL_TOL * max(abs(estimate), 1e-300):
            # floor at rounding level: coinciding levels do not mean zero error
            return estimate, max(err, 4e-16 * abs(estimate)), nodes
    raise QuadratureNonConvergence(
        f"tanh-sinh did not reach rel_tol {TS_REL_TOL} in {TS_MAX_LEVEL} levels (last delta {err})"
    )
