"""Independent reference evaluations for validating the closed forms.

Two families of oracle, deliberately far from the reduction formulas:

* direct series summation of sum z^k/(k+nu) (exactly rounded by
  ``math.fsum``, with a three-consecutive-small-terms stopping rule and a
  rigorous geometric tail bound), plus the shifted split for negative nu;
* adaptive quadrature of the defining integrals -- QUADPACK on [0,1] for
  the beta integrand (with a power substitution that removes the t = 0
  singularity), and a tanh-sinh rule on the exponentially mapped
  semi-infinite integral for the Lerch form.

Every oracle returns an :class:`Evaluation` with an a-posteriori error bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
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
