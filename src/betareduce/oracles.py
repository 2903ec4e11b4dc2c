"""Independent reference evaluations for validating the closed forms.

Two families of oracle, deliberately far from the reduction formulas:

* direct series summation of sum z^k/(k+nu)^s (exactly rounded by
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
from dataclasses import dataclass
from fractions import Fraction

from scipy.integrate import quad

from .errors import (
    DivergentParameter,
    MaxTermsExceeded,
    OutsideDomain,
    QuadratureNonConvergence,
)
from .principal import Evaluation, Method, finite_complex, fsum_complex, rational_power
from .rationals import decompose


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for the series oracles."""

    rel_tol: float = 1e-16
    max_terms: int = 10**7

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


_DEFAULT_POLICY = SeriesPolicy()


def _sum_inverse_linear(z: complex, a: float, s: float, policy: SeriesPolicy):
    """Exactly rounded sum of z^k/(k+a)^s with the 3-small-terms stopping rule.

    The rule reads a plain running sum.  Returns (sum, |last term|, terms);
    raises :class:`MaxTermsExceeded` when the budget runs out first.
    """
    terms = []
    running = 0j
    zk = complex(1.0)
    small = 0
    for k in range(policy.max_terms):
        if s == 1.0:
            term = zk / (k + a)
        else:
            term = zk / complex(k + a) ** s
        terms.append(term)
        running += term
        last = abs(term)
        if last <= policy.rel_tol * abs(running):
            small += 1
            if small >= 3:
                return fsum_complex(terms), last, k + 1
        else:
            small = 0
        zk *= z
    raise MaxTermsExceeded(
        f"no convergence within {policy.max_terms} terms (|z| = {abs(z)})"
    )


def lerch_series(
    z: complex, s: float, nu: float, policy: SeriesPolicy = _DEFAULT_POLICY
) -> Evaluation:
    """Phi(z, s, nu) by direct summation; |z| < 1, nu not in {0, -1, ...}.

    The reported error estimate is the geometric tail bound
    |last term| / (1 - |z|), which is rigorous for s > 0.
    """
    z = finite_complex(z)
    s, nu = float(s), float(nu)
    if not (math.isfinite(s) and math.isfinite(nu)):
        raise OutsideDomain(f"s and nu must be finite, got s = {s}, nu = {nu}")
    if abs(z) >= 1.0:
        raise OutsideDomain(f"series needs |z| < 1, got |z| = {abs(z)}")
    if nu <= 0 and nu == math.floor(nu):
        raise DivergentParameter(f"nu = {nu} is a non-positive integer")
    total, last, terms = _sum_inverse_linear(z, nu, s, policy)
    err = last / (1.0 - abs(z))
    return Evaluation(total, Method.SERIES, err, terms)


def beta_series(
    nu: Fraction, z: complex, policy: SeriesPolicy = _DEFAULT_POLICY
) -> Evaluation:
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
        total, last, terms = _sum_inverse_linear(z, float(nu), 1.0, policy)
        err = abs(prefactor) * last / (1.0 - abs(z))
        return Evaluation(prefactor * total, Method.SERIES, err, terms)
    dec = decompose(nu)
    if -dec.m > policy.max_terms:
        raise MaxTermsExceeded(f"{-dec.m} correction terms exceed the budget of {policy.max_terms}")
    r = dec.r
    prefactor = rational_power(z, r)
    total, last, terms = _sum_inverse_linear(z, float(r), 1.0, policy)
    corr = []
    zk = prefactor
    for k in range(1, -dec.m + 1):
        zk /= z
        corr.append(zk / (float(r) - k))
    value = prefactor * total + fsum_complex(corr)
    err = abs(prefactor) * last / (1.0 - abs(z))
    return Evaluation(value, Method.SHIFTED_SERIES, err, terms - dec.m)


def beta_quadrature(
    nu: float, mu: float, z: float, epsabs: float = 1e-12, epsrel: float = 1e-12
) -> Evaluation:
    """B(nu, mu, z) = z^nu * integral_0^1 t^(nu-1) (1-z*t)^(mu-1) dt by QUADPACK.

    Real parameters only: nu > 0, z in (0, 1).  For nu < 1 the endpoint
    singularity is removed exactly by t = u^(1/nu), which turns the
    integrand into (1 - z*u^(1/nu))^(mu-1)/nu, bounded on [0, 1].
    """
    nu = float(nu)
    mu = float(mu)
    z = float(z)
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

    result = quad(integrand, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)
    if len(result) > 3:
        raise QuadratureNonConvergence(str(result[3]))
    integral, abserr, info = result
    scale = z**nu
    return Evaluation(
        complex(scale * integral), Method.QUADRATURE_BETA, scale * abserr, info["neval"]
    )


def phi_quadrature(
    z: float, s: float, nu: float, rel_tol: float = 1e-13, max_level: int = 10
) -> Evaluation:
    """Phi(z, s, nu) from its semi-infinite integral representation.

    The substitution u = e^(-t) maps Gamma(s)*Phi onto
    integral_0^1 (-log u)^(s-1) u^(nu-1) / (1 - z*u) du, whose endpoint
    singularities (algebraic at 0, (1-u)^(s-1)-type at 1) a tanh-sinh rule
    absorbs.  Real z < 1, s > 0, nu > 0.
    """
    z = float(z)
    s = float(s)
    nu = float(nu)
    if z >= 1.0:
        raise OutsideDomain(f"the integral needs z < 1, got {z}")
    if s <= 0:
        raise OutsideDomain(f"the integral needs s > 0, got {s}")
    if nu <= 0:
        raise OutsideDomain(f"the integral needs nu > 0, got {nu}")

    sm1 = s - 1.0

    def mapped(log_u: float, log_1mu: float) -> float:
        # integrand times u*(1-u), assembled in log space so u^(nu-1) never
        # overflows at the deep nodes: u^nu * (1-u) * (-log u)^(s-1) / (1-z*u)
        core = math.exp(nu * log_u + log_1mu)
        if core == 0.0:
            return 0.0
        if sm1 != 0.0:
            core *= (-log_u) ** sm1
        return core / (1.0 - z * math.exp(log_u))

    integral, err, nodes = _tanh_sinh_logistic(mapped, rel_tol, max_level)
    gamma_s = math.gamma(s)
    return Evaluation(
        complex(integral / gamma_s), Method.QUADRATURE_PHI, err / gamma_s, nodes
    )


# tanh-sinh abscissa range: pi*sinh(6.11) ~ 708, the edge of double range.
_TS_TMAX = 6.11


def _softplus(x: float) -> float:
    if x > 36.0:
        return x
    return math.log1p(math.exp(x))


def _tanh_sinh_logistic(f, rel_tol: float, max_level: int):
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
            if j == 0 and odd_only:
                break
            j += step
        return total, count

    h = 1.0
    total, nodes = node_sum(h, odd_only=False)
    estimate = h * total
    err = math.inf
    for _ in range(max_level):
        h *= 0.5
        extra, count = node_sum(h, odd_only=True)
        nodes += count
        new_estimate = 0.5 * estimate + h * extra
        err = abs(new_estimate - estimate)
        estimate = new_estimate
        if err <= rel_tol * max(abs(estimate), 1e-300):
            # floor at rounding level: coinciding levels do not mean zero error
            return estimate, max(err, 4e-16 * abs(estimate)), nodes
    raise QuadratureNonConvergence(
        f"tanh-sinh did not reach rel_tol {rel_tol} in {max_level} levels (last delta {err})"
    )
