"""The two application integral families against quadrature and antiderivatives."""

import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from betareduce import (
    BetaReduceError,
    BranchPoint,
    OutsideDomain,
    ZeroArgument,
    beta_quadrature,
    decompose,
    incomplete_beta,
    int_power_over_linear,
    int_tanh_power,
    lerch_reduce,
    phi_quadrature,
    rational_power,
)

LAMBDA_GRID = [Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(7, 3), Fraction(3)]
Z_GRID = [0.2, 0.8, 2.0]


def tanh_integrand(lam):
    e = 2.0 * float(lam) - 1.0
    return lambda t: math.tanh(t) ** e


class TestPowerOverLinear:
    def test_log_closed_form(self):
        value = int_power_over_linear(Fraction(1), 0.5)
        assert abs(value - 2 * math.log(2)) <= 4 * math.ulp(2 * math.log(2))

    def test_half_closed_form(self):
        value = int_power_over_linear(Fraction(1, 2), 0.25)
        assert abs(value - 2 * math.log(3)) <= 4 * math.ulp(2 * math.log(3))

    def test_matches_beta_quadrature_route(self):
        value = int_power_over_linear(Fraction(5, 4), 0.3)
        via_quad = beta_quadrature(1.25, 0.0, 0.3)
        assert abs(value - via_quad.value / 0.3**1.25) <= 1e-11

    def test_both_integral_representations_agree(self):
        # the [0,1] power integrand and the semi-infinite exponential one
        # are the same number; both quadrature routes must meet the closed form
        for nu, z in [(Fraction(5, 4), 0.3), (Fraction(7, 3), 0.6), (Fraction(1, 2), 0.9)]:
            closed = int_power_over_linear(nu, z)
            beta_route = beta_quadrature(float(nu), 0.0, z)
            phi_route = phi_quadrature(z, float(nu))
            scale = z ** float(nu)
            assert abs(beta_route.value / scale - closed) <= (
                beta_route.error_estimate / scale + 1e-12 * max(1.0, abs(closed))
            )
            assert abs(phi_route.value - closed) <= (
                phi_route.error_estimate + 1e-12 * max(1.0, abs(closed))
            )
            assert abs(phi_route.value - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            int_power_over_linear(Fraction(1, 2), 0.0)

    def test_non_positive_nu_rejected(self):
        with pytest.raises(OutsideDomain):
            int_power_over_linear(Fraction(-1, 2), 0.5)


class TestTanhPower:
    def test_log_cosh_case(self):
        # integral of tanh over [0, z] is log(cosh(z))
        value = int_tanh_power(Fraction(1), 1.2)
        ref = math.log(math.cosh(1.2))
        assert abs(value - ref) <= 1e-12

    @pytest.mark.parametrize("z", Z_GRID)
    def test_five_fourths_closed_form(self, z):
        u = math.sqrt(math.tanh(z))
        ref = math.atanh(u) - 2 * u + math.atan(u)
        assert abs(int_tanh_power(Fraction(5, 4), z) - ref) <= 1e-12

    def test_constant_integrand(self):
        assert abs(int_tanh_power(Fraction(1, 2), 0.5) - 0.5) <= 1e-14

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    @pytest.mark.parametrize("z", Z_GRID)
    def test_quadrature_cross_check(self, lam, z):
        value = int_tanh_power(lam, z)
        ref, _ = quad(tanh_integrand(lam), 0.0, z, epsabs=1e-13, epsrel=1e-13)
        assert abs(value - ref) <= 1e-10 * max(1.0, abs(value))

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    @pytest.mark.parametrize("z", Z_GRID)
    def test_derivative_recovers_integrand(self, lam, z):
        # central difference; tolerance relative in the package convention
        h = 1e-5
        fd = (int_tanh_power(lam, z + h) - int_tanh_power(lam, z - h)) / (2 * h)
        ref = tanh_integrand(lam)(z)
        assert abs(fd - ref) <= 1e-8 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "lam,antiderivative",
        [
            # odd powers: classical log-cosh ladders
            (Fraction(1), lambda z: math.log(math.cosh(z))),
            (Fraction(2), lambda z: math.log(math.cosh(z)) - math.tanh(z) ** 2 / 2),
            (
                Fraction(3),
                lambda z: math.log(math.cosh(z))
                - math.tanh(z) ** 2 / 2
                - math.tanh(z) ** 4 / 4,
            ),
            # even powers: z minus tanh ladders
            (Fraction(1, 2), lambda z: z),
            (Fraction(3, 2), lambda z: z - math.tanh(z)),
            (Fraction(5, 2), lambda z: z - math.tanh(z) - math.tanh(z) ** 3 / 3),
        ],
    )
    @pytest.mark.parametrize("z", Z_GRID)
    def test_classical_antiderivatives(self, lam, antiderivative, z):
        assert abs(int_tanh_power(lam, z) - antiderivative(z)) <= 1e-12

    # tanh(z)^2 at or within about 1e-15 of 1: the kernel's branch guard refuses it
    @pytest.mark.parametrize(
        "lam",
        [Fraction(1), Fraction(1, 2), Fraction(5, 4), Fraction(7, 3), Fraction(1, 97), Fraction(40, 3)],
    )
    @pytest.mark.parametrize("z", [18.0, 18.5, 19.0, 25.0])
    def test_saturation_guard(self, lam, z):
        with pytest.raises(BranchPoint):
            int_tanh_power(lam, z)

    # tanh(z)^2 is subnormal below z = 1.49e-154; these used to lose digits or return 0.0.
    # exp(a*log t) amplifies rounding by |a*log t| <= 460 here; 5/4 underflows to 0.0
    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)])
    @pytest.mark.parametrize("z", [1e-158, 1e-162, 1e-300])
    def test_subnormal_square_against_mpmath(self, lam, z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            w = mpmath.tanh(mpmath.mpf(z)) ** 2
            a = mpmath.mpf(lam.numerator) / lam.denominator
            ref = float(mpmath.power(w, a) * mpmath.lerchphi(w, 1, a) / 2)
        assert math.isclose(int_tanh_power(lam, z), ref, rel_tol=1e-13, abs_tol=0.0)

    # the leading term below the threshold meets the kernel just above it; lam = 1/2 takes
    # the general rows at q = 2, whose log1p rule keeps their digits at tiny w
    def test_leading_term_pinned_to_kernel(self):
        lam = Fraction(1, 2)
        below, above = 1.49e-154, 1.5e-154
        assert math.tanh(below) ** 2 < sys.float_info.min <= math.tanh(above) ** 2
        for z in (below, above):
            lead = rational_power(math.tanh(z), 2 * lam).real / (2 * lam)
            assert int_tanh_power(lam, z) == pytest.approx(lead, rel=2**-52, abs=0.0)

    def test_domain(self):
        with pytest.raises(OutsideDomain):
            int_tanh_power(Fraction(5, 4), 0.0)
        with pytest.raises(OutsideDomain):
            int_tanh_power(Fraction(0), 1.0)

    def test_small_lambda_stays_on_positive_route(self):
        # exponents in (-1, 0): 2*lam - 1 for lam in (0, 1/2) still positive nu
        value = int_tanh_power(Fraction(1, 4), 0.8)
        ref, _ = quad(tanh_integrand(Fraction(1, 4)), 0.0, 0.8, epsabs=1e-13)
        assert abs(value - ref) <= 1e-10 * max(1.0, abs(value))


# |z| log-uniform over the whole double range, on the real and imaginary axes and off them
WIDE_MODULI = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
SIGNED_MODULI = WIDE_MODULI | WIDE_MODULI.map(lambda r: -r)
WIDE_POINTS = st.one_of(
    st.builds(cmath.rect, WIDE_MODULI, st.floats(-math.pi, math.pi)),
    st.builds(complex, SIGNED_MODULI),
    st.builds(lambda y: complex(0.0, y), SIGNED_MODULI),
)
# both signs, |nu| up to 50, q up to 12, the non-positive integers among them
RATIONALS = st.builds(Fraction, st.integers(-600, 600), st.integers(1, 12))


def assert_finite_or_refused(call):
    try:
        value = call()
    except BetaReduceError:
        return
    assert cmath.isfinite(value), value


# a value outside the double range used to come back as nan, inf or a bare OverflowError;
# int_tanh_power's subnormal-tanh(z)^2 branch returned inf at the first example and raised a
# bare ZeroDivisionError at the second, whose 2*lambda rounds to 0.0
@settings(max_examples=400, deadline=None)
@given(nu=RATIONALS, mu=st.integers(0, 3), z=WIDE_POINTS)
@example(nu=Fraction(1, 10**310), mu=0, z=1e-200)
@example(nu=Fraction(1, 10**400), mu=0, z=1e-200)
def test_value_callers_are_finite_or_refuse(nu, mu, z):
    assert_finite_or_refused(lambda: incomplete_beta(nu, mu, z))
    assert_finite_or_refused(lambda: lerch_reduce(decompose(nu), z))
    assert_finite_or_refused(lambda: int_power_over_linear(nu, z))
    assert_finite_or_refused(lambda: int_tanh_power(nu, abs(z)))
