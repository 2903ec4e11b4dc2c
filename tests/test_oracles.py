"""Series and quadrature oracles: trivial values, self-consistency, cross-checks."""

import math
from fractions import Fraction

import pytest

from betareduce import (
    DivergentParameter,
    Evaluation,
    MaxTermsExceeded,
    Method,
    OutsideDomain,
    SeriesPolicy,
    beta_quadrature,
    beta_series,
    decompose,
    decompose_pos,
    lerch_reduce,
    lerch_series,
    phi_quadrature,
    rational_power,
    reduce_beta,
)

TIGHT = SeriesPolicy(rel_tol=1e-17)


class TestSeriesPolicy:
    def test_defaults(self):
        p = SeriesPolicy()
        assert p.rel_tol == 1e-16 and p.max_terms == 10**7

    @pytest.mark.parametrize("rel_tol", [0.0, 1.0, -1e-3, 2.0])
    def test_rel_tol_bounds(self, rel_tol):
        with pytest.raises(ValueError):
            SeriesPolicy(rel_tol=rel_tol)

    def test_max_terms_bounds(self):
        with pytest.raises(ValueError):
            SeriesPolicy(max_terms=0)


class TestLerchSeries:
    def test_z_zero_single_term(self):
        out = lerch_series(0.0, 1.0, 4.0)
        assert out.value == 0.25
        assert out.error_estimate == 0.0

    def test_closed_form_at_one(self):
        out = lerch_series(0.5, 1.0, 1.0)
        assert abs(out.value - 2 * math.log(2)) <= 4 * math.ulp(2 * math.log(2))

    def test_error_estimate_is_tight_at_large_z(self):
        out = lerch_series(0.9, 2.0, 1.5)
        assert out.error_estimate <= 1e-12 * abs(out.value)
        # halving rel_tol moves the value by less than the reported estimate
        refined = lerch_series(0.9, 2.0, 1.5, SeriesPolicy(rel_tol=0.5e-16))
        assert abs(out.value - refined.value) <= out.error_estimate

    def test_negative_non_integer_nu(self):
        out = lerch_series(0.3, 1.0, -0.5)
        assert math.isfinite(abs(out.value))

    @pytest.mark.parametrize("nu", [0.0, -1.0, -7.0])
    def test_divergent_parameters(self, nu):
        with pytest.raises(DivergentParameter):
            lerch_series(0.5, 1.0, nu)

    @pytest.mark.parametrize("z", [1.0, -1.0, 1.2, 0.8 + 0.8j])
    def test_outside_domain(self, z):
        with pytest.raises(OutsideDomain):
            lerch_series(z, 1.0, 1.0)

    # nan used to spin through the 10^7-term budget; nu = inf returned 0j
    @pytest.mark.parametrize(
        "s,nu", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (1.0, -math.inf)]
    )
    def test_non_finite_s_or_nu_rejected(self, s, nu):
        with pytest.raises(OutsideDomain):
            lerch_series(0.5, s, nu)

    def test_max_terms_exceeded(self):
        with pytest.raises(MaxTermsExceeded):
            lerch_series(0.9, 1.0, 1.0, SeriesPolicy(rel_tol=1e-16, max_terms=50))


class TestBetaSeries:
    def test_correction_beyond_budget_refused(self):
        # -m = 200 correction terms against a budget of 100; the series at r = 1/3 needs ~50
        policy = SeriesPolicy(max_terms=100)
        with pytest.raises(MaxTermsExceeded):
            beta_series(Fraction(-599, 3), 0.5, policy)
        assert math.isfinite(abs(beta_series(Fraction(-299, 3), 0.5, policy).value))

    def test_half_is_log3(self):
        out = beta_series(Fraction(1, 2), 0.25, TIGHT)
        assert abs(out.value - math.log(3)) <= 4 * math.ulp(math.log(3))
        assert out.method is Method.SERIES

    def test_z_zero(self):
        out = beta_series(Fraction(123, 10), 0.0)
        assert out.value == 0

    def test_figure_parameter_agrees_with_reduction(self):
        out = beta_series(Fraction(123, 10), 0.5, TIGHT)
        red = reduce_beta(decompose(Fraction(123, 10)), 0.5).value
        assert abs(out.value - red) <= 1e-12 * max(1.0, abs(out.value))

    def test_negative_uses_shifted_split(self):
        out = beta_series(Fraction(-3, 4), 0.5)
        assert out.method is Method.SHIFTED_SERIES

    def test_monotone_partial_sums_for_real_input(self):
        # positive terms: every truncation lies below the full sum
        nu, z = Fraction(5, 4), 0.6
        full = beta_series(nu, z, TIGHT).value.real
        partial = 0.0
        zk = rational_power(z, nu).real
        for k in range(40):
            prev = partial
            partial += zk / (k + float(nu))
            zk *= z
            assert partial > prev
            assert partial < full + 1e-15

    def test_shift_identity_term_for_term(self):
        # B(n + r, 0, z) = B(r, 0, z) - sum_{k<n} z^(k+r)/(k+r)
        r, z = Fraction(2, 7), 0.55
        for n in (1, 2, 3):
            shifted = beta_series(n + r, z, TIGHT).value
            base = beta_series(r, z, TIGHT).value
            correction = sum(
                rational_power(z, k + r) / float(k + r) for k in range(n)
            )
            assert abs(shifted - (base - correction)) <= 1e-14 * max(1.0, abs(base))

    def test_divergent_and_domain(self):
        with pytest.raises(DivergentParameter):
            beta_series(Fraction(-2), 0.5)
        with pytest.raises(OutsideDomain):
            beta_series(Fraction(1, 2), 1.1)
        with pytest.raises(OutsideDomain):
            beta_series(Fraction(-1, 2), 0.0)

    # (nu, z, term count, value) recorded from the Neumaier-summed oracle
    # before summation moved to math.fsum; the z of the second point is
    # 0.5 * e^(i*pi/3).
    PINNED = [
        (Fraction(1, 3), 0.9, 284, complex(4.787781920318888, 0.0)),
        (
            Fraction(-25, 7),
            complex(0.25000000000000006, 0.4330127018922193),
            54,
            complex(4.323431356195272, 3.510356609034208),
        ),
        (Fraction(37, 3), 0.05, 16, complex(7.646348893707282e-18, 0.0)),
    ]

    @pytest.mark.parametrize("nu,z,terms,value", PINNED)
    def test_pinned_terms_and_values(self, nu, z, terms, value):
        out = beta_series(nu, z)
        assert out.terms_or_nodes == terms
        assert abs(out.value.real - value.real) <= math.ulp(value.real)
        assert abs(out.value.imag - value.imag) <= math.ulp(value.imag)

    @pytest.mark.parametrize(
        "z", [math.inf, -math.inf, math.nan, complex(0.5, math.inf), complex(math.nan, 0.0)]
    )
    def test_non_finite_z_rejected(self, z):
        # NaN used to defeat |z| >= 1 and spin through the whole term budget
        with pytest.raises(OutsideDomain):
            beta_series(Fraction(1, 3), z)
        with pytest.raises(OutsideDomain):
            beta_series(Fraction(-5, 3), z)
        with pytest.raises(OutsideDomain):
            lerch_series(z, 1.0, 0.5)

    def test_overflowing_correction_is_a_named_error(self):
        # z^(r-k) overflows over the 667-term finite correction; this used to return nan+nanj
        with pytest.raises(OutsideDomain):
            beta_series(Fraction(-2000, 3), 1e-3)


class TestBetaQuadrature:
    def test_unit_integrand(self):
        out = beta_quadrature(1.0, 1.0, 0.5)
        assert abs(out.value - 0.5) <= 1e-13

    def test_endpoint_singularity_handled(self):
        out = beta_quadrature(0.5, 0.0, 0.25)
        assert abs(out.value - math.log(3)) <= 1e-12

    def test_near_one_with_large_parameter(self):
        out = beta_quadrature(12.3, 0.0, 0.99)
        red = reduce_beta(decompose(Fraction(123, 10)), 0.99).value
        assert abs(out.value - red) <= 1e-9

    def test_error_estimate_honest(self):
        out = beta_quadrature(0.75, 0.0, 0.6)
        red = reduce_beta(decompose(Fraction(3, 4)), 0.6).value
        assert abs(out.value - red) <= out.error_estimate + 1e-13 * abs(red)

    @pytest.mark.parametrize("nu,mu,z", [(0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.0, -0.3)])
    def test_outside_domain(self, nu, mu, z):
        with pytest.raises(OutsideDomain):
            beta_quadrature(nu, mu, z)


class TestPhiQuadrature:
    def test_at_z_zero(self):
        out = phi_quadrature(0.0, 1.0, 1.0)
        assert abs(out.value - 1.0) <= 1e-13

    def test_closed_form(self):
        out = phi_quadrature(0.5, 1.0, 1.0)
        assert abs(out.value - 2 * math.log(2)) <= 1e-13

    def test_matches_reduction_bridge(self):
        out = phi_quadrature(0.5, 1.0, 7 / 3)
        red = lerch_reduce(decompose_pos(Fraction(7, 3)), 0.5)
        assert abs(out.value - red) <= 1e-10

    def test_negative_z(self):
        out = phi_quadrature(-0.7, 1.0, 1.5)
        ser = lerch_series(-0.7, 1.0, 1.5, TIGHT)
        assert abs(out.value - ser.value) <= out.error_estimate + ser.error_estimate

    def test_fractional_s_and_nu(self):
        out = phi_quadrature(0.4, 0.5, 0.75)
        ser = lerch_series(0.4, 0.5, 0.75, TIGHT)
        assert abs(out.value - ser.value) <= max(
            out.error_estimate + ser.error_estimate, 1e-12 * abs(ser.value)
        )

    @pytest.mark.parametrize("z,s,nu", [(1.0, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, 0.0)])
    def test_outside_domain(self, z, s, nu):
        with pytest.raises(OutsideDomain):
            phi_quadrature(z, s, nu)


class TestCrossAgreement:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 7 / 3, 12.3])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_series_vs_integral(self, nu, z):
        ser = lerch_series(z, 1.0, nu)
        quad = phi_quadrature(z, 1.0, nu)
        assert abs(ser.value - quad.value) <= ser.error_estimate + quad.error_estimate

    def test_halving_quadrature_tolerance_self_consistent(self):
        coarse = phi_quadrature(0.5, 1.0, 1.5, rel_tol=1e-10)
        fine = phi_quadrature(0.5, 1.0, 1.5, rel_tol=0.5e-10)
        assert abs(coarse.value - fine.value) <= coarse.error_estimate


class TestResultType:
    def test_every_oracle_returns_an_evaluation_without_parts(self):
        for out in (
            lerch_series(0.5, 1.0, 1.0),
            beta_series(Fraction(-3, 4), 0.5),
            beta_quadrature(0.5, 0.0, 0.25),
            phi_quadrature(0.5, 1.0, 1.0),
        ):
            assert isinstance(out, Evaluation)
            assert out.parts == () and out.contributions() == []
