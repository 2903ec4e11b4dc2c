"""Branch conventions of the principal-valued helpers."""

import cmath
import math

import pytest

from betareduce import ZeroArgument, atanh, principal_log, principal_sqrt, rational_power
from betareduce import Evaluation, Method, OutsideDomain
from betareduce.principal import fsum_complex
from fractions import Fraction


class TestPrincipalLog:
    def test_negative_real_takes_plus_pi(self):
        assert principal_log(complex(-1.0, 0.0)).imag == math.pi

    def test_minus_zero_imag_normalized(self):
        # cmath.log would give -pi here; the package convention is (-pi, pi]
        assert principal_log(complex(-1.0, -0.0)).imag == math.pi

    def test_matches_cmath_off_axis(self):
        for w in (1 + 2j, -3 + 0.5j, -3 - 0.5j, 0.2 - 7j):
            assert principal_log(w) == cmath.log(w)

    def test_real_positive_is_real(self):
        out = principal_log(2.5)
        assert out.imag == 0.0


class TestAtanh:
    def test_real_interior_uses_libm(self):
        assert atanh(complex(0.5)) == complex(math.atanh(0.5), 0.0)

    def test_above_one_lands_below_cut(self):
        # the package convention: real arguments > 1 give Im = -pi/2
        out = atanh(complex(2.0))
        assert out.imag == pytest.approx(-math.pi / 2, abs=1e-15)
        assert out.real == pytest.approx(0.5 * math.log(3), rel=1e-15)

    def test_complex_agrees_with_cmath(self):
        for w in (0.3 + 0.7j, -0.9 + 0.1j, 1.5 - 2j):
            assert abs(atanh(w) - cmath.atanh(w)) < 1e-14


class TestRationalPower:
    def test_integer_negative_exact(self):
        assert rational_power(0.5, Fraction(-1)) == 2.0

    def test_half_integer_via_sqrt(self):
        assert rational_power(0.25, Fraction(-1, 2)) == 2.0

    def test_negative_base_principal_sqrt(self):
        assert rational_power(-4.0, Fraction(1, 2)) == 2j

    def test_zero_base(self):
        assert rational_power(0.0, Fraction(3, 2)) == 0j
        with pytest.raises(ZeroArgument):
            rational_power(0.0, Fraction(-1, 2))

    def test_overflowing_integer_power_is_a_named_error(self):
        # complex ** int raises OverflowError here; callers get OutsideDomain
        with pytest.raises(OutsideDomain):
            rational_power(1e-3, Fraction(-2000, 3))
        with pytest.raises(OutsideDomain):
            rational_power(3.0 + 1j, Fraction(2000, 3))

    # the integer part is truncated toward zero; z**-1 used to overflow at z = 1e-320
    def test_negative_exponent_overflows_only_with_the_result(self):
        value = rational_power(1e-320, Fraction(-1, 3))
        assert value.imag == 0.0
        # both sides round exp(a*log z), amplified by |a*log z| = 245
        assert value.real == pytest.approx(math.exp(-math.log(1e-320) / 3), rel=1e-13)
        with pytest.raises(OutsideDomain):
            rational_power(1e-300, Fraction(-7, 3))  # about 1e700
        with pytest.raises(OutsideDomain):
            rational_power(1e-200, Fraction(-2))  # z**2 underflows; used to raise ZeroDivisionError

    def test_real_positive_stays_real(self):
        for expo in (Fraction(3, 7), Fraction(-11, 4), Fraction(123, 10)):
            assert rational_power(0.3, expo).imag == 0.0

    def test_fractional_matches_exp_log(self):
        z = 0.7 + 0.2j
        expo = Fraction(5, 3)
        expected = cmath.exp(float(expo) * cmath.log(z))
        assert abs(rational_power(z, expo) - expected) < 1e-15 * abs(expected)

    def test_principal_sqrt_edge(self):
        assert principal_sqrt(complex(-4.0, -0.0)) == 2j


class TestFsumComplex:
    def test_recovers_swamped_terms(self):
        # the classic case plain Kahan gets wrong and naive summation loses
        terms = [1.0, 1e100, 1.0, -1e100]
        assert fsum_complex([complex(t) for t in terms]).real == 2.0

    def test_tracks_fsum_on_cancelling_series(self):
        terms = [1e16, 1.0, -1e16, 1e-8] * 100
        naive = 0.0
        for t in terms:
            naive += t
        value = fsum_complex([complex(t) for t in terms])
        exact = math.fsum(terms)
        assert abs(value.real - exact) <= 1e-12 * abs(exact)
        assert abs(value.real - exact) < abs(naive - exact)

    @pytest.mark.parametrize(
        "terms",
        [[1e308, 1e308], [complex(0.0, -1e308), complex(0.0, -1e308)], [math.inf, -math.inf]],
    )
    def test_overflowing_lane_is_a_named_error(self, terms):
        # math.fsum raises OverflowError / ValueError here; callers get OutsideDomain
        with pytest.raises(OutsideDomain):
            fsum_complex(terms)

    @pytest.mark.parametrize(
        "terms",
        [
            [complex(math.nan, 0.0), 1.0],
            [complex(1.0, math.nan)],
            [math.inf, 1.0],
            [complex(0.0, -math.inf)],
            [complex(math.inf, math.inf) * 3],
        ],
    )
    def test_non_finite_result_is_a_named_error(self, terms):
        # math.fsum passes NaN and same-signed infinities straight through
        with pytest.raises(OutsideDomain):
            fsum_complex([complex(t) for t in terms])

    def test_complex_lanes_independent(self):
        v = fsum_complex([complex(0.1, -0.1)] * 1000)
        assert v.real == pytest.approx(100.0, abs=1e-13)
        assert v.imag == pytest.approx(-100.0, abs=1e-13)


class TestEvaluation:
    @pytest.mark.parametrize("error_estimate", [-1e-16, math.inf, math.nan])
    def test_error_estimate_must_be_finite_and_non_negative(self, error_estimate):
        with pytest.raises(ValueError):
            Evaluation(1j, Method.SERIES, error_estimate, 1)

    def test_work_must_be_positive(self):
        with pytest.raises(ValueError):
            Evaluation(1j, Method.SERIES, 0.0, 0)

    def test_frozen(self):
        ev = Evaluation(1j, Method.REDUCTION, 0.0, 2, (1j, 0j))
        with pytest.raises(AttributeError):
            ev.value = 2j
