"""Closed-form reduction engine: golden values, oracle agreement, branches."""

import cmath
import math
from fractions import Fraction

import pytest

from betareduce import (
    BranchPoint,
    DivergentParameter,
    Decomposition,
    MaxTermsExceeded,
    Method,
    OutsideDomain,
    PoleInSum,
    SeriesPolicy,
    ZeroArgument,
    beta_mu_posint,
    beta_quadrature,
    beta_series,
    connection_check,
    decompose,
    decompose_pos,
    incomplete_beta,
    lerch_reduce,
    lerch_series,
    reduce_beta,
)
from betareduce import rationals, reduction
from betareduce.principal import fsum_complex, principal_log, principal_sqrt
from betareduce.reduction import (
    MAX_TAIL_TERMS,
    ROOT_CACHE_MAX_Q,
    _closed_form,
    _roots_log_sum,
    _unit_roots,
)

TIGHT = SeriesPolicy(rel_tol=1e-17)

# Frozen oracle values, computed once with the series/quadrature oracles at
# tightened tolerance and pinned here.
BETA_SERIES_5_4_AT_0_3 = 0.21524132493577705
BETA_SERIES_M3_4_AT_0_5 = 1.6044323360835513
LERCH_SERIES_7_3_AT_0_6 = 0.7754381901675652
BETA_QUAD_HALF_MU3_AT_0_7 = 1.056422726837026


def ulps(x: float, ref: float) -> float:
    return abs(x - ref) / math.ulp(abs(ref))


class TestPositiveGolden:
    def test_integer_one_is_log2(self):
        ev = reduce_beta(decompose(Fraction(1)), 0.5)
        assert ev.method is Method.INTEGER_LOG
        assert ulps(ev.value.real, math.log(2)) <= 2
        assert ev.value.imag == 0.0

    def test_half_is_log3(self):
        ev = reduce_beta(decompose(Fraction(1, 2)), 0.25)
        assert ev.method is Method.HALF_ATANH
        assert ulps(ev.value.real, math.log(3)) <= 2

    def test_five_fourths_matches_series_oracle(self):
        ev = reduce_beta(decompose(Fraction(5, 4)), 0.3)
        assert ev.method is Method.ROOTS_OF_UNITY_POS
        value = ev.value
        assert abs(value - BETA_SERIES_5_4_AT_0_3) <= 1e-13 * BETA_SERIES_5_4_AT_0_3
        live = beta_series(Fraction(5, 4), 0.3, TIGHT).value
        assert abs(value - live) <= 1e-13 * abs(live)

    def test_branch_cut_imaginary_part(self):
        value = reduce_beta(decompose(Fraction(123, 10)), 2.0).value
        assert abs(value.imag + math.pi) <= 1e-12

    def test_zero_argument_gives_zero(self):
        ev = reduce_beta(decompose(Fraction(7, 3)), 0.0)
        assert ev.value == 0
        assert fsum_complex(ev.contributions()) == 0

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPoint):
            reduce_beta(decompose(Fraction(1, 2)), 1.0)
        with pytest.raises(BranchPoint):
            reduce_beta(decompose(Fraction(3)), 1.0 - 1e-16)
        # q-th root within the guard band even though z itself is not
        with pytest.raises(BranchPoint):
            reduce_beta(decompose(Fraction(1, 4)), 1.0 - 4e-15)


class TestNegativeGolden:
    def test_minus_half_closed_form(self):
        ev = reduce_beta(decompose(Fraction(-1, 2)), 0.25)
        assert ev.method is Method.HALF_ATANH
        ref = math.log(3) - 4.0
        assert ulps(ev.value.real, ref) <= 2
        assert ev.value.imag == 0.0

    def test_minus_three_quarters_matches_series_oracle(self):
        value = reduce_beta(decompose(Fraction(-3, 4)), 0.5).value
        assert abs(value - BETA_SERIES_M3_4_AT_0_5) <= 1e-12 * BETA_SERIES_M3_4_AT_0_5
        live = beta_series(Fraction(-3, 4), 0.5, TIGHT).value
        assert abs(value - live) <= 1e-12 * abs(live)

    def test_tiny_z_dominated_by_leading_power(self):
        value = reduce_beta(decompose(Fraction(-1, 2)), 1e-300).value
        assert math.isfinite(value.real)
        assert value.imag == 0.0
        # leading term is -2 * z**(-1/2) = -2e150; magnitude check only
        assert abs(value.real + 2e150) <= 1e136

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            reduce_beta(decompose(Fraction(-1, 2)), 0.0)

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPoint):
            reduce_beta(decompose(Fraction(-5, 3)), 1.0)


def _general_half_integer(ev, z):
    # the q = 2 roots-of-unity log sum in place of the atanh part, with the same tail
    return fsum_complex(_roots_log_sum(1, 2, principal_sqrt(z))) + ev.parts[-1]


class TestFastPathConsistency:
    # the q = 2 general roots-of-unity form must reproduce the atanh form
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    @pytest.mark.parametrize("z", [0.1, 0.85, 0.4 + 0.3j, -0.6, 2.5, 7.0])
    def test_positive_half_integers(self, n, z):
        dec = decompose(n + Fraction(1, 2))
        assert dec == Decomposition(m=n, r=Fraction(1, 2))
        fast = reduce_beta(dec, z)
        general = _general_half_integer(fast, complex(z))
        assert fast.method is Method.HALF_ATANH
        assert abs(fast.value - general) <= 1e-13 * max(1.0, abs(general))

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("z", [0.1, 0.85, 0.4 + 0.3j, 2.5])
    def test_negative_half_integers(self, n, z):
        nu = Fraction(-n) + Fraction(1, 2)
        dec = decompose(nu)
        assert (dec.m, dec.r) == (-n, Fraction(1, 2))
        fast = reduce_beta(dec, z)
        general = _general_half_integer(fast, complex(z))
        assert fast.method is Method.HALF_ATANH
        assert abs(fast.value - general) <= 1e-13 * max(1.0, abs(general))


class TestSymmetryAndInvariants:
    @pytest.mark.parametrize(
        "nu", [Fraction(1, 2), Fraction(5, 4), Fraction(17, 12), Fraction(6, 5) + 4]
    )
    @pytest.mark.parametrize("z", [0.3 + 0.4j, -0.2 + 0.7j, 0.05 - 0.85j])
    def test_conjugate_symmetry(self, nu, z):
        value = reduce_beta(decompose(nu), z).value
        conj_value = reduce_beta(decompose(nu), z.conjugate()).value
        assert abs(conj_value - value.conjugate()) <= 1e-13 * max(1.0, abs(value))

    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(5, 4), Fraction(123, 10), Fraction(7, 12)])
    @pytest.mark.parametrize("z", [1.1, 2.0, 5.0, 10.0])
    def test_imaginary_part_is_minus_pi_past_one(self, nu, z):
        value = reduce_beta(decompose(nu), z).value
        assert abs(value.imag + math.pi) <= 1e-12

    @pytest.mark.parametrize("nu", [Fraction(-1, 2), Fraction(-7, 4), Fraction(-13, 12)])
    @pytest.mark.parametrize("z", [1.5, 4.0])
    def test_negative_parameter_branch_cut(self, nu, z):
        value = reduce_beta(decompose(nu), z).value
        assert abs(value.imag + math.pi) <= 1e-12

    @pytest.mark.parametrize(
        "nu,z",
        [
            (Fraction(5, 4), 0.3),
            (Fraction(38, 5), 0.88),
            (Fraction(1, 2), 0.7),
            (Fraction(4), 0.9),
            (Fraction(-3, 4), 0.5),
            (Fraction(-25, 6), 0.2 + 0.4j),
        ],
    )
    def test_trace_reproduces_value(self, nu, z):
        ev = reduce_beta(decompose(nu), z)
        scale = max([abs(c) for c in ev.contributions()] + [abs(ev.value)])
        assert abs(fsum_complex(ev.contributions()) - ev.value) <= 4 * math.ulp(scale)


class TestOracleEquivalenceTightGrid:
    # compact version of the acceptance grids at the tighter module bounds
    Z = [0.15, 0.45, 0.85, 0.4 * cmath.exp(2j), 0.5 * cmath.exp(-0.8j)]

    def test_positive_within_1e_11(self):
        worst = 0.0
        for q in range(2, 7):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                for n in range(0, 4):
                    nu = n + Fraction(p, q)
                    for z in self.Z:
                        red = reduce_beta(decompose(nu), z).value
                        ser = beta_series(nu, z).value
                        worst = max(worst, abs(red - ser) / max(1.0, abs(ser)))
        assert worst <= 1e-11

    def test_negative_within_1e_10(self):
        worst = 0.0
        for q in range(2, 7):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                for n in range(1, 4):
                    nu = -n + Fraction(p, q)
                    for z in self.Z:
                        red = reduce_beta(decompose(nu), z).value
                        ser = beta_series(nu, z).value
                        worst = max(worst, abs(red - ser) / max(1.0, abs(ser)))
        assert worst <= 1e-10


class TestBetaMuPosint:
    def test_single_term(self):
        assert beta_mu_posint(Fraction(2), 0, 0.5) == 0.125

    def test_two_terms(self):
        assert beta_mu_posint(Fraction(1), 1, 0.5) == 0.375

    def test_half_matches_quadrature_oracle(self):
        value = beta_mu_posint(Fraction(1, 2), 2, 0.7)
        assert abs(value - BETA_QUAD_HALF_MU3_AT_0_7) <= 1e-12
        live = beta_quadrature(0.5, 3.0, 0.7)
        assert abs(value - live.value) <= 1e-12

    @pytest.mark.parametrize("nu,m", [(Fraction(0), 0), (Fraction(-2), 3), (Fraction(-3), 5)])
    def test_pole_rejected(self, nu, m):
        with pytest.raises(PoleInSum):
            beta_mu_posint(nu, m, 0.5)

    def test_non_integer_negative_is_fine(self):
        value = beta_mu_posint(Fraction(-7, 2), 5, 0.5)
        assert math.isfinite(abs(value))

    def test_z_zero(self):
        assert beta_mu_posint(Fraction(3, 2), 2, 0.0) == 0
        with pytest.raises(ZeroArgument):
            beta_mu_posint(Fraction(-1, 2), 2, 0.0)

    def test_overflowing_sum_is_a_named_error(self):
        # (-3)^k C(700, k) overflows to +-inf; the sum used to come back nan+nanj
        with pytest.raises(OutsideDomain):
            beta_mu_posint(Fraction(1, 3), 700, 3.0)

    def test_m_bounds(self):
        with pytest.raises(OutsideDomain):
            beta_mu_posint(Fraction(1, 2), -1, 0.5)
        with pytest.raises(OutsideDomain):
            beta_mu_posint(Fraction(1, 2), 10**6 + 1, 0.5)


class TestLerchReduce:
    def test_integer_closed_form(self):
        value = lerch_reduce(decompose_pos(Fraction(1)), 0.5)
        assert ulps(value.real, 2 * math.log(2)) <= 2

    def test_half_closed_form(self):
        value = lerch_reduce(decompose_pos(Fraction(1, 2)), 0.25)
        assert ulps(value.real, 2 * math.log(3)) <= 2

    def test_matches_series_oracle(self):
        value = lerch_reduce(decompose_pos(Fraction(7, 3)), 0.6)
        assert abs(value - LERCH_SERIES_7_3_AT_0_6) <= 1e-13 * LERCH_SERIES_7_3_AT_0_6
        live = lerch_series(0.6, 1.0, 7 / 3, TIGHT).value
        assert abs(value - live) <= 1e-13 * abs(live)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            lerch_reduce(decompose_pos(Fraction(1, 2)), 0.0)


class TestConnectionFormula:
    def test_half_mu_zero(self):
        assert connection_check(Fraction(1, 2), 0, 0.3) <= 1e-13

    def test_three_halves_mu_one(self):
        assert connection_check(Fraction(3, 2), 1, 0.5) <= 1e-13

    def test_all_terms_vanish_at_zero(self):
        assert connection_check(Fraction(1), 0, 0.0) == 0.0

    def test_negative_parameter(self):
        assert connection_check(Fraction(-5, 3), 0, 0.4) <= 1e-13

    # nu -> nu + 1 crosses the m = -1 -> 0 boundary of the signed shift, or
    # stays on the q = 1 (integer) kernel
    @pytest.mark.parametrize(
        "nu",
        [Fraction(-1, 2), Fraction(-2, 3), Fraction(-1, 7), Fraction(1), Fraction(2), Fraction(5)],
    )
    @pytest.mark.parametrize("z", [0.3, -0.7, 2.5, 0.3 + 0.6j, -1.2 - 0.9j])
    def test_shift_boundary_and_integers(self, nu, z):
        assert connection_check(nu, 0, z) <= 1e-13


class TestDispatcher:
    def test_routes_negative(self):
        via_dispatch = incomplete_beta(Fraction(-3, 4), 0, 0.5)
        direct = reduce_beta(decompose(Fraction(-3, 4)), 0.5)
        assert direct.method is Method.ROOTS_OF_UNITY_NEG
        assert via_dispatch == direct.value

    @pytest.mark.parametrize(
        "nu,names",
        [
            (Fraction(1, 3), ["decompose_pos", "reduce_beta_pos"]),
            (Fraction(4), ["decompose_pos", "reduce_beta_pos"]),
            (Fraction(-5, 2), ["decompose_neg", "reduce_beta_neg"]),
            (Fraction(-7, 3), ["decompose_neg", "reduce_beta_neg"]),
        ],
    )
    def test_routes_through_one_name_per_sign(self, monkeypatch, nu, names):
        # the traced benchmark run rebinds these module names to time and
        # count every decomposition and reduction
        calls = []

        def recording(module, name):
            original = getattr(module, name)

            def recorder(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, recorder)

        for name in ("decompose_pos", "decompose_neg"):
            recording(rationals, name)
        for name in ("reduce_beta_pos", "reduce_beta_neg"):
            recording(reduction, name)
        value = incomplete_beta(nu, 0, 0.3)
        assert calls == names
        assert value == reduction._reduce(decompose(nu), 0.3).value

    def test_divergent_integer(self):
        with pytest.raises(DivergentParameter):
            incomplete_beta(Fraction(-3), 0, 0.5)
        with pytest.raises(DivergentParameter):
            incomplete_beta(Fraction(0), 0, 0.5)

    def test_mu_validation(self):
        with pytest.raises(OutsideDomain):
            incomplete_beta(Fraction(1, 2), -1, 0.5)

    @pytest.mark.parametrize(
        "z", [math.inf, -math.inf, math.nan, complex(0.5, -math.inf), complex(math.nan, 0.0)]
    )
    @pytest.mark.parametrize(
        "nu,mu",
        [
            (Fraction(1, 3), 0),
            (Fraction(4), 0),
            (Fraction(-5, 2), 0),
            (Fraction(-7, 3), 0),
            (Fraction(1, 3), 2),
        ],
    )
    def test_non_finite_z_rejected(self, nu, mu, z):
        with pytest.raises(OutsideDomain):
            incomplete_beta(nu, mu, z)

    @pytest.mark.parametrize("z", [math.inf, math.nan])
    def test_non_finite_z_rejected_by_kernels(self, z):
        with pytest.raises(OutsideDomain):
            reduce_beta(decompose(Fraction(1, 3)), z)
        with pytest.raises(OutsideDomain):
            reduce_beta(decompose(Fraction(-1, 3)), z)
        with pytest.raises(OutsideDomain):
            beta_mu_posint(Fraction(1, 3), 1, z)


def _per_call_unit_root(num: int, den: int) -> complex:
    # the per-call formula the cached tables replaced
    ang = 2.0 * math.pi * (num % den) / den
    return complex(math.cos(ang), math.sin(ang))


class TestUnitRootTable:
    @pytest.mark.parametrize("q", list(range(2, 25)) + [97, 1000])
    def test_entries_bitwise_equal_to_per_call_formula(self, q):
        table = _unit_roots(q)
        assert len(table) == q
        for j in range(q):
            expected = _per_call_unit_root(j, q)
            assert table[j].real.hex() == expected.real.hex()
            assert table[j].imag.hex() == expected.imag.hex()

    @pytest.mark.parametrize("nu", [Fraction(5, 7), Fraction(-11, 12), Fraction(23, 97)])
    def test_trace_phases_match_per_call_formula(self, nu):
        z = 0.3 + 0.2j
        dec = decompose(nu)
        ev = reduce_beta(dec, z)
        p, q = dec.r.numerator, dec.r.denominator
        logs = ev.contributions()[:-1]
        assert len(logs) == q
        zq = cmath.exp(principal_log(z) / q)
        for k, c in enumerate(logs):
            root_k = _per_call_unit_root(k, q)
            expected = -_per_call_unit_root(-p * k, q) * principal_log(1 - zq * root_k)
            assert c.real.hex() == expected.real.hex()
            assert c.imag.hex() == expected.imag.hex()

    def test_cache_is_bounded(self):
        maxsize = _unit_roots.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_large_q_not_cached(self):
        q = ROOT_CACHE_MAX_Q + 3
        nu = Fraction(1, q)
        assert nu.denominator == q
        before = _unit_roots.cache_info().currsize
        value = incomplete_beta(nu, 0, 0.3)
        assert _unit_roots.cache_info().currsize == before
        ref = beta_series(nu, 0.3, TIGHT).value
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


class TestEvaluation:
    # (nu, z, number of logs): q for the roots-of-unity sum, 1 for the atanh form
    @pytest.mark.parametrize(
        "nu,z,logs",
        [
            (Fraction(4), 0.9, 1),
            (Fraction(1, 2), 0.7, 1),
            (Fraction(7, 2), 2.5, 1),
            (Fraction(-5, 2), 0.4 + 0.3j, 1),
            (Fraction(5, 4), 0.3, 4),
            (Fraction(38, 5), 0.88, 5),
            (Fraction(-25, 6), 0.2 + 0.4j, 6),
            (Fraction(123, 10), 2.0, 10),
        ],
    )
    def test_closed_form_invariants(self, nu, z, logs):
        dec = decompose(nu)
        ev = reduce_beta(dec, z)
        # the traced benchmark run unpacks tuples as (value, trace) and adds
        # any tail_sum attribute to the contributions
        assert not isinstance(ev, tuple)
        assert not hasattr(ev, "tail_sum")
        assert ev.contributions() == list(ev.parts)
        assert len(ev.parts) == logs + 1
        total = fsum_complex(list(ev.parts[:-1])) + ev.parts[-1]
        assert total.real.hex() == ev.value.real.hex()
        assert total.imag.hex() == ev.value.imag.hex()
        assert ev.error_estimate == 2.0**-53 * math.fsum(abs(c) for c in ev.parts)
        assert ev.terms_or_nodes == logs + abs(dec.m)

    @pytest.mark.parametrize("nu", [Fraction(7, 3), Fraction(5, 2), Fraction(4)])
    def test_zero_argument_short_cut(self, nu):
        ev = reduce_beta(decompose(nu), 0.0)
        assert (ev.value, ev.error_estimate, ev.terms_or_nodes, ev.parts) == (0j, 0.0, 1, ())

    def test_overflowing_spread_is_a_named_error(self):
        # a finite tail sum whose modulus overflows: ValueError from the
        # estimate's validation would escape the CLI as a traceback
        with pytest.raises(OutsideDomain):
            _closed_form(Method.INTEGER_LOG, [0j], [complex(1.5e308, 1.5e308)], 2)


class TestWorkBudget:
    # |m| = MAX_TAIL_TERMS + 1 on both signs (non-positive integers diverge)
    @pytest.mark.parametrize(
        "nu",
        [
            Fraction(MAX_TAIL_TERMS + 2),
            MAX_TAIL_TERMS + 1 + Fraction(1, 2),
            -(MAX_TAIL_TERMS + 1) + Fraction(1, 2),
            MAX_TAIL_TERMS + 1 + Fraction(1, 3),
            -(MAX_TAIL_TERMS + 1) + Fraction(2, 7),
        ],
    )
    def test_refused(self, nu):
        assert abs(decompose(nu).m) == MAX_TAIL_TERMS + 1
        with pytest.raises(MaxTermsExceeded):
            incomplete_beta(nu, 0, 0.5)

    # q = 10^6 + 1 logs; a float nu such as 0.1 has q = 2^55
    @pytest.mark.parametrize(
        "nu", [Fraction(1, MAX_TAIL_TERMS + 1), Fraction(-7, MAX_TAIL_TERMS + 1), 0.1]
    )
    def test_denominator_refused(self, nu):
        assert decompose(Fraction(nu)).r.denominator > MAX_TAIL_TERMS
        with pytest.raises(MaxTermsExceeded, match="roots of unity"):
            incomplete_beta(nu, 0, 0.5)

    # (|m| = 3, |m| = 4) under a budget of 3
    @pytest.mark.parametrize(
        "inside,outside",
        [
            (Fraction(4), Fraction(5)),
            (Fraction(7, 2), Fraction(9, 2)),
            (Fraction(-5, 2), Fraction(-7, 2)),
            (Fraction(10, 3), Fraction(13, 3)),
            (Fraction(-8, 3), Fraction(-11, 3)),
        ],
    )
    def test_budget_edge(self, monkeypatch, inside, outside):
        monkeypatch.setattr(reduction, "MAX_TAIL_TERMS", 3)
        assert math.isfinite(abs(incomplete_beta(inside, 0, 0.5)))
        with pytest.raises(MaxTermsExceeded):
            incomplete_beta(outside, 0, 0.5)


class TestErrorEstimate:
    # cancellation points: the log sum and the power tail
    # cancel to a few ulps, so the error is far above |value| * 2^-53
    CANCELLING = [
        (Fraction(123, 10), 1e-3),
        (Fraction(19, 3), 1e-3),
        (Fraction(61, 10), 0.05),
        (Fraction(37, 3), 1e-3),
    ]
    ORDINARY = [(Fraction(5, 4), 0.3), (Fraction(-7, 4), 0.5), (Fraction(1, 2), 0.25)]

    @staticmethod
    def _measured_error(nu, z):
        mpmath = pytest.importorskip("mpmath")
        ev = reduce_beta(decompose(nu), z)
        with mpmath.workdps(40):
            a = mpmath.mpf(nu.numerator) / nu.denominator
            exact = mpmath.power(z, a) * mpmath.lerchphi(z, 1, a)
            return float(abs(mpmath.mpc(ev.value) - exact)), ev.error_estimate

    @pytest.mark.parametrize("nu,z", CANCELLING)
    def test_brackets_error_in_cancellation_region(self, nu, z):
        err, est = self._measured_error(nu, z)
        assert est / 100 <= err <= 100 * est

    @pytest.mark.parametrize("nu,z", ORDINARY)
    def test_bounds_error_at_ordinary_points(self, nu, z):
        err, est = self._measured_error(nu, z)
        assert err <= 100 * est

    # why q = 2 keeps its atanh log part: the two-log roots-of-unity sum
    # in its place has true relative error 1.2e-2 and 2.3e-7 at these points
    @pytest.mark.parametrize("z,bound", [(1e-3, 1e-3), (1e-2, 1e-7)])
    def test_atanh_log_part_at_small_real_z(self, z, bound):
        mpmath = pytest.importorskip("mpmath")
        nu = Fraction(9, 2)
        assert reduce_beta(decompose(nu), z).method is Method.HALF_ATANH
        err, _ = self._measured_error(nu, z)
        with mpmath.workdps(40):
            exact = abs(mpmath.power(z, 4.5) * mpmath.lerchphi(z, 1, 4.5))
        assert err <= bound * float(exact)
