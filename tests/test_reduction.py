"""Closed-form reduction engine: golden values, oracle agreement, branches."""

import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from betareduce import (
    BranchPoint,
    DivergentParameter,
    Decomposition,
    MaxTermsExceeded,
    Method,
    OutsideDomain,
    PoleInSum,
    ZeroArgument,
    beta_mu_posint,
    beta_quadrature,
    beta_series,
    connection_check,
    decompose,
    decompose_pos,
    incomplete_beta,
    int_power_over_linear,
    int_tanh_power,
    lerch_reduce,
    lerch_series,
    reduce_beta,
    reduce_beta_many,
)
from betareduce import integrals, reduction, verify
from betareduce.principal import finite_complex, fsum_complex, principal_log
from betareduce.principal import BRANCH_GUARD, rational_power
from betareduce.reduction import (
    MAX_TAIL_TERMS,
    ROOT_CACHE_MAX_Q,
    _cached_tables,
    _powers,
    _roots_and_logs,
    _spread,
    _table_arrays,
    _tables,
)

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
        assert ev.method is Method.REDUCTION
        assert ev.terms_or_nodes == 1  # q = 1: the single log -log(1 - z)
        assert ulps(ev.value.real, math.log(2)) <= 2
        assert ev.value.imag == 0.0

    def test_half_is_log3(self):
        ev = reduce_beta(decompose(Fraction(1, 2)), 0.25)
        assert ev.method is Method.REDUCTION
        assert ev.terms_or_nodes == 2  # q = 2 at real z > 0: rows 0 and q/2 = 1
        assert ulps(ev.value.real, math.log(3)) <= 2

    def test_five_fourths_matches_series_oracle(self, tight_series):
        ev = reduce_beta(decompose(Fraction(5, 4)), 0.3)
        assert ev.method is Method.REDUCTION
        assert ev.terms_or_nodes == 3 + 1  # q//2 + 1 paired logs at real z > 0, then m = 1 tail term
        value = ev.value
        assert abs(value - BETA_SERIES_5_4_AT_0_3) <= 1e-13 * BETA_SERIES_5_4_AT_0_3
        live = beta_series(Fraction(5, 4), 0.3).value
        assert abs(value - live) <= 1e-13 * abs(live)

    def test_branch_cut_imaginary_part(self):
        value = reduce_beta(decompose(Fraction(123, 10)), 2.0).value
        assert abs(value.imag + math.pi) <= 1e-12

    def test_zero_argument_gives_zero(self):
        ev = reduce_beta(decompose(Fraction(7, 3)), 0.0)
        assert ev.value == 0
        assert fsum_complex(list(ev.parts)) == 0

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
        assert ev.method is Method.REDUCTION
        assert ev.terms_or_nodes == 2 + 1  # the two q = 2 rows, then the m = -1 tail term
        ref = math.log(3) - 4.0
        assert ulps(ev.value.real, ref) <= 2
        assert ev.value.imag == 0.0

    def test_minus_three_quarters_matches_series_oracle(self, tight_series):
        value = reduce_beta(decompose(Fraction(-3, 4)), 0.5).value
        assert abs(value - BETA_SERIES_M3_4_AT_0_5) <= 1e-12 * BETA_SERIES_M3_4_AT_0_5
        live = beta_series(Fraction(-3, 4), 0.5).value
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


def _half_integer_exact(nu, z):
    # B(a, 0, z) = z^a / a * 2F1(a, 1; a + 1; z) at 40 digits; on the ray, its lower edge
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(nu.numerator) / nu.denominator
        w = mpmath.mpc(z.real, z.imag if z.imag or z.real < 1 else -mpmath.mpf(10) ** -60)
        return complex(w**a / a * mpmath.hyp2f1(a, 1, a + 1, w))


class TestFastPathConsistency:
    # q = 2 has no form of its own: its general rows against 40-digit mpmath, on and off the axes
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    @pytest.mark.parametrize("z", [0.1, 0.85, 0.4 + 0.3j, -0.6, 2.5, 7.0])
    def test_positive_half_integers(self, n, z):
        dec = decompose(n + Fraction(1, 2))
        assert dec == Decomposition(m=n, r=Fraction(1, 2))
        ev = reduce_beta(dec, z)
        exact = _half_integer_exact(n + Fraction(1, 2), complex(z))
        assert ev.method is Method.REDUCTION
        assert ev.terms_or_nodes == 2 + n  # rows 0 and 1, paired or not: row 1 = q/2 is its own pair
        assert abs(ev.value - exact) <= 1e-13 * max(1.0, abs(exact))

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("z", [0.1, 0.85, 0.4 + 0.3j, 2.5])
    def test_negative_half_integers(self, n, z):
        nu = Fraction(-n) + Fraction(1, 2)
        dec = decompose(nu)
        assert (dec.m, dec.r) == (-n, Fraction(1, 2))
        ev = reduce_beta(dec, z)
        exact = _half_integer_exact(nu, complex(z))
        assert ev.method is Method.REDUCTION
        assert ev.terms_or_nodes == 2 + n
        assert abs(ev.value - exact) <= 1e-13 * max(1.0, abs(exact))


# every closed form is one algorithm; off the real axis q decides only the number of logs, q
# (q = 1 with m < 0 is a non-positive integer, where B diverges)
@pytest.mark.parametrize(
    "q,m", [(1, 3), (2, 3), (2, -3), (3, 3), (3, -3), (97, 3), (97, -3)]
)
def test_every_closed_form_is_the_reduction(q, m):
    ev = reduce_beta(decompose(m + Fraction(1, q)), 0.3 + 0.2j)
    assert ev.method is Method.REDUCTION
    assert ev.terms_or_nodes == q + abs(m)


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
        scale = max([abs(c) for c in ev.parts] + [abs(ev.value)])
        assert abs(fsum_complex(list(ev.parts)) - ev.value) <= 4 * math.ulp(scale)


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
        # out of range, or not an int at all: the same named error, never a bare TypeError
        for m in (-1, 10**6 + 1, 1.5, "2"):
            with pytest.raises(OutsideDomain):
                beta_mu_posint(Fraction(1, 2), m, 0.5)


class TestLerchReduce:
    def test_integer_closed_form(self):
        value = lerch_reduce(decompose_pos(Fraction(1)), 0.5)
        assert ulps(value.real, 2 * math.log(2)) <= 2

    def test_half_closed_form(self):
        value = lerch_reduce(decompose_pos(Fraction(1, 2)), 0.25)
        assert ulps(value.real, 2 * math.log(3)) <= 2

    def test_matches_series_oracle(self, tight_series):
        value = lerch_reduce(decompose_pos(Fraction(7, 3)), 0.6)
        assert abs(value - LERCH_SERIES_7_3_AT_0_6) <= 1e-13 * LERCH_SERIES_7_3_AT_0_6
        live = lerch_series(0.6, 7 / 3).value
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
        assert direct.method is Method.REDUCTION
        assert direct.terms_or_nodes == 3 + 1  # q//2 + 1 paired logs, then the m = -1 tail term
        assert via_dispatch == direct.value

    @pytest.mark.parametrize(
        "nu,names",
        [
            (Fraction(1, 3), ["reduce_beta_pos"]),
            (Fraction(4), ["reduce_beta_pos"]),
            (Fraction(-5, 2), ["reduce_beta_neg"]),
            (Fraction(-7, 3), ["reduce_beta_neg"]),
        ],
    )
    def test_routes_through_one_name_per_sign(self, monkeypatch, nu, names):
        # the traced benchmark run rebinds these module names to time and
        # count every reduction
        calls = []

        def recording(name):
            original = getattr(reduction, name)

            def recorder(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(reduction, name, recorder)

        for name in ("reduce_beta_pos", "reduce_beta_neg"):
            recording(name)
        value = incomplete_beta(nu, 0, 0.3)
        assert calls == names
        assert value == reduce_beta(decompose(nu), 0.3).value

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


_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))


def _per_call_unit_root(num: int, den: int) -> complex:
    # the per-call formula the cached tables replaced, with the quarter turns exact
    if 4 * num % den == 0:
        return _QUARTER_TURNS[4 * (num % den) // den]
    ang = 2.0 * math.pi * (num % den) / den
    return complex(math.cos(ang), math.sin(ang))


class TestUnitRootTable:
    @pytest.mark.parametrize("q", list(range(2, 25)) + [97, 1000])
    def test_entries_bitwise_equal_to_per_call_formula(self, q):
        table = _tables(q)[0][0]
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
        assert len(ev.parts) == q + abs(dec.m)
        logs = ev.parts[:q]
        zq = cmath.exp(principal_log(z) / q)
        for k, c in enumerate(logs):
            root_k = _per_call_unit_root(k, q)
            expected = -_per_call_unit_root(-p * k, q) * principal_log(1 - zq * root_k)
            assert c.real.hex() == expected.real.hex()
            assert c.imag.hex() == expected.imag.hex()

    def test_cache_is_bounded(self):
        assert _cached_tables.cache_info().maxsize == 64

    # the phase table of q: fraction p/q reads row p*k mod q for its log row k, bitwise
    # the per-call formula -e^(-2*pi*i*p*k/q), in the scalar tuple and the batch array alike
    @pytest.mark.parametrize("q", [1, 3, 7, 12, 97, ROOT_CACHE_MAX_Q + 1])
    def test_phase_tables_are_the_per_call_formula(self, q):
        (_, phases), (_, table) = _tables(q)[0], _table_arrays(q)
        assert not table.flags.writeable and table.tolist() == list(phases)
        for p in [p for p in range(1, q + 1) if math.gcd(p, q) == 1][:12]:
            for k in range(q):
                phase, expected = phases[p * k % q], -_per_call_unit_root(-p * k, q)
                assert (phase.real.hex(), phase.imag.hex()) == (
                    expected.real.hex(),
                    expected.imag.hex(),
                )

    def test_phase_cache_is_bounded_and_skips_large_q(self):
        # the phases live in the roots' cache entry: one lookup per q gives both
        before = _cached_tables.cache_info()
        _tables(ROOT_CACHE_MAX_Q + 1)
        assert _cached_tables.cache_info() == before
        assert _tables(5) is _cached_tables(5)

    # the arrays are made on the batch's first use of q: a scalar call leaves the slot empty
    def test_scalar_call_builds_no_array(self):
        _cached_tables.cache_clear()
        incomplete_beta(Fraction(2, 7), 0, 0.3 + 0.2j)
        assert _tables(7)[1] is None
        reduce_beta_many(decompose(Fraction(2, 7)), [0.3])
        assert _tables(7)[1] is _table_arrays(7)

    def test_large_q_not_cached(self, tight_series):
        q = ROOT_CACHE_MAX_Q + 3
        nu = Fraction(1, q)
        assert nu.denominator == q
        before = _cached_tables.cache_info().currsize
        value = incomplete_beta(nu, 0, 0.3)
        assert _cached_tables.cache_info().currsize == before
        ref = beta_series(nu, 0.3).value
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))

    # the batch reads the arrays of the same cache entry, so it follows the same rules
    def test_batch_table_cache_is_bounded(self):
        maxsize = _cached_tables.cache_info().maxsize
        for q in range(2, maxsize + 10):
            reduce_beta_many(decompose(Fraction(1, q)), [0.3])
        assert _cached_tables.cache_info().currsize == maxsize

    @pytest.mark.parametrize("nu", [Fraction(5, 7), Fraction(-11, 12), Fraction(23, 97)])
    def test_batch_tables_are_the_scalar_tables(self, nu):
        dec = decompose(nu)
        q = dec.r.denominator
        reduce_beta_many(dec, [0.3])
        hits = _cached_tables.cache_info().hits
        reduce_beta_many(dec, [0.3, 2.5])
        assert _cached_tables.cache_info().hits == hits + 1
        (roots, phases), (root_table, phase_table) = _tables(q)[0], _table_arrays(q)
        for tup, table in ((roots, root_table), (phases, phase_table)):
            assert not table.flags.writeable
            assert table.tolist() == list(tup)

    def test_batch_large_q_not_cached(self):
        dec = decompose(Fraction(1, ROOT_CACHE_MAX_Q + 3))
        before = _cached_tables.cache_info()
        zs = [0.3, 2.5, 0.2 + 0.4j]
        values = reduce_beta_many(dec, zs)
        assert _cached_tables.cache_info() == before
        for z, value in zip(zs, values):
            ev = reduce_beta(dec, z)
            assert abs(value - ev.value) <= 64 * (ev.error_estimate + dec.r.denominator * 2**-53)
        assert _cached_tables.cache_info() == before


class TestEvaluation:
    # (nu, z, number of logs): q for the roots-of-unity sum, q//2 + 1 paired rows at real z > 0
    @pytest.mark.parametrize(
        "nu,z,logs",
        [
            (Fraction(4), 0.9, 1),
            (Fraction(1, 2), 0.7, 2),
            (Fraction(7, 2), 2.5, 2),
            (Fraction(-5, 2), 0.4 + 0.3j, 2),
            (Fraction(5, 4), 0.3, 3),
            (Fraction(38, 5), 0.88, 3),
            (Fraction(-25, 6), 0.2 + 0.4j, 6),
            (Fraction(123, 10), 2.0, 6),
        ],
    )
    def test_closed_form_invariants(self, nu, z, logs):
        dec = decompose(nu)
        ev = reduce_beta(dec, z)
        # the traced benchmark run adds any tail_sum attribute to its sum|parts|
        assert not hasattr(ev, "tail_sum")
        assert len(ev.parts) == ev.terms_or_nodes == logs + abs(dec.m)
        total = fsum_complex(list(ev.parts))
        assert total.real.hex() == ev.value.real.hex()
        assert total.imag.hex() == ev.value.imag.hex()
        assert ev.error_estimate == 2.0**-53 * math.fsum(abs(c) for c in ev.parts)

    @pytest.mark.parametrize("nu", [Fraction(7, 3), Fraction(5, 2), Fraction(4)])
    def test_zero_argument_short_cut(self, nu):
        ev = reduce_beta(decompose(nu), 0.0)
        assert (ev.value, ev.error_estimate, ev.terms_or_nodes, ev.parts) == (0j, 0.0, 1, ())

    def test_overflowing_spread_is_a_named_error(self):
        # a finite part whose modulus overflows: ValueError from the
        # estimate's validation would escape the CLI as a traceback
        with pytest.raises(OutsideDomain):
            _spread([0j, complex(1.5e308, 1.5e308)])


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

    # q = 2's two rows at small real z take the log1p rule of |z^(1/q)| < 1/2; plain
    # log(1 - w) rows had true relative error 1.2e-2 and 2.3e-7 at these points
    @pytest.mark.parametrize("z,bound", [(1e-3, 1e-3), (1e-2, 1e-7)])
    def test_atanh_log_part_at_small_real_z(self, z, bound):
        mpmath = pytest.importorskip("mpmath")
        nu = Fraction(9, 2)
        ev = reduce_beta(decompose(nu), z)
        assert ev.method is Method.REDUCTION
        assert ev.terms_or_nodes == 2 + 4  # rows 0 and q/2 = 1, then the m = 4 tail terms
        err, _ = self._measured_error(nu, z)
        with mpmath.workdps(40):
            exact = abs(mpmath.power(z, 4.5) * mpmath.lerchphi(z, 1, 4.5))
        assert err <= bound * float(exact)


def _outcome(call):
    try:
        value = complex(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return value.real.hex(), value.imag.hex()


def _evaluation_value(dec, z):
    return reduce_beta(dec, z).value


NEAR_MAX_Q = decompose(1 + Fraction(ROOT_CACHE_MAX_Q + 2, ROOT_CACHE_MAX_Q + 3))


@st.composite
def pinned_decompositions(draw):
    q = draw(st.sampled_from([1, 2, 3, 7, 12, 97, ROOT_CACHE_MAX_Q + 3]))
    p = draw(st.integers(1, q).filter(lambda p: math.gcd(p, q) == 1))
    m = draw(st.integers(0 if q == 1 else -12, 12))  # m < 0 at q = 1 is a divergent integer
    return decompose(m + Fraction(p, q))


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
SIGN = st.sampled_from([1.0, -1.0])
PINNED_POINTS = st.one_of(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.builds(complex, st.floats(1.0, 1e6, exclude_min=True), SIGNED_ZERO),
    st.builds(complex, st.floats(-1e6, 0.0, exclude_max=True), SIGNED_ZERO),
    st.complex_numbers(min_magnitude=1.0, max_magnitude=1e300, allow_nan=False, allow_infinity=False),
    st.builds(lambda re, im: 1e-300 * complex(re, im), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.builds(
        lambda s, x, im: complex(s * x, im), SIGN, st.floats(2.0**1000, 1.7e308), st.floats(-1.7e308, 1.7e308)
    ),
    st.builds(lambda d, t: 1 + cmath.rect(d, t), st.floats(1e-17, 1e-13), st.floats(-math.pi, math.pi)),
    st.sampled_from([0j, complex(-0.0, -0.0), 1 + 0j, complex(1.0, -0.0), complex(1 + 1e-15, 0.0)]),
)


class TestValuePathIsTheEvaluation:
    """Every value caller reads ``reduce_beta(dec, z).value``: bitwise its value, same errors."""

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dec=pinned_decompositions(), z=PINNED_POINTS)
    @example(dec=decompose(Fraction(2)), z=complex(1.5e308, 1.5e308))  # |1 - z| overflows
    @example(dec=NEAR_MAX_Q, z=complex(1.5e308, 1.5e308))  # a tail part near the overflow
    @example(dec=NEAR_MAX_Q, z=complex(1.7e308, 1.7e308))  # its modulus overflows
    @example(dec=decompose(Fraction(5, 2)), z=complex(0.25, 0.0))  # q = 2 at a real z in (0, 1)
    def test_value_callers(self, dec, z):
        nu = dec.reconstruct()
        expected = _outcome(lambda: _evaluation_value(dec, z))
        assert _outcome(lambda: incomplete_beta(nu, 0, z)) == expected
        # the batch's own value where it finishes the point, the scalar one where it leaves None
        batch = reduction._grouped_rows([dec], [z])[0][0]
        assert _outcome(lambda: reduce_beta_many(dec, [z])[0]) == (
            expected if batch is None else _outcome(lambda: batch)
        )
        lerch = lambda d: finite_complex(  # noqa: E731
            _evaluation_value(d, z) * rational_power(z, -d.reconstruct()), "Phi(z, 1, nu)"
        )
        assert _outcome(lambda: lerch_reduce(dec, z)) == _outcome(lambda: lerch(dec))
        assert _outcome(lambda: int_power_over_linear(nu, z)) == _outcome(
            lambda: lerch(decompose_pos(nu))
        )
        x = abs(z.real)
        t = math.tanh(x)
        if nu > 0 and 0 < x < math.inf and t**2 >= sys.float_info.min:  # the kernel's branch
            assert _outcome(lambda: int_tanh_power(nu, x)) == _outcome(
                lambda: 0.5 * _evaluation_value(dec, complex(t**2)).real
            )


class TestOneFinisher:
    """``reduce_beta`` is the only code that finishes a closed form: every value caller reaches it
    exactly once per point it evaluates, so no caller keeps a lean sum of its own."""

    @pytest.fixture
    def reached(self, monkeypatch):
        points = []

        def counting(dec, z):
            points.append(z)
            return finish(dec, z)

        finish = reduction.reduce_beta
        for module in (reduction, integrals, verify):
            monkeypatch.setattr(module, "reduce_beta", counting)
        return points

    def test_scalar_value_callers(self, reached):
        z, third = 0.3 + 0.2j, Fraction(7, 3)
        incomplete_beta(third, 0, z)
        lerch_reduce(decompose(third), z)
        int_power_over_linear(third, z)
        assert reached == [z, z, z]
        int_tanh_power(third, 0.5)
        assert reached[3:] == [complex(math.tanh(0.5) ** 2)]

    def test_point_the_batch_leaves(self, reached):
        huge = complex(2.0**1001)  # a lane past the batch's limit
        assert reduce_beta_many(decompose(Fraction(1, 3)), [0.5, huge, 0.25])[1] is not None
        assert reached == [huge]

    def test_verification_point_at_one(self, reached):
        records = verify.run_verification([Fraction(1, 3), Fraction(5, 2)], [0.5, 1.0], 1e-10)[0]
        assert [rec.note for rec in records] == ["", "BranchPoint"] * 2
        assert reached == [1.0, 1.0]


def _reference_parts(dec, z):
    """The kernel's parts as first formulated: the batch helpers on [z], one log per row."""
    z = finite_complex(z)
    if z == 0:
        if dec.m < 0:
            raise ZeroArgument("negative powers of z require z != 0")
        return []
    if z == 1:
        raise BranchPoint("z = 1 is the logarithmic branch point")
    p, q = dec.r.numerator, dec.r.denominator
    roots, logs = _roots_and_logs([z], q)
    zq, zk = roots[0], _powers(roots, logs, dec.r)[0]
    roots, phases = _tables(q)[0]
    # a real z > 0 pairs the conjugate rows k and q - k: rows 0 .. q//2 only
    paired = z.imag == 0 and z.real > 0
    rows = q // 2 + 1 if paired else q
    if zq.real * zq.real + zq.imag * zq.imag < 0.25:
        # |zq| < 1/2: log(1 - u) from the parts of u, log1p of |1 - u|^2 - 1 and the angle
        us = [(u.real, u.imag) for u in (zq * root for root in roots[:rows])]
        logs = [complex(0.5 * math.log1p(x * x + y * y - 2 * x), math.atan2(-y, 1 - x)) for x, y in us]
    else:
        ws = [1 - zq * root for root in roots[:rows]]
        try:
            near = min(map(abs, ws))
        except OverflowError as exc:
            raise OutsideDomain(f"log argument {ws[0]} outside the double range") from exc
        if near < BRANCH_GUARD:
            k = next(k for k, w in enumerate(ws) if abs(w) < BRANCH_GUARD)
            raise BranchPoint(
                f"log argument {ws[k]} within {BRANCH_GUARD} of the branch point (k={k}, q={q})"
            )
        logs = [principal_log(w) for w in ws]
    parts = [phases[p * k % q] * lw for k, lw in enumerate(logs)]
    if paired:
        # row 0 whole, twice the real part of rows 0 < k < q/2, the real part of row q/2
        half = (q + 1) // 2
        parts[1:] = [complex(2 * t.real) for t in parts[1:half]] + [complex(t.real) for t in parts[half:]]
    r = p / q
    for k in range(dec.m):
        parts.append(-zk / (k + r))
        zk *= z
    for k in range(-1, dec.m - 1, -1):
        zk /= z
        parts.append(zk / (k + r))
    return parts


def _parts_outcome(call):
    try:
        parts = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [(t.real.hex(), t.imag.hex()) for t in parts]


class TestKernelAsFirstFormulated:
    """The scalar kernel's inline root, power and list of row logs are bitwise the batch helpers'."""

    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dec=pinned_decompositions(), z=PINNED_POINTS)
    @example(dec=decompose(12 + Fraction(1, 97)), z=complex(1e-300, 0.0))  # z**-1165/97 overflows
    @example(dec=decompose(Fraction(12)), z=complex(1e-300, 0.0))  # z**-12 overflows
    @example(dec=decompose(-12 + Fraction(1, 3)), z=complex(1e300, -0.0))  # z**35/3 overflows
    @example(dec=decompose(Fraction(-7, 2)), z=complex(-2.0, -0.0))  # the +pi edge at q = 2
    @example(dec=decompose(Fraction(1, 3)), z=0j)  # 0 to a negative power in lerch_reduce
    def test_parts_and_lerch(self, dec, z):
        kernel = reduction.reduce_beta_pos if dec.m >= 0 else reduction.reduce_beta_neg
        assert _parts_outcome(lambda: kernel(dec, z)) == _parts_outcome(
            lambda: _reference_parts(dec, z)
        )
        reference = lambda: finite_complex(  # noqa: E731
            reduce_beta(dec, z).value * rational_power(z, -dec.reconstruct()), "Phi(z, 1, nu)"
        )
        assert _outcome(lambda: lerch_reduce(dec, z)) == _outcome(reference)
