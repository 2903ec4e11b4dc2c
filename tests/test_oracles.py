"""Series and quadrature oracles: trivial values, self-consistency, cross-checks."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from betareduce import (
    BetaReduceError,
    DivergentParameter,
    Evaluation,
    MaxTermsExceeded,
    Method,
    OutsideDomain,
    QuadratureNonConvergence,
    beta_quadrature,
    beta_series,
    decompose,
    decompose_pos,
    default_nu_grid,
    default_z_grid,
    lerch_reduce,
    lerch_series,
    phi_quadrature,
    rational_power,
    reduce_beta,
)
from betareduce import oracles, principal
from betareduce.principal import exponent_parts, fsum_complex, rational_powers


class TestLerchSeries:
    def test_z_zero_single_term(self):
        out = lerch_series(0.0, 4.0)
        assert out.value == 0.25
        assert out.error_estimate == 0.0

    def test_closed_form_at_one(self):
        out = lerch_series(0.5, 1.0)
        assert abs(out.value - 2 * math.log(2)) <= 4 * math.ulp(2 * math.log(2))

    def test_error_estimate_is_tight_at_large_z(self, monkeypatch):
        out = lerch_series(0.9, 1.5)
        assert out.error_estimate <= 1e-12 * abs(out.value)
        # halving the stopping tolerance moves the value by less than the reported estimate
        monkeypatch.setattr(oracles, "SERIES_REL_TOL", 0.5e-16)
        refined = lerch_series(0.9, 1.5)
        assert abs(out.value - refined.value) <= out.error_estimate

    # the first term 1/nu is near the double limit: its rounding bound must not overflow
    # into an infinite estimate, which Evaluation refuses with a bare ValueError
    @pytest.mark.parametrize("z", [0.5, 0.5 + 0.1j, -0.3])
    def test_estimate_finite_at_tiny_nu(self, z):
        for out in (lerch_series(z, 1e-308), beta_series(Fraction(1, 10**308), z)):
            assert math.isfinite(out.error_estimate)
            assert out.error_estimate <= 1e-14 * abs(out.value)

    def test_negative_non_integer_nu(self):
        out = lerch_series(0.3, -0.5)
        assert math.isfinite(abs(out.value))

    @pytest.mark.parametrize("nu", [0.0, -1.0, -7.0])
    def test_divergent_parameters(self, nu):
        with pytest.raises(DivergentParameter):
            lerch_series(0.5, nu)

    # |z| of the last one is beyond the double range: abs(z) used to raise a bare OverflowError
    @pytest.mark.parametrize("z", [1.0, -1.0, 1.2, 0.8 + 0.8j, complex(1.7e308, 1.7e308)])
    def test_outside_domain(self, z):
        with pytest.raises(OutsideDomain):
            lerch_series(z, 1.0)

    # nan used to spin through the 10^7-term budget; nu = inf returned 0j
    # ids spell Phi's (s, nu); the oracle evaluates s = 1 only
    @pytest.mark.parametrize(
        "nu", [pytest.param(nu, id=f"1.0-{nu}") for nu in (math.nan, math.inf, -math.inf)]
    )
    def test_non_finite_s_or_nu_rejected(self, nu):
        with pytest.raises(OutsideDomain):
            lerch_series(0.5, nu)

    def test_max_terms_exceeded(self, monkeypatch):
        monkeypatch.setattr(oracles, "SERIES_MAX_TERMS", 50)
        with pytest.raises(MaxTermsExceeded):
            lerch_series(0.9, 1.0)

    # the series at 1 - 1e-15 needs about 4e16 terms: the bound refuses it before the term
    # loop starts, where the loop used to spend its whole 10^7-term budget (seconds) first
    def test_hopeless_z_refused_before_any_term(self, monkeypatch):
        def no_loop(*args):
            raise AssertionError("the term loop started")

        monkeypatch.setattr(oracles, "range", no_loop, raising=False)
        refusal = f"no convergence within {oracles.SERIES_MAX_TERMS} terms"
        with pytest.raises(MaxTermsExceeded, match=refusal):
            lerch_series(1 - 1e-15, 1.0)
        for nu in (Fraction(1, 3), Fraction(37, 3), Fraction(-7, 4)):
            with pytest.raises(MaxTermsExceeded, match=refusal):
                beta_series(nu, 1 - 1e-15)


class TestBetaSeries:
    def test_correction_beyond_budget_refused(self, monkeypatch):
        # -m = 200 correction terms against a budget of 100; the series at r = 1/3 needs ~50
        monkeypatch.setattr(oracles, "SERIES_MAX_TERMS", 100)
        with pytest.raises(MaxTermsExceeded):
            beta_series(Fraction(-599, 3), 0.5)
        assert math.isfinite(abs(beta_series(Fraction(-299, 3), 0.5).value))

    def test_half_is_log3(self, tight_series):
        out = beta_series(Fraction(1, 2), 0.25)
        assert abs(out.value - math.log(3)) <= 4 * math.ulp(math.log(3))
        assert out.method is Method.SERIES

    def test_z_zero(self):
        out = beta_series(Fraction(123, 10), 0.0)
        assert out.value == 0

    def test_figure_parameter_agrees_with_reduction(self, tight_series):
        out = beta_series(Fraction(123, 10), 0.5)
        red = reduce_beta(decompose(Fraction(123, 10)), 0.5).value
        assert abs(out.value - red) <= 1e-12 * max(1.0, abs(out.value))

    def test_negative_uses_shifted_split(self):
        out = beta_series(Fraction(-3, 4), 0.5)
        assert out.method is Method.SHIFTED_SERIES

    def test_monotone_partial_sums_for_real_input(self, tight_series):
        # positive terms: every truncation lies below the full sum
        nu, z = Fraction(5, 4), 0.6
        full = beta_series(nu, z).value.real
        partial = 0.0
        zk = rational_power(z, nu).real
        for k in range(40):
            prev = partial
            partial += zk / (k + float(nu))
            zk *= z
            assert partial > prev
            assert partial < full + 1e-15

    def test_shift_identity_term_for_term(self, tight_series):
        # B(n + r, 0, z) = B(r, 0, z) - sum_{k<n} z^(k+r)/(k+r)
        r, z = Fraction(2, 7), 0.55
        for n in (1, 2, 3):
            shifted = beta_series(n + r, z).value
            base = beta_series(r, z).value
            correction = sum(
                rational_power(z, k + r) / float(k + r) for k in range(n)
            )
            assert abs(shifted - (base - correction)) <= 1e-14 * max(1.0, abs(base))

    def test_divergent_and_domain(self):
        with pytest.raises(DivergentParameter):
            beta_series(Fraction(-2), 0.5)
        with pytest.raises(OutsideDomain):
            beta_series(Fraction(1, 2), 1.1)
        with pytest.raises(OutsideDomain):  # |z| overflows: abs(z) used to raise OverflowError
            beta_series(Fraction(1, 2), complex(1.7e308, 1.7e308))
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
            lerch_series(z, 0.5)

    def test_overflowing_correction_is_a_named_error(self):
        # z^(r-k) overflows over the 667-term finite correction; this used to return nan+nanj
        with pytest.raises(OutsideDomain):
            beta_series(Fraction(-2000, 3), 1e-3)

    # the series parameter a rounds to 0.0: the value, about z^a/a, is beyond the double
    # range; the first term 1/a used to raise a bare ZeroDivisionError.  An a that
    # overflows (the value underflows) used to raise a bare OverflowError
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: beta_series(Fraction(1, 10**400), 0.5),
            lambda: beta_series(Fraction(-(10**400) + 1, 10**400), 0.5),  # r = 1e-400
            # the columns leave the refusal to beta_series: that nu alone has no value
            lambda: oracles.beta_series_columns([Fraction(1, 3), Fraction(1, 10**400)], [0.5])[1]
            == [[beta_series(Fraction(1, 3), 0.5).value, None]]
            and beta_series(Fraction(1, 10**400), 0.5),
            lambda: beta_series(Fraction(10**400), 0.5),
            lambda: beta_series(Fraction(3 * 10**400 + 1, 3), 0.5),
        ],
    )
    def test_underflowing_parameter_is_outside_domain(self, evaluate):
        with pytest.raises(OutsideDomain, match="does not round to a finite non-zero double"):
            evaluate()


# |z| in [1e-9, 0.995], log-uniform, on every ray, on both edges of the real axis, and imaginary
MODULI = st.floats(-9.0, math.log10(0.995)).map(lambda e: 10.0**e)
ANGLES = st.floats(-math.pi, math.pi)
BLOCK_POINTS = st.one_of(
    st.builds(cmath.rect, MODULI, ANGLES),
    st.builds(complex, MODULI, st.sampled_from([0.0, -0.0])),
    st.builds(complex, MODULI.map(lambda r: -r), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.sampled_from([0.0, -0.0]), MODULI.map(lambda r: -r) | MODULI),
)
# the a of the beta series (fractions and integers), other positive floats, large a, whose
# terms stop later than the first columns estimate, and negative non-integers, which the
# caller's a >= 1e-300 screen keeps out but which the block sums alike
A_VALUES = st.one_of(
    st.sampled_from([1 / 3, 2 / 3, 0.5, 1.0, 2.0, 5 / 12, 37 / 3]),
    st.floats(1e-3, 40.0),
    st.floats(1e2, 1e6),
    st.floats(-5.0, -1e-3).filter(lambda a: a != math.floor(a)),
)


def total_bits(total):
    return None if total is None else (repr(total.real), repr(total.imag))


def assert_block_is_scalar(z, avals):
    """The single pass of z alone, a one-member group, is the scalar loop's total bitwise, and None
    exactly where it cannot finish: every row when its columns do not fit in a block, else each
    row the loop stops after them."""
    block = oracles._sums_inverse_linear([z], avals)
    columns = math.ceil(math.log(oracles.SERIES_REL_TOL) / math.log(abs(z))) + 4
    if columns > principal.BATCH_CELLS:
        assert block is None
        return
    (block,) = block
    expected = []
    for a in avals:
        total, _, terms = oracles._sum_inverse_linear(z, a)
        expected.append(total_bits(total) if terms <= columns else None)
    assert [total_bits(total) for total in block] == expected


# groups of 1-4 z that share a column count and a lane: points of one ring, real points of one
# modulus with either sign and either zero, and the signed-zero twins 0.5 and complex(0.5, -0.0);
# real moduli from 0.6 on too, where a large a at -|z| stops past the columns and leaves its row None
RING_GROUPS = st.builds(
    lambda r, angles: [cmath.rect(r, t) for t in angles],
    MODULI,
    st.lists(ANGLES, min_size=1, max_size=4),
).filter(lambda zs: all(z.imag for z in zs))
SIGNS = st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([0.0, -0.0]))
REAL_GROUPS = st.builds(
    lambda r, signs: [complex(sign * r, zero) for sign, zero in signs],
    MODULI | st.floats(0.6, 0.995),
    st.lists(SIGNS, min_size=1, max_size=4),
)
GROUPS = (RING_GROUPS | REAL_GROUPS | st.just([0.5, complex(0.5, -0.0)])).filter(
    lambda zs: len({oracles._block_columns(z) for z in zs}) == 1
)


def assert_group_is_its_members(zs, avals):
    """Each member's sums in the group's block are bitwise its own one-member block's."""
    group = oracles._sums_inverse_linear(zs, avals)
    singles = [oracles._sums_inverse_linear([z], avals) for z in zs]
    if group is None:
        assert singles == [None] * len(zs)
        return
    assert [[total_bits(total) for total in sums] for sums in group] == [
        [total_bits(total) for total in sums] for (sums,) in singles
    ]


class TestSeriesBlock:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(z=BLOCK_POINTS, avals=st.lists(A_VALUES, min_size=1, max_size=8))
    def test_block_is_the_scalar_loop_bitwise(self, z, avals):
        assert_block_is_scalar(z, avals + avals[:1])  # one duplicate at least

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(z=BLOCK_POINTS, avals=st.lists(A_VALUES, min_size=1, max_size=8))
    def test_small_blocks_fall_back_bitwise(self, z, avals):
        # 40 cells: small |z| runs in blocks of a few rows, larger |z| is refused
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(principal, "BATCH_CELLS", 40)
            assert_block_is_scalar(z, avals + avals[:1])

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(zs=GROUPS, avals=st.lists(A_VALUES, min_size=1, max_size=6), data=st.data())
    def test_group_is_each_member_alone_bitwise(self, zs, avals, data):
        # the default budget holds the whole group; a budget of fewer (z, a) rows splits it
        # over z, and one below a single z's a over a as well
        columns = oracles._block_columns(zs[0])
        rows = data.draw(st.none() | st.integers(1, len(zs) * len(avals)), label="rows")
        with pytest.MonkeyPatch.context() as patch:
            if rows:
                spare = data.draw(st.integers(0, columns - 1), label="spare cells")
                patch.setattr(principal, "BATCH_CELLS", rows * columns + spare)
            assert_group_is_its_members(zs, avals)
            for z in zs:  # and each member alone is the scalar loop, None where it is today
                assert_block_is_scalar(z, avals)

    # the ring of the default grid is one group of 11 z with 58 columns; at 5 rows a block it
    # runs in 11 blocks of one z, each in 2 blocks of a
    def test_default_ring_is_one_group(self, monkeypatch):
        ring = default_z_grid()[18:]
        avals = [1 / 3, 0.5, 2 / 3, 5 / 12, 37 / 3, 1.0, 2.0]
        assert {oracles._block_columns(z) for z in ring} == {58} and all(z.imag for z in ring)
        assert_group_is_its_members(ring, avals)
        monkeypatch.setattr(principal, "BATCH_CELLS", 5 * 58)
        assert_group_is_its_members(ring, avals)

    # a = 1e4 stops after 359 terms at -0.9, past the 354 columns: in a group of the signed-zero
    # twins its rows alone are None, split over z or not
    @pytest.mark.parametrize("rows", [None, 2, 1])
    def test_group_leaves_unstopped_rows_none(self, monkeypatch, rows):
        if rows:
            monkeypatch.setattr(principal, "BATCH_CELLS", rows * 354)
        twins = [-0.9, complex(-0.9, -0.0), complex(-0.9, 0.0)]
        block = oracles._sums_inverse_linear(twins, [0.5, 1e4])
        assert [[total is None for total in sums] for sums in block] == [[False, True]] * 3
        assert_group_is_its_members(twins, [0.5, 1e4])

    # the series parameters of the default grid, of the verify-grid window grid and of
    # --n-max 3 --q-max 20, and a up to 10^4: one pass finishes every row
    def test_default_grid_needs_no_fallback(self, monkeypatch):
        calls = []
        monkeypatch.setattr(oracles, "_sum_inverse_linear", lambda z, a: calls.append((z, a)))
        avals = [float(nu) for nu in default_nu_grid(n_max=6, q_max=12, side="pos")]
        for nus in (default_nu_grid(0, 8), default_nu_grid(3, 20)):
            avals += [oracles._series_split(nu)[1] for nu in nus]
        avals += [10.0**k + 1 / 3 for k in (2, 3, 4)]
        for z in default_z_grid():
            (totals,) = oracles._sums_inverse_linear([z], avals)
            assert None not in totals
        assert calls == []

    def test_growth_and_fallback_columns(self, monkeypatch):
        scalar = oracles._sum_inverse_linear
        calls = []
        monkeypatch.setattr(
            oracles, "_sum_inverse_linear", lambda z, a: calls.append(a) or scalar(z, a)
        )
        # a = 1e4 stops after 359 terms, past the 354 columns of the single pass: its row
        # alone is None, and the row of 0.5 keeps its total
        (totals,) = oracles._sums_inverse_linear([-0.9], [0.5, 1e4])
        assert [total_bits(total) for total in totals] == [total_bits(scalar(-0.9, 0.5)[0]), None]
        monkeypatch.setattr(principal, "BATCH_CELLS", 40)
        avals = [0.5, 1.5, 2.5, 3.5]  # 12 columns, 3 rows a block
        (totals,) = oracles._sums_inverse_linear([0.01], avals)
        assert [total_bits(total) for total in totals] == [
            total_bits(scalar(0.01, a)[0]) for a in avals
        ]
        assert oracles._sums_inverse_linear([-0.5], [-0.5, 0.5]) is None  # 58 columns pass 40
        assert calls == []


def value_bits(value, method):
    return repr(value.real), repr(value.imag), method


def scalar_value_bits(nus, z):
    return [value_bits(ev.value, ev.method) for ev in (beta_series(nu, z) for nu in nus)]


def first_scalar_error(nus, z):
    try:
        for nu in nus:
            beta_series(nu, z)
    except BetaReduceError as exc:
        return type(exc)
    return None


def assert_points_are_scalar(nus, z, column, methods):
    """Each value is bitwise beta_series's, and each point beta_series refuses is None."""
    assert len(column) == len(nus)
    for nu, value, method in zip(nus, column, methods):
        if first_scalar_error([nu], z) is not None:
            assert value is None, nu
        elif value is not None:
            assert value_bits(value, method) == scalar_value_bits([nu], z)[0], nu


# the columns of beta_series_columns(nus, [z]) against the scalar loop
class TestBetaSeriesMany:
    # both signs, shifted siblings that share one series, integers, duplicates
    NUS = default_nu_grid(n_max=2, q_max=7) + [Fraction(1), Fraction(3), Fraction(1, 2), Fraction(-5, 2)]

    @pytest.mark.parametrize("z", default_z_grid() + [complex(-0.3, -0.0), 1e-9j, 0.99])
    def test_evaluations_are_the_scalar_ones(self, z):
        methods, (column,) = oracles.beta_series_columns(self.NUS, [z])
        assert [value_bits(v, m) for v, m in zip(column, methods)] == scalar_value_bits(self.NUS, z)

    # z = 0 is outside the pass: each point is None, for beta_series alone; the methods are its own
    def test_z_zero_is_the_scalar_loop(self):
        nus = [nu for nu in self.NUS if nu > 0]
        methods, columns = oracles.beta_series_columns(nus, [0.0])
        assert columns == [[None] * len(nus)]
        assert methods == [beta_series(nu, 0.0).method for nu in nus]

    @pytest.mark.parametrize(
        "nus,z",
        [
            ([Fraction(1, 3), Fraction(-1, 3)], 0.0),
            ([Fraction(1, 3), Fraction(5, 2)], 1.2),
            ([Fraction(-7, 4), Fraction(1, 3)], complex(0.0, 1.2)),
            ([Fraction(1, 3), Fraction(-2), Fraction(1, 2)], 0.5),
            ([Fraction(-2), Fraction(1, 3)], 1.2),
            ([Fraction(1, 3), Fraction(-2000, 3), Fraction(0)], 1e-3),
            ([Fraction(1, 2)], complex(math.nan, 0.0)),
        ],
    )
    def test_refusal_is_the_first_scalar_error(self, nus, z):
        assert first_scalar_error(nus, z) is not None
        methods, (column,) = oracles.beta_series_columns(nus, [z])
        assert_points_are_scalar(nus, z, column, methods)
        # the pass finishes 0.5 and 1e-3, where only the refused points are None: the split
        # of -2 or 0, and the point of -2000/3, whose correction overflows; it takes no other z
        finished = z in (0.5, 1e-3)
        assert [value is None for value in column] == [
            not finished or first_scalar_error([nu], z) is not None for nu in nus
        ]

    def test_correction_budget_is_the_scalar_one(self, monkeypatch):
        monkeypatch.setattr(oracles, "SERIES_MAX_TERMS", 100)
        nus = [Fraction(1, 3), Fraction(-599, 3)]
        assert first_scalar_error(nus, 0.5) is MaxTermsExceeded
        # the split of -599/3 is refused by the budget: only its own values are missing
        assert oracles.beta_series_columns(nus, [0.5, 0.25]) == (
            [Method.SERIES, Method.SHIFTED_SERIES],
            [[beta_series(nus[0], z).value, None] for z in (0.5, 0.25)],
        )

    # an a below 1e-300 would make the single pass refuse every column; that nu alone is
    # left to beta_series, which evaluates it (a = 1e-301, the value about 1e301)
    def test_tiny_parameter_leaves_only_its_own_points(self):
        nus, zs = [Fraction(1, 3), Fraction(1, 10**301), Fraction(-5, 2)], [0.5, 0.25j]
        methods, columns = oracles.beta_series_columns(nus, zs)
        for z, column in zip(zs, columns):
            assert column[1] is None
            assert [value_bits(column[i], methods[i]) for i in (0, 2)] == scalar_value_bits(
                [nus[0], nus[2]], z
            )
            assert math.isfinite(abs(beta_series(nus[1], z).value))


    # the series of 10^4 stops after 359 terms, past the 354 columns of the pass at -0.9:
    # its point alone is None, and the point of 1/2 keeps its value
    def test_row_that_does_not_stop_leaves_only_its_own_point(self):
        nus = [Fraction(1, 2), Fraction(10**4)]
        methods, (column,) = oracles.beta_series_columns(nus, [-0.9])
        assert column[1] is None
        assert value_bits(column[0], methods[0]) == scalar_value_bits(nus[:1], -0.9)[0]


# 0 < |z| < 1 down to the least subnormal, log-uniform, on every ray and on both zero signs of
# the axes: the z the single pass takes
DISK_MODULI = st.floats(math.log10(5e-324), 0.0).map(lambda e: 10.0**e).filter(
    lambda r: 0.0 < r < 1.0
) | st.sampled_from([5e-324, 1e-310, 1.0 - 2.0**-53])
DISK_POINTS = st.one_of(
    st.builds(cmath.rect, DISK_MODULI, ANGLES),
    st.builds(complex, DISK_MODULI | DISK_MODULI.map(lambda r: -r), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.sampled_from([0.0, -0.0]), DISK_MODULI | DISK_MODULI.map(lambda r: -r)),
).filter(lambda z: 0.0 < abs(z) < 1.0)


# every exponent of the pass is positive, so at 0 < |z| < 1 a prefactor can only underflow:
# beta_series_columns calls rational_powers with no refusal to catch
@settings(max_examples=500, deadline=None)
@given(
    nus=st.lists(st.builds(Fraction, st.integers(-10**5, 10**5), st.integers(1, 97)), max_size=8),
    z=DISK_POINTS,
)
def test_pass_prefactors_are_never_refused(nus, z):
    expos = []
    for nu in nus:
        try:
            split = oracles._series_split(nu)
        except (BetaReduceError, ArithmeticError):
            continue
        if split[1] >= 1e-300:  # the splits the pass keeps
            expos.append(split[0])
    assert all(expo > 0 for expo in expos)
    assert len(rational_powers(z, [exponent_parts(expo) for expo in expos])) == len(expos)


# both signs with |n| up to 50 (at small |z| the correction overflows), positive integers
SERIES_NUS = st.builds(Fraction, st.integers(-600, 600), st.integers(1, 12)).filter(
    lambda nu: nu > 0 or nu.denominator > 1
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nus=st.lists(SERIES_NUS, min_size=1, max_size=10), z=BLOCK_POINTS)
def test_many_is_the_scalar_loop_field_by_field(nus, z):
    nus = nus + nus[:1]  # one duplicate at least
    methods, (column,) = oracles.beta_series_columns(nus, [z])
    assert_points_are_scalar(nus, z, column, methods)
    if first_scalar_error(nus, z) is None:
        # every point evaluates: None only where the single pass could not finish this z, or
        # the row of that nu alone
        block = oracles._sums_inverse_linear([z], [oracles._series_split(nu)[1] for nu in nus])
        missing = [True] * len(nus) if block is None else [total is None for total in block[0]]
        assert [value is None for value in column] == missing


def _loop_without_bound(z, a):
    """oracles._sum_inverse_linear's term loop, without its up-front refusal."""
    terms = []
    running = 0j
    zk = complex(1.0)
    small = 0
    for k in range(oracles.SERIES_MAX_TERMS):
        term = zk / (k + a)
        terms.append(term)
        running += term
        last = abs(term)
        if last <= oracles.SERIES_REL_TOL * abs(running):
            small += 1
            if small >= 3:
                total = fsum_complex(terms)
                return total, last / (1.0 - abs(z)) + oracles._rounding(z, terms, total), k + 1
        else:
            small = 0
        zk *= z
    raise MaxTermsExceeded(
        f"no convergence within {oracles.SERIES_MAX_TERMS} terms (|z| = {abs(z)})"
    )


def _sum_outcome(sum_series, z, a):
    try:
        return sum_series(z, a)
    except MaxTermsExceeded as exc:
        return str(exc)


# |z| = 1 - 10^-u: the loop stops within budgets of 200 to 20,000 terms up to about u = 2.7
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    budget=st.integers(200, 20_000),
    u=st.floats(0.5, 6.0),
    angle=ANGLES,
    a=st.floats(1e-3, 50.0) | st.floats(-50.0, -1e-3).filter(lambda a: a != math.floor(a)),
)
def test_up_front_refusal_is_the_loops_outcome(budget, u, angle, a):
    z = cmath.rect(1.0 - 10.0**-u, angle)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "SERIES_MAX_TERMS", budget)
        assert _sum_outcome(oracles._sum_inverse_linear, z, a) == _sum_outcome(
            _loop_without_bound, z, a
        )


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

    # the refusals at z = 0.5 name nu.  1/nu of 1e-310 overflows, and its error estimate used
    # to come out inf, so that Evaluation raised a bare ValueError; 1/nu of 1e-308 passes
    # 2^1023, where QUADPACK's sums overflow (it used to raise QuadratureNonConvergence); the
    # integrand of (2, -5000, 0.9) overflows (it used to raise a bare OverflowError)
    @pytest.mark.parametrize(
        "nu,mu,z",
        [(0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.0, -0.3),
         (1e-310, 0.0, 0.5), (1e-308, 0.0, 0.5), (2.0, -5000.0, 0.9)],
    )
    def test_outside_domain(self, nu, mu, z):
        with pytest.raises(OutsideDomain, match="nu" if z == 0.5 else None):
            beta_quadrature(nu, mu, z)

    # 1/nu below 2^1023 still computes: B(nu, 0, z) is about 1/nu there
    def test_tiny_nu_below_the_screen_computes(self):
        assert beta_quadrature(1.5e-308, 0.0, 0.5).value == 6.666666666666667e307

    # NaN used to run QUADPACK to its roundoff abort (QuadratureNonConvergence)
    @pytest.mark.parametrize(
        "nu,mu,z",
        [(math.nan, 0.0, 0.5), (math.inf, 0.0, 0.5), (0.5, math.nan, 0.5), (0.5, math.inf, 0.5),
         (0.5, -math.inf, 0.5), (0.5, 0.0, math.nan)],
    )
    def test_non_finite_parameters_rejected(self, nu, mu, z):
        with pytest.raises(OutsideDomain):
            beta_quadrature(nu, mu, z)


class TestPhiQuadrature:
    def test_at_z_zero(self):
        out = phi_quadrature(0.0, 1.0)
        assert abs(out.value - 1.0) <= 1e-13

    def test_closed_form(self):
        out = phi_quadrature(0.5, 1.0)
        assert abs(out.value - 2 * math.log(2)) <= 1e-13

    def test_matches_reduction_bridge(self):
        out = phi_quadrature(0.5, 7 / 3)
        red = lerch_reduce(decompose_pos(Fraction(7, 3)), 0.5)
        assert abs(out.value - red) <= 1e-10

    def test_negative_z(self, tight_series):
        out = phi_quadrature(-0.7, 1.5)
        ser = lerch_series(-0.7, 1.5)
        diff = abs(out.value - ser.value)
        assert diff <= out.error_estimate + ser.error_estimate
        assert diff <= ser.error_estimate + 2 * math.ulp(out.value.real)

    @pytest.mark.parametrize("nu", [1e-3, 1e6])
    @pytest.mark.parametrize("z", [0.5, -0.7])
    def test_small_and_large_nu_match_series(self, z, nu):
        out = phi_quadrature(z, nu)
        ser = lerch_series(z, nu)
        assert abs(out.value - ser.value) <= ser.error_estimate + 2 * math.ulp(out.value.real)

    # Phi(0, 1, nu) = 1/nu: e^(-nu*t) decays slowly for small nu, and for large nu the
    # rule's first nodes in t itself all underflow from nu of about 2e5: 0.0, estimate 0.0
    @pytest.mark.parametrize("nu", [1e-3, 1e4, 1e6, 1e300])
    def test_small_and_large_nu_at_z_zero(self, nu):
        out = phi_quadrature(0.0, nu)
        assert abs(out.value - 1 / nu) <= out.error_estimate
        assert abs(out.value - 1 / nu) <= 1e-13 / nu

    # the small-nu floor: below nu of about 2e-5 QUADPACK often stops short, and at
    # nu = 1e-6 it does at every z; the oracle raises the named error, never a value
    @pytest.mark.parametrize("z", [-100.0, -3.0, -0.99, -0.5, 0.0, 0.3, 0.5, 0.9, 0.99, 0.999])
    def test_small_nu_floor_is_non_convergence(self, z):
        with pytest.raises(QuadratureNonConvergence):
            phi_quadrature(z, 1e-6)

    # ids spell Phi's (z, s, nu); the oracle evaluates s = 1 only
    @pytest.mark.parametrize(
        "z,nu", [pytest.param(z, nu, id=f"{z}-1.0-{nu}") for z, nu in ((1.0, 1.0), (0.5, 0.0))]
    )
    def test_outside_domain(self, z, nu):
        with pytest.raises(OutsideDomain):
            phi_quadrature(z, nu)

    def test_quadpack_warning_is_non_convergence(self, monkeypatch):
        import scipy.integrate

        def warned(*args):
            # QUADPACK's full output when it stops short: a fourth element, the message
            return 0.5, 1.0, {"neval": 21}, "The maximum number of subdivisions (200) has been achieved."

        monkeypatch.setattr(scipy.integrate, "quad", warned)
        with pytest.raises(QuadratureNonConvergence, match="subdivisions"):
            phi_quadrature(0.5, 1.0)
        with pytest.raises(QuadratureNonConvergence, match="subdivisions"):
            beta_quadrature(0.5, 0.0, 0.25)

    # NaN used to reach the quadrature rule before QuadratureNonConvergence
    @pytest.mark.parametrize(
        "z,nu",
        [
            pytest.param(z, nu, id=f"{z}-1.0-{nu}")
            for z, nu in ((math.nan, 1.0), (-math.inf, 1.0), (0.5, math.nan), (0.5, math.inf))
        ],
    )
    def test_non_finite_parameters_rejected(self, z, nu):
        with pytest.raises(OutsideDomain):
            phi_quadrature(z, nu)


class TestCrossAgreement:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 7 / 3, 12.3])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_series_vs_integral(self, nu, z):
        ser = lerch_series(z, nu)
        quad = phi_quadrature(z, nu)
        diff = abs(ser.value - quad.value)
        assert diff <= ser.error_estimate + quad.error_estimate
        assert diff <= ser.error_estimate + 2 * math.ulp(quad.value.real)

    def test_halving_quadrature_tolerance_self_consistent(self, monkeypatch):
        monkeypatch.setattr(oracles, "PHI_REL_TOL", 1e-10)
        coarse = phi_quadrature(0.5, 1.5)
        monkeypatch.setattr(oracles, "PHI_REL_TOL", 0.5e-10)
        fine = phi_quadrature(0.5, 1.5)
        assert abs(coarse.value - fine.value) <= coarse.error_estimate


@pytest.mark.parametrize("z", [-1e6, -5.0, -0.7, 0.0, 0.1, 0.5, 0.9, 0.99, 0.9999])
@pytest.mark.parametrize("nu", [1e-3, 0.05, 0.5, 1.0, 1.5, 7 / 3, 12.3, 50.0, 1e4, 1e6])
def test_phi_quadrature_against_mpmath(nu, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = mpmath.re(mpmath.lerchphi(mpmath.mpf(z), 1, mpmath.mpf(nu)))
        out = phi_quadrature(z, nu)
        err = float(abs(mpmath.mpf(out.value.real) - exact))
        exact = float(exact)
    assert out.value.imag == 0.0
    assert err <= out.error_estimate
    assert err <= 1e-14 * exact


# the series oracles' estimates bound their error: the tail bound alone fell short of the
# rounding at about half of these points
SERIES_ZS = [-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99]


@pytest.mark.parametrize("nu", [1e-3, 0.1, 1 / 3, 0.5, 1.0, 2.5, 10.0, 50.0])
def test_lerch_series_estimate_bounds_its_error(nu):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z in SERIES_ZS:
            out = lerch_series(z, nu)
            err = abs(mpmath.mpc(out.value) - mpmath.lerchphi(mpmath.mpf(z), 1, mpmath.mpf(nu)))
            assert err <= out.error_estimate, (z, float(err), out.error_estimate)


@pytest.mark.parametrize(
    "nu",
    [Fraction(1, 1000), Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(5, 2),
     Fraction(10), Fraction(-7, 3), Fraction(-1, 2)],
    ids=str,
)
def test_beta_series_estimate_bounds_its_error(nu):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(nu.numerator) / nu.denominator
        for z in [z for z in SERIES_ZS if z]:
            out = beta_series(nu, z)
            w = mpmath.mpc(z)
            err = abs(mpmath.mpc(out.value) - mpmath.power(w, a) * mpmath.lerchphi(w, 1, a))
            assert err <= out.error_estimate, (z, float(err), out.error_estimate)


class TestResultType:
    def test_every_oracle_returns_an_evaluation_without_parts(self):
        for out in (
            lerch_series(0.5, 1.0),
            beta_series(Fraction(-3, 4), 0.5),
            beta_quadrature(0.5, 0.0, 0.25),
            phi_quadrature(0.5, 1.0),
        ):
            assert isinstance(out, Evaluation)
            assert out.parts == ()
