"""Branch conventions of the principal-valued helpers."""

import cmath
import copy
import math
import pickle
import sys

import numpy as np
import pytest

from betareduce import ZeroArgument, principal_log, principal_sqrt, rational_power
from betareduce import BetaReduceError, BranchPoint, Evaluation, Method, OutsideDomain
from betareduce.principal import BRANCH_GUARD, exponent_parts, fsum_complex, principal_logs
from betareduce.principal import rational_powers, row_logs, row_logs_array
from betareduce.reduction import _tables
from fractions import Fraction
from hypothesis import given, settings, strategies as st


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


def _before(fn):
    # the helpers as first written: complex() on every argument, then -0.0 -> +0.0
    def helper(w):
        w = complex(w)
        if w.imag == 0.0:
            w = complex(w.real, 0.0)
        return fn(w)

    return helper


def _bits(call, w):
    try:
        out = call(w)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return type(out).__name__, out.real.hex(), out.imag.hex()


def _named_log(w):
    # cmath.log, with its ValueError at 0 given the package's named error
    try:
        return cmath.log(w)
    except ValueError:
        raise BranchPoint("log of 0, the logarithmic branch point") from None


PRINCIPAL = [(principal_log, _before(_named_log)), (principal_sqrt, _before(cmath.sqrt))]
ARGUMENTS = [
    complex(-1.0, 0.0), complex(-1.0, -0.0), complex(2.5, 0.0), complex(2.5, -0.0),
    complex(-0.0, -0.0), complex(0.0, 0.0), complex(-3.0, 0.5), complex(0.2, -7.0),
    -1.0, -2.5, -0.0, 0.0, 3.0, -4, 0, 7, True, False, Fraction(-1, 3), Fraction(5, 2),
    np.float64(-2.0), np.float64(-0.0), np.complex128(complex(-2.0, -0.0)),
    np.complex128(complex(-2.0, 0.5)), complex(math.inf, -0.0), complex(math.nan, 0.0),
]


class TestPrincipalHelpersAsBefore:
    """The helpers pass a complex straight to cmath; every value and error stays bitwise."""

    @pytest.mark.parametrize("w", ARGUMENTS, ids=repr)
    @pytest.mark.parametrize("helper,before", PRINCIPAL, ids=["log", "sqrt"])
    def test_listed_arguments(self, helper, before, w):
        assert _bits(helper, w) == _bits(before, w)

    @settings(max_examples=300, deadline=None)
    @given(
        re=st.floats(allow_nan=False, allow_infinity=False),
        im=st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_complex_arguments(self, re, im):
        for helper, before in PRINCIPAL:
            assert _bits(helper, complex(re, im)) == _bits(before, complex(re, im))


def _logs_outcome(call):
    try:
        return [(w.real.hex(), w.imag.hex()) for w in call()]
    except Exception as exc:
        return type(exc).__name__, str(exc)


EDGE_LANES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308])
LOG_ROWS = st.builds(
    complex,
    EDGE_LANES | st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]) | EDGE_LANES | st.floats(allow_nan=False, allow_infinity=False),
)


class TestPrincipalLogs:
    """The list form is bitwise one principal_log per row, the +pi edge and error included."""

    def test_negative_axis_takes_plus_pi_for_either_zero(self):
        logs = principal_logs([complex(-2.0, 0.0), complex(-2.0, -0.0), complex(-5e-324, -0.0)])
        assert [w.imag for w in logs] == [math.pi] * 3

    @settings(max_examples=500, deadline=None)
    @given(ws=st.lists(LOG_ROWS, max_size=12))
    def test_rows_are_principal_log(self, ws):
        assert _logs_outcome(lambda: principal_logs(ws)) == _logs_outcome(
            lambda: [principal_log(w) for w in ws]
        )


# z^(1/q) as the kernels form it, in the principal sector |arg| <= pi/q, a (modulus, arg*q/pi)
# pair: moduli from 1e-300 to 1e300, real and positive with either zero sign (the paired lanes
# of the batch), and next to 1, inside, at and past the guard band of row 0
ROW_MODULI = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
ROW_POINTS = st.one_of(
    st.tuples(ROW_MODULI, st.floats(-1.0, 1.0)),
    st.builds(complex, ROW_MODULI | st.floats(0.5, 2.0), st.sampled_from([0.0, -0.0])),
    st.builds(
        lambda d, t: 1 + cmath.rect(d, t),
        st.sampled_from([0.0, 1e-16, 4e-15, 9e-15, 1.5e-14, 3e-14, 1e-12]),
        st.floats(-math.pi, math.pi),
    ),
)


class TestRowLogs:
    """The list form and the numpy form of the closed form's row logs agree, refusals included."""

    @settings(max_examples=400, deadline=None)
    @given(
        q=st.sampled_from([1, 2, 3, 4, 7, 12, 97]),
        points=st.lists(ROW_POINTS, min_size=1, max_size=8),
        paired=st.booleans(),
    )
    def test_forms_agree_row_by_row(self, q, points, paired):
        roots = _tables(q)[0]
        root_array = np.array(roots)
        rows = q // 2 + 1 if paired else q
        zqs = [cmath.rect(p[0], p[1] * math.pi / q) if isinstance(p, tuple) else p for p in points]
        with np.errstate(all="ignore"):  # log(0) at z^(1/q) = 1, as in the batch
            log_w, near = row_logs_array(np.array(zqs), root_array[:rows])
        assert log_w.shape == (rows, len(zqs)) and near.shape == (len(zqs),)
        for column, zq in enumerate(zqs):
            try:
                logs = row_logs(zq, roots, rows)
            except BranchPoint:
                assert near[column], zq
                continue
            for root, lw, lw_array in zip(roots, logs, log_w[:, column].tolist()):
                # numpy may fuse the product zq*root: that rounding of w = 1 - zq*root reaches
                # the log divided by |w|, so next to the band the forms differ in more than 1 ulp
                slack = max(1.0, abs(lw)) + (1 + 4 * abs(zq)) / abs(1 - zq * root)
                assert abs(lw - lw_array) <= 4 * 2**-53 * slack, (zq, lw, lw_array)

    def test_branch_point_names_its_row(self):
        roots = _tables(7)[0]
        with pytest.raises(BranchPoint, match=r"of the branch point \(k=3, q=7\)"):
            row_logs(roots[3].conjugate() * (1 + 1e-15), roots)
        # from one to twice the guard band the list form evaluates, the numpy form marks the lane
        zq = roots[4].conjugate() * (1 + 1.5 * BRANCH_GUARD)
        assert len(row_logs(zq, roots)) == 7
        assert row_logs_array(np.array([zq, 0.5]), np.array(roots))[1].tolist() == [True, False]

    def test_overflowing_row_is_outside_domain(self):
        with pytest.raises(OutsideDomain, match="outside the double range"):
            row_logs(complex(1.5e308, 1.5e308), [complex(1.0)])

    # at |zq| < 1/2 the rows keep the digits of 1 - u that the plain log drops at small |u|
    @pytest.mark.parametrize("q", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("zq", [1e-200, -1e-30, 1e-20 + 1e-20j, 1e-9j, 0.1 - 0.3j, 0.49])
    def test_small_rows_hold_their_digits(self, q, zq):
        mpmath = pytest.importorskip("mpmath")
        roots = _tables(q)[0]
        root_array = np.array(roots)
        zq = complex(zq)
        log_w, near = row_logs_array(np.array([zq]), root_array)
        assert not near[0]
        for root, lw, lw_array in zip(roots, row_logs(zq, roots), log_w[:, 0].tolist()):
            with mpmath.workdps(40):
                exact = mpmath.log1p(-mpmath.mpc(zq) * mpmath.mpc(root))
            for value in (lw, lw_array):
                assert abs(value - exact) <= 4 * 2**-53 * abs(exact), (zq, root, value)

    # the quarter turns are exact: at q = 2 row 1 of a real zq is the real log(1 + zq)
    def test_half_turn_row_is_real(self):
        roots = _tables(2)[0]
        assert roots == (complex(1.0, 0.0), complex(-1.0, 0.0))
        assert _tables(4)[0][1::2] == (complex(0.0, 1.0), complex(0.0, -1.0))
        for zq in (1e-300, 0.3, 0.9, 3.0):
            row = row_logs(complex(zq, 0.0), roots)[1]
            assert row.imag == 0.0 and abs(row.real - math.log1p(zq)) <= 2**-52 * row.real, zq


class TestNamedRefusals:
    """0 is the branch point of the logs."""

    @pytest.mark.parametrize("w", [0, 0.0, -0.0, 0j, complex(-0.0, -0.0), False])
    def test_log_of_zero(self, w):
        with pytest.raises(BranchPoint, match="log of 0"):
            principal_log(w)
        with pytest.raises(BranchPoint, match="log of 0"):
            principal_logs([complex(2.0), complex(w)])


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


def power_outcome(evaluate):
    """The bits of every power, or the type of the first refusal."""
    try:
        return [(repr(w.real), repr(w.imag)) for w in evaluate()]
    except BetaReduceError as exc:
        return type(exc)


# |z| log-uniform in [1e-300, 0.999]: both edges of the positive and negative real axis, the
# imaginary axis and off the axes
MODULI = st.floats(-300.0, math.log10(0.999)).map(lambda e: 10.0**e)
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
POWER_POINTS = st.one_of(
    st.builds(complex, MODULI | MODULI.map(lambda r: -r), SIGNED_ZERO),
    st.builds(complex, SIGNED_ZERO, MODULI | MODULI.map(lambda r: -r)),
    st.builds(cmath.rect, MODULI, st.floats(-math.pi, math.pi)),
)
# p/q of both signs with integer parts up to 600: at small |z| they overflow, underflow
# (z**-k divides by an underflowed z**k) and turn non-finite
EXPONENTS = st.sampled_from([1, 2, 3, 12, 97]).flatmap(
    lambda q: st.builds(
        lambda n, p: Fraction(n * q + p, q),
        st.integers(-600, 600),
        st.integers(1 - q, q - 1).filter(lambda p: p or q == 1),
    )
)


class TestRationalPowers:
    @settings(max_examples=500, deadline=None)
    @given(z=POWER_POINTS, expos=st.lists(EXPONENTS, min_size=1, max_size=6))
    def test_shared_log_is_each_single_call(self, z, expos):
        parts = [exponent_parts(expo) for expo in expos]
        assert power_outcome(lambda: rational_powers(z, parts)) == power_outcome(
            lambda: [rational_power(z, expo) for expo in expos]
        )

    @pytest.mark.parametrize(
        "z,expos,refusal",
        [
            (1e-3, [Fraction(1, 3), Fraction(1, 2), Fraction(-2000, 3)], OutsideDomain),  # overflow
            (1e-200, [Fraction(5, 2), Fraction(-2)], OutsideDomain),  # z**2 underflows
            (0.0, [Fraction(3, 2), Fraction(5), Fraction(-1, 2)], ZeroArgument),
            (0.0, [Fraction(3, 2), Fraction(5)], None),
            (complex(-0.5, -0.0), [Fraction(1, 3), Fraction(-1, 2), Fraction(7, 12)], None),
        ],
    )
    def test_first_refusal_is_the_single_calls_refusal(self, z, expos, refusal):
        singles = power_outcome(lambda: [rational_power(z, expo) for expo in expos])
        assert singles == refusal if refusal else isinstance(singles, list)
        parts = [exponent_parts(expo) for expo in expos]
        assert power_outcome(lambda: rational_powers(z, parts)) == singles

    def test_parts_split_toward_zero(self):
        assert exponent_parts(Fraction(-7, 3)) == (Fraction(-7, 3), -2, -1, 3)
        assert exponent_parts(Fraction(37, 3)) == (Fraction(37, 3), 12, 1, 3)
        assert exponent_parts(5) == (5, 5, 0, 1)
        assert exponent_parts(0.5) == (Fraction(1, 2), 0, 1, 2)


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

    def test_contract(self):
        fields = ("value", "method", "error_estimate", "terms_or_nodes", "parts")
        values = (1j, Method.REDUCTION, 0.5, 2, (1j, 0j))
        ev = Evaluation(*values)
        assert tuple(getattr(ev, name) for name in fields) == values
        assert Evaluation(1j, Method.SERIES, 0.0, 1).parts == ()
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(ev, name, None)
        with pytest.raises(AttributeError):
            del ev.value
        same = Evaluation(**dict(zip(fields, values)))
        assert ev == same and hash(ev) == hash(same) and not ev != same
        for k, other in enumerate([2j, Method.SERIES, 0.25, 3, (1j,)]):
            changed = Evaluation(*values[:k], other, *values[k + 1 :])
            assert ev != changed
        assert repr(ev) == (
            "Evaluation(value=1j, method=<Method.REDUCTION: 'Reduction'>, error_estimate=0.5,"
            " terms_or_nodes=2, parts=(1j, 0j))"
        )

    def test_pickles(self):
        ev = Evaluation(1j, Method.REDUCTION, 0.5, 2, (1j, 0j))
        assert pickle.loads(pickle.dumps(ev)) == ev

    # a tuple of its five fields with no __dict__, whose copies keep their type and whose
    # _make and _replace (copy.replace on 3.13+) check their fields as the constructor does
    def test_tuple_record(self):
        values = (1j, Method.REDUCTION, 0.5, 2, (1j, 0j))
        ev = Evaluation(*values)
        assert ev == tuple(ev) == values and ev[0] == 1j and hash(ev) == hash(values)
        assert not hasattr(ev, "__dict__")
        copies = [copy.deepcopy(ev), Evaluation._make(values), ev._replace()]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copies.append(pickle.loads(pickle.dumps(ev, protocol)))
        for other in copies:
            assert type(other) is Evaluation and other == ev
        bad = [{"error_estimate": -1.0}, {"error_estimate": math.nan}, {"terms_or_nodes": 0}]
        for fields in bad:
            with pytest.raises(ValueError):
                ev._replace(**fields)
            with pytest.raises(ValueError):
                Evaluation._make({**ev._asdict(), **fields}.values())

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
    @pytest.mark.parametrize("fields", [{"error_estimate": -1.0}, {"terms_or_nodes": 0}])
    def test_copy_replace_checks(self, fields):
        ev = Evaluation(1j, Method.REDUCTION, 0.5, 2, (1j, 0j))
        assert copy.replace(ev, value=2j) == (2j, *ev[1:])
        with pytest.raises(ValueError):
            copy.replace(ev, **fields)
