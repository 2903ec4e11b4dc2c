"""reduce_beta_many against its reference, the scalar reduce_beta loop, and the
grouped rows of reduce_beta_rows against reduce_beta_many."""

import cmath
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from betareduce import (
    BetaReduceError,
    Decomposition,
    MaxTermsExceeded,
    Status,
    decompose,
    default_z_grid,
    incomplete_beta,
    reduce_beta,
    reduce_beta_many,
    run_verification,
)
from betareduce import principal
from betareduce.reduction import MAX_TAIL_TERMS, reduce_beta_rows


def bound(dec, ev):
    # one ulp of each part plus one ulp of each log argument (|w| ~ 1), with room
    return 64 * (ev.error_estimate + dec.r.denominator * 2**-53)


def outcome(fn):
    try:
        return fn()
    except BetaReduceError as exc:
        return type(exc), str(exc)


def scalar_loop(dec, zs):
    return [reduce_beta(dec, z).value for z in zs]


# -- property: batch within a few units of the scalar error estimate ----------

QS = list(range(1, 25)) + [97, 101, 1000]


@st.composite
def decompositions(draw):
    q = draw(st.sampled_from(QS))
    if q == 1:  # integers: nu = m + 1 > 0
        return Decomposition(draw(st.integers(0, 12)), Fraction(1))
    p = draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    return Decomposition(draw(st.integers(-12, 12)), Fraction(p, q))


ANGLES = st.floats(-math.pi, math.pi)
POINTS = st.one_of(
    st.builds(cmath.rect, st.floats(1e-3, 0.999), ANGLES),  # the unit disk
    st.builds(complex, st.floats(1.0, 20.0, exclude_min=True)),  # the ray z > 1
    st.builds(cmath.rect, st.floats(1.0, 10.0, exclude_min=True), ANGLES),  # 1 < |z| <= 10
    st.builds(complex, st.floats(-10.0, -1e-3), st.sampled_from([0.0, -0.0])),  # the cut's other side
    st.builds(cmath.rect, st.floats(1e-3, 1e-2), ANGLES),  # small |z|
).filter(lambda z: abs(1 - z) >= 0.05)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dec=decompositions(), zs=st.lists(POINTS, min_size=1, max_size=8))
def test_batch_matches_scalar(dec, zs):
    batch = reduce_beta_many(dec, zs)
    assert len(batch) == len(zs)
    for z, value in zip(zs, batch):
        ev = reduce_beta(dec, z)
        assert abs(value - ev.value) <= bound(dec, ev), (dec, z, value, ev.value)


@pytest.mark.parametrize(
    "nu", [Fraction(1, 3), Fraction(-7, 4), Fraction(123, 10), Fraction(5), Fraction(7, 2), Fraction(-5, 2)]
)
def test_default_grid_and_figure_ray(nu):
    dec = decompose(nu)
    ray = [complex(1.1 + 0.3 * j, zero) for j in range(30) for zero in (0.0, -0.0)]
    for z, value in zip(default_z_grid() + ray, reduce_beta_many(dec, default_z_grid() + ray)):
        ev = reduce_beta(dec, z)
        assert abs(value - ev.value) <= bound(dec, ev)
    # the package branch: Im B = -pi on the ray, whatever the sign of Im z = 0
    for value in reduce_beta_many(dec, ray):
        assert abs(value.imag + math.pi) <= 1e-12


def bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


# real z > 0 pairs conjugate rows, every other z does not: decided per lane, never per chunk
MIXED = st.one_of(
    st.builds(complex, st.floats(1e-3, 20.0), st.sampled_from([0.0, -0.0])),  # real z > 0
    st.builds(complex, st.floats(-10.0, -1e-3), st.sampled_from([0.0, -0.0])),  # negative reals
    st.builds(cmath.rect, st.floats(1e-3, 10.0), ANGLES),  # complex points
    st.builds(cmath.rect, st.floats(1e-3, 1e-2), ANGLES),  # small |z|
).filter(lambda z: abs(1 - z) >= 0.05)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dec=decompositions(), zs=st.lists(MIXED, min_size=1, max_size=10))
def test_each_lane_independent_of_its_batch(dec, zs):
    batch = bits(reduce_beta_many(dec, zs))
    assert bits(reduce_beta_many(dec, [z])[0] for z in zs) == batch
    width = dec.r.denominator + dec.n
    for cells in (width, 2 * width + 1, 3 * width):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(principal, "BATCH_CELLS", cells)
            assert bits(reduce_beta_many(dec, zs)) == batch


# Im B is exactly -pi on the ray and 0 on (0, 1), by construction: the rows k and q - k
# pair, and row 0 alone holds the imaginary part (q = 1 has no m < 0: nu = m + 1 > 0);
# the 0 is +0.0, the exactly rounded sum of zeros, whatever the sign of Im z = 0
@pytest.mark.parametrize(
    "q,m", [(q, m) for q in (1, 2, 3, 10, 97, 1000) for m in (-3, 0, 5) if q > 1 or m >= 0]
)
def test_real_axis_imaginary_part_exact(q, m):
    dec = Decomposition(m, Fraction(1, q))
    for zero in (0.0, -0.0):
        ray = [complex(1.0 + 0.05 * 1.37**j, zero) for j in range(24)]
        assert all(v.imag == -math.pi for v in reduce_beta_many(dec, ray)), (dec, zero)
        segment = [complex(0.023 * j, zero) for j in range(1, 41)]
        imags = [v.imag for v in reduce_beta_many(dec, segment)]
        assert all(math.copysign(1.0, im) == 1.0 and im == 0.0 for im in imags), (dec, zero)


@st.composite
def paired_decompositions(draw):
    q = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 12, 97]))
    if q == 1:  # integers: nu = m + 1 > 0
        return Decomposition(draw(st.integers(0, 12)), Fraction(1))
    p = draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    return Decomposition(draw(st.integers(-12, 12)), Fraction(p, q))


# the scalar kernel pairs the rows as the batch does, so every path meets the paper's identity
# bit for bit: Im B is 0 on (0, 1) and -pi on the ray z > 1, whatever the sign of Im z = 0
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    dec=paired_decompositions(),
    x=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0, 1e6, exclude_min=True, exclude_max=True),
    ).filter(lambda x: abs(1 - x) > 1e-10),
    zero=st.sampled_from([0.0, -0.0]),
)
def test_scalar_real_axis_imaginary_part_exact(dec, x, zero):
    assume(dec.m >= 0 or x > 1e-20)  # below, z^(m + p/q) overflows for m = -12
    z = complex(x, zero)
    value = incomplete_beta(dec.reconstruct(), 0, z)
    if x < 1:
        assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0, (dec, z, value)
    else:
        assert value.imag == -math.pi, (dec, z, value)
    ev = reduce_beta(dec, z)
    assert ev.value == value
    assert abs(reduce_beta_many(dec, [z])[0] - value) <= bound(dec, ev), (dec, z, value)


# at q = 2 the batch finishes a real z in (0, 1) with the general rows, as the scalar kernel does
@pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(9, 2), Fraction(-3, 2)])
def test_half_integer_unit_segment_is_the_scalar_value(nu):
    dec = decompose(nu)
    segment = [0.05 * k for k in range(1, 20)] + [1e-3, complex(0.3, -0.0)]
    batch = reduce_beta_many(dec, segment + [0.3 + 0.2j, -0.5, 2.5])
    for z, value in zip(segment, batch):
        ev = reduce_beta(dec, z)
        assert abs(value - ev.value) <= bound(dec, ev), (nu, z)


# -- named-error parity: the batch raises what the scalar loop raises first ---

REFUSED = [
    (Fraction(1, 3), [0.5, 1.0, 0.25]),  # z = 1
    (Fraction(-1, 3), [0.5, 0.0]),  # z = 0 needs m >= 0
    (Fraction(1, 3), [0.5, math.inf]),
    (Fraction(7, 2), [0.5, complex(0.2, math.nan)]),
    (Fraction(1, 3), [0.5, 1 + 1e-15]),  # guard band, q = 3
    (Fraction(3, 2), [0.5, 1 + 1e-15]),  # guard band, q = 2
    (Fraction(2000, 3), [2.0, 3.0, 0.5]),  # the z^k tail overflows at z = 3
    (Fraction(-2000, 3), [0.5, 1e-3]),  # the z^-k tail overflows at z = 1e-3
    (Fraction(2), [0.5, complex(1.5e308, 1.5e308)]),  # |1 - z| overflows
    (Fraction(1, 3), [math.inf, 1.0]),  # the first refusal wins
    (Fraction(1, 3), [1.0, math.inf]),
    (MAX_TAIL_TERMS + 1 + Fraction(1, 3), [0.5]),
    (-(MAX_TAIL_TERMS + 1) + Fraction(2, 7), [0.5]),
    (Fraction(MAX_TAIL_TERMS + 2), [0.0, 0.5]),
    (Fraction(1, MAX_TAIL_TERMS + 1), [0.5, 2.0]),  # q past the budget
]


@pytest.mark.parametrize("nu,zs", REFUSED)
def test_refusal_parity(nu, zs):
    dec = decompose(nu)
    expected = outcome(lambda: scalar_loop(dec, zs))
    assert isinstance(expected, tuple)
    assert outcome(lambda: reduce_beta_many(dec, zs)) == expected


def test_work_budget_refused_before_any_array(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # any array would fail with an ImportError
    with pytest.raises(MaxTermsExceeded):
        reduce_beta_many(decompose(MAX_TAIL_TERMS + 1 + Fraction(1, 3)), [0.5])


@pytest.mark.parametrize("nu", [Fraction(1, 3), Fraction(7, 2), Fraction(4), Fraction(123, 10)])
def test_zero_argument_is_exactly_zero(nu):
    values = reduce_beta_many(decompose(nu), [0.5, 0.0, complex(0.0, -0.0), 0.25])
    assert [repr(v) for v in values[1:3]] == ["0j", "0j"]


def test_parts_beyond_the_limit_left_to_the_scalar_path():
    # the tail of B(2000/3, 0, 2.88) has parts near 1e303: finite, but past 2^1000
    dec = decompose(Fraction(2000, 3))
    ev = reduce_beta(dec, 2.88)
    assert max(abs(p) for p in ev.parts) > 2.0**1000
    assert reduce_beta_many(dec, [0.5, 2.88]) == [reduce_beta_many(dec, [0.5])[0], ev.value]


def test_empty():
    assert reduce_beta_many(decompose(Fraction(1, 3)), []) == []


# -- chunking -------------------------------------------------------------------


@pytest.mark.parametrize(
    "nu", [Fraction(1, 3), Fraction(-7, 4), Fraction(123, 10), Fraction(5), Fraction(4, 97), Fraction(-23, 7)]
)
def test_chunk_budget_does_not_change_values(monkeypatch, nu):
    dec = decompose(nu)
    zs = [cmath.rect(0.2 + 0.05 * j, 0.7 * j) for j in range(40)] + [1.5 + j for j in range(9)]
    if dec.m >= 0:
        zs.insert(17, 0.0)  # a point left to the scalar path inside a chunk
    reference = reduce_beta_many(dec, zs)
    width = dec.r.denominator + dec.n
    for cells in (width, 2 * width + 1, 7 * width):
        monkeypatch.setattr(principal, "BATCH_CELLS", cells)
        assert reduce_beta_many(dec, zs) == reference


def test_column_beyond_budget_runs_the_scalar_path(monkeypatch):
    dec = decompose(Fraction(123, 10))
    monkeypatch.setattr(principal, "BATCH_CELLS", dec.r.denominator + dec.n - 1)
    zs = [0.3, 2.5, 0.4 + 0.3j]
    assert reduce_beta_many(dec, zs) == scalar_loop(dec, zs)


# -- grouped rows: one log table per (q, z) ------------------------------------

# several q, several p per q, both signs, shifts up to +-6, q = 1 and q = 2, the
# non-positive integer -2, which decompose refuses, and 2000/3, whose tail passes 2^1000
# at z = 2.88
GROUPED_NUS = (
    [
        m + Fraction(p, q)
        for q in (2, 3, 5, 12)
        for p in range(1, q)
        if math.gcd(p, q) == 1
        for m in (-6, -1, 0, 3, 6)
    ]
    + [Fraction(n) for n in (1, 4, 7)]
    + [Fraction(-2), Fraction(2000, 3)]
)
GROUPED_ZS = [
    # regular points, real z > 0 among them (paired lanes), and both zeros of the cut
    default_z_grid()[::2] + [2.5, complex(1.5, -0.0), -0.5, 1e-3j, 2.88],
    [0.5, 0.3 + 0.2j, 0.0],  # z = 0 refuses every m < 0
    [0.5, 1.0],  # the branch point refuses every row
    [2.0, 1 + 1e-15, 0.3],  # inside the guard band
]


def left_to_the_caller(dec, z):
    """Whether the batch leaves None a point that the scalar kernel evaluates."""
    return (
        dec.r.denominator + dec.n > principal.BATCH_CELLS
        or z == 0
        or max(max(abs(p.real), abs(p.imag)) for p in reduce_beta(dec, z).parts) >= 2.0**1000
    )


@pytest.mark.parametrize("cells", [None, 2 * 669 + 1, 40])
@pytest.mark.parametrize("zs", GROUPED_ZS)
def test_grouped_rows_are_the_single_rows(monkeypatch, zs, cells):
    if cells:
        monkeypatch.setattr(principal, "BATCH_CELLS", cells)
    rows = reduce_beta_rows(GROUPED_NUS, zs)
    assert len(rows) == len(GROUPED_NUS)
    for nu, row in zip(GROUPED_NUS, rows):
        assert len(row) == len(zs)
        for z, value in zip(zs, row):
            single = outcome(lambda: reduce_beta_many(decompose(nu), [z]))
            if value is not None:
                assert bits([value]) == bits(single), (nu, z)
            # None is exactly a point that reduce_beta_many refuses or leaves to the scalar
            # kernel: a refused point (z = 0 for m < 0, z = 1) leaves its siblings alone
            refused = isinstance(single, tuple)
            assert (value is None) == (refused or left_to_the_caller(decompose(nu), z)), (nu, z)
    # 2000/3 at 2.88: a part past 2^1000, left None for the scalar kernel, which finishes it
    if 2.88 in zs and not cells:
        dec = decompose(Fraction(2000, 3))
        assert rows[GROUPED_NUS.index(Fraction(2000, 3))][-1] is None
        assert reduce_beta_many(dec, zs)[-1] == reduce_beta(dec, 2.88).value


def point_bits(row):
    return [None if value is None else (value.real.hex(), value.imag.hex()) for value in row]


# one call over every denominator gives each nu the row of a call over its own q alone
@pytest.mark.parametrize("zs", GROUPED_ZS)
def test_mixed_denominators_give_the_per_q_rows(zs):
    rows = reduce_beta_rows(GROUPED_NUS, zs)
    for q in {nu.denominator for nu in GROUPED_NUS}:
        group = [i for i, nu in enumerate(GROUPED_NUS) if nu.denominator == q]
        alone = reduce_beta_rows([GROUPED_NUS[i] for i in group], zs)
        assert [point_bits(rows[i]) for i in group] == [point_bits(row) for row in alone], q
    assert reduce_beta_rows([], [0.5]) == []
    assert reduce_beta_rows([Fraction(1, 3)], []) == [[]]
    assert reduce_beta_rows([Fraction(-2)], []) == [[]]
    assert reduce_beta_rows([Fraction(-2)], [0.5, 0.25]) == [[None, None]]


# -- routing --------------------------------------------------------------------


def test_verification_falls_back_per_point_on_refusal():
    nus = [Fraction(1, 3), Fraction(-5, 4), Fraction(-2)]
    zs = [0.5, 1.0, 0.0, 0.3 + 0.2j]
    records, passed, failed, skipped = run_verification(nus, zs, 1e-10)
    notes = [(r.nu, r.z, r.status, r.note) for r in records]
    assert notes == [
        (Fraction(1, 3), 0.5, Status.PASS, ""),
        (Fraction(1, 3), 1.0, Status.SKIPPED, "BranchPoint"),
        (Fraction(1, 3), 0j, Status.PASS, ""),
        (Fraction(1, 3), 0.3 + 0.2j, Status.PASS, ""),
        (Fraction(-5, 4), 0.5, Status.PASS, ""),
        (Fraction(-5, 4), 1.0, Status.SKIPPED, "BranchPoint"),
        (Fraction(-5, 4), 0j, Status.SKIPPED, "ZeroArgument"),
        (Fraction(-5, 4), 0.3 + 0.2j, Status.PASS, ""),
    ] + [(Fraction(-2), complex(z), Status.SKIPPED, "DivergentParameter") for z in zs]
    assert (passed, failed, skipped) == (5, 0, 7)


def test_verification_uses_the_batch_values():
    nus = [Fraction(3, 7), Fraction(-11, 5)]
    zs = default_z_grid()
    records, _, _, _ = run_verification(nus, zs, 1e-10)
    batch = reduce_beta_many(decompose(nus[0]), zs) + reduce_beta_many(decompose(nus[1]), zs)
    assert [r.reduction_value for r in records] == batch
