"""reduce_beta_many against its reference, the scalar reduce_beta loop."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from betareduce import (
    BetaReduceError,
    Decomposition,
    MaxTermsExceeded,
    Status,
    decompose,
    default_z_grid,
    reduce_beta,
    reduce_beta_many,
    run_verification,
)
from betareduce import reduction
from betareduce.reduction import MAX_TAIL_TERMS


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


# -- named-error parity: the batch raises what the scalar loop raises first ---

REFUSED = [
    (Fraction(1, 3), [0.5, 1.0, 0.25]),  # z = 1
    (Fraction(-1, 3), [0.5, 0.0]),  # z = 0 needs m >= 0
    (Fraction(1, 3), [0.5, math.inf]),
    (Fraction(7, 2), [0.5, complex(0.2, math.nan)]),
    (Fraction(1, 3), [0.5, 1 + 1e-15]),  # guard band, q = 3
    (Fraction(3, 2), [0.5, 1 + 1e-15]),  # guard band of the atanh form, q = 2
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
    monkeypatch.setattr(reduction, "np", None)  # any array would fail with a TypeError
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
        monkeypatch.setattr(reduction, "BATCH_CELLS", cells)
        assert reduce_beta_many(dec, zs) == reference


def test_column_beyond_budget_runs_the_scalar_path(monkeypatch):
    dec = decompose(Fraction(123, 10))
    monkeypatch.setattr(reduction, "BATCH_CELLS", dec.r.denominator + dec.n - 1)
    zs = [0.3, 2.5, 0.4 + 0.3j]
    assert reduce_beta_many(dec, zs) == scalar_loop(dec, zs)


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
