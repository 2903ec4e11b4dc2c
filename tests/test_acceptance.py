"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Relative error here and throughout the package means
|difference| / max(1, |reference|).
"""

import cmath
import math
import random
from fractions import Fraction

from betareduce import (
    beta_series,
    connection_check,
    decompose,
    decompose_pos,
    fraction_grid,
    incomplete_beta,
    int_tanh_power,
    lerch_reduce,
    reduce_beta,
    run_bench,
    BenchMethod,
)

REAL_Z = [complex(0.05 * k) for k in range(1, 19)]
RING_Z = [0.5 * cmath.exp(1j * math.pi * j / 6) for j in range(1, 12)]


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def rel_err(value: complex, reference: complex) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def test_criterion_1_positive_grid_against_series():
    tol = 1e-10
    worst = 0.0
    points = 0
    for frac in fraction_grid(q_max=12):
        for n in range(0, 7):
            nu = n + frac
            dec = decompose_pos(nu)
            for z in REAL_Z + RING_Z:
                reduction = reduce_beta(dec, z).value
                oracle = beta_series(nu, z)
                worst = max(worst, rel_err(reduction, oracle.value))
                points += 1
    report(
        "1 positive-grid reduction vs series",
        worst <= tol,
        f"{points} points, worst rel err {worst:.3e}, tol {tol}",
    )


def test_criterion_2_negative_grid_against_shifted_series():
    tol = 1e-9
    worst = 0.0
    points = 0
    for frac in fraction_grid(q_max=12):
        for n in range(1, 7):
            nu = -n + frac
            dec = decompose(nu)
            for z in REAL_Z:
                reduction = reduce_beta(dec, z).value
                oracle = beta_series(nu, z)
                worst = max(worst, rel_err(reduction, oracle.value))
                points += 1
    report(
        "2 negative-grid reduction vs shifted series",
        worst <= tol,
        f"{points} points, worst rel err {worst:.3e}, tol {tol}",
    )


def test_criterion_3_branch_cut_figure():
    tol = 1e-12
    dec = decompose_pos(Fraction(123, 10))
    worst = 0.0
    for j in range(50):
        z = 1.1 + j * (10.0 - 1.1) / 49
        value = reduce_beta(dec, complex(z)).value
        worst = max(worst, abs(value.imag + math.pi))
    report(
        "3 Im B(12.3, 0, z>1) = -pi",
        worst <= tol,
        f"50 points in [1.1, 10], worst |Im + pi| {worst:.3e}, tol {tol}",
    )


def test_criterion_4_closed_form_golden_cases():
    cases = [
        ("B(1,0,0.5)", incomplete_beta(Fraction(1), 0, 0.5), math.log(2)),
        ("B(1/2,0,0.25)", incomplete_beta(Fraction(1, 2), 0, 0.25), math.log(3)),
        ("B(-1/2,0,0.25)", incomplete_beta(Fraction(-1, 2), 0, 0.25), math.log(3) - 4),
        ("Phi(0.5,1,1)", lerch_reduce(decompose_pos(Fraction(1)), 0.5), 2 * math.log(2)),
    ]
    worst = 0.0
    for _, value, constant in cases:
        value = complex(value)
        assert value.imag == 0.0
        worst = max(worst, abs(value.real - constant) / math.ulp(abs(constant)))
    report(
        "4 golden closed forms within 2 ulp",
        worst <= 2.0,
        f"worst deviation {worst:.2f} ulp across {len(cases)} constants",
    )


def test_criterion_5_tanh_integral_five_fourths():
    tol = 1e-12
    worst = 0.0
    for z in (0.2, 0.8, 2.0):
        u = math.sqrt(math.tanh(z))
        reference = math.atanh(u) - 2 * u + math.atan(u)
        worst = max(worst, abs(int_tanh_power(Fraction(5, 4), z) - reference))
    report(
        "5 tanh-power integral, lambda = 5/4",
        worst <= tol,
        f"worst abs diff {worst:.3e} over z in {{0.2, 0.8, 2.0}}, tol {tol}",
    )


def test_criterion_6_connection_formula_random_draws():
    tol = 1e-12
    rng = random.Random(20240901)
    worst = 0.0
    draws = 0
    while draws < 200:
        nu = Fraction(rng.randint(-40, 50), rng.randint(2, 8))
        if nu.denominator == 1:
            continue  # keep both mu = 0 routes and the binomial sum pole-free
        mu = rng.choice([0, 1, 2])
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if not (0.05 <= abs(z) <= 0.8):
            continue
        worst = max(worst, connection_check(nu, mu, z))
        draws += 1
    report(
        "6 connection-formula residuals",
        worst <= tol,
        f"200 seeded draws, worst residual {worst:.3e}, tol {tol}",
    )


def test_criterion_7_reduction_beats_series_near_one():
    records = run_bench([(Fraction(1, 2), complex(0.999))], repetitions=100, warmup=5)
    by_method = {rec.method: rec for rec in records}
    reduction = by_method[BenchMethod.REDUCTION].median_nanos
    series = by_method[BenchMethod.SERIES].median_nanos
    ratio = series / max(reduction, 1)
    report(
        "7 reduction at least 10x faster than series at z = 0.999",
        ratio >= 10.0,
        f"median series/reduction = {ratio:.0f}x "
        f"({series} ns vs {reduction} ns over 100 reps)",
    )


def test_criterion_8_derivative_matches_integrand():
    tol = 1e-8
    h = 1e-5
    lam = Fraction(5, 4)
    worst = 0.0
    for z in (0.2, 0.8, 2.0):
        fd = (int_tanh_power(lam, z + h) - int_tanh_power(lam, z - h)) / (2 * h)
        ref = math.tanh(z) ** (2 * float(lam) - 1)
        worst = max(worst, abs(fd - ref) / abs(ref))
    report(
        "8 finite-difference derivative vs integrand",
        worst <= tol,
        f"lambda = 5/4, worst plain rel err {worst:.3e}, tol {tol}",
    )
