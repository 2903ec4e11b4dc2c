"""True relative error of incomplete_beta at mu = 0 against the 40-digit reference set.

``perfbench/reference.json`` holds B(nu, 0, z) at 214 points, computed once with mpmath and
rounded to double.  A point is accurate when |value - reference| <= 1e-12 |reference|, the
rule behind perfbench's ``accurate_frac``.  The points that miss it, refusals included, must
lie in ``INACCURATE``: a change that loses digits anywhere else fails here.  A change that
makes a listed point accurate takes it off the list.  ``TANH_NONPOSITIVE`` lists, the same
way, the grid points where ``int_tanh_power`` returns a value <= 0 for a positive integral,
and ``INACCURATE_MU`` the points of a real grid where B(nu, mu, x), mu >= 1, misses the rule
against 40-digit ``mpmath.betainc``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from betareduce import incomplete_beta, int_tanh_power, parse_rational

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# (region, nu, z, measured true relative error): the closed form cancels for large nu at small
# |z| ("cancellation", "small-z") and for nu = 12.3 on the ring |z| = 0.5
INACCURATE = [
    ("cancellation", "123/10", (0.001, 0.0), 4.3e+22),
    ("cancellation", "19/3", (0.001, 0.0), 8.6e+03),
    ("cancellation", "61/10", (0.05, 0.0), 8.3e-07),
    ("cancellation", "37/3", (0.001, 0.0), 1.7e+22),
    ("small-z", "7/3", (0.001, 0.0), 3.2e-09),
    ("small-z", "7/3", (0.01, 0.0), 4.5e-11),
    ("small-z", "7/3", (0.0, 0.02), 8.9e-12),
    ("small-z", "7/3", (-0.003, 0.004), 1.6e-10),
    ("small-z", "9/2", (0.001, 0.0), 2.7e-04),
    ("small-z", "9/2", (0.01, 0.0), 5.2e-08),
    ("small-z", "9/2", (0.0, 0.02), 5.5e-09),
    ("small-z", "9/2", (-0.003, 0.004), 7.5e-06),
    ("small-z", "25/4", (0.001, 0.0), 3.7e+03),
    ("small-z", "25/4", (0.01, 0.0), 3.1e-03),
    ("small-z", "25/4", (0.0, 0.02), 5.7e-05),
    ("small-z", "25/4", (-0.003, 0.004), 3.5e-01),
    ("small-z", "31/5", (0.001, 0.0), 7.5e+03),
    ("small-z", "31/5", (0.01, 0.0), 6.4e-03),
    ("small-z", "31/5", (0.0, 0.02), 2.0e-04),
    ("small-z", "31/5", (-0.003, 0.004), 3.9e-01),
    ("small-z", "49/4", (0.001, 0.0), 7.3e+21),
    ("small-z", "49/4", (0.01, 0.0), 6.1e+09),
    ("small-z", "49/4", (0.0, 0.02), 1.8e+06),
    ("small-z", "49/4", (-0.003, 0.004), 4.4e+13),
    ("small-z", "97/8", (0.001, 0.0), 2.0e+22),
    ("small-z", "97/8", (0.01, 0.0), 1.6e+10),
    ("small-z", "97/8", (0.0, 0.02), 5.9e+06),
    ("small-z", "97/8", (-0.003, 0.004), 7.3e+13),
    ("ring", "12.3", (0.43301270189221935, 0.24999999999999997), 4.2e-11),
    ("ring", "12.3", (3.061616997868383e-17, 0.5), 5.8e-11),
    ("ring", "12.3", (-0.43301270189221935, 0.24999999999999997), 1.2e-11),
    ("ring", "12.3", (-0.4330127018922194, -0.24999999999999986), 4.8e-11),
    ("ring", "12.3", (-9.184850993605148e-17, -0.5), 7.2e-11),
    ("ring", "12.3", (0.4330127018922192, -0.2500000000000002), 2.8e-11),
]


def _inaccurate_points(entries):
    points = set()
    for entry in entries:
        reference = complex(entry["re"], entry["im"])
        try:
            value = incomplete_beta(parse_rational(entry["nu"]), 0, complex(*entry["z"]))
        except Exception:  # noqa: BLE001 -- a refusal is an inaccurate point
            value = None
        if value is None or not abs(value - reference) <= 1e-12 * abs(reference):
            points.add((entry["nu"], tuple(entry["z"])))
    return points


def test_reference_points_off_the_list_are_accurate():
    entries = json.loads(REFERENCE.read_text(encoding="utf-8"))["entries"]
    assert len(entries) == 214
    listed = {(nu, z) for _, nu, z, _ in INACCURATE}
    assert len(listed) == len(INACCURATE)
    assert _inaccurate_points(entries) - listed == set()


# (lambda, z) where int_tanh_power returns a value <= 0 for its positive integral of
# tanh^(2 lambda - 1): the closed form's logs, of order tanh(z)^(2/q), cancel down to a value
# of order tanh(z)^(2 lambda) and keep only the rounding (ROADMAP item 6).  The integrand is
# positive, so the sign alone shows the defect.  A change that makes a listed point positive
# takes it off the list.
TANH_NONPOSITIVE = [
    ("28/3", 0.03),
    ("28/3", 0.05),
    ("28/3", 0.1),
    ("118/19", 0.03),
    ("118/19", 0.05),
    ("12", 0.03),
    ("25/2", 0.03),
    ("25/2", 0.05),
    ("25/2", 0.1),
]
TANH_LAMBDAS = ["1/3", "1/2", "7/2", "5", "28/3", "118/19", "12", "25/2"]
TANH_ZS = [0.03, 0.05, 0.1, 0.2, 0.3, 1, 3]


def test_tanh_power_is_non_positive_exactly_at_the_listed_points():
    nonpositive = {
        (lam, z)
        for lam in TANH_LAMBDAS
        for z in TANH_ZS
        if not int_tanh_power(parse_rational(lam), z) > 0
    }
    assert nonpositive == set(TANH_NONPOSITIVE)


# (nu, mu, x, measured true relative error) where incomplete_beta(nu, mu, x), mu >= 1, is off
# by more than 1e-12: the binomial sum z^nu sum C(mu-1, k) (-z)^k / (k + nu) alternates with
# terms of order C(mu-1, k), so it cancels at real x away from 0 (ROADMAP item 1).  The
# accurate points of the grid hold 5.4e-13 or better.  A change that makes a listed point
# accurate takes it off the list; item 1's fix empties it.
INACCURATE_MU = [
    ("1/3", 30, 0.9, 1.3e-10),
    ("1/3", 30, 0.999, 6.7e-10),
    ("1/3", 60, 0.3, 9.8e-12),
    ("1/3", 60, 0.5, 3.1e-08),
    ("1/3", 60, 0.9, 1.6e-02),
    ("1/3", 60, 0.999, 1.5e-01),
    ("1/2", 30, 0.9, 1.6e-10),
    ("1/2", 30, 0.999, 7.5e-10),
    ("1/2", 60, 0.3, 3.0e-11),
    ("1/2", 60, 0.5, 4.9e-08),
    ("1/2", 60, 0.9, 2.9e-03),
    ("1/2", 60, 0.999, 5.1e-01),
    ("4/97", 30, 0.9, 9.9e-12),
    ("4/97", 30, 0.999, 3.5e-11),
    ("4/97", 60, 0.5, 7.5e-10),
    ("4/97", 60, 0.9, 9.9e-05),
    ("4/97", 60, 0.999, 6.1e-03),
    ("7/2", 30, 0.5, 1.8e-10),
    ("7/2", 30, 0.9, 3.8e-07),
    ("7/2", 30, 0.999, 2.3e-05),
    ("7/2", 60, 0.3, 7.3e-08),
    ("7/2", 60, 0.5, 1.5e-04),
    ("7/2", 60, 0.9, 1.1e04),
    ("7/2", 60, 0.999, 2.5e04),
    ("61/9", 30, 0.3, 4.0e-11),
    ("61/9", 30, 0.5, 5.7e-08),
    ("61/9", 30, 0.9, 8.7e-04),
    ("61/9", 30, 0.999, 9.4e-03),
    ("61/9", 60, 0.3, 7.6e-06),
    ("61/9", 60, 0.5, 1.9e-01),
    ("61/9", 60, 0.9, 2.2e07),
    ("61/9", 60, 0.999, 1.3e08),
    ("37/3", 30, 0.3, 1.8e-10),
    ("37/3", 30, 0.5, 3.7e-06),
    ("37/3", 30, 0.9, 7.6e00),
    ("37/3", 30, 0.999, 1.1e01),
    ("37/3", 60, 0.3, 1.1e-04),
    ("37/3", 60, 0.5, 1.1e03),
    ("37/3", 60, 0.9, 2.9e11),
    ("37/3", 60, 0.999, 7.2e13),
]
MU_NUS = ["1/3", "1/2", "4/97", "7/2", "61/9", "37/3"]
MU_MUS = [1, 2, 5, 30, 60]
MU_XS = [1e-3, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999]


def test_positive_mu_points_off_the_list_are_accurate():
    mpmath = pytest.importorskip("mpmath")
    inaccurate = set()
    with mpmath.workdps(40):
        for nu in MU_NUS:
            exact_nu = mpmath.mpf(Fraction(nu).numerator) / Fraction(nu).denominator
            for mu in MU_MUS:
                for x in MU_XS:
                    exact = mpmath.betainc(exact_nu, mu, 0, x)
                    try:
                        value = incomplete_beta(parse_rational(nu), mu, x)
                    except Exception:  # noqa: BLE001 -- a refusal is an inaccurate point
                        value = None
                    if value is None or not abs(mpmath.mpc(value) - exact) <= 1e-12 * abs(exact):
                        inaccurate.add((nu, mu, x))
    assert inaccurate == {(nu, mu, x) for nu, mu, x, _ in INACCURATE_MU}
