"""True relative error of the closed form at small |z| against 40-digit mpmath, on both paths.

At |z^(1/q)| < 1/2 every row log is ``log1p`` of |1 - u|^2 - 1 with the angle of 1 - u, so
the rows keep the digits that ``log(1 - u)`` drops where 1 - u rounds to 1: ``B(1/q, 0, z)``
holds its digits down to |z| = 1e-300, and so does every ``B(m + 1/2, 0, z)``, whose two q = 2
rows the tail is added to.  ``incomplete_beta`` (the scalar kernel) and ``reduce_beta_many``
(the numpy batch) are checked at the same points.
"""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest

from betareduce import OutsideDomain, decompose, incomplete_beta, reduce_beta_many

mpmath = pytest.importorskip("mpmath")


def _points(seed: int, per_region: int):
    """|z| log-uniform in [1e-300, 0.9] on both real half-axes, the imaginary axis and off the axes."""
    rng = random.Random(seed)
    modulus = lambda: 10.0 ** rng.uniform(-300.0, math.log10(0.9))  # noqa: E731
    points = []
    for _ in range(per_region):
        points.append(complex(modulus(), 0.0))
        points.append(complex(-modulus(), 0.0))
        points.append(complex(0.0, rng.choice([1.0, -1.0]) * modulus()))
        points.append(cmath.rect(modulus(), rng.uniform(-math.pi, math.pi)))
    return points


def _exact(nu: Fraction, z: complex):
    # B(a, 0, z) = z^a / a * 2F1(a, 1; a + 1; z), principal z^a: +pi on the negative axis
    with mpmath.workdps(40):
        a = mpmath.mpf(nu.numerator) / nu.denominator
        w = mpmath.mpc(z.real, z.imag)
        return w**a / a * mpmath.hyp2f1(a, 1, a + 1, w)


def _rel_err(value: complex, exact) -> float:
    with mpmath.workdps(40):
        return float(abs(mpmath.mpc(value.real, value.imag) - exact) / abs(exact))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 7, 12, 97])
def test_unit_fraction_holds_its_digits(q):
    nu = Fraction(1, q)
    zs = _points(q, 24)
    batch = reduce_beta_many(decompose(nu), zs)
    for z, from_batch in zip(zs, batch):
        exact = _exact(nu, z)
        for path, value in (("scalar", incomplete_beta(nu, 0, z)), ("batch", from_batch)):
            assert _rel_err(value, exact) <= 1e-13, (path, q, z, value)


@pytest.mark.parametrize("m", range(-6, 1))
def test_half_integers_hold_their_digits(m):
    nu = m + Fraction(1, 2)
    dec = decompose(nu)
    zs = _points(100 - m, 12)
    # the tail's last power z^(m + 1/2) past the double range is refused, on both paths alike
    with mpmath.workdps(40):
        past = [abs(mpmath.mpc(z.real, z.imag)) ** (m + 0.5) > sys.float_info.max for z in zs]
    kept = [z for z, refused in zip(zs, past) if not refused]
    for z, from_batch in zip(kept, reduce_beta_many(dec, kept)):
        exact = _exact(nu, z)
        for path, value in (("scalar", incomplete_beta(nu, 0, z)), ("batch", from_batch)):
            assert _rel_err(value, exact) <= 1e-14, (path, m, z, value)
    for z in [z for z, refused in zip(zs, past) if refused]:
        with pytest.raises(OutsideDomain):
            incomplete_beta(nu, 0, z)
        with pytest.raises(OutsideDomain):
            reduce_beta_many(dec, [z])
