"""Regenerate perfbench/reference.json, the high-precision reference set.

Each entry is B(nu, 0, z) computed with mpmath at 40 significant digits as
z^nu * lerchphi(z, 1, nu) on principal branches (the package's branch on the
real ray z > 1 and on the complex plane), then rounded to the nearest double.
For |z| < 1 the script cross-checks every value against the independent
hypergeometric form z^nu / nu * 2F1(nu, 1; nu + 1; z) and refuses to write
the file if the two disagree.

mpmath costs about 0.1 s per point, so this never runs inside a benchmark
run; the committed JSON is what runs read.  mpmath is needed only here:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp

DIGITS = 40
OUT = Path(__file__).with_name("reference.json")


def _points():
    """(region, nu text, z) triples; every region the workloads touch."""
    pts = []
    # ROADMAP item 1: cancellation between the log sum and the power tail.
    for nu, z in (("123/10", 1e-3), ("19/3", 1e-3), ("61/10", 0.05), ("37/3", 1e-3)):
        pts.append(("cancellation", nu, complex(z)))
    for nu in ("7/3", "9/2", "25/4", "31/5", "49/4", "97/8", "-23/4", "-7/3"):
        for z in (1e-3, 1e-2, complex(0, 0.02), complex(-0.003, 0.004)):
            pts.append(("small-z", nu, complex(z)))
    ray_nus = ("12.3", "37/3", "7/2", "5", "4/97", "1/3", "3/1000", "-5/3", "-7/2")
    for nu in ray_nus:
        for z in (1.5, 2.0, 5.0, 10.0):
            pts.append(("real-ray", nu, complex(z)))
    ring_nus = ("1/2", "5/4", "12.3", "-5/3", "7/12", "3", "4/97")
    for nu in ring_nus:
        for radius in (0.5, 2.0, 10.0):
            for j in (1, 3, 5, 7, 9, 11):
                pts.append(("ring", nu, radius * complex(math.cos(math.pi * j / 6), math.sin(math.pi * j / 6))))
    for nu in ("1/2", "4/97", "12.3", "1/3", "-5/3", "5", "37/3"):
        pts.append(("near-one", nu, complex(0.999)))
    for nu, z in (
        ("1/2", 0.25),
        ("5/4", 0.3),
        ("11/7", complex(0.6, -0.3)),
        ("-11/5", complex(-0.4, 0.2)),
        ("23/6", complex(0.1, 0.85)),
        ("1", 0.7),
        ("99/100", complex(-0.8, 0.0)),
        ("-1/2", 0.45),
        ("21/11", complex(0.33, 0.33)),
    ):
        pts.append(("unit-disk", nu, complex(z)))
    return pts


def _beta(nu: Fraction, z: complex):
    a = mp.mpf(nu.numerator) / nu.denominator
    zz = mp.mpc(z.real, z.imag)
    value = mp.power(zz, a) * mp.lerchphi(zz, 1, a)
    if abs(z) < 1:
        other = mp.power(zz, a) / a * mp.hyp2f1(a, 1, a + 1, zz)
        if abs(value - other) > mp.mpf(10) ** (10 - DIGITS) * abs(value):
            raise SystemExit(f"mpmath forms disagree at nu={nu}, z={z}: {value} vs {other}")
    return value


def main() -> None:
    mp.mp.dps = DIGITS
    entries = []
    for region, text, z in _points():
        nu = Fraction(text)
        value = _beta(nu, z)
        entries.append(
            {
                "region": region,
                "nu": text,
                "z": [z.real, z.imag],
                "re": float(mp.re(value)),
                "im": float(mp.im(value)),
                "digits40": mp.nstr(value, DIGITS),
            }
        )
    doc = {
        "what": "B(nu, 0, z) = z^nu * lerchphi(z, 1, nu), mpmath at 40 digits, rounded to double",
        "generator": "perfbench/make_reference.py",
        "mpmath": mp.__version__,
        "entries": entries,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
