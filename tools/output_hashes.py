"""Print one SHA-256 per named output of the package, so a change can show its outputs unchanged.

Usage::

    python tools/output_hashes.py                  # every output
    python tools/output_hashes.py NAME ...         # these outputs only
    python tools/output_hashes.py --src DIR ...    # of the package under DIR

The outputs are the CSV bytes of seven CLI calls (``verify`` on its default
grid, ``verify --side both --n-max 3 --q-max 20``, ``verify --z-point
0.999999999999999``, ``figure --nu 12.3 --points 300``, ``verify --n-max 0
--q-max 8``, the part of the default grid that a timed verify-grid window
of ``perfbench/run.py`` evaluates, ``figure --nu 4/97 --points 60``, a large
q whose ray lanes pair the rows 0 .. q//2, and ``figure --nu 1/3 --z-start
2e301 --z-end 1e302 --points 3``, rows past 2^1000 that the batch leaves to
the scalar kernel) and ``values``: a fixed, self-seeded list
of value-caller calls (``incomplete_beta`` at mu = 0 and mu >= 1,
``lerch_reduce``, ``int_power_over_linear`` and ``int_tanh_power``), one
line each, the value's parts in ``float.hex`` or the error's name and
message; and ``evaluations``: ``reduce_beta``'s :class:`Evaluation` at the
(nu, z) point each of those calls draws, one line each, its value,
``error_estimate``, ``terms_or_nodes`` and ``parts`` in ``float.hex``, or
the error's name and message; and ``records``: the ``write_verify_csv``
bytes of ``run_verification`` over a fixed grid that meets the library's
refusal paths (``nu`` from ``default_nu_grid(1, 8)`` plus ``-2``,
``1/10^301``, ``2000/3`` and ``-2000/3``, whose series correction
overflows at small z; ``z`` from ``default_z_grid()`` plus ``0``, ``1``,
NaN, ``1.2``, ``1 - 1e-15`` and ``1e-3``).  Each line reads ``<sha256>
<name>``.  The package is imported from the ``src/`` next to this file, or
from ``DIR`` with ``--src DIR`` (say, ``src/`` of another checkout), so one
command shows the outputs of two trees.
``values`` and ``evaluations`` need no numpy, so they also run on an
interpreter without it.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def split_src(argv: List[str]) -> Tuple[Path, List[str]]:
    """The ``--src DIR`` of ``argv`` (the ``src/`` next to this file without one) and the rest.

    A ``DIR`` that holds no ``betareduce`` package exits with status 2.
    """
    if "--src" not in argv:
        return ROOT / "src", argv
    at = argv.index("--src")
    src = Path(argv[at + 1]).resolve() if at + 1 < len(argv) else None
    if src is None or not (src / "betareduce" / "__init__.py").is_file():
        print(f"--src needs a directory holding betareduce/, got {argv[at + 1 : at + 2]}", file=sys.stderr)
        raise SystemExit(2)
    return src, argv[:at] + argv[at + 2 :]


# --src names the tree to import, so it is read before the package is imported
SRC, NAMES = split_src(sys.argv[1:]) if __name__ == "__main__" else (ROOT / "src", [])
sys.path.insert(0, str(SRC))

import betareduce as br  # noqa: E402
from betareduce import cli  # noqa: E402

CLI_OUTPUTS = (
    "verify",
    "verify --side both --n-max 3 --q-max 20",
    "verify --z-point 0.999999999999999",
    "figure --nu 12.3 --points 300",
    "verify --n-max 0 --q-max 8",
    "figure --nu 4/97 --points 60",
    "figure --nu 1/3 --z-start 2e301 --z-end 1e302 --points 3",
)
VALUE_CALLS = 4000
VALUE_SEED = 20201
RECORD_NUS = br.default_nu_grid(1, 8) + [
    Fraction(-2), Fraction(1, 10**301), Fraction(2000, 3), Fraction(-2000, 3)
]
RECORD_ZS = br.default_z_grid() + [0.0, 1.0, math.nan, 1.2, 1 - 1e-15, 1e-3]


def cli_csv(args: str) -> bytes:
    """The CSV that ``betareduce <args> --out <file>`` writes; its stderr summary is dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args.split() + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"betareduce {args} exited {code}")
        return out.read_bytes()


def _nu(rng: random.Random, positive: bool) -> Fraction:
    q = rng.choice([1, 2, 3, 4, 5, 7, 12, 24, 97, 101])
    p = rng.randrange(1, q + 1)
    m = rng.randrange(0, 13) if positive else -rng.randrange(1, 13)
    return m + Fraction(p, q)


def _z(rng: random.Random) -> complex:
    region = rng.choice(["disk", "ray", "far", "small", "negative", "signed zero", "edge"])
    if region == "edge":
        # z = 0, the branch point, inside its guard band, and -0.0 on both parts
        return rng.choice([0j, 1 + 0j, complex(1 + 1e-15, 0.0), complex(-0.0, -0.0)])
    if region == "disk":
        return complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.3, 0.3))
    if region == "ray":
        return complex(rng.uniform(1.01, 10.0), 0.0)
    if region == "far":
        return cmath.rect(rng.uniform(1.0, 10.0), rng.uniform(-math.pi, math.pi))
    if region == "small":
        return complex(rng.uniform(-1e-2, 1e-2), rng.uniform(-1e-2, 1e-2))
    if region == "negative":
        return complex(-rng.uniform(0.01, 20.0), 0.0)
    return complex(rng.uniform(1.01, 10.0), -0.0)


def value_calls() -> Iterator[Tuple[Fraction, complex, Callable[[], object]]]:
    """The fixed value-caller calls, each with its drawn (nu, z), seeded by ``VALUE_SEED``."""
    rng = random.Random(VALUE_SEED)
    for _ in range(VALUE_CALLS):
        kind = rng.choice(["beta", "beta", "beta", "beta_mu", "lerch", "powlin", "tanh"])
        nu, z = _nu(rng, positive=kind in ("powlin", "tanh") or rng.random() < 0.6), _z(rng)
        if kind == "beta":
            yield nu, z, lambda nu=nu, z=z: br.incomplete_beta(nu, 0, z)
        elif kind == "beta_mu":
            yield nu, z, lambda nu=nu, z=z, mu=rng.randrange(1, 4): br.incomplete_beta(nu, mu, z)
        elif kind == "lerch":
            yield nu, z, lambda nu=nu, z=z: br.lerch_reduce(br.decompose(nu), z)
        elif kind == "powlin":
            yield nu, z, lambda nu=nu, z=z: br.int_power_over_linear(nu, z)
        else:
            yield nu, z, lambda nu=nu, x=rng.uniform(0.01, 8.0): br.int_tanh_power(nu, x)


def _hex(values) -> str:
    return " ".join(f"{v.real.hex()} {v.imag.hex()}" for v in values)


def _line(call: Callable[[], object]) -> str:
    try:
        value = complex(call())
    except br.BetaReduceError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{value.real.hex()} {value.imag.hex()}"


def _evaluation_line(nu: Fraction, z: complex) -> str:
    try:
        ev = br.reduce_beta(br.decompose(nu), z)
    except br.BetaReduceError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{_hex([ev.value])} {ev.error_estimate.hex()} {ev.terms_or_nodes} | {_hex(ev.parts)}"


def record_lines() -> bytes:
    out = io.StringIO()
    br.write_verify_csv(br.run_verification(RECORD_NUS, RECORD_ZS, 1e-10)[0], out)
    return out.getvalue().encode()


def value_lines() -> bytes:
    return "".join(_line(call) + "\n" for _, _, call in value_calls()).encode()


def evaluation_lines() -> bytes:
    return "".join(_evaluation_line(nu, z) + "\n" for nu, z, _ in value_calls()).encode()


OUTPUTS: Dict[str, Callable[[], bytes]] = {
    **{args: (lambda args=args: cli_csv(args)) for args in CLI_OUTPUTS},
    "values": value_lines,
    "evaluations": evaluation_lines,
    "records": record_lines,
}


def main(names: List[str]) -> int:
    """Print the hash of each named output (every output without names) of the imported package."""
    unknown = [name for name in names if name not in OUTPUTS]
    if unknown:
        print(f"unknown outputs {unknown}; known: {list(OUTPUTS)}", file=sys.stderr)
        return 2
    for name in names or OUTPUTS:
        print(f"{hashlib.sha256(OUTPUTS[name]()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(NAMES))
