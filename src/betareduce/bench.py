"""Wall-clock comparison of the reduction formulas against the oracles.

Strictly single-threaded: each (point, method) pair is timed in its own
contiguous block, warmup runs first and discarded, and records come out in
deterministic grid order.  Before any timing starts, all methods are
evaluated once and must agree at the point -- a benchmark whose methods
compute different numbers is not reported.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, List, Sequence, Tuple

from .errors import BenchConsistencyError, BetaReduceError, OutsideDomain
from .oracles import beta_quadrature, beta_series
from .principal import Method, to_double
from .rationals import exact_rational, render_rational
from .reduction import incomplete_beta

# Methods whose values differ by more than this at a point invalidate the run.
AGREEMENT_TOL = 1e-9

BENCH_CSV_HEADER = "method,nu,z_re,z_im,reps,median_ns,mean_ns,checksum"

@dataclass(frozen=True)
class BenchRecord:
    method: Method
    nu: Fraction
    z: complex
    repetitions: int
    median_nanos: int
    mean_nanos: float
    result_checksum: float  # real part of the last result; defeats dead code


PRESETS = {
    # the series needs tens of thousands of terms here; the reduction one atanh
    "near-one": [(Fraction(1, 2), complex(0.999))],
    "small-z": [
        (Fraction(1, 2), complex(0.1)),
        (Fraction(5, 4), complex(0.1)),
        (Fraction(7, 3), complex(0.2)),
    ],
}


def _quadrature_point(nu: Fraction, z: complex) -> complex:
    if z.imag != 0.0:
        raise OutsideDomain(f"quadrature needs real z, got {z}")
    return beta_quadrature(float(nu), 0.0, z.real).value


def _evaluators(nu: Fraction, z: complex):
    return (
        (Method.REDUCTION, lambda: incomplete_beta(nu, 0, z)),
        (Method.SERIES, lambda: beta_series(nu, z).value),
        (Method.QUADRATURE_BETA, lambda: _quadrature_point(nu, z)),
    )


def run_bench(
    grid: Sequence[Tuple[Fraction, complex]], repetitions: int, warmup: int = 5
) -> List[BenchRecord]:
    """Time every method on every grid point; return records in grid order.

    Evaluation errors propagate, re-raised with the failing (method, point)
    in the message.  Method values must agree within ``AGREEMENT_TOL``
    (relative to max(1, |reduction|)) or the run aborts.  A ``repetitions``
    that is not an int >= 1, or a ``warmup`` that is not an int >= 0,
    raises ``ValueError`` before any method runs.
    """
    if not isinstance(repetitions, int) or repetitions < 1:
        raise ValueError(f"repetitions must be an int >= 1, got {repetitions!r}")
    if not isinstance(warmup, int) or warmup < 0:
        raise ValueError(f"warmup must be an int >= 0, got {warmup!r}")
    records: List[BenchRecord] = []
    for nu, z in grid:
        nu = Fraction(exact_rational(nu))
        z = to_double(z, complex)
        evaluators = _evaluators(nu, z)

        values = {}
        for method, fn in evaluators:
            try:
                values[method] = complex(fn())
            except BetaReduceError as exc:
                raise type(exc)(
                    f"{method.value} failed at nu={render_rational(nu)}, z={z}: {exc}"
                ) from exc
        reference = values[Method.REDUCTION]
        for method, value in values.items():
            if abs(value - reference) > AGREEMENT_TOL * max(1.0, abs(reference)):
                raise BenchConsistencyError(
                    f"{method.value} disagrees with Reduction at "
                    f"nu={render_rational(nu)}, z={z}: {value} vs {reference}"
                )

        for method, fn in evaluators:
            for _ in range(warmup):
                fn()
            durations = []
            last = values[method]
            for _ in range(repetitions):
                start = time.perf_counter_ns()
                last = fn()
                stop = time.perf_counter_ns()
                durations.append(stop - start)
            records.append(
                BenchRecord(
                    method=method,
                    nu=nu,
                    z=z,
                    repetitions=repetitions,
                    median_nanos=int(statistics.median(durations)),
                    mean_nanos=statistics.mean(durations),
                    result_checksum=complex(last).real,
                )
            )
    return records


def write_bench_csv(records: Iterable[BenchRecord], stream: IO[str]) -> None:
    """Emit records as CSV with the fixed schema, LF line endings; no field needs quoting."""
    stream.write(BENCH_CSV_HEADER + "\n")
    stream.writelines(
        f"{rec.method.value},{render_rational(rec.nu)},{rec.z.real!r},{rec.z.imag!r},"
        f"{rec.repetitions},{rec.median_nanos},{rec.mean_nanos!r},{rec.result_checksum!r}\n"
        for rec in records
    )
