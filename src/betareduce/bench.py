"""Wall-clock comparison of the reduction formulas against the oracles.

Strictly single-threaded: each (point, method) pair is timed in its own
contiguous block, warmup runs first and discarded, and records come out in
deterministic grid order.  Before any timing starts, every method is
evaluated once at the point, and each record grades its method by its
relative difference from the closed form -- a disagreement is reported,
never hidden.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import IO, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import BetaReduceError, OutsideDomain
from .principal import Method, to_double
from .rationals import exact_rational, render_rational
from .reduction import incomplete_beta

BENCH_CSV_HEADER = "method,nu,z_re,z_im,reps,median_ns,mean_ns,rel_diff"


class BenchRecord(NamedTuple):
    """One timed (method, point) pair; a tuple, like ``VerificationRecord``."""

    method: Method
    nu: Fraction
    z: complex
    repetitions: int
    median_nanos: int
    mean_nanos: float
    rel_diff: float  # |value - reduction| / max(1, |reduction|) at the first evaluation


PRESETS = {
    # the series needs tens of thousands of terms here; the reduction two logs
    "near-one": [(Fraction(1, 2), complex(0.999))],
    "small-z": [
        (Fraction(1, 2), complex(0.1)),
        (Fraction(5, 4), complex(0.1)),
        (Fraction(7, 3), complex(0.2)),
    ],
}


def _evaluators(nu: Fraction, z: complex):
    from .oracles import beta_quadrature, beta_series  # here: importing bench loads no oracle

    def quadrature() -> complex:
        if z.imag != 0.0:
            raise OutsideDomain(f"quadrature needs real z, got {z}")
        return beta_quadrature(float(nu), 0.0, z.real).value

    return (
        (Method.REDUCTION, lambda: incomplete_beta(nu, 0, z)),
        (Method.SERIES, lambda: beta_series(nu, z).value),
        (Method.QUADRATURE_BETA, quadrature),
    )


def run_bench(
    grid: Sequence[Tuple[Fraction, complex]], repetitions: int, warmup: int = 5
) -> List[BenchRecord]:
    """Time every method on every grid point; return records in grid order.

    Every method is evaluated once at each point before its timing starts;
    evaluation errors propagate, re-raised with the failing (method, point)
    in the message.  Each record's ``rel_diff`` is that value's difference
    from the ``Reduction`` value, relative to max(1, |reduction|): 0.0 on
    the ``Reduction`` record, and reported however large.  A ``repetitions``
    that is not an int >= 1, or a ``warmup`` that is not an int >= 0,
    raises ``ValueError`` before any method runs.
    """
    import statistics  # here, so importing the package does not load it
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

        for method, fn in evaluators:
            for _ in range(warmup):
                fn()
            durations = []
            for _ in range(repetitions):
                start = time.perf_counter_ns()
                fn()
                stop = time.perf_counter_ns()
                durations.append(stop - start)
            records.append(
                BenchRecord(
                    method=method,
                    nu=nu,
                    z=z,
                    repetitions=repetitions,
                    median_nanos=int(statistics.median(durations)),
                    mean_nanos=statistics.fmean(durations),
                    rel_diff=abs(values[method] - reference) / max(1.0, abs(reference)),
                )
            )
    return records


def write_bench_csv(records: Iterable[BenchRecord], stream: IO[str]) -> None:
    """Emit records as CSV with the fixed schema, LF line endings; no field needs quoting."""
    stream.write(BENCH_CSV_HEADER + "\n")
    stream.writelines(
        f"{rec.method.value},{render_rational(rec.nu)},{rec.z.real!r},{rec.z.imag!r},"
        f"{rec.repetitions},{rec.median_nanos},{rec.mean_nanos!r},{rec.rel_diff!r}\n"
        for rec in records
    )
