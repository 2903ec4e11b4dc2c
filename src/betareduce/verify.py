"""Reduction-versus-oracle verification grids and their records.

One record per (nu, z) point: the closed-form value (one batch call per
nu), the series oracle value (one numpy pass and one log per z, shared by
a chunk of nu that is split once for all z; a point the batch paths do not
finish is evaluated alone), and the discrepancy.  The
relative error is absolute error over max(1, |oracle|), the convention used
for every tolerance in this package.
Points where either side refuses to evaluate (branch guard, domain) are
recorded as Skipped with the refusing error's name, never as failures.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import IO, Iterable, List, Sequence, Tuple

from .errors import BetaReduceError, MaxTermsExceeded
from .oracles import beta_series, beta_series_columns
from .principal import to_double
from .rationals import decompose, render_rational
from .reduction import MAX_TAIL_TERMS, reduce_beta_many

# run_verification holds the oracle values of this many nu at a time, one column per z.
VERIFY_NU_CHUNK = 64

VERIFY_CSV_HEADER = (
    "nu,z_re,z_im,reduction_re,reduction_im,oracle_re,oracle_im,"
    "oracle_method,abs_err,rel_err,status,note"
)


class Status(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class VerificationRecord:
    nu: Fraction
    z: complex
    reduction_value: complex
    oracle_value: complex
    oracle_method: str
    abs_err: float
    rel_err: float
    status: Status
    note: str = ""


def default_z_grid() -> List[complex]:
    """Real points (0, 0.9] in steps of 0.05 plus a ring at |z| = 0.5."""
    reals = [complex(0.05 * k) for k in range(1, 19)]
    ring = [0.5 * cmath.exp(1j * math.pi * j / 6) for j in range(1, 12)]
    return reals + ring


def fraction_grid(q_max: int = 12) -> List[Fraction]:
    """All reduced proper fractions p/q with q <= q_max, ascending q then p.

    More than ``MAX_TAIL_TERMS`` of them raise :class:`MaxTermsExceeded`
    before any is built.
    """
    return default_nu_grid(0, q_max, "pos")


def default_nu_grid(
    n_max: int = 6, q_max: int = 12, side: str = "both"
) -> List[Fraction]:
    """Rational parameters n + p/q (and -n + p/q) over the standard ranges.

    A grid of more than ``MAX_TAIL_TERMS`` parameters raises
    :class:`MaxTermsExceeded` before any is built.
    """
    if side not in ("pos", "neg", "both"):
        raise ValueError(f"side must be pos, neg, or both, got {side!r}")
    pos = range(n_max + 1) if side != "neg" else range(0)
    neg = range(-1, -n_max - 1, -1) if side != "pos" else range(0)
    copies = max(1, len(pos) + len(neg))
    # counted first: the grid grows as q_max^2, so a large q_max is refused before it is built
    count = 0
    for q in range(2, q_max + 1):
        count += copies * sum(gcd(p, q) == 1 for p in range(1, q))
        if count > MAX_TAIL_TERMS:
            raise MaxTermsExceeded(
                f"the grid passes the budget of {MAX_TAIL_TERMS} parameters at q = {q}"
            )
    fracs = [Fraction(p, q) for q in range(2, q_max + 1) for p in range(1, q) if gcd(p, q) == 1]
    return [n + f for shifts in (pos, neg) for n in shifts for f in fracs]


def run_verification(
    nus: Sequence[Fraction],
    zs: Sequence[complex],
    tol: float,
) -> Tuple[List[VerificationRecord], int, int, int]:
    """Compare the reduction against the series oracle over a grid.

    Returns (records, passed, failed, skipped) with records in grid order,
    nu-major.  The grid is taken ``VERIFY_NU_CHUNK`` parameters at a time:
    one :func:`beta_series_columns` call gives each nu's oracle method and
    the chunk's oracle values at every z, splitting each nu once and taking
    one log of each z; per nu, one :func:`reduce_beta_many` call gives its
    reduction row.  Both return plain values and leave every refusal to the
    one per-point path: a column the series pass cannot finish, or a column
    or row that refuses some point, gives nothing, and each of its points
    is then evaluated alone, the oracle only once the point's reduction
    succeeded, so a Skipped row keeps its own error name and no row depends
    on its siblings.  A grid of more than ``MAX_TAIL_TERMS`` points, whose
    records would all be held at once, raises :class:`MaxTermsExceeded`
    before any is evaluated.
    """
    if len(nus) * len(zs) > MAX_TAIL_TERMS:
        raise MaxTermsExceeded(
            f"{len(nus)} x {len(zs)} grid points exceed the budget of {MAX_TAIL_TERMS}"
        )
    zs = [to_double(z, complex) for z in zs]
    records: List[VerificationRecord] = []
    for start in range(0, len(nus), VERIFY_NU_CHUNK):
        chunk = [Fraction(nu) for nu in nus[start : start + VERIFY_NU_CHUNK]]
        methods, columns = beta_series_columns(chunk, zs)
        for i, nu in enumerate(chunk):
            method = methods[i].value
            try:
                row = reduce_beta_many(decompose(nu), zs)
            except (BetaReduceError, ArithmeticError):
                row = None  # some point is refused: each is evaluated alone below
            for j, z in enumerate(zs):
                try:
                    reduction = reduce_beta_many(decompose(nu), [z])[0] if row is None else row[j]
                    oracle = beta_series(nu, z).value if columns[j] is None else columns[j][i]
                except BetaReduceError as exc:
                    records.append(
                        VerificationRecord(
                            nu, z, 0j, 0j, "", 0.0, 0.0, Status.SKIPPED, type(exc).__name__
                        )
                    )
                    continue
                abs_err = abs(reduction - oracle)
                rel_err = abs_err / max(1.0, abs(oracle))
                records.append(
                    VerificationRecord(
                        nu,
                        z,
                        reduction,
                        oracle,
                        method,
                        abs_err,
                        rel_err,
                        Status.PASS if rel_err <= tol else Status.FAIL,
                    )
                )
    statuses = [rec.status for rec in records]
    return (records, *(statuses.count(status) for status in Status))  # passed, failed, skipped


def write_verify_csv(records: Iterable[VerificationRecord], stream: IO[str]) -> None:
    """Emit verification records as CSV, LF line endings, no timestamps.

    No field holds a comma, a quote or a line break, so none is quoted: the
    bytes are those of ``csv.writer``.  A run of records that share one nu
    object renders it once.
    """

    def rows():
        nu, text = object(), ""
        for rec in records:
            if rec.nu is not nu:
                nu, text = rec.nu, render_rational(rec.nu)
            yield (
                f"{text},{rec.z.real!r},{rec.z.imag!r},"
                f"{rec.reduction_value.real!r},{rec.reduction_value.imag!r},"
                f"{rec.oracle_value.real!r},{rec.oracle_value.imag!r},{rec.oracle_method},"
                f"{rec.abs_err!r},{rec.rel_err!r},{rec.status.value},{rec.note}\n"
            )

    stream.write(VERIFY_CSV_HEADER + "\n")
    stream.writelines(rows())
