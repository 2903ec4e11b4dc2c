"""Reduction-versus-oracle verification grids and their records.

One record per (nu, z) point: the closed-form value (one batch call per
nu), the series oracle value (one numpy block per z, shared by a chunk of
nu), and the discrepancy.  The relative error is
absolute error over max(1, |oracle|), the convention used for every
tolerance in this package.
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
from typing import IO, Iterable, List, Optional, Sequence, Tuple

from .errors import BetaReduceError, MaxTermsExceeded
from .oracles import beta_series, beta_series_many
from .principal import Evaluation
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
    return _fractions(q_max, 1)


def _fractions(q_max: int, copies: int) -> List[Fraction]:
    # counted first: the grid grows as q_max^2, so a large q_max is refused before it is built
    count = 0
    for q in range(2, q_max + 1):
        count += copies * sum(gcd(p, q) == 1 for p in range(1, q))
        if count > MAX_TAIL_TERMS:
            raise MaxTermsExceeded(
                f"the grid passes the budget of {MAX_TAIL_TERMS} parameters at q = {q}"
            )
    return [Fraction(p, q) for q in range(2, q_max + 1) for p in range(1, q) if gcd(p, q) == 1]


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
    fracs = _fractions(q_max, max(1, len(pos) + len(neg)))
    return [n + f for shifts in (pos, neg) for n in shifts for f in fracs]


def run_verification(
    nus: Sequence[Fraction],
    zs: Sequence[complex],
    tol: float,
) -> Tuple[List[VerificationRecord], int, int, int]:
    """Compare the reduction against the series oracle over a grid.

    Returns (records, passed, failed, skipped) with records in grid order,
    nu-major.  The grid is taken ``VERIFY_NU_CHUNK`` parameters at a time:
    per z, one :func:`beta_series_many` call sums the series of the whole
    chunk as one numpy block, bitwise equal to :func:`beta_series` point by
    point; then each nu gets its reductions from one batch call.  When a
    call refuses some point, each point of it is evaluated alone, so a
    Skipped row keeps its own error name and no row depends on its siblings.
    A grid of more than ``MAX_TAIL_TERMS`` points, whose records would all be
    held at once, raises :class:`MaxTermsExceeded` before any is evaluated.
    """
    if len(nus) * len(zs) > MAX_TAIL_TERMS:
        raise MaxTermsExceeded(
            f"{len(nus)} x {len(zs)} grid points exceed the budget of {MAX_TAIL_TERMS}"
        )
    zs = [complex(z) for z in zs]
    records: List[VerificationRecord] = []
    passed = failed = skipped = 0
    for start in range(0, len(nus), VERIFY_NU_CHUNK):
        chunk = [Fraction(nu) for nu in nus[start : start + VERIFY_NU_CHUNK]]
        columns = [_oracle_column(chunk, z) for z in zs]
        for i, nu in enumerate(chunk):
            dec = None  # when nu does not decompose, each z below is refused again
            try:
                dec = decompose(nu)
                reductions = reduce_beta_many(dec, zs)
            except BetaReduceError:
                # some point is refused: record each refusal from one-column batches, which
                # equal the full batch bitwise
                reductions = [None] * len(zs)
            for z, reduction, column in zip(zs, reductions, columns):
                try:
                    if reduction is None:
                        reduction = reduce_beta_many(dec or decompose(nu), [z])[0]
                    oracle = beta_series(nu, z) if column is None else column[i]
                except BetaReduceError as exc:
                    records.append(
                        VerificationRecord(
                            nu, z, 0j, 0j, "", 0.0, 0.0, Status.SKIPPED, type(exc).__name__
                        )
                    )
                    skipped += 1
                    continue
                abs_err = abs(reduction - oracle.value)
                rel_err = abs_err / max(1.0, abs(oracle.value))
                status = Status.PASS if rel_err <= tol else Status.FAIL
                if status is Status.PASS:
                    passed += 1
                else:
                    failed += 1
                records.append(
                    VerificationRecord(
                        nu,
                        z,
                        reduction,
                        oracle.value,
                        oracle.method.value,
                        abs_err,
                        rel_err,
                        status,
                    )
                )
    return records, passed, failed, skipped


def _oracle_column(chunk: List[Fraction], z: complex) -> Optional[List[Evaluation]]:
    """The series oracle of every nu in ``chunk`` at z, or None when some point is refused."""
    try:
        return beta_series_many(chunk, z)
    except (BetaReduceError, ArithmeticError):
        # each point of the column is evaluated alone, after its reduction, as beta_series
        return None


def write_verify_csv(records: Iterable[VerificationRecord], stream: IO[str]) -> None:
    """Emit verification records as CSV, LF line endings, no timestamps.

    No field holds a comma, a quote or a line break, so none is quoted: the
    bytes are those of ``csv.writer``.
    """
    stream.write(VERIFY_CSV_HEADER + "\n")
    stream.writelines(
        f"{render_rational(rec.nu)},{rec.z.real!r},{rec.z.imag!r},"
        f"{rec.reduction_value.real!r},{rec.reduction_value.imag!r},"
        f"{rec.oracle_value.real!r},{rec.oracle_value.imag!r},{rec.oracle_method},"
        f"{rec.abs_err!r},{rec.rel_err!r},{rec.status.value},{rec.note}\n"
        for rec in records
    )
