"""Reduction-versus-oracle verification grids and their records.

One record per (nu, z) point: the closed-form value (one batch call for
the grid, with one log table per (q, z) shared by every p/q and every
integer shift), the series oracle value (one numpy pass and one log per
z, shared by every nu, each split once for all z), and the discrepancy.
A point that either batch leaves None is evaluated alone, by
``reduce_beta(...).value`` or ``beta_series``.  The relative
error is absolute error over max(1, |oracle|), the convention used for
every tolerance in this package.
Points where either side refuses to evaluate (branch guard, domain) are
recorded as Skipped with the refusing error's name, never as failures.
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction
from math import gcd
from typing import IO, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import BetaReduceError, MaxTermsExceeded
from .oracles import beta_series, beta_series_columns
from .principal import to_double
from .rationals import decompose, exact_rational, render_rational
from .reduction import MAX_TAIL_TERMS, reduce_beta, reduce_beta_rows

VERIFY_CSV_HEADER = (
    "nu,z_re,z_im,reduction_re,reduction_im,oracle_re,oracle_im,"
    "oracle_method,abs_err,rel_err,status,note"
)
ERR_TEXTS_HELD = 4096  # most texts write_verify_csv's error-text cache holds


class Status(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    SKIPPED = "Skipped"


class VerificationRecord(NamedTuple):
    """One verified point.  A tuple: it indexes, unpacks and compares as the
    tuple of its fields (ordering raises ``TypeError`` once it reaches a
    complex field), and ``_replace`` gives a copy with fields changed."""

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
    nu-major.  The whole grid takes one :func:`beta_series_columns` call,
    which gives each nu's oracle method and the oracle values at every z,
    splitting each nu once and taking one log of each z, and one
    :func:`reduce_beta_rows` call, which groups the nu by denominator q and
    builds one log table per (q, z).  Both return plain values, None at
    each point they do not finish, and leave every refusal to the scalar
    path: a None reduction is :func:`reduce_beta` of the point, a None
    oracle :func:`beta_series` of it, the oracle only once the point's
    reduction succeeded.  So a Skipped row keeps its own error name and no
    row depends on its siblings.  A grid of more than ``MAX_TAIL_TERMS``
    points, whose records would all be held at once, raises
    :class:`MaxTermsExceeded` before any is evaluated; a NaN, negative or
    infinite ``tol`` raises ``ValueError``.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if len(nus) * len(zs) > MAX_TAIL_TERMS:
        raise MaxTermsExceeded(
            f"{len(nus)} x {len(zs)} grid points exceed the budget of {MAX_TAIL_TERMS}"
        )
    zs = [to_double(z, complex) for z in zs]
    nus = [Fraction(exact_rational(nu)) for nu in nus]
    methods, columns = beta_series_columns(nus, zs)
    rows = reduce_beta_rows(nus, zs)
    records: List[VerificationRecord] = []
    for i, (nu, method, row) in enumerate(zip(nus, [m.value for m in methods], rows)):
        for z, reduction, column in zip(zs, row, columns):
            try:
                if reduction is None:
                    reduction = reduce_beta(decompose(nu), z).value
                oracle = column[i]
                if oracle is None:
                    oracle = beta_series(nu, z).value
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
    bytes are those of ``csv.writer``.  Each z object is rendered once: keyed by
    identity, since ``0.5`` and ``complex(0.5, -0.0)`` are equal but print
    differently, and held, so no other z can take its id.  Each distinct
    non-zero ``abs_err`` is rendered once, keyed by value: equal non-zero
    floats have the same bits, and a NaN, equal to nothing, finds only
    itself.  A ``rel_err`` equal to it reuses its text.  Zeros are always
    rendered, so ``-0.0`` never prints as ``0.0``.  The error-text cache is
    emptied when it holds ``ERR_TEXTS_HELD`` texts, so it stays below about
    0.5 MB on any grid; on the default grid 58% of the rows find their
    ``abs_err`` text in it.
    """

    def rows():
        z_texts = {}  # id -> (z, its two fields)
        err_texts = {}  # non-zero abs_err -> its text
        for rec in records:
            held = z_texts.get(id(rec.z))
            if held is None:
                held = z_texts[id(rec.z)] = (rec.z, f"{rec.z.real!r},{rec.z.imag!r}")
            err = rec.abs_err
            err_text = err_texts.get(err) if err else repr(err)
            if err_text is None:
                if len(err_texts) == ERR_TEXTS_HELD:
                    err_texts.clear()
                err_text = err_texts[err] = repr(err)
            rel_text = err_text if err and rec.rel_err == err else repr(rec.rel_err)
            yield (
                f"{render_rational(rec.nu)},{held[1]},"
                f"{rec.reduction_value.real!r},{rec.reduction_value.imag!r},"
                f"{rec.oracle_value.real!r},{rec.oracle_value.imag!r},{rec.oracle_method},"
                f"{err_text},{rel_text},{rec.status.value},{rec.note}\n"
            )

    stream.write(VERIFY_CSV_HEADER + "\n")
    stream.writelines(rows())
