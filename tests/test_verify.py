"""Verification grids: their size, their refusals and their CSV."""

import collections
import csv
import io
import math
import tracemalloc
from fractions import Fraction

import pytest

from betareduce import (
    MaxTermsExceeded,
    Status,
    VerificationRecord,
    beta_series,
    default_nu_grid,
    default_z_grid,
    fraction_grid,
    render_rational,
    run_verification,
    write_verify_csv,
)
from betareduce import oracles, principal, reduction, verify


def test_unknown_side_refused():
    with pytest.raises(ValueError):
        default_nu_grid(side="x")


# the grid grows as q_max^2: 632,801 parameters at q_max = 400, 159,003 at 200
@pytest.mark.parametrize(
    "build",
    [
        lambda: fraction_grid(100_000),
        lambda: default_nu_grid(q_max=100_000),
        lambda: default_nu_grid(n_max=10**12),
        lambda: default_nu_grid(n_max=-1, q_max=10**9),
    ],
)
def test_grid_beyond_budget_refused(build):
    with pytest.raises(MaxTermsExceeded):
        build()


@pytest.mark.parametrize(
    "build,size",
    [
        (fraction_grid, 45),
        (default_nu_grid, 585),
        (lambda: default_nu_grid(side="neg"), 270),
    ],
)
def test_budget_edge(monkeypatch, build, size):
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", size)
    assert len(build()) == size
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", size - 1)
    with pytest.raises(MaxTermsExceeded):
        build()


# every record (about 274 B) is held until the CSV is written: 1,147,211 points here
def test_point_budget_refused_before_any_evaluation(monkeypatch):
    monkeypatch.setattr(verify, "reduce_beta", None)  # any evaluation would fail
    monkeypatch.setattr(verify, "reduce_beta_rows", None)
    with pytest.raises(MaxTermsExceeded):
        run_verification(default_nu_grid(q_max=100), default_z_grid(), 1e-10)


def test_point_budget_edge(monkeypatch):
    nus, zs = fraction_grid(3), [0.25, 0.5]
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", 6)
    records, passed, _, _ = run_verification(nus, zs, 1e-10)
    assert len(records) == passed == 6
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", 5)
    with pytest.raises(MaxTermsExceeded):
        run_verification(nus, zs, 1e-10)


# a NaN or negative tol would fail every row and an infinite one pass every row
@pytest.mark.parametrize("tol", [math.nan, -1e-10, -math.inf, math.inf])
def test_bad_tolerance_refused_before_any_evaluation(monkeypatch, tol):
    monkeypatch.setattr(verify, "reduce_beta", None)  # any evaluation would fail
    monkeypatch.setattr(verify, "reduce_beta_rows", None)
    with pytest.raises(ValueError, match="tol"):
        run_verification(fraction_grid(3), [0.25, 0.5], tol)


def csv_writer_rendering(records):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(verify.VERIFY_CSV_HEADER.split(","))
    for rec in records:
        writer.writerow(
            [
                render_rational(rec.nu),
                repr(rec.z.real),
                repr(rec.z.imag),
                repr(rec.reduction_value.real),
                repr(rec.reduction_value.imag),
                repr(rec.oracle_value.real),
                repr(rec.oracle_value.imag),
                rec.oracle_method,
                repr(rec.abs_err),
                repr(rec.rel_err),
                rec.status.value,
                rec.note,
            ]
        )
    return out.getvalue()


# one f-string per row: no field holds a comma or a quote, so the bytes are csv.writer's
def test_csv_bytes_are_csv_writer_bytes():
    nus = [Fraction(1, 3), Fraction(-7, 4), Fraction(-2), Fraction(25, 2)]
    zs = [0.5, 1.0, 0.0, complex(0.3, -0.2), complex(2.5, -0.0), -0.75]
    records = run_verification(nus, zs, 1e-10)[0] + run_verification(nus, zs, 0.0)[0]
    statuses = {(rec.status, rec.nu < 0, bool(rec.note)) for rec in records}
    assert {(Status.SKIPPED, True, True), (Status.FAIL, True, False), (Status.PASS, True, False)} <= statuses
    records.append(
        VerificationRecord(Fraction(-37, 3), 1e-300j, -0.0j, 1e300, "ShiftedSeries", 0.0, 5e-324, Status.FAIL)
    )
    # each run of one nu object is rendered once: nu alternating a, b, a, then an equal
    # Fraction that is another object
    a, b, twin = Fraction(2, 7), Fraction(-9, 2), Fraction(2, 7)
    assert twin == a and twin is not a
    records += [records[0]._replace(nu=nu) for nu in (a, b, a, twin)]
    # each z object is rendered once: signed-zero twins are equal but print differently
    twins = [0.5, complex(0.5, -0.0), complex(0.3, 0.0), complex(0.3, -0.0)]
    assert twins[0] == twins[1] and twins[2] == twins[3]
    records += run_verification([Fraction(1, 3), Fraction(-7, 4)], twins, 1e-10)[0]
    # each non-zero abs_err is rendered once and a rel_err equal to it reuses the text: zeros
    # of both signs (equal, but printed apart), NaN, inf, a value repeated across rows, and
    # a rel_err that differs from its abs_err, also after that abs_err was rendered
    errs = [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (math.nan, math.nan),
            (-math.nan, math.nan), (math.inf, math.inf), (math.inf, 0.5), (2.5e-16, 2.5e-16),
            (2.5e-16, 1.25e-16), (2.5e-16, 2.5e-16), (1e-300, 5e-324), (5e-324, 5e-324)]
    records += [
        VerificationRecord(Fraction(1, 3), 0.5, 0.25j, -0.0j, "Series", abs_err, rel_err, Status.PASS)
        for abs_err, rel_err in errs
    ]
    out = io.StringIO()
    write_verify_csv(records, out)
    assert out.getvalue() == csv_writer_rendering(records)


# the error-text cache is emptied when full: texts read before and after it empties are the
# texts of their own values (a cache of three texts here, so it empties several times)
def test_csv_bytes_across_a_full_error_text_cache(monkeypatch):
    monkeypatch.setattr(verify, "ERR_TEXTS_HELD", 3)
    errs = [1e-16, 2e-16, 1e-16, 3e-16, 4e-16, 1e-16, 4e-16, 5e-16, 6e-16, 7e-16, 2e-16, 7e-16]
    records = [
        VerificationRecord(Fraction(1, 3), 0.5, 0.25j, 0.25j, "Series", err, err / (1 + i % 2), Status.PASS)
        for i, err in enumerate(errs)
    ]
    out = io.StringIO()
    write_verify_csv(records, out)
    assert out.getvalue() == csv_writer_rendering(records)
    # and it stays small: 5,000 distinct errors written to a stream that keeps nothing
    many = [records[0]._replace(abs_err=k * 1e-20, rel_err=k * 1e-20) for k in range(1, 5001)]

    class Discard:
        write = staticmethod(len)

        def writelines(self, lines):
            collections.deque(lines, maxlen=0)

    tracemalloc.start()
    try:
        write_verify_csv(many, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # an unbounded cache holds about 500 kB here


# the record is an immutable, hashable tuple with fixed fields: note alone has a default
def test_record_contract():
    fields = ("nu", "z", "reduction_value", "oracle_value", "oracle_method", "abs_err", "rel_err",
              "status", "note")
    values = (Fraction(1, 3), 0.5, 0.25j, 0.25j, "Series", 0.0, 0.0, Status.PASS)
    rec = VerificationRecord(*values)
    assert VerificationRecord._fields == fields and rec.note == ""
    assert rec == VerificationRecord(**dict(zip(fields, values)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(rec) == values + ("",) == rec  # no field moved; it compares as its tuple
    assert hash(rec) == hash(VerificationRecord(*values))
    assert len({rec, VerificationRecord(*values), rec._replace(note="x")}) == 2


def record_bits(rec):
    return (
        rec.nu,
        repr(rec.z),
        repr(rec.reduction_value.real),
        repr(rec.reduction_value.imag),
        repr(rec.oracle_value.real),
        repr(rec.oracle_value.imag),
        rec.oracle_method,
        repr(rec.abs_err),
        repr(rec.rel_err),
        rec.status,
        rec.note,
    )


# the default grid: each nu is split once and each z has one log for the prefactors of
# the whole grid, not one at every point
def test_oracle_work_once_per_nu_and_once_per_z(monkeypatch):
    nus, zs = default_nu_grid(), default_z_grid()
    assert (len(nus), len(zs)) == (585, 29)
    splits, logs = [], []
    split, log = oracles._series_split, principal.principal_log
    monkeypatch.setattr(oracles, "_series_split", lambda nu: splits.append(nu) or split(nu))
    monkeypatch.setattr(principal, "principal_log", lambda w: logs.append(w) or log(w))
    records, passed, _, _ = run_verification(nus, zs, 1e-10)
    assert passed == len(records) == len(nus) * len(zs)
    assert splits == nus
    assert logs == zs


# the reduction takes one log of each z per denominator q >= 3 of the grid, shared by every
# p/q and every shift: 174 logs for a timed benchmark window (21 nu, 6 such q, 29 z), not
# 580, and 290 for the default grid (10 such q), not 2,668
@pytest.mark.parametrize("nus", [default_nu_grid(0, 8), default_nu_grid()])
def test_reduction_logs_once_per_q_and_z(monkeypatch, nus):
    zs = default_z_grid()
    logs = []
    log = reduction.principal_log
    monkeypatch.setattr(reduction, "principal_log", lambda w: logs.append(w) or log(w))
    records, passed, _, _ = run_verification(nus, zs, 1e-10)
    assert passed == len(records) == len(nus) * len(zs)
    assert logs == zs * len({nu.denominator for nu in nus if nu.denominator >= 3})
    assert len(logs) == {21: 174, 585: 290}[len(nus)]


# the oracle columns hold plain values: no Evaluation is built where every column is a list
def test_columns_build_no_evaluation(monkeypatch):
    built = []
    evaluation = oracles.Evaluation
    monkeypatch.setattr(oracles, "Evaluation", lambda *args: built.append(args) or evaluation(*args))
    records, passed, _, _ = run_verification(default_nu_grid(1, 8), default_z_grid(), 1e-10)
    assert passed == len(records) == 1827
    assert built == []


# both signs, several denominators, and the non-positive integer -2 amid them
GRID_NUS = default_nu_grid(n_max=1, q_max=9)[:40] + [Fraction(-2)] + default_nu_grid(n_max=1, q_max=9)[40:]
GRID_ZS = [0.0, 1.2, 0.5j, 0.9]


def test_grid_records_are_the_pointwise_records():
    records = run_verification(GRID_NUS, GRID_ZS, 1e-10)[0]
    assert [(rec.nu, rec.z) for rec in records] == [
        (nu, complex(z)) for nu in GRID_NUS for z in GRID_ZS
    ]
    for rec in records:
        alone = run_verification([rec.nu], [rec.z], 1e-10)[0]
        assert [record_bits(rec)] == [record_bits(a) for a in alone]
        if rec.status is Status.PASS:
            oracle = beta_series(rec.nu, rec.z)
            assert (repr(rec.oracle_value.real), repr(rec.oracle_value.imag)) == (
                repr(oracle.value.real),
                repr(oracle.value.imag),
            )
            # the method comes from the per-nu list, not from the point
            assert rec.oracle_method == oracle.method.value
    notes = {(rec.status, rec.note) for rec in records}
    assert {
        (Status.PASS, ""),
        (Status.SKIPPED, "OutsideDomain"),
        (Status.SKIPPED, "DivergentParameter"),
    } <= notes


# z = 1 and NaN refuse both sides; at 0.9999 the reduction runs but the series needs about
# 368,000 terms, so a budget of 1,000 refuses the oracle alone
REFUSING_NUS = [Fraction(1, 3), Fraction(-7, 4), Fraction(-2), Fraction(5, 2), Fraction(1), Fraction(-1, 3)]
REFUSING_ZS = [1.0, complex(math.nan, 0.0), complex(0.3, -0.0), 0.9999]


def test_refused_points_are_the_pointwise_records(monkeypatch):
    monkeypatch.setattr(oracles, "SERIES_MAX_TERMS", 1000)
    records, passed, failed, skipped = run_verification(REFUSING_NUS, REFUSING_ZS, 1e-17)
    statuses = [rec.status for rec in records]
    assert (passed, failed, skipped) == tuple(statuses.count(s) for s in Status)
    assert passed and failed and skipped
    for rec in records:
        alone = run_verification([rec.nu], [rec.z], 1e-17)[0]
        assert [record_bits(rec)] == [record_bits(a) for a in alone]
    notes = {(rec.z.real, rec.note) for rec in records if rec.status is Status.SKIPPED}
    assert (0.9999, "MaxTermsExceeded") in notes and (1.0, "BranchPoint") in notes


# at 1 - 1e-15 every reduction is refused: a per-point series there would run its budget
# once for each nu
@pytest.mark.parametrize("z", [1.0, 1 - 1e-15])
def test_oracle_runs_only_after_a_reduction(monkeypatch, z):
    monkeypatch.setattr(oracles, "SERIES_MAX_TERMS", 1000)
    calls = []
    monkeypatch.setattr(verify, "beta_series", lambda nu, z: calls.append(nu) or beta_series(nu, z))
    records = run_verification(REFUSING_NUS, [z, 0.9999], 1e-10)[0]
    assert {rec.note for rec in records if rec.z == z} == {"BranchPoint", "DivergentParameter"}
    # the column at 0.9999 is refused too: its oracle runs for each point whose reduction ran
    assert calls == [rec.nu for rec in records if rec.note == "MaxTermsExceeded"]
    assert calls


# -2 (its split is refused) and 1/10^301 (its series parameter is below 1e-300) leave the
# batch values of the 21 other nu in place; their own reductions are refused, so no point
# of the grid goes to the per-point oracle
@pytest.mark.parametrize("bad", [Fraction(-2), Fraction(1, 10**301)])
def test_refused_nu_costs_only_its_own_points(monkeypatch, bad):
    nus, zs = default_nu_grid(0, 8) + [bad], default_z_grid()
    calls = []
    monkeypatch.setattr(verify, "beta_series", lambda nu, z: calls.append(nu) or beta_series(nu, z))
    records = run_verification(nus, zs, 1e-10)[0]
    assert calls == []
    assert {(rec.status, rec.note) for rec in records if rec.nu == bad} <= {
        (Status.SKIPPED, "DivergentParameter"),
        (Status.SKIPPED, "MaxTermsExceeded"),
    }
    monkeypatch.undo()
    for rec in records:
        alone = run_verification([rec.nu], [rec.z], 1e-10)[0]
        assert [record_bits(rec)] == [record_bits(a) for a in alone]


def assert_records_are_pointwise(records, base, added):
    """The records of the added points are their pointwise records, the others those of base."""
    others = iter(base)
    for rec in records:
        if added(rec):
            alone = run_verification([rec.nu], [rec.z], 1e-10)[0]
            assert [record_bits(rec)] == [record_bits(a) for a in alone]
        else:
            assert record_bits(rec) == record_bits(next(others))
    assert next(others, None) is None


# z = 1 refuses every reduction: its 585 points are the only scalar reductions, after one
# batch call (the batch finishes every other point, the q = 2 lanes on (0, 1) among them)
def test_refused_z_costs_only_its_own_points(monkeypatch):
    nus, zs = default_nu_grid(), default_z_grid() + [1.0]
    scalar, batches, oracle = [], [], []
    value, grouped = reduction.reduce_beta, reduction._grouped_rows
    monkeypatch.setattr(verify, "reduce_beta", lambda dec, z: scalar.append(z) or value(dec, z))
    monkeypatch.setattr(
        reduction, "_grouped_rows", lambda decs, zs: batches.append(len(decs)) or grouped(decs, zs)
    )
    monkeypatch.setattr(verify, "beta_series", lambda nu, z: oracle.append(nu) or beta_series(nu, z))
    records = run_verification(nus, zs, 1e-10)[0]
    assert batches == [585]
    assert len(scalar) == 585 and scalar.count(1.0) == 585
    assert oracle == []
    monkeypatch.undo()
    base = run_verification(nus, default_z_grid(), 1e-10)[0]
    assert_records_are_pointwise(records, base, lambda rec: rec.z == 1.0)


# the correction of -2000/3 overflows at 1e-3 and at the real z up to 0.3: the oracle pass
# leaves those points alone None, and their reductions are refused too, so no point of the
# grid goes to the per-point oracle
def test_refused_oracle_point_costs_only_itself(monkeypatch):
    bad = Fraction(-2000, 3)
    nus, zs = default_nu_grid() + [bad], default_z_grid() + [1e-3]
    calls = []
    monkeypatch.setattr(verify, "beta_series", lambda nu, z: calls.append(nu) or beta_series(nu, z))
    records = run_verification(nus, zs, 1e-10)[0]
    assert calls == []
    monkeypatch.undo()
    base = run_verification(default_nu_grid(), default_z_grid(), 1e-10)[0]
    assert_records_are_pointwise(records, base, lambda rec: rec.nu == bad or rec.z == 1e-3)


# the series of 10^4 stops after 359 terms, past the 354 columns of the oracle pass at -0.9:
# the pass leaves that point alone None, so the oracle runs once, for 10^4 only
def test_row_that_does_not_stop_costs_only_its_own_point(monkeypatch):
    nus = [Fraction(1, 2), Fraction(10**4)]
    calls = []
    monkeypatch.setattr(verify, "beta_series", lambda nu, z: calls.append(nu) or beta_series(nu, z))
    records, passed, failed, skipped = run_verification(nus, [-0.9], 1e-10)
    assert calls == [Fraction(10**4)]
    assert (passed, failed, skipped) == (2, 0, 0)
    monkeypatch.undo()
    for rec in records:
        alone = run_verification([rec.nu], [rec.z], 1e-10)[0]
        assert [record_bits(rec)] == [record_bits(a) for a in alone]


# principal.BATCH_CELLS caps the blocks of both grid batches: at 13 cells the oracle pass
# sums one row a block (13 columns at |z| = 0.01) and the reduction batch splits the 5 z of
# q = 3 and q = 4 into chunks of 13 // q; every record stays bitwise, and no point leaves
# the batches
def test_one_block_budget_chunks_both_batches(monkeypatch):
    nus, zs = default_nu_grid(0, 4), [0.01, 0.01j, -0.01, 0.005 + 0.005j, 1e-3]
    base = run_verification(nus, zs, 1e-10)[0]
    chunks, oracle = [], []
    rows_chunk = reduction._rows_chunk
    monkeypatch.setattr(
        reduction, "_rows_chunk", lambda q, decs, zs: chunks.append(len(zs)) or rows_chunk(q, decs, zs)
    )
    monkeypatch.setattr(verify, "beta_series", lambda nu, z: oracle.append(nu) or beta_series(nu, z))
    monkeypatch.setattr(principal, "BATCH_CELLS", 13)
    records = run_verification(nus, zs, 1e-10)[0]
    assert [record_bits(rec) for rec in records] == [record_bits(rec) for rec in base]
    assert oracle == []
    assert chunks == [5, 4, 1, 3, 2]  # q = 2, 3, 4
    # at 12 cells the 13 columns of the three z with |z| = 0.01 pass the budget: their
    # oracles run point by point, with the same records
    monkeypatch.setattr(principal, "BATCH_CELLS", 12)
    records = run_verification(nus, zs, 1e-10)[0]
    assert [record_bits(rec) for rec in records] == [record_bits(rec) for rec in base]
    assert len(oracle) == 3 * len(nus)
