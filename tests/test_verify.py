"""Verification grids: their size, their refusals and their CSV."""

import csv
import io
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
from betareduce import verify


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
    monkeypatch.setattr(verify, "reduce_beta_many", None)  # any evaluation would fail
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
    out = io.StringIO()
    write_verify_csv(records, out)
    assert out.getvalue() == csv_writer_rendering(records)


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


# both signs, the non-positive integer -2 amid them, and more nu than one chunk holds
CHUNKED_NUS = default_nu_grid(n_max=1, q_max=9)[:40] + [Fraction(-2)] + default_nu_grid(n_max=1, q_max=9)[40:]
CHUNKED_ZS = [0.0, 1.2, 0.5j, 0.9]


@pytest.mark.parametrize("chunk", [None, 7])
def test_chunked_records_are_the_pointwise_records(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(verify, "VERIFY_NU_CHUNK", chunk)
    assert len(CHUNKED_NUS) > verify.VERIFY_NU_CHUNK
    records = run_verification(CHUNKED_NUS, CHUNKED_ZS, 1e-10)[0]
    assert [(rec.nu, rec.z) for rec in records] == [
        (nu, complex(z)) for nu in CHUNKED_NUS for z in CHUNKED_ZS
    ]
    for rec in records:
        alone = run_verification([rec.nu], [rec.z], 1e-10)[0]
        assert [record_bits(rec)] == [record_bits(a) for a in alone]
        if rec.status is Status.PASS:
            oracle = beta_series(rec.nu, rec.z).value
            assert (repr(rec.oracle_value.real), repr(rec.oracle_value.imag)) == (
                repr(oracle.real),
                repr(oracle.imag),
            )
    notes = {(rec.status, rec.note) for rec in records}
    assert {
        (Status.PASS, ""),
        (Status.SKIPPED, "OutsideDomain"),
        (Status.SKIPPED, "DivergentParameter"),
    } <= notes
