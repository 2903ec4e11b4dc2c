"""Benchmark harness: record structure, each method's difference from the closed form, determinism."""

import csv
import io
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from betareduce import Method, OutsideDomain, run_bench, write_bench_csv
from betareduce import bench, render_rational
from betareduce.bench import BENCH_CSV_HEADER, BenchRecord


class TestRunBench:
    def test_empty_grid(self):
        assert run_bench([], repetitions=1) == []

    def test_records_in_method_order(self):
        grid = [(Fraction(5, 4), complex(0.1)), (Fraction(1, 2), complex(0.3))]
        records = run_bench(grid, repetitions=3, warmup=1)
        assert [r.method for r in records] == [
            Method.REDUCTION,
            Method.SERIES,
            Method.QUADRATURE_BETA,
        ] * 2
        for rec in records:
            assert rec.repetitions == 3
            assert rec.median_nanos >= 0

    def test_methods_agree_with_the_closed_form(self):
        records = run_bench([(Fraction(5, 4), complex(0.1))], repetitions=2, warmup=0)
        assert records[0].method is Method.REDUCTION and records[0].rel_diff == 0.0
        assert all(r.rel_diff <= 1e-9 for r in records)

    def test_structure_deterministic(self):
        grid = [(Fraction(1, 2), complex(0.2))]
        a = run_bench(grid, repetitions=2, warmup=0)
        b = run_bench(grid, repetitions=2, warmup=0)
        assert [(r.method, r.nu, r.z, r.repetitions) for r in a] == [
            (r.method, r.nu, r.z, r.repetitions) for r in b
        ]

    def test_invalid_point_tagged(self):
        with pytest.raises(OutsideDomain, match="Series"):
            run_bench([(Fraction(1, 2), complex(1.5))], repetitions=1, warmup=0)

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            run_bench([], repetitions=0)

    def test_warmup_validated(self):
        with pytest.raises(ValueError):
            run_bench([], repetitions=1, warmup=-1)

    # a float or str count used to evaluate every method once, then raise a bare TypeError
    @pytest.mark.parametrize(
        "counts", [{"repetitions": 2.5}, {"repetitions": "2"}, {"repetitions": 1, "warmup": 1.5}]
    )
    def test_non_int_counts_refused_before_any_method(self, monkeypatch, counts):
        calls = []
        for name in ("incomplete_beta", "beta_series", "_quadrature_point"):
            monkeypatch.setattr(bench, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(ValueError, match="must be an int"):
            run_bench([(Fraction(1, 2), complex(0.3))], **counts)
        assert calls == []

    def test_complex_point_refused_by_quadrature(self):
        with pytest.raises(OutsideDomain, match="QuadratureBeta"):
            run_bench([(Fraction(1, 2), complex(0.3, 0.2))], repetitions=1, warmup=0)

    # a method that disagrees with the closed form is graded, not a reason to stop the run
    def test_disagreeing_method_is_reported(self, monkeypatch):
        nu, z = Fraction(1, 2), complex(0.3)
        exact = bench._quadrature_point
        monkeypatch.setattr(bench, "_quadrature_point", lambda nu, z: exact(nu, z) + 1e-6)
        records = run_bench([(nu, z)], repetitions=1, warmup=0)
        assert [r.method for r in records] == [Method.REDUCTION, Method.SERIES, Method.QUADRATURE_BETA]
        assert records[0].rel_diff == 0.0
        assert records[1].rel_diff <= 1e-9
        value = bench.incomplete_beta(nu, 0, z)
        assert records[2].rel_diff == abs(exact(nu, z) + 1e-6 - value) / max(1.0, abs(value))
        assert records[2].rel_diff > 1e-7  # the shift, not noise

    # durations of 100 and 300 ns: the integral mean is a float too, and its field reads 200.0
    def test_mean_is_a_float(self, monkeypatch):
        ticks = itertools.accumulate(itertools.cycle([1, 100, 1, 300]))
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=lambda: next(ticks)))
        records = run_bench([(Fraction(1, 2), complex(0.3))], repetitions=2, warmup=0)
        means = [(r.median_nanos, type(r.mean_nanos), r.mean_nanos) for r in records]
        assert means == [(200, float, 200.0)] * 3
        buf = io.StringIO()
        write_bench_csv(records, buf)
        assert [row["mean_ns"] for row in csv.DictReader(io.StringIO(buf.getvalue()))] == ["200.0"] * 3


class TestCsv:
    def test_schema_and_line_endings(self):
        records = run_bench([(Fraction(1, 2), complex(0.2))], repetitions=2, warmup=0)
        buf = io.StringIO()
        write_bench_csv(records, buf)
        text = buf.getvalue()
        lines = text.split("\n")
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 1 + 3 + 1  # header + three methods + trailing LF
        assert "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "Reduction" and first[1] == "1/2"

    # the rows are written one f-string each: the bytes of a csv.writer rendering, also for
    # non-finite and signed-zero fields, subnormal z and negative nu
    def test_bytes_are_csv_writer_bytes(self):
        floats = [0.3, -0.0, 5e-324, math.nan, -math.inf, 1e300]
        records = [
            BenchRecord(method, nu, complex(re, im), reps, median, mean, rel_diff)
            for method, nu, re, im, reps, median, mean, rel_diff in zip(
                itertools.cycle([Method.REDUCTION, Method.SERIES, Method.QUADRATURE_BETA]),
                [Fraction(1, 2), Fraction(-7, 3), Fraction(5), Fraction(-1, 97)] * 3,
                floats * 2,
                floats[::-1] * 2,
                [1, 2, 100] * 4,
                [0, 7, 123456789] * 4,
                [2, 0.5, math.inf, -0.0] * 3,
                floats[2:] + floats,
            )
        ]
        assert len(records) == 10  # zip stops at the shortest column
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(BENCH_CSV_HEADER.split(","))
        for rec in records:
            writer.writerow(
                [
                    rec.method.value,
                    render_rational(rec.nu),
                    repr(rec.z.real),
                    repr(rec.z.imag),
                    rec.repetitions,
                    rec.median_nanos,
                    repr(rec.mean_nanos),
                    repr(rec.rel_diff),
                ]
            )
        buf = io.StringIO()
        write_bench_csv(records, buf)
        assert buf.getvalue() == expected.getvalue()


# the record is an immutable, hashable tuple with fixed fields, as VerificationRecord is
def test_record_contract():
    fields = ("method", "nu", "z", "repetitions", "median_nanos", "mean_nanos", "rel_diff")
    values = (Method.SERIES, Fraction(1, 2), 0.25j, 3, 100, 101.5, 0.0)
    rec = BenchRecord(*values)
    assert BenchRecord._fields == fields
    assert rec == BenchRecord(**dict(zip(fields, values))) == values
    assert tuple(rec) == values and rec.median_nanos == 100
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert hash(rec) == hash(BenchRecord(*values))
    assert rec._replace(repetitions=4) == values[:3] + (4,) + values[4:] and rec.repetitions == 3
    assert repr(rec) == (
        "BenchRecord(method=<Method.SERIES: 'Series'>, nu=Fraction(1, 2), z=0.25j, repetitions=3,"
        " median_nanos=100, mean_nanos=101.5, rel_diff=0.0)"
    )
