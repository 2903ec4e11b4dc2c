"""Tests of the benchmark itself: seeded inputs, output checks, failure
counting, metric names and the per-layer metric map.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import betareduce as br  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from hostspeed import HOST_REF_NS, START_PROBE_REF_S  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _results(ops):
    results: list = []
    wl.run_ops(ops, wl.Tally(), results)
    return results


@pytest.fixture
def check_all(monkeypatch):
    monkeypatch.setattr(wl, "SERIES_CHECK_SHARE", 1.1)


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert wl.EvalColdStream(7).take(500) == wl.EvalColdStream(7).take(500)
    assert wl.EvalColdStream(7).take(500) != wl.EvalColdStream(8).take(500)
    assert wl.figure_plan(7) == wl.figure_plan(7)
    assert wl.figure_plan(7) != wl.figure_plan(8)


def test_eval_cold_stream_covers_the_stated_regions():
    ops = wl.EvalColdStream(3).take(5000)
    kinds = {op[0] for op in ops}
    assert kinds == set(wl.EVAL_MIX)
    radii = [abs(op[3]) for op in ops if op[0] != "tanh"]
    assert min(radii) < 2e-3 and max(radii) > 9
    assert any(op[3].imag == 0 and op[3].real > 1 for op in ops)
    dens = [br.parse_rational(op[1]).denominator for op in ops]
    assert max(dens) >= 90 and sum(d <= 24 for d in dens) > 0.9 * len(dens)
    assert any("." in op[1] for op in ops) and any(op[1].startswith("-") for op in ops)


def test_unperturbed_eval_cold_outputs_pass(check_all):
    ops = wl.EvalColdStream(5).take(300)
    tally = wl.Tally()
    wl.check_ops(ops, _results(ops), tally, wl.random.Random(0))
    assert tally.errors == [] and tally.failed == 0
    assert tally.checked > 100


@pytest.mark.parametrize("kind, z", [("beta", 0.3 + 0.2j), ("lerch", 0.5j), ("tanh", 0.7 + 0j), ("beta_mu", 0.4 + 0j), ("beta", 3.0 + 0j)])
def test_perturbed_eval_cold_value_is_flagged(check_all, kind, z):
    op = (kind, "7/3", 2 if kind == "beta_mu" else 0, z)
    value = wl.execute(*op)
    good, bad = wl.Tally(), wl.Tally()
    wl.check_ops([op], [value], good, wl.random.Random(0))
    wl.check_ops([op], [value * (1 + 1e-6) + 1e-6], bad, wl.random.Random(0))
    assert good.errors == []
    assert len(bad.errors) == 1


def test_raising_op_is_counted_as_failed():
    ops = [("beta", "1/2", 0, 0.25 + 0j), ("beta", "1/0", 0, 0.5j), ("beta", "-2", 0, 0.3 + 0j)]
    tally = wl.Tally()
    wl.check_ops(ops, _results(ops), tally, wl.random.Random(0))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed / tally.attempted == pytest.approx(2 / 3)
    assert "ParseError" in tally.failures[0] and "DivergentParameter" in tally.failures[1]


def test_perturbed_figure_row_is_flagged(tmp_path):
    call = ("37/3", 20, 1.1, 9.0)
    path = str(tmp_path / "f.csv")
    assert br.cli.main(wl.figure_argv(call, path)) == 0
    good = wl.Tally()
    wl.check_figure_csv(path, call, good)
    assert good.errors == [] and good.checked == 20
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][1] = repr(float(rows[5][1]) + 1e-8)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    bad = wl.Tally()
    wl.check_figure_csv(path, call, bad)
    assert len(bad.errors) == 1


def test_perturbed_verify_row_is_flagged(tmp_path):
    path = str(tmp_path / "v.csv")
    assert br.cli.main(["verify", "--n-max", "0", "--q-max", "4", "--out", path]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    good = wl.Tally()
    wl.check_verify_csv(path, good, wl.random.Random(0), expect_rows=len(rows))
    assert good.errors == [] and good.checked == len(rows)
    rows[3]["reduction_re"] = repr(float(rows[3]["reduction_re"]) + 1e-6)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    bad = wl.Tally()
    wl.check_verify_csv(path, bad, wl.random.Random(0), expect_rows=len(rows))
    assert bad.errors  # caught by the row's own columns and, if sampled, by the series
    short = wl.Tally()
    wl.check_verify_csv(path, short, wl.random.Random(0), expect_rows=len(rows) + 1)
    assert any("rows" in e for e in short.errors)


def test_perturbed_reference_value_moves_the_accuracy_figures():
    entries = run.load_reference()
    base = wl.reference_accuracy(entries)
    assert base["problems"] == [] and base["max_rel_err"] <= run.MAX_REL_ERR_GATE
    target = next(i for i, e in enumerate(entries) if e["region"] == "real-ray")
    bad = [dict(e) for e in entries]
    bad[target]["re"] *= 1 + 1e-9
    moved = wl.reference_accuracy(bad)
    assert moved["max_rel_err"] > run.MAX_REL_ERR_GATE
    assert moved["accurate"] == base["accurate"] - 1


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_every_per_layer_metric_maps_to_an_end_to_end_metric_and_workload():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [(k, u) for k, (u, _) in LAYERS.items()]
    for name, (_, target) in LAYERS.items():
        if name.startswith("trace."):
            assert target is None
            continue
        metric, workload = target
        assert metric in e2e and workload in workloads, name


def test_end_to_end_keys_match_benchmark_json():
    tally = wl.Tally()

    def step():
        tally.latencies_us.extend([1.0, 2.0, 3.0])
        tally.attempted += 3
        tally.timed_ns += 10**6

    tally.window(step)
    shown = run.end_to_end(tally, 0.5, {"points": 4, "max_rel_err": 1e-15, "accurate": 3}, 50.0)
    assert shown["points_per_s"][0] == pytest.approx(3000) and shown["latency_p50_us"][0] == 2.0
    assert list(shown) == [m["name"] for m in BENCH["end_to_end"]]
    assert {k: u for k, (_, u) in shown.items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def test_normalised_window_scales_timings_by_the_host_probe(monkeypatch):
    monkeypatch.setattr(wl, "host_ns", lambda: 2 * HOST_REF_NS)  # a host at half speed
    tally = wl.Tally(normalise=True)

    def step():
        with wl._timed(tally):
            tally.latencies_us.extend([4.0, 6.0])
            tally.attempted += 2
            tally.timed_ns += 10**6

    tally.window(step)
    rate, p50, _ = tally.summary()
    assert tally.scales == [0.5]
    assert rate == pytest.approx(4000) and p50 == pytest.approx(2.5)


def test_setup_time_is_scaled_by_the_start_probes(monkeypatch):
    monkeypatch.setattr(run, "start_probe_s", lambda: 2 * START_PROBE_REF_S)
    monkeypatch.setattr(run, "_setup_start", lambda: 1.0)
    setup_s, raw = run.measure_setup()
    assert setup_s == pytest.approx(0.5) and raw == [1.0] * run.SETUP_REPEATS


def test_traced_batch_reports_every_layer_metric_and_restores_the_package():
    original = br.incomplete_beta
    ops = wl.EvalColdStream(1).take(200)
    timing = wl.Tally(tracer=Tracer(counting=False))
    wl.run_ops(ops, timing, [])
    counting = wl.Tally(tracer=Tracer(counting=True))
    wl.run_ops(ops, counting, [])
    assert br.incomplete_beta is original
    metrics = layer_metrics(timing.tracer, counting.tracer, 0.0, 0.1)
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    assert metrics["reduction.evals"] == 200 and metrics["rationals.calls"] >= 200
    assert metrics["principal.log_calls"] > 0 and metrics["oracles.series_s"] == 0
    assert all(t >= 0 for t in timing.tracer.self_times_ns())


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
