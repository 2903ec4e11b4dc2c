"""Benchmark runner for betareduce.

    python3 perfbench/run.py --workload eval-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of the
checkout this file sits in, never from an installed copy, and the run fails
(exit 2, no result) when that source is missing.

``--trace 0`` runs the workload untraced for ``--seconds`` seconds (timed
work and its checks) and reports the end-to-end metrics, with every time
scaled to a quiet host by the probes in ``hostspeed.py``.  ``--trace 1``
runs one fixed batch of the workload (20000 eval-cold ops, ten figure
rounds or one verify call; ``--seconds`` is not used) untraced and with
timing spans, alternately, then once with counters; it reports the
per-layer metrics and the tracing overhead (median traced minus median
untraced wall time), and writes the spans of the median timing pass to
``perfbench/out/``.  Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it repeat each metric by name and
unit, plus figures that are not metrics (failed_frac, max_rel_err, sample
counts, whole-run timings).  Exit code 1 means a correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from hostspeed import START_PROBE_REF_S, host_scale, start_probe_s  # noqa: E402

WORKLOADS = ("verify-grid", "eval-cold", "figure-sweep")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SETUP_CODE = (
    "import betareduce, sys\n"
    "from fractions import Fraction\n"
    "betareduce.incomplete_beta(Fraction(1, 2), 0, 0.25)\n"
    "sys.stdout.write(betareduce.__file__)\n"
)
MAX_REL_ERR_GATE = 1e-10
DIGITS_CAP = 17.0  # -log10 of the error floor a double can resolve

# Fixed traced batches, so counts repeat exactly for a given seed.
TRACE_EVAL_OPS = 20000
TRACE_FIGURE_ROUNDS = 10
TRACE_PAIRS = 3  # untraced/timing-pass pairs; the medians give the overhead


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120, check=True
    )


def _setup_start() -> float:
    """Wall time of one fresh interpreter importing betareduce and evaluating once."""
    t0 = perf_counter()
    proc = _fresh_python(["-c", SETUP_CODE])
    dt = perf_counter() - t0
    if not Path(proc.stdout).resolve().is_relative_to(SRC):
        raise SystemExit(f"fresh interpreter imported betareduce from {proc.stdout}, not {SRC}")
    return dt


def measure_setup() -> tuple[float, list[float]]:
    """Median host-normalised set-up time, and the raw times.  A first,
    uncounted start compiles the bytecode; then starts alternate with
    ``start_probe_s`` runs, each start scaled by the probes on either side."""
    _setup_start()
    raw, times = [], []
    probes = [start_probe_s()]
    for _ in range(SETUP_REPEATS):
        raw.append(_setup_start())
        probes.append(start_probe_s())
        times.append(host_scale(probes[-2], probes[-1], START_PROBE_REF_S) * raw[-1])
    return statistics.median(times), raw


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def measure_import_scipy() -> float:
    """Median cumulative import time of the scipy modules that betareduce
    pulls in, from ``python -X importtime``: the outermost scipy entries."""
    totals = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = _fresh_python(["-X", "importtime", "-c", "import betareduce"])
        entries = [
            (len(m.group(3)), int(m.group(2)))
            for m in map(_IMPORTTIME.match, proc.stderr.splitlines())
            if m and m.group(4).split(".")[0] == "scipy"
        ]
        depth = min((d for d, _ in entries), default=0)
        totals.append(sum(us for d, us in entries if d == depth) / 1e6)
    return statistics.median(totals)


def load_reference() -> list:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def run_workload(wl, name: str, seed: int, seconds: float, out_dir: str):
    if name == "eval-cold":
        return wl.eval_cold(seed, seconds)
    if name == "figure-sweep":
        return wl.figure_sweep(seed, seconds, out_dir)
    return wl.verify_grid(seed, seconds, out_dir)


def run_batch(wl, name: str, seed: int, out_dir: str, tally):
    """The fixed batch of the traced run: 20000 eval-cold ops, ten figure
    rounds or one verify call."""
    if name == "eval-cold":
        ops = wl.EvalColdStream(seed).take(TRACE_EVAL_OPS)
        results: list = []
        wl.run_ops(ops, tally, results)
        wl.check_ops(ops, results, tally, random.Random(seed))
    elif name == "figure-sweep":
        plan = wl.figure_plan(seed)
        for _ in range(TRACE_FIGURE_ROUNDS):
            wl.figure_round(plan, out_dir, tally, {})
    else:
        wl.verify_call(out_dir, tally, random.Random(seed))


def end_to_end(tally, setup_s: float, reference: dict, rss_mb: float) -> dict:
    """The end-to-end metrics; timings are host-normalised (see Tally.summary)."""
    digits = -math.log10(reference["max_rel_err"]) if reference["max_rel_err"] > 0 else DIGITS_CAP
    rate, p50, p90 = tally.summary()
    return {
        "points_per_s": (rate, "points/s"),
        "latency_p50_us": (p50, "us"),
        "latency_p90_us": (p90, "us"),
        "rel_err_digits": (min(digits, DIGITS_CAP), "digits"),
        "accurate_frac": (reference["accurate"] / reference["points"], "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "betareduce" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    setup_times: list[float] = []
    if args.trace:
        import_scipy_s = measure_import_scipy()
    else:
        setup_s, setup_times = measure_setup()

    sys.path.insert(0, str(SRC))
    import workloads as wl  # imports betareduce from SRC

    if not Path(wl.br.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported betareduce from {wl.br.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        if args.trace:
            from tracing import LAYERS, Tracer, layer_metrics

            run_batch(wl, args.workload, args.seed, out_dir, wl.Tally())  # warm-up
            plains, timings = [], []
            for _ in range(TRACE_PAIRS):  # interleaved, so drift hits both sides
                plains.append(wl.Tally())
                run_batch(wl, args.workload, args.seed, out_dir, plains[-1])
                timings.append(wl.Tally(tracer=Tracer(counting=False)))
                run_batch(wl, args.workload, args.seed, out_dir, timings[-1])
            plains.sort(key=lambda t: t.timed_ns)
            timings.sort(key=lambda t: t.timed_ns)
            plain, timing = plains[TRACE_PAIRS // 2], timings[TRACE_PAIRS // 2]
            tally = wl.Tally(tracer=Tracer(counting=True))
            run_batch(wl, args.workload, args.seed, out_dir, tally)
            for other in plains + timings:
                tally.errors += other.errors
            overhead_s = (timing.timed_ns - plain.timed_ns) / 1e9
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            timing.tracer.write_spans(spans_path)
            metrics = layer_metrics(timing.tracer, tally.tracer, overhead_s, import_scipy_s)
            shown = {k: (v, LAYERS[k][0]) for k, v in metrics.items()}
            print(f"# traced batch (median of {TRACE_PAIRS}): untraced {plain.timed_ns / 1e9:.3f} s,"
                  f" timing pass {timing.timed_ns / 1e9:.3f} s,"
                  f" counting pass {tally.timed_ns / 1e9:.3f} s; {len(timing.tracer.names)} spans"
                  f" -> {spans_path.relative_to(ROOT)}")
        else:
            tally = run_workload(wl, args.workload, args.seed, args.seconds, out_dir)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reference = wl.reference_accuracy(load_reference())
            for problem in reference["problems"]:
                tally.check_failed(problem)
            if reference["max_rel_err"] > MAX_REL_ERR_GATE:
                tally.check_failed(f"reference max_rel_err {reference['max_rel_err']:.3e} > {MAX_REL_ERR_GATE}")
            shown = end_to_end(tally, setup_s, reference, rss_mb)
            raw_rate = (tally.attempted - tally.failed) / (tally.timed_ns / 1e9)
            print(f"# {args.workload} seed={args.seed}: {tally.attempted} points attempted in"
                  f" {len(tally.windows)} windows,"
                  f" {tally.checked} outputs checked, timed {tally.timed_ns / 1e9:.3f} s")
            print(f"# whole run, raw wall time, not host-normalised: points_per_s {raw_rate:.6g};"
                  f" median host scale {statistics.median(tally.scales):.4f}")
            print(f"# failed_frac {tally.failed / max(1, tally.attempted):.3g} ({tally.failed}/{tally.attempted})")
            print(f"# max_rel_err {reference['max_rel_err']:.3e} (package metric, {reference['points']} reference points);"
                  f" inaccurate_frac {1 - reference['accurate'] / reference['points']:.4f}"
                  f" (true rel err > 1e-12)")
            print(f"# setup raw wall samples (s), not host-normalised: {', '.join(f'{t:.4f}' for t in setup_times)}")
        for key, note in tally.notes.items():
            print(f"# {key}: {note}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    for what in tally.failures[:5]:
        print(f"# failed op: {what}", file=sys.stderr)
    for what in tally.errors[:10]:
        print(f"# CHECK FAILED: {what}", file=sys.stderr)
    correct = not tally.errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
