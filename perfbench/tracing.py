"""Layer spans and counters for the traced benchmark run.

The package itself is never edited.  ``Tracer.install`` rebinds the public
functions at each layer boundary -- in every loaded ``betareduce`` module that
holds a reference to them, so ``from .x import f`` bindings are covered too --
to wrappers that record a span (name, start, end, parent) or bump a counter,
and ``Tracer.uninstall`` puts the originals back.  Spans stay in memory until
``write_spans`` runs after the timed batch.

Functions called far too often to time individually (``principal_log``,
``CompensatedSum.add``) are only counted, by the layer of the innermost open
span, so that counts such as logs per evaluation are taken where the work
happens.  Counters and the result hooks (method, kappa, terms) would inflate
the self time of the spans around them, so a traced run makes two passes: a
timing pass with bare spans, whose times are reported, and a counting pass
with counters and hooks, whose counts are reported.  A name the package no
longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute, layer) of every function that gets a span.
SPANNED = (
    ("betareduce.rationals", "parse_rational", "rationals"),
    ("betareduce.rationals", "decompose_pos", "rationals"),
    ("betareduce.rationals", "decompose_neg", "rationals"),
    ("betareduce.reduction", "incomplete_beta", "reduction"),
    ("betareduce.reduction", "reduce_beta_pos", "reduction"),
    ("betareduce.reduction", "reduce_beta_neg", "reduction"),
    ("betareduce.reduction", "lerch_reduce", "reduction"),
    ("betareduce.reduction", "beta_mu_posint", "reduction"),
    ("betareduce.oracles", "beta_series", "oracles"),
    ("betareduce.oracles", "lerch_series", "oracles"),
    ("betareduce.integrals", "int_power_over_linear", "integrals"),
    ("betareduce.integrals", "int_tanh_power", "integrals"),
    ("betareduce.verify", "run_verification", "verify"),
    ("betareduce.verify", "write_verify_csv", "verify"),
    ("betareduce.cli", "main", "cli"),
)

# Method names reported as reduction.method.<name>; "PolynomialMu" is the
# finite binomial sum, which returns no trace of its own.
METHODS = ("IntegerLog", "HalfAtanh", "RootsOfUnityPos", "RootsOfUnityNeg", "PolynomialMu")

# Per-layer metric -> (unit, (end-to-end metric, workload) it should move).
# The trace.* metrics describe the instrument, not a layer, and move nothing.
LAYERS = {
    "rationals.parse_us": ("us", ("latency_p50_us", "eval-cold")),
    "rationals.decompose_us": ("us", ("latency_p50_us", "eval-cold")),
    "rationals.calls": ("count", ("latency_p50_us", "eval-cold")),
    "principal.log_calls": ("count", ("points_per_s", "figure-sweep")),
    "principal.compsum_adds": ("count", ("points_per_s", "verify-grid")),
    "reduction.self_s": ("s", ("points_per_s", "figure-sweep")),
    "reduction.evals": ("count", ("points_per_s", "figure-sweep")),
    "reduction.logs_per_eval": ("logs/eval", ("points_per_s", "figure-sweep")),
    "reduction.tail_terms_per_eval": ("terms/eval", ("latency_p50_us", "eval-cold")),
    **{f"reduction.method.{m}": ("count", ("latency_p50_us", "eval-cold")) for m in METHODS},
    "reduction.kappa_p99": ("ratio", ("accurate_frac", "eval-cold")),
    "oracles.series_s": ("s", ("points_per_s", "verify-grid")),
    "oracles.series_terms_per_eval": ("terms/eval", ("points_per_s", "verify-grid")),
    "oracles.import_scipy_s": ("s", ("setup_s", "eval-cold")),
    "integrals.self_s": ("s", ("latency_p50_us", "eval-cold")),
    "integrals.calls": ("count", ("latency_p50_us", "eval-cold")),
    "verify.loop_self_s": ("s", ("points_per_s", "verify-grid")),
    "verify.csv_s": ("s", ("points_per_s", "verify-grid")),
    "cli.self_s": ("s", ("points_per_s", "figure-sweep")),
    "trace.overhead_s": ("s", None),
}


class Tracer:
    """Spans, and with ``counting`` also counters and hooks, for one batch."""

    def __init__(self, counting: bool) -> None:
        self.counting = counting
        self.names: list[str] = []
        self.layers: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack: list[int] = []
        self.log_calls: Counter = Counter()  # layer of innermost span -> count
        self.compsum_adds = 0
        self.methods: Counter = Counter()
        self.tail_terms = 0
        self.kappas: list[float] = []
        self.series_terms = 0
        self.series_evals = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "betareduce"]
        hooks = {
            "reduce_beta_pos": self._on_reduction,
            "reduce_beta_neg": self._on_reduction,
            "beta_mu_posint": self._on_binomial,
            "beta_series": self._on_series,
            "lerch_series": self._on_series,
        }
        for modname, attr, layer in SPANNED:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is not None:
                hook = hooks.get(attr) if self.counting else None
                self._rebind(modules, original, self._span(attr, layer, original, hook))
        if not self.counting:
            return
        principal = sys.modules.get("betareduce.principal")
        log = getattr(principal, "principal_log", None)
        if log is not None:
            self._rebind(modules, log, self._count_logs(log))
        compsum = getattr(principal, "CompensatedSum", None)
        if compsum is not None:
            self._set(compsum, "add", self._count_adds(compsum.add))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, layer, fn, hook):
        names, layers, parents = self.names, self.layers, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count_logs(self, fn):
        counts, layers, stack = self.log_calls, self.layers, self._stack

        def counted(*args, **kwargs):
            counts[layers[stack[-1]] if stack else "none"] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_adds(self, fn):
        tracer = self

        def counted(self, *args, **kwargs):
            tracer.compsum_adds += 1
            return fn(self, *args, **kwargs)

        return counted

    def _on_reduction(self, args, result) -> None:
        value, trace = result if isinstance(result, tuple) else (getattr(result, "value", result), result)
        method = getattr(getattr(trace, "method", None), "value", "other")
        self.methods[method] += 1
        if value == 0:
            return
        self.tail_terms += getattr(args[0], "n", 0)
        contributions = getattr(trace, "contributions", None)
        if contributions is not None:
            spread = sum(abs(c) for c in contributions()) + abs(getattr(trace, "tail_sum", 0j))
            self.kappas.append(spread / abs(value))

    def _on_binomial(self, args, result) -> None:
        self.methods["PolynomialMu"] += 1
        self.tail_terms += int(args[1]) + 1

    def _on_series(self, args, result) -> None:
        self.series_terms += getattr(result, "terms_or_nodes", 0)
        self.series_evals += 1

    # -- results -------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        child = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def write_spans(self, path) -> None:
        """One JSON object per span; ``op`` is the index of its root span."""
        roots: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                parent = self.parents[i]
                roots.append(i if parent < 0 else roots[parent])
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "op": roots[i],
                            "name": name,
                            "layer": self.layers[i],
                            "parent": parent,
                            "start_ns": self.starts[i],
                            "end_ns": self.ends[i],
                        }
                    )
                    + "\n"
                )


def layer_metrics(timing: Tracer, counting: Tracer, overhead_s: float, import_scipy_s: float) -> dict:
    """Every per-layer metric of a batch, keyed as in BENCHMARK.json: times
    from the timing pass, counts from the counting pass."""
    self_ns = timing.self_times_ns()
    dur = [e - s for s, e in zip(timing.starts, timing.ends)]

    def spans(tracer, *names):
        return [i for i, n in enumerate(tracer.names) if n in names]

    def mean_us(*names):
        idx = spans(timing, *names)
        return sum(dur[i] for i in idx) / len(idx) / 1e3 if idx else 0.0

    def self_s(layer):
        return sum(t for t, lay in zip(self_ns, timing.layers) if lay == layer) / 1e9

    c = counting
    evals = sum(c.methods.values())
    out = {
        "rationals.parse_us": mean_us("parse_rational"),
        "rationals.decompose_us": mean_us("decompose_pos", "decompose_neg"),
        "rationals.calls": len(spans(c, "parse_rational", "decompose_pos", "decompose_neg")),
        "principal.log_calls": sum(c.log_calls.values()),
        "principal.compsum_adds": c.compsum_adds,
        "reduction.self_s": self_s("reduction"),
        "reduction.evals": evals,
        "reduction.logs_per_eval": c.log_calls["reduction"] / evals if evals else 0.0,
        "reduction.tail_terms_per_eval": c.tail_terms / evals if evals else 0.0,
    }
    for m in METHODS:
        out[f"reduction.method.{m}"] = c.methods[m]
    out["reduction.kappa_p99"] = _p99(c.kappas)
    out["oracles.series_s"] = sum(dur[i] for i in spans(timing, "beta_series", "lerch_series")) / 1e9
    out["oracles.series_terms_per_eval"] = c.series_terms / c.series_evals if c.series_evals else 0.0
    out["oracles.import_scipy_s"] = import_scipy_s
    out["integrals.self_s"] = self_s("integrals")
    out["integrals.calls"] = len(spans(c, "int_power_over_linear", "int_tanh_power"))
    out["verify.loop_self_s"] = sum(self_ns[i] for i in spans(timing, "run_verification")) / 1e9
    out["verify.csv_s"] = sum(dur[i] for i in spans(timing, "write_verify_csv")) / 1e9
    out["cli.self_s"] = self_s("cli")
    out["trace.overhead_s"] = overhead_s
    return out


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]
