"""Seeded inputs, timed loops and output checks for the benchmark workloads.

Every workload is a closed loop with one caller in one thread: the next
operation starts only after the previous one returned.  Inputs come from the
seed alone; the package only ever sees the generated inputs.  Outputs are
checked outside the timed region:

* ``verify-grid``: exit code 0, the CSV's row count and statuses, every row's
  error recomputed from its own columns, and a seeded sample of rows
  re-evaluated against ``beta_series``;
* ``eval-cold``: every value finite; real-ray results against Im B = -pi;
  a seeded sample of |z| < 1 results against ``beta_series`` (a series call
  costs 30 to 1000 us, several times the operation it checks);
* ``figure-sweep``: every row's Im B within 1e-9 of -pi.

Errors use the package convention |diff| / max(1, |ref|).
"""

from __future__ import annotations

import cmath
import csv
import math
import os
import random
import statistics
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from time import perf_counter_ns

import betareduce as br
import betareduce.cli  # noqa: F401 -- binds br.cli
from hostspeed import host_ns, host_scale

CHECK_TOL = 1e-9  # package-convention error allowed against beta_series
FIGURE_IM_TOL = 1e-9  # |Im B + pi| allowed on the real ray
VERIFY_GRID_POINTS = 585 * 29  # default nu grid x default z grid
# verify-grid windows: the part of the default grid with n = 0 and q <= 8
# (21 nu x the same 29 z), about 0.06 s a call against 2-3 s for the whole
# grid, so that a run holds hundreds of windows.
VERIFY_WINDOW_ARGS = ("--n-max", "0", "--q-max", "8")
VERIFY_WINDOW_POINTS = 21 * 29
EVAL_CHUNK = 500  # eval-cold ops per window, about 0.025 s
VERIFY_RECHECK_SHARE = 60  # one row in this many is re-evaluated by series
SERIES_CHECK_SHARE = 0.02  # share of eval-cold |z| < 1 ops rechecked by series

# eval-cold operation mix: kind -> weight.
EVAL_MIX = {"beta": 0.70, "lerch": 0.07, "powlin": 0.07, "tanh": 0.08, "beta_mu": 0.08}
LARGE_Q_SHARE = 0.04  # "occasional q near 100"
NEGATIVE_SHARE = 0.3  # of beta and beta_mu ops
# z regions: unit disk, real ray z > 1, complex 1 < |z| <= 10, and the
# cancellation region |z| in [1e-3, 1e-2] that ROADMAP item 1 targets.
Z_REGIONS = {"disk": 0.35, "ray": 0.15, "far": 0.25, "small": 0.25}
BETA_MU_REGIONS = {"disk": 0.5, "far": 0.3, "small": 0.2}

# figure-sweep: nu text -> points per call.  Large-q sweeps (4/97, 3/1000)
# spend their time in the q-term log loop, small-q ones in the power tail
# and per-row CLI overhead; the point counts give each group about half of
# the timed wall time (measured shares are printed by every run) and keep
# each call near 0.02 s.
FIGURE_POINTS = {"12.3": 300, "37/3": 300, "7/2": 300, "5": 300, "4/97": 60, "3/1000": 8}


@dataclass
class Tally:
    """What one workload run did: timings, counts and failed checks."""

    latencies_us: array = field(default_factory=lambda: array("d"))  # raw, since the window began
    timed_ns: int = 0
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    errors: list = field(default_factory=list)  # failed checks, as text
    failures: list = field(default_factory=list)  # raised or non-finite ops
    notes: dict = field(default_factory=dict)
    tracer: object = None  # installed around each timed call, never around checks
    normalise: bool = False  # probe the host speed around each timed stretch
    scales: list = field(default_factory=list)  # host_scale of each timed stretch
    # (normalised ns, completed, p50 us, p90 us) per window; a run keeps no
    # per-op record, so peak_rss_mb does not grow when ops get faster
    windows: list = field(default_factory=list)

    def scale(self) -> float:
        """The host scale of the last timed stretch (1 when not normalising)."""
        return self.scales[-1] if self.normalise else 1.0

    def window(self, step) -> None:
        """Run ``step`` (one timed stretch and its checks) as one window."""
        ns, ok = self.timed_ns, self.attempted - self.failed
        del self.latencies_us[:]
        step()
        k = self.scale()
        lat = self.latencies_us
        self.windows.append(
            (k * (self.timed_ns - ns), self.attempted - self.failed - ok, k * percentile(lat, 50), k * percentile(lat, 90))
        )

    def summary(self) -> tuple[float, float, float]:
        """Host-normalised points per second, p50 and p90 latency, each the
        median over windows of the window's figure.  The median drops the
        windows that a burst on the host slowed partway through, which the
        probes around a window do not see."""
        rate = statistics.median(done / (ns / 1e9) for ns, done, _, _ in self.windows)
        p50 = statistics.median(w[2] for w in self.windows)
        p90 = statistics.median(w[3] for w in self.windows)
        return rate, p50, p90

    def check_failed(self, what: str) -> None:
        self.errors.append(what)

    def op_failed(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


@contextmanager
def _timed(tally: Tally):
    """Around a timed stretch: the tracer, if any, and the host probes."""
    before = host_ns() if tally.normalise else 0
    if tally.tracer is not None:
        tally.tracer.install()
    try:
        yield
    finally:
        if tally.tracer is not None:
            tally.tracer.uninstall()
        if tally.normalise:
            tally.scales.append(host_scale(before, host_ns()))


def percentile(values, q: int) -> float:
    """The q-th percentile, inclusive method; the only value if there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def package_rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


# -- eval-cold ---------------------------------------------------------------


def _fractions(q_lo: int, q_hi: int) -> list[tuple[int, int]]:
    return [(p, q) for q in range(q_lo, q_hi + 1) for p in range(1, q) if gcd(p, q) == 1]


def _nu_text(nu: Fraction, rng: random.Random) -> str:
    """CLI-style text: integers bare, decimals when exact and the coin says so."""
    if nu.denominator == 1:
        return str(nu.numerator)
    if 1000 % nu.denominator == 0 and rng.random() < 0.5:
        scaled = abs(nu) * 1000
        sign = "-" if nu < 0 else ""
        whole, frac = divmod(int(scaled), 1000)
        return f"{sign}{whole}.{frac:03d}".rstrip("0")
    return f"{nu.numerator}/{nu.denominator}"


class _Pool:
    """A shuffled pool drawn without replacement, reshuffled when used up.

    Each value comes back about once per pass through the pool, so a cache
    much smaller than the pool almost never hits.
    """

    def __init__(self, values: list[Fraction], rng: random.Random) -> None:
        self.values = list(values)
        self.rng = rng
        self.pos = len(self.values)

    def draw(self) -> Fraction:
        if self.pos == len(self.values):
            self.rng.shuffle(self.values)
            self.pos = 0
        self.pos += 1
        return self.values[self.pos - 1]


def _nu_pools(rng: random.Random) -> dict[tuple[bool, bool], _Pool]:
    """(negative, large q) -> pool; |n| <= 12, q <= 24 or 90 <= q <= 110."""
    pools = {}
    for large, fracs in ((False, _fractions(2, 24)), (True, _fractions(90, 110))):
        pos = [n + Fraction(p, q) for n in range(13) for p, q in fracs]
        if not large:
            pos += [Fraction(n) for n in range(1, 13)]
        neg = [-n + Fraction(p, q) for n in range(1, 13) for p, q in fracs]
        pools[(False, large)] = _Pool(pos, rng)
        pools[(True, large)] = _Pool(neg, rng)
    return pools


def _pick(weights: dict[str, float], u: float) -> str:
    """The key whose share of the cumulative weights holds u in [0, 1)."""
    total = sum(weights.values())
    acc = 0.0
    for key, w in weights.items():
        acc += w / total
        if u < acc:
            return key
    return key


def _z(region: str, rng: random.Random) -> complex:
    if region == "ray":
        return complex(rng.uniform(1.05, 10.0))
    if region == "disk":
        r = rng.uniform(0.05, 0.9)
    elif region == "far":
        r = rng.uniform(1.05, 10.0)
    else:
        r = 10.0 ** rng.uniform(-3.0, -2.0)
    # a fifth of the disk and small-z points sit on the positive real axis
    theta = 0.0 if region != "far" and rng.random() < 0.2 else rng.uniform(-math.pi, math.pi)
    return cmath.rect(r, theta)


class EvalColdStream:
    """The seeded eval-cold operation stream: (kind, nu text, mu, z) tuples."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"eval-cold:{seed}")
        self.pools = _nu_pools(self.rng)

    def take(self, count: int) -> list[tuple[str, str, int, complex]]:
        """``count`` ops, stratified: each of the four choices below (kind,
        sign, large q, z region) is drawn from a Latin hypercube column, so
        every batch holds each share of the mix to within one op and batches
        of one size cost alike; which ops are paired, and the values, vary."""
        rng = self.rng
        columns = []
        for _ in range(4):
            slots = list(range(count))
            rng.shuffle(slots)
            columns.append([(i + rng.random()) / count for i in slots])
        return [self._op(*u) for u in zip(*columns)]

    def _op(self, u_kind: float, u_sign: float, u_q: float, u_z: float) -> tuple[str, str, int, complex]:
        rng = self.rng
        kind = _pick(EVAL_MIX, u_kind)
        negative = kind in ("beta", "beta_mu") and u_sign < NEGATIVE_SHARE
        nu = self.pools[(negative, u_q < LARGE_Q_SHARE)].draw()
        mu = rng.randint(1, 3) if kind == "beta_mu" else 0
        if kind == "tanh":
            small = u_z < Z_REGIONS["small"]
            z = complex(rng.uniform(0.03, 0.1) if small else rng.uniform(0.1, 3.0))
        else:
            z = _z(_pick(BETA_MU_REGIONS if kind == "beta_mu" else Z_REGIONS, u_z), rng)
        return kind, _nu_text(nu, rng), mu, z


def execute(kind: str, text: str, mu: int, z: complex):
    """One eval-cold operation, through the public API as the CLI calls it."""
    nu = br.parse_rational(text)
    if kind == "beta":
        return br.incomplete_beta(nu, 0, z)
    if kind == "lerch":
        return br.lerch_reduce(br.decompose_pos(nu), z)
    if kind == "powlin":
        return br.int_power_over_linear(nu, z)
    if kind == "tanh":
        return br.int_tanh_power(nu, z.real)
    return br.incomplete_beta(nu, mu, z)


def run_ops(ops, tally: Tally, results: list) -> None:
    """Time each op; a raised exception is recorded as the op's result."""
    lat = tally.latencies_us
    with _timed(tally):
        chunk_start = perf_counter_ns()
        for op in ops:
            t0 = perf_counter_ns()
            try:
                value = execute(*op)
            except Exception as exc:  # noqa: BLE001 -- any raise is a failed op
                value = exc
            lat.append((perf_counter_ns() - t0) / 1e3)
            results.append(value)
        tally.timed_ns += perf_counter_ns() - chunk_start


def _beta_b_space(kind: str, nu: Fraction, z: complex, value) -> complex:
    """The B(nu, mu, z) that the op's value stands for."""
    if kind in ("lerch", "powlin"):
        return br.rational_power(z, nu) * value
    if kind == "tanh":
        return complex(2.0 * value)
    return value


def _series_b(kind: str, nu: Fraction, mu: int, z: complex) -> complex:
    """Independent B(nu, mu, z) from beta_series; mu >= 1 via the connection
    B(nu, mu, z) = sum_j (-1)^j C(mu, j) B(nu + j, 0, z)."""
    if kind == "tanh":
        z = complex(math.tanh(z.real) ** 2)
    if kind != "beta_mu":
        return br.beta_series(nu, z).value
    return sum((-1) ** j * comb(mu, j) * br.beta_series(nu + j, z).value for j in range(mu + 1))


def check_ops(ops, results, tally: Tally, rng: random.Random) -> None:
    """Check one chunk of eval-cold results; counts failed ops, flags errors."""
    for op, value in zip(ops, results):
        kind, text, mu, z = op
        tally.attempted += 1
        if isinstance(value, Exception):
            tally.op_failed(f"{kind} nu={text} z={z}: {type(value).__name__}: {value}")
            continue
        if not cmath.isfinite(value):
            tally.op_failed(f"{kind} nu={text} z={z}: non-finite {value}")
            continue
        nu = br.parse_rational(text)
        if kind != "beta_mu" and kind != "tanh" and z.imag == 0.0 and z.real > 1.0:
            b = _beta_b_space(kind, nu, z, value)
            tally.checked += 1
            if abs(b.imag + math.pi) > FIGURE_IM_TOL * max(1.0, abs(b)):
                tally.check_failed(f"{kind} nu={text} z={z}: Im B = {b.imag}, want -pi")
        elif (abs(z) < 1.0 or kind == "tanh") and rng.random() < SERIES_CHECK_SHARE:
            tally.checked += 1
            b = _beta_b_space(kind, nu, z, value)
            ref = _series_b(kind, nu, mu, z)
            err = package_rel_err(b, ref)
            if not err <= CHECK_TOL:
                tally.check_failed(f"{kind} nu={text} mu={mu} z={z}: {b} vs series {ref} (err {err:.2e})")


def _until(seconds: float):
    """Yields until ``seconds`` of wall time (timed work and checks) are spent."""
    end = perf_counter_ns() + seconds * 1e9
    while perf_counter_ns() < end:
        yield


def eval_cold(seed: int, seconds: float, chunk: int = EVAL_CHUNK) -> Tally:
    stream = EvalColdStream(seed)
    check_rng = random.Random(f"eval-cold-check:{seed}")
    for _ in range(4):
        run_ops(stream.take(chunk), Tally(), [])
    tally = Tally(normalise=True)

    def step():
        ops = stream.take(chunk)
        results: list = []
        run_ops(ops, tally, results)
        check_ops(ops, results, tally, check_rng)

    for _ in _until(seconds):
        tally.window(step)
    return tally


# -- figure-sweep --------------------------------------------------------------


def figure_plan(seed: int) -> list[tuple[str, int, float, float]]:
    """One round: (nu text, points, z_start, z_end) per nu, in seeded order."""
    rng = random.Random(f"figure-sweep:{seed}")
    plan = [(nu, pts, rng.uniform(1.05, 1.2), rng.uniform(8.0, 12.0)) for nu, pts in FIGURE_POINTS.items()]
    rng.shuffle(plan)
    return plan


def figure_argv(call, out_path: str) -> list[str]:
    nu, points, z0, z1 = call
    return ["figure", "--nu", nu, "--points", str(points), "--z-start", repr(z0), "--z-end", repr(z1), "--out", out_path]


def check_figure_csv(path: str, call, tally: Tally) -> None:
    nu, points, z0, z1 = call
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tally.attempted += points
    if len(rows) != points:
        tally.check_failed(f"figure nu={nu}: {len(rows)} rows, want {points}")
        tally.failed += max(0, points - len(rows))
    last = -math.inf
    for row in rows:
        z = float(row["z"])
        im = float(row["im_reduction"])
        if not math.isfinite(im):
            tally.op_failed(f"figure nu={nu} z={z}: non-finite Im {im}")
            continue
        tally.checked += 1
        if abs(im + math.pi) > FIGURE_IM_TOL:
            tally.check_failed(f"figure nu={nu} z={z}: Im B = {im!r}, want -pi within {FIGURE_IM_TOL}")
        if not (z0 - 1e-12 <= z <= z1 + 1e-9 and z > last):
            tally.check_failed(f"figure nu={nu}: z = {z} out of order or outside [{z0}, {z1}]")
        last = z


def run_cli(argv: list[str], tally: Tally) -> int:
    """One timed ``betareduce.cli.main`` call; returns its exit code."""
    with _timed(tally):
        t0 = perf_counter_ns()
        try:
            code = br.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 -- any raise fails the call
            code = f"{type(exc).__name__}: {exc}"
        dt = perf_counter_ns() - t0
    tally.timed_ns += dt
    tally.latencies_us.append(dt / 1e3)
    return code


def figure_round(plan, out_dir: str, tally: Tally, per_nu_ns: dict) -> None:
    """One call per nu; appends each call's timed ns, host-normalised when
    the tally normalises, to ``per_nu_ns[nu]``."""
    for call in plan:
        path = os.path.join(out_dir, "figure.csv")
        before = tally.timed_ns
        code = run_cli(figure_argv(call, path), tally)
        per_nu_ns.setdefault(call[0], []).append(tally.scale() * (tally.timed_ns - before))
        if code != 0:
            tally.attempted += call[1]
            tally.failed += call[1]
            tally.check_failed(f"figure nu={call[0]} exited {code}")
            continue
        check_figure_csv(path, call, tally)


def figure_sweep(seed: int, seconds: float, out_dir: str) -> Tally:
    plan = figure_plan(seed)
    warm = [(nu, 2, z0, z1) for nu, _, z0, z1 in plan]
    figure_round(warm, out_dir, Tally(), {})
    tally = Tally(normalise=True)
    per_nu_ns: dict = {}
    for _ in _until(seconds):  # whole rounds only: every nu equally often
        figure_round(plan, out_dir, tally, per_nu_ns)
    # The run's one window is a composite round of each nu's median call.
    typical = [statistics.median(ns) for ns in per_nu_ns.values()]
    ok_share = (tally.attempted - tally.failed) / tally.attempted
    lat = [ns / 1e3 for ns in typical]
    tally.windows.append((sum(typical), ok_share * sum(FIGURE_POINTS.values()), percentile(lat, 50), percentile(lat, 90)))
    total = sum(map(sum, per_nu_ns.values()))
    tally.notes["wall share by nu"] = {nu: round(sum(ns) / total, 3) for nu, ns in per_nu_ns.items()}
    return tally


# -- verify-grid -----------------------------------------------------------------


def check_verify_csv(path: str, tally: Tally, rng: random.Random, expect_rows: int = VERIFY_GRID_POINTS) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tally.attempted += expect_rows
    if len(rows) != expect_rows:
        tally.check_failed(f"verify: {len(rows)} rows, want {expect_rows}")
    for row in rows:
        if row["status"] != "Pass":
            tally.op_failed(f"verify nu={row['nu']} z={row['z_re']},{row['z_im']}: {row['status']} {row['note']}")
            continue
        red = complex(float(row["reduction_re"]), float(row["reduction_im"]))
        ora = complex(float(row["oracle_re"]), float(row["oracle_im"]))
        tally.checked += 1
        if not (cmath.isfinite(red) and package_rel_err(red, ora) <= CHECK_TOL):
            tally.check_failed(f"verify nu={row['nu']} z={row['z_re']},{row['z_im']}: {red} vs oracle {ora}")
    for row in rng.sample(rows, len(rows) // VERIFY_RECHECK_SHARE):
        if row["status"] != "Pass":
            continue
        nu = br.parse_rational(row["nu"])
        z = complex(float(row["z_re"]), float(row["z_im"]))
        red = complex(float(row["reduction_re"]), float(row["reduction_im"]))
        ref = br.beta_series(nu, z).value
        if not package_rel_err(red, ref) <= CHECK_TOL:
            tally.check_failed(f"verify nu={nu} z={z}: {red} vs fresh beta_series {ref}")


def verify_call(out_dir: str, tally: Tally, rng: random.Random, args=(), points: int = VERIFY_GRID_POINTS) -> None:
    """One timed ``betareduce verify`` (the default grid unless ``args``
    narrow it), then its checks."""
    path = os.path.join(out_dir, "verify.csv")
    code = run_cli(["verify", *args, "--out", path], tally)
    if code != 0:
        tally.check_failed(f"verify exited {code}")
    if os.path.exists(path):
        check_verify_csv(path, tally, rng, points)
        os.remove(path)
    else:
        tally.attempted += points
        tally.failed += points


def verify_grid(seed: int, seconds: float, out_dir: str) -> Tally:
    """The whole default grid once (its exit code and rows are gated, its wall
    time is printed), then part-grid calls as the timed windows."""
    # the grids do not depend on the seed; the seed picks the rows that are
    # re-evaluated against a fresh beta_series
    rng = random.Random(f"verify-grid:{seed}")
    br.cli.main(["verify", "--n-max", "0", "--q-max", "3", "--out", os.path.join(out_dir, "warm.csv")])
    tally = Tally(normalise=True)
    verify_call(out_dir, tally, rng)
    tally.notes["default grid call (s)"] = round(tally.latencies_us[-1] / 1e6, 4)
    for _ in _until(seconds):
        tally.window(lambda: verify_call(out_dir, tally, rng, VERIFY_WINDOW_ARGS, VERIFY_WINDOW_POINTS))
    return tally


# -- reference set -----------------------------------------------------------------


def reference_accuracy(entries) -> dict:
    """Package and true relative error of incomplete_beta over the reference set."""
    max_rel = 0.0
    accurate = 0
    problems = []
    for e in entries:
        z = complex(*e["z"])
        ref = complex(e["re"], e["im"])
        try:
            value = br.incomplete_beta(br.parse_rational(e["nu"]), 0, z)
        except Exception as exc:  # noqa: BLE001 -- reported as a failed check
            problems.append(f"reference nu={e['nu']} z={z}: {type(exc).__name__}: {exc}")
            continue
        diff = abs(value - ref)
        if not math.isfinite(diff):
            problems.append(f"reference nu={e['nu']} z={z}: non-finite {value}")
            continue
        max_rel = max(max_rel, diff / max(1.0, abs(ref)))
        accurate += diff <= 1e-12 * abs(ref)
    return {
        "points": len(entries),
        "max_rel_err": max_rel,
        "accurate": accurate,
        "problems": problems,
    }
