"""The public names of the package, pinned so that any addition or removal shows as a diff."""

import inspect
import math
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betareduce
from betareduce import oracles

PUBLIC = [
    "BenchConsistencyError",
    "BenchMethod",
    "BenchRecord",
    "BetaReduceError",
    "BranchPoint",
    "Decomposition",
    "DivergentParameter",
    "Evaluation",
    "MaxTermsExceeded",
    "Method",
    "OutsideDomain",
    "PRESETS",
    "ParseError",
    "PoleInSum",
    "QuadratureNonConvergence",
    "ResidualImaginary",
    "Status",
    "VerificationRecord",
    "ZeroArgument",
    "__version__",
    "atanh",
    "beta_mu_posint",
    "beta_quadrature",
    "beta_series",
    "connection_check",
    "decompose",
    "decompose_pos",
    "default_nu_grid",
    "default_z_grid",
    "fraction_grid",
    "incomplete_beta",
    "int_power_over_linear",
    "int_tanh_power",
    "lerch_reduce",
    "lerch_series",
    "parse_rational",
    "phi_quadrature",
    "principal_log",
    "principal_sqrt",
    "rational_power",
    "reduce_beta",
    "reduce_beta_many",
    "render_rational",
    "run_bench",
    "run_verification",
    "write_bench_csv",
    "write_verify_csv",
]


def test_public_names_are_pinned():
    assert sorted(betareduce.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(betareduce, name), name


# the oracles evaluate Phi(z, 1, nu) and take no tuning arguments; a new one shows here
ORACLE_PARAMETERS = {
    "lerch_series": ["z", "nu"],
    "phi_quadrature": ["z", "nu"],
    "beta_series": ["nu", "z"],
    "beta_quadrature": ["nu", "mu", "z"],
}


@pytest.mark.parametrize("name,params", sorted(ORACLE_PARAMETERS.items()))
def test_oracle_parameters_are_pinned(name, params):
    assert list(inspect.signature(getattr(betareduce, name)).parameters) == params


# scipy loads only when a quadrature oracle runs QUADPACK, so a fresh interpreter shows it
def test_import_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "import betareduce, betareduce.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(repr(betareduce.beta_quadrature(0.5, 0.0, 0.25).value.real))\n"
    )
    path = [str(Path(betareduce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == pytest.approx(math.log(3), rel=1e-12)


THIRD = Fraction(1, 3)

# each entry point, with the argument that takes an exact real beyond the double range
BEYOND_DOUBLE_RANGE = {
    "incomplete_beta mu=0, z": lambda x: betareduce.incomplete_beta(THIRD, 0, x),
    "incomplete_beta mu=2, z": lambda x: betareduce.incomplete_beta(THIRD, 2, x),
    "reduce_beta_many z": lambda x: betareduce.reduce_beta_many(betareduce.decompose(THIRD), [0.5, x]),
    "beta_series z": lambda x: betareduce.beta_series(THIRD, x),
    "lerch_reduce z": lambda x: betareduce.lerch_reduce(betareduce.decompose(THIRD), x),
    "int_power_over_linear z": lambda x: betareduce.int_power_over_linear(THIRD, x),
    "connection_check z": lambda x: betareduce.connection_check(THIRD, 1, x),
    "lerch_series z": lambda x: betareduce.lerch_series(x, 1.5),
    "lerch_series nu": lambda x: betareduce.lerch_series(0.5, x),
    "int_tanh_power z": lambda x: betareduce.int_tanh_power(THIRD, x),
    "rational_power z": lambda x: betareduce.rational_power(x, THIRD),
    "run_verification z": lambda x: betareduce.run_verification([THIRD], [0.5, x], 1e-10),
    "beta_quadrature nu": lambda x: betareduce.beta_quadrature(x, 0.0, 0.5),
    "beta_quadrature mu": lambda x: betareduce.beta_quadrature(0.5, x, 0.5),
    "beta_quadrature z": lambda x: betareduce.beta_quadrature(0.5, 0.0, x),
    "phi_quadrature nu": lambda x: betareduce.phi_quadrature(0.5, x),
    "phi_quadrature z": lambda x: betareduce.phi_quadrature(x, 1.5),
    "beta_series_columns z": lambda x: oracles.beta_series_columns([THIRD], [0.5, x]),
    "run_bench z": lambda x: betareduce.run_bench([(Fraction(1, 2), x)], 1, 0),
}


def _outcome(call, x):
    try:
        return "value", repr(call(x))
    except Exception as exc:
        return type(exc).__name__, str(exc)


# 10**400 rounds to inf, as the literal 1e400 does: no bare OverflowError from complex() or float()
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(BEYOND_DOUBLE_RANGE))
def test_exact_reals_beyond_the_double_range_meet_the_refusal_of_inf(name, sign):
    call = BEYOND_DOUBLE_RANGE[name]
    at_inf = _outcome(call, sign * math.inf)
    assert at_inf[0] != "OverflowError"
    assert _outcome(call, sign * 10**400) == at_inf
    assert _outcome(call, Fraction(sign * 10**400)) == at_inf
