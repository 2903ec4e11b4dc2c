"""The public names of the package, pinned so that any addition or removal shows as a diff."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betareduce

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


# scipy loads only when beta_quadrature runs QUADPACK, so a fresh interpreter shows it
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
