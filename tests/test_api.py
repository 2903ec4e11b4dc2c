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


# numpy and statistics load only when a grid batch or the bench runs, so the value callers,
# eval and integral start without them; the batch then loads numpy and gives the same values
def test_value_path_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import betareduce, betareduce.cli\n"
        "from betareduce.reduction import ROOT_CACHE_MAX_Q\n"
        "nu, z = Fraction(7, 3), 0.3 + 0.2j\n"
        "for q in (1, 2, 3, 97, ROOT_CACHE_MAX_Q + 3):\n"
        "    betareduce.incomplete_beta(Fraction(1, q), 0, z)\n"
        "betareduce.incomplete_beta(nu, 2, z)\n"
        "betareduce.lerch_reduce(betareduce.decompose(nu), z)\n"
        "betareduce.int_power_over_linear(nu, z)\n"
        "betareduce.int_tanh_power(nu, 0.7)\n"
        "betareduce.beta_series(nu, z)\n"
        "betareduce.lerch_series(z, 1.5)\n"
        "assert betareduce.cli.main(['eval', 'beta', '--nu', '1/3', '--z', '0.5']) == 0\n"
        "assert betareduce.cli.main(['integral', 'tanh', '--lambda', '1/3', '--z', '0.5']) == 0\n"
        "loaded = {'numpy', 'statistics'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "values = betareduce.reduce_beta_many(betareduce.decompose(nu), [0.5, 2.5, z])\n"
        "assert 'numpy' in sys.modules\n"
        "print(*(f'{v.real.hex()},{v.imag.hex()}' for v in values))\n"
    )
    path = [str(Path(betareduce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    values = betareduce.reduce_beta_many(betareduce.decompose(Fraction(7, 3)), [0.5, 2.5, 0.3 + 0.2j])
    assert run.stdout.splitlines()[-1].split() == [f"{v.real.hex()},{v.imag.hex()}" for v in values]


# import betareduce and the value callers load no dataclasses (nor inspect, which it
# imports) and none of bench, verify and oracles; a name of one of those loads its module on
# first access and is the object the module holds, so rebinding it there shows here too
def test_value_path_loads_only_its_modules():
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import betareduce\n"
        "nu, z = Fraction(7, 3), 0.3 + 0.2j\n"
        "betareduce.incomplete_beta(nu, 0, z)\n"
        "betareduce.incomplete_beta(nu, 2, z)\n"
        "betareduce.lerch_reduce(betareduce.decompose(nu), z)\n"
        "betareduce.int_power_over_linear(nu, z)\n"
        "betareduce.int_tanh_power(nu, 0.7)\n"
        "lazy = ['dataclasses', 'inspect', 'betareduce.bench', 'betareduce.verify',\n"
        "        'betareduce.oracles']\n"
        "loaded = [name for name in lazy if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "run = betareduce.run_verification\n"
        "assert 'betareduce.verify' in sys.modules\n"
        "assert run is sys.modules['betareduce.verify'].run_verification\n"
        "sys.modules['betareduce.verify'].run_verification = marker = object()\n"
        "assert betareduce.run_verification is marker\n"
        "sys.modules['betareduce.verify'].run_verification = run\n"
        "namespace = {}\n"
        "exec('from betareduce import *', namespace)\n"
        "missing = [name for name in betareduce.__all__ if name not in namespace]\n"
        "assert not missing, missing\n"
        "assert all(namespace[name] is getattr(betareduce, name) for name in betareduce.__all__)\n"
        "missing = set(betareduce.__all__) - set(dir(betareduce))\n"
        "assert not missing, missing\n"
    )
    path = [str(Path(betareduce.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'verify_grid'"):
        betareduce.verify_grid


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
    "principal_log w": betareduce.principal_log,
    "principal_sqrt w": betareduce.principal_sqrt,
    "atanh w": betareduce.atanh,
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


# each entry point, with its rational (or real) parameter as the argument
PARAMETERS = {
    "incomplete_beta mu=0": lambda x: betareduce.incomplete_beta(x, 0, 0.5),
    "incomplete_beta mu=2": lambda x: betareduce.incomplete_beta(x, 2, 0.5),
    "beta_mu_posint": lambda x: betareduce.beta_mu_posint(x, 1, 0.5),
    "connection_check": lambda x: betareduce.connection_check(x, 0, 0.5),
    "beta_series": lambda x: betareduce.beta_series(x, 0.5),
    "beta_series_columns": lambda x: oracles.beta_series_columns([x], [0.5]),
    "decompose": betareduce.decompose,
    "decompose_pos": betareduce.decompose_pos,
    "int_power_over_linear": lambda x: betareduce.int_power_over_linear(x, 0.5),
    "int_tanh_power": lambda x: betareduce.int_tanh_power(x, 0.5),
    "rational_power": lambda x: betareduce.rational_power(0.5, x),
    "render_rational": betareduce.render_rational,
    "run_verification": lambda x: betareduce.run_verification([x], [0.5], 1e-10),
    "run_bench": lambda x: betareduce.run_bench([(x, 0.5)], 1, 0),
    "lerch_series": lambda x: betareduce.lerch_series(0.5, x),
    "phi_quadrature": lambda x: betareduce.phi_quadrature(0.5, x),
    "beta_quadrature": lambda x: betareduce.beta_quadrature(x, 0.0, 0.5),
}


# Fraction(x) of an infinite or NaN float raises OverflowError or ValueError; callers get OutsideDomain
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_non_finite_parameters_are_outside_the_domain(name, x):
    with pytest.raises(betareduce.OutsideDomain):
        PARAMETERS[name](x)
