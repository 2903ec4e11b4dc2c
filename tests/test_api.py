"""The public names of the package, pinned so that any addition or removal shows as a diff."""

import inspect

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
