"""betareduce: elementary closed forms for B(nu, 0, z) and Phi(z, 1, nu).

For rational nu, the mu = 0 incomplete beta function (and through it the
s = 1 Lerch transcendent) reduces to principal logarithms over roots of
unity plus a finite power sum.  This package implements those reductions
with careful branch handling, validates them against independent series and
quadrature oracles, applies them to two integral families, and times them
against the oracles.

The value path (``errors``, ``principal``, ``rationals``, ``reduction`` and
``integrals``) loads with the package; ``bench``, ``verify`` and
``oracles`` load on the first access to one of their names (PEP 562).
"""

from .errors import (
    BetaReduceError,
    BranchPoint,
    DivergentParameter,
    MaxTermsExceeded,
    OutsideDomain,
    ParseError,
    PoleInSum,
    QuadratureNonConvergence,
    ZeroArgument,
)
from .integrals import int_power_over_linear, int_tanh_power
from .principal import Evaluation, Method, principal_log, principal_sqrt, rational_power
from .rationals import Decomposition, decompose, decompose_pos, parse_rational, render_rational
from .reduction import (
    beta_mu_posint,
    connection_check,
    incomplete_beta,
    lerch_reduce,
    reduce_beta,
    reduce_beta_many,
)

__version__ = "0.1.0"

# each name that loads with its module on first access, and that module
_LAZY = {
    **dict.fromkeys(["BenchRecord", "PRESETS", "run_bench", "write_bench_csv"], "bench"),
    **dict.fromkeys(["beta_quadrature", "beta_series", "lerch_series", "phi_quadrature"], "oracles"),
    **dict.fromkeys(["Status", "VerificationRecord", "default_nu_grid", "default_z_grid"], "verify"),
    **dict.fromkeys(["fraction_grid", "run_verification", "write_verify_csv"], "verify"),
}

__all__ = [
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
    "__version__",
]


def __getattr__(name: str):
    """A lazy name, read from its module each time: what a caller rebinds there shows here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
