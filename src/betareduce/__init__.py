"""betareduce: elementary closed forms for B(nu, 0, z) and Phi(z, 1, nu).

For rational nu, the mu = 0 incomplete beta function (and through it the
s = 1 Lerch transcendent) reduces to principal logarithms over roots of
unity plus a finite power sum.  This package implements those reductions
with careful branch handling, validates them against independent series and
quadrature oracles, applies them to two integral families, and times them
against the oracles.
"""

from .bench import BenchMethod, BenchRecord, PRESETS, run_bench, write_bench_csv
from .errors import (
    BenchConsistencyError,
    BetaReduceError,
    BranchPoint,
    DivergentParameter,
    MaxTermsExceeded,
    OutsideDomain,
    ParseError,
    PoleInSum,
    QuadratureNonConvergence,
    ResidualImaginary,
    ZeroArgument,
)
from .integrals import int_power_over_linear, int_tanh_power
from .oracles import (
    SeriesPolicy,
    beta_quadrature,
    beta_series,
    lerch_series,
    phi_quadrature,
)
from .principal import Evaluation, Method, atanh, principal_log, principal_sqrt, rational_power
from .rationals import Decomposition, decompose, decompose_pos, parse_rational, render_rational
from .reduction import (
    beta_mu_posint,
    connection_check,
    incomplete_beta,
    lerch_reduce,
    reduce_beta,
)
from .verify import (
    Status,
    VerificationRecord,
    default_nu_grid,
    default_z_grid,
    fraction_grid,
    run_verification,
    write_verify_csv,
)

__version__ = "0.1.0"

__all__ = [
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
    "SeriesPolicy",
    "Status",
    "VerificationRecord",
    "ZeroArgument",
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
    "render_rational",
    "run_bench",
    "run_verification",
    "write_bench_csv",
    "write_verify_csv",
    "__version__",
]
