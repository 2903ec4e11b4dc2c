"""Exception types shared across the package."""


class BetaReduceError(Exception):
    """Base class for every evaluation error raised by this package."""


class ParseError(BetaReduceError):
    """Parameter text does not match the fraction/decimal grammar."""


class DivergentParameter(BetaReduceError):
    """The function diverges at this parameter (non-positive integer)."""


class BranchPoint(BetaReduceError):
    """Evaluation point is on, or inside the guard band around, a branch point."""


class ZeroArgument(BetaReduceError):
    """z = 0 where a negative power of z is required."""


class PoleInSum(BetaReduceError):
    """A term of the finite binomial sum has a vanishing denominator."""


class OutsideDomain(BetaReduceError):
    """Input lies outside the validity domain of the requested method."""


class MaxTermsExceeded(BetaReduceError):
    """A series or finite sum would need more terms than its budget allows."""


class QuadratureNonConvergence(BetaReduceError):
    """Adaptive quadrature could not reach the requested tolerance."""


class ResidualImaginary(BetaReduceError):
    """A value that must be real came back with a non-negligible imaginary part."""


class BenchConsistencyError(BetaReduceError):
    """Benchmark methods disagreed at a grid point; timings would be meaningless."""
