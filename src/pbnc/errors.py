"""Error taxonomy shared by all modules.

The CLI maps these to exit codes: configuration errors exit 2,
non-convergence exits 3, failed numerical assertions exit 1.  The CLI
refuses at read, as a ConfigurationError naming the key, every config value
that a library precondition (c > 1, eps >= 0, deg f < 2D) would refuse, so
no config reaches a domain or dimension error.  No other exception is a
config error: a DomainError, DimensionError, ValueError, KeyError or
LinAlgError is a bug and propagates out of ``cli.run``.
"""


class PbncError(Exception):
    """Base class for all package errors."""


class DimensionError(PbncError):
    """Shapes do not conform (block assembly, pairings, matrix operands)."""


class ConfigurationError(PbncError):
    """A parameter is outside the supported envelope (size caps, missing
    system elements, malformed config files)."""


class DomainError(PbncError):
    """A value violates a mathematical precondition (pole of a Mobius map,
    degenerate sup-norm, grid too coarse, c <= 1)."""


class NonConvergenceError(PbncError):
    """Iterative norm estimation hit its cap without meeting tolerance.

    Carries the partial estimate so callers can report it; never used as a
    silent value.
    """

    def __init__(self, message: str, iterations: int, last_estimate: float):
        super().__init__(message)
        self.iterations = iterations
        self.last_estimate = last_estimate
