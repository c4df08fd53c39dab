"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid argument for an operation (wrong subsystem kind, bad index,
    dimension mismatch, negative rate, ...)."""


class SolverError(RuntimeError):
    """Base class for numerical-solver failures."""


class SingularSolveError(SolverError):
    """Linear system is singular to working precision.

    Attributes
    ----------
    condition_estimate : float
        Estimate of the condition number of the offending matrix
        (``inf`` when the factorization failed outright).
    """

    def __init__(self, message, condition_estimate=float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class DegenerateSteadyStateError(SolverError):
    """The generator kernel is (numerically) more than one-dimensional.

    Attributes
    ----------
    kernel_dimension : int
        Estimated dimension of the null space.
    """

    def __init__(self, message, kernel_dimension):
        super().__init__(message)
        self.kernel_dimension = kernel_dimension


class IntegrationError(SolverError):
    """Time propagation failed (bad grid or schedule, or trace drift beyond
    its tolerance).

    Attributes
    ----------
    error_estimate : float or None
        Achieved error estimate, when available.
    """

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


class ConfigError(ValueError):
    """Invalid run configuration (syntax, unknown key, out-of-range value)."""
