"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid argument for an operation (wrong subsystem kind, bad index,
    dimension mismatch, negative rate, ...)."""


class SolverError(RuntimeError):
    """Base class for numerical-solver failures."""


class SingularSolveError(SolverError):
    """A steady-state solve failed although its uniqueness certificate
    converged: a non-finite result, a residual above the steady-state
    tolerance or a state that fails the density-matrix check."""


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
