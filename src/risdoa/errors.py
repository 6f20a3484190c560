"""Exception types shared across the package."""


class RisDoaError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(RisDoaError, ValueError):
    """Malformed or inconsistent configuration input."""


class DegenerateInputError(RisDoaError, ValueError):
    """Input lacks the rank or structure the operation requires."""


class EndfirePoleError(RisDoaError, ValueError):
    """Azimuth is undefined because the elevation sits at the array endfire."""


class InfeasibleConstraintError(RisDoaError, ValueError):
    """The data constraint set is empty for the given observation."""


class SizeCapError(RisDoaError, ValueError):
    """Problem size exceeds the fixed cap of the full program."""


class SingularFimError(RisDoaError, ValueError):
    """Fisher information matrix is numerically singular."""


class SolverConvergenceError(RisDoaError, RuntimeError):
    """Splitting solver failed to reach tolerance within the iteration cap."""

    def __init__(self, message, iterations, primal_residual, dual_residual):
        super().__init__(message)
        self.iterations = iterations
        self.primal_residual = primal_residual
        self.dual_residual = dual_residual


class TrainingDivergedError(RisDoaError, RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch
