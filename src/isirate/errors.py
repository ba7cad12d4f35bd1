"""Exception types raised across the package."""


class IsirateError(Exception):
    """Base class for all package-specific errors."""


class DomainError(IsirateError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class NonConvergent(IsirateError):
    """A quadrature or grid-doubling loop failed to reach its tolerance."""


class RootFindingFailure(IsirateError):
    """Polynomial root extraction or spectral factorisation failed."""


class BudgetExceeded(IsirateError):
    """An FFT density grid, a DFE impulse response or a trellis state space
    would exceed its size budget."""


class InconclusiveSearch(IsirateError):
    """The error-event search ended without a global certificate."""
