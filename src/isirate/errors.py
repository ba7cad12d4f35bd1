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
    """An exact mixture enumeration or a DFE impulse response would exceed
    its size budget."""


class PartitionInvalid(IsirateError, ValueError):
    """A genie partition does not cover the tap indices exactly once."""


class NormalizationViolated(IsirateError, ValueError):
    """Genie coefficients or noise-split weights are not normalized."""


class SnrTooLow(IsirateError, ValueError):
    """The high-SNR bound chain is not valid at the requested SNR."""


class StateBudgetExceeded(IsirateError, ValueError):
    """The trellis state space exceeds the configured budget."""


class InconclusiveSearch(IsirateError):
    """The error-event search ended without a global certificate."""
