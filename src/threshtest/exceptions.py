"""Exception hierarchy shared across the package."""


class ThreshTestError(Exception):
    """Base class for all library errors.

    ``exit_code`` is the CLI's exit status for the error: 2 for input that
    is invalid, 3 for a request that is untestable or not applicable.
    """

    exit_code = 2


class DimensionMismatch(ThreshTestError):
    """Array shapes do not agree."""


class RankDeficient(ThreshTestError):
    """A matrix does not have the required numerical rank."""


class Untestable(ThreshTestError):
    """rank(X K_A) = N: the zero-thresholding statistic is identically 0."""

    exit_code = 3


class NotApplicable(ThreshTestError):
    """The requested statistic or baseline does not apply (e.g. P >= N)."""

    exit_code = 3


class DegenerateStatistic(ThreshTestError):
    """The statistic's denominator vanished for the given data."""


class InsufficientDraws(ThreshTestError):
    """M is too small for the requested quantile order statistic."""


class InvalidSpec(ThreshTestError):
    """A configuration object is ill-formed."""


class NoConvergence(ThreshTestError):
    """An iterative solver failed to converge."""


class SingularSystem(ThreshTestError):
    """A linear system required by the oracle is singular."""


class UnsupportedDimension(ThreshTestError):
    """Confidence-region grids only support R in {1, 2}."""


class DomainError(ThreshTestError):
    """Argument outside the domain of a link function."""


class OverflowGuard(ThreshTestError):
    """A value would overflow the float range, or the poisson exp(30) guard."""
