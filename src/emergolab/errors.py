"""Exception types, and the repeat check of listed values, shared across the
package; no numpy, so the command line validates configs without it."""


class EmergolabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EmergolabError):
    """A configuration file or experiment setup is invalid."""


class PreconditionError(EmergolabError):
    """An operation was called outside its stated domain of validity."""


class GridTooSmallError(EmergolabError):
    """One-step probability leakage off the grid exceeds the tolerance."""

    def __init__(self, message, suggested_lower=None, suggested_upper=None):
        super().__init__(message)
        self.suggested_lower = suggested_lower
        self.suggested_upper = suggested_upper


class ConvergenceError(EmergolabError):
    """An iterative procedure failed to converge within its budget."""

    def __init__(self, message, residual_bound=None):
        super().__init__(message)
        self.residual_bound = residual_bound


class MinorizationError(EmergolabError):
    """The kernel density dropped below eps*nu on the small set."""


class ApplicabilityError(EmergolabError):
    """A hypothesis required by the requested quantity does not hold."""


def _distinct(values, name: str) -> list:
    """values as a list, or a ValueError naming name when it is empty or
    the first entry that repeats (a repeat would give a result row twice)."""
    values = list(values)
    if not values:
        raise ValueError(f"{name} must list at least one value")
    repeats = [v for i, v in enumerate(values) if v in values[:i]]
    if repeats:
        raise ValueError(f"{name} must list each value once, but "
                         f"{repeats[0]!r} repeats")
    return values
