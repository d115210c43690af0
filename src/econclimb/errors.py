"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the physical domain of a model function."""


class DegenerateSegmentError(ValueError):
    """A climb segment has no altitude gain or no length where one is required."""


class EnvelopeError(ValueError):
    """Cost-index envelope calibration produced an unusable ceiling."""


class NoInteriorOptimumError(RuntimeError):
    """The cost gradient has no sign change inside the search bracket.

    Carries the gradient values at both bracket ends so callers can tell
    whether the cost was monotone increasing or decreasing over the range.
    """

    def __init__(self, msg, grad_lo, grad_hi):
        super().__init__(msg)
        self.grad_lo = grad_lo
        self.grad_hi = grad_hi


class ConfigError(ValueError):
    """A scenario configuration file is malformed or inconsistent."""
