"""Exception types shared across the package, one per kind of failure a
caller can act on; ``cli_io.main`` maps each to its exit code."""


class DomainError(ValueError):
    """An argument is outside the physical domain of a model function, or
    a climb segment has no length or altitude gain where one is required."""


class EnvelopeError(ValueError):
    """No answer inside the airspeed envelope: a cost-index ceiling that is
    not positive and finite, or an optimum below the 5 m/s floor."""


class ConfigError(ValueError):
    """A scenario configuration file is malformed or inconsistent."""
