"""Exception types shared across the package."""


class ModelError(ValueError):
    """Base class for all domain errors raised by this package."""


class ParameterError(ModelError):
    """An input is outside the supported domain (loss, amplitude, grid size, ...)."""


class ResonantPoleError(ModelError):
    """The lossless loop is on resonance and has no steady state."""


class ConvergenceError(ModelError):
    """The recycling series does not contract fast enough to reach the tolerance."""

