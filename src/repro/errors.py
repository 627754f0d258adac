"""Exception hierarchy for the repro library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError):
    """An operation received tensors with incompatible shapes."""


class GradientError(ReproError):
    """Backward pass was requested in an invalid state."""


class CapacityError(ReproError):
    """The secret payload does not fit into the designated parameters."""


class QuantizationError(ReproError):
    """A quantizer received invalid configuration or data."""


class DatasetError(ReproError):
    """A dataset was constructed or indexed incorrectly."""


class ConfigError(ReproError):
    """A pipeline configuration is inconsistent."""


class ServeError(ReproError):
    """The serving layer refused or failed a request/artifact operation."""


class DDPError(ReproError):
    """The data-parallel training runtime failed or was misconfigured."""
