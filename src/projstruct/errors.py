"""Shared exception types."""


class DimensionMismatchError(ValueError):
    """Vector/matrix sizes are incompatible with the requested operation."""


class InvalidStructureError(ValueError):
    """A structure is malformed or does not belong to the given family."""


class CapExceededError(RuntimeError):
    """An enumeration or exact search would exceed the configured caps."""

    def __init__(self, message, projected_count=None):
        super().__init__(message)
        self.projected_count = projected_count


class ExactModeUnavailableError(RuntimeError):
    """No exact selector exists for this family at the given size."""


class UnsupportedFamilyError(RuntimeError):
    """The requested operation is not defined for this family."""


class ConfigError(ValueError):
    """A CLI / experiment configuration document failed validation."""


class WorkerError(RuntimeError):
    """A replication worker process died before returning its results."""
