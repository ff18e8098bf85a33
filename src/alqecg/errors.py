"""Exception types shared across the toolkit."""


class DataFormatError(ValueError):
    """A dataset file or record violates the expected layout."""


class EmptyDatasetError(ValueError):
    """A dataset file contains no records."""


class _OffsetError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} at offset {offset}"
        super().__init__(message)
        self.offset = offset


class ShapeError(_OffsetError):
    """An impossible layer shape; loaders give the descriptor's byte offset."""


class ConfigError(ValueError):
    """A configuration value is out of its documented domain."""


class TrainingError(RuntimeError):
    """Training could not proceed (empty data, diverged loss, bad labels)."""


class NumericError(RuntimeError):
    """A forward pass produced non-finite intermediate values."""


class ContainerFormatError(_OffsetError):
    """A binary container is malformed; carries the offending byte offset."""
