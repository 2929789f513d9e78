"""Exception types shared across the package."""


class SchreierError(Exception):
    """Base class for all workbench errors."""


class CutoffExceeded(SchreierError):
    """An enumeration was requested beyond its configured size limit."""

    def __init__(self, what: str, requested: int | str, limit: int):
        self.what = what
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"{what}: requested {requested} exceeds cutoff {limit} "
            f"(override with SCHREIER_MAX_DIM)"
        )


class UnitNormRequired(SchreierError):
    """An operation needed a unit-sphere vector and got something else."""


class VectorFormatError(SchreierError, ValueError):
    """A vector/functional file or literal failed strict validation."""
