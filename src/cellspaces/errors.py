"""Exception types shared across the package."""


class CellSpacesError(Exception):
    """Base class for package errors."""


class BackendMismatchError(CellSpacesError, TypeError):
    """Raised when elements of different group backends are combined."""


class ConfigError(CellSpacesError):
    """Raised when a CLI config is malformed or asks for what no command runs,
    or when a report cannot be written."""


class ConstructionError(CellSpacesError, ValueError):
    """Raised when a group or space construction fails a validity check."""


class IntegrityError(CellSpacesError):
    """Raised when a structural guarantee of a space is violated.

    Signals a broken coordinate system rather than bad user input.
    """


class UncertifiedWindowError(CellSpacesError):
    """Raised when an operation requires exact preimages but the halo
    cannot certify them."""


class ScopeMismatchError(CellSpacesError, ValueError):
    """Raised when two objects defined on different windows are combined."""
