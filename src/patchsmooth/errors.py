"""Exception hierarchy shared by all modules.

Each class carries the process exit code used by the CLI:
1 generic, 2 configuration, 3 file format, 4 dimension mismatch.
"""

from contextlib import contextmanager


class PatchSmoothError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(PatchSmoothError):
    """Invalid or inconsistent configuration values."""

    exit_code = 2


class FormatError(PatchSmoothError):
    """Malformed tensor container or report file."""

    exit_code = 3


class DimensionError(PatchSmoothError):
    """Shape or length mismatch between operands."""

    exit_code = 4


class ValidationError(PatchSmoothError):
    """Numerically invalid data (bad distribution, degenerate feature, empty pool...)."""


class MissingItemError(PatchSmoothError):
    """A referenced item id cannot be resolved by the active backend."""


@contextmanager
def refused_in(path):
    """Name ``path`` in every refusal of the data read from it: inside,
    a ValidationError becomes a FormatError (a value refused in a file)
    and a DimensionError stays one (a shape refused in a file), each
    with its message prefixed by the path."""
    try:
        yield
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
