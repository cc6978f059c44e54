"""Exception types shared across the package."""


class SurfcountError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SurfcountError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(SurfcountError):
    """An operation was called outside its documented domain."""


class CapExceeded(SurfcountError):
    """A size or work cap was hit.

    Attributes:
        cap_name: which cap fired.
        progress: partial progress (e.g. nodes explored, partial count) if any.
    """

    def __init__(self, cap_name: str, message: str, progress=None):
        self.cap_name = cap_name
        self.progress = progress
        super().__init__(message)


class InternalInvariantError(SurfcountError):
    """A result failed an internal consistency check: a bug, not bad input."""
