"""Exception types shared across the package."""


class CospecError(Exception):
    """Base class for errors raised by this package."""


class Graph6ParseError(CospecError, ValueError):
    """Malformed graph6 input. Carries the byte offset and, in batch mode, the line number."""

    def __init__(self, message, offset=None, lineno=None):
        detail = message
        if offset is not None:
            detail += f" (byte offset {offset})"
        if lineno is not None:
            detail = f"line {lineno}: {detail}"
        super().__init__(detail)
        self.message = message
        self.offset = offset
        self.lineno = lineno

    def at_line(self, lineno):
        """This error, offset kept, at line lineno of batch input."""
        return type(self)(self.message, self.offset, lineno)


class UnsupportedSizeError(CospecError, ValueError):
    """Input exceeds a documented size bound of a brute-force routine."""


class ConnectivityError(CospecError, ValueError):
    """A distance-derived quantity was requested for a disconnected graph."""


class ConsistencyError(CospecError, RuntimeError):
    """Independent computation routes disagreed; never masked, always surfaced."""


class CensusInputError(CospecError, ValueError):
    """A census source line is unusable (wrong vertex count, unreadable)."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
