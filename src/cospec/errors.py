"""Exception types shared across the package."""

import copy


class CospecError(Exception):
    """Base class for errors raised by this package."""


class Graph6ParseError(CospecError, ValueError):
    """Malformed graph6 input. Carries the byte offset of the bad byte."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message += f" (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedSizeError(CospecError, ValueError):
    """Input exceeds a documented size bound of a brute-force routine."""


class ConnectivityError(CospecError, ValueError):
    """A distance-derived quantity was requested for a disconnected graph."""


class ConsistencyError(CospecError, RuntimeError):
    """Independent computation routes disagreed; never masked, always surfaced."""


class CensusInputError(CospecError, ValueError):
    """A census source line is unusable (wrong vertex count)."""


def _prefixed(exc, prefix, **attrs):
    """A copy of exc, type and attributes kept, with prefix before its message and attrs set."""
    out = copy.copy(exc)
    out.args = (prefix + str(exc),)
    for name, value in attrs.items():
        setattr(out, name, value)
    return out


def at_line(exc, lineno):
    """exc at line lineno of batch input: a copy of its type and with its
    attributes, whose message starts with 'line N: ' and whose .lineno is N."""
    return _prefixed(exc, f"line {lineno}: ", lineno=lineno)


def pair_map(fn, first, second):
    """(fn(first), fn(second)), computed in that order. A CospecError that fn
    raises names the graph it was raised for: a copy of its type and
    attributes whose message starts with the graph's position."""
    out = []
    for position, item in zip(("first graph: ", "second graph: "), (first, second)):
        try:
            out.append(fn(item))
        except CospecError as exc:
            raise _prefixed(exc, position) from exc
    return tuple(out)
