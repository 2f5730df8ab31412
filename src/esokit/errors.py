"""Exception types shared across the package."""

from __future__ import annotations

import numbers


class EsoKitError(Exception):
    """Base class for all esokit errors."""


class ValidationError(EsoKitError):
    """An input object violates one of its invariants.

    ``field`` names the offending field so callers can report it precisely.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _is_int(value) -> bool:
    """A value of an integer type other than bool: the test a count, a
    size or a shape passes before a ``ValidationError`` names it. A plain int
    skips the slower abstract-class check, which every spec built would pay."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


class CapacityError(EsoKitError):
    """Exact enumeration would exceed the configured caps.

    The exact probability matrix and the cardinality moments need no
    enumeration; checks that do can be asked for in Monte-Carlo mode.
    """


class UnsupportedMethodError(EsoKitError):
    """The requested method/formula does not apply to the given inputs."""


class DivergenceError(EsoKitError):
    """The solver's objective gap grew persistently, signalling invalid
    stepsize parameters."""


class ParseError(EsoKitError):
    """A text input could not be parsed; carries the offending location."""

    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
