"""Exception types shared across the package."""


class EinverseError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(EinverseError, ValueError):
    """Index groups are incompatible for the requested operation."""


class NumericalFailure(EinverseError, ArithmeticError):
    """A numerical routine failed to converge or to satisfy a cross-check."""


class ParseError(EinverseError, ValueError):
    """A tensor file could not be parsed; the message carries the locus."""


class NonFiniteEntry(ParseError):
    """A tensor file contains NaN or infinite entries."""
