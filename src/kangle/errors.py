"""Exception hierarchy shared by all kangle modules."""


class KangleError(Exception):
    """Base class for every error raised by this package."""


class UsageError(KangleError):
    """An API contract was violated (mismatched dims, bad arguments)."""


class DomainError(KangleError):
    """An input value lies outside the mathematical domain of an operation."""


class QuadratureError(KangleError):
    """A torus quadrature grid node was rejected, so no total is returned."""


class ConventionError(KangleError):
    """Sign calibration did not produce a unique closing convention."""


class ImmersionSyntaxError(KangleError):
    """Parse failure, carrying a 1-based source position and the expected
    token set."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)

