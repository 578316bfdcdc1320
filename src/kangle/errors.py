"""Exception hierarchy shared by all kangle modules."""


class KangleError(Exception):
    """Base class for every error raised by this package."""


class UsageError(KangleError):
    """An API contract was violated (mismatched dims, bad arguments)."""


class DomainError(KangleError):
    """An input value lies outside the mathematical domain of an operation."""


class GateError(DomainError):
    """A snapshot gate left no point of a batch.  ``rejected`` lists every
    point the batch lost, to this gate or an earlier one, as (index into
    the batch, reason).  The finite gate raises this class itself; the
    other three gates raise its subclasses."""

    def __init__(self, message, rejected=()):
        super().__init__(message)
        self.rejected = list(rejected)


class ChartDomainError(GateError):
    """Evaluation point falls outside the affine chart of the ambient space.
    The ambient's closed forms raise it too, with no ``rejected`` list."""


class NotAnImmersionError(GateError):
    """The differential dF is rank-deficient at an evaluation point."""


class DegenerateAngleError(GateError):
    """Skew-spectrum pairing of the pulled-back form failed numerically."""


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


class ArityError(KangleError):
    """Wrong number of map components for the declared dimension."""


class SpecNameError(KangleError):
    """Unknown function or out-of-range variable in an immersion definition."""
