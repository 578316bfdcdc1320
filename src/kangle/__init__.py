"""kangle: a numerical laboratory for Kahler angles of parametric immersions.

The package computes, at sample points of a parametric immersion
F: R^{2n} -> N^{2n} into flat complex space or a complex space form, the
full set of angle invariants (induced metric, pulled-back Kahler form,
Kahler angles, polar complex structure, second fundamental form, mean
curvature, curvature tensors, Laplacians) and verifies a catalog of
pointwise identities between them as machine-checkable residuals.
"""

from .errors import (
    ConventionError,
    DomainError,
    ImmersionSyntaxError,
    KangleError,
    QuadratureError,
    UsageError,
)

__version__ = "0.1.0"

__all__ = [
    "ConventionError",
    "DomainError",
    "ImmersionSyntaxError",
    "KangleError",
    "QuadratureError",
    "UsageError",
    "__version__",
]
