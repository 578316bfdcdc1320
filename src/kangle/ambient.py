"""Ambient Kahler-Einstein data: complex space forms, flat C^m at rho = 0.

Chart convention: real coordinates are interleaved, (x^1, y^1, ..., x^m, y^m)
with z^k = x^k + i y^k, so the complex structure J acts blockwise by
(x, y) -> (-y, x).  Space forms of holomorphic sectional curvature ``4 rho``
are realized in a single affine chart through the potential
``(1/rho) log(1 + rho |z|^2)`` (Fubini-Study type for rho > 0, Bergman type
for rho < 0); the realified metric is normalized to the identity at z = 0.
Every closed form here is exact at rho = 0, where it gives flat C^m; only
pullback_along, metric_along and christoffel_along, which the snapshot
applies along F, test for rho = 0, to skip products that vanish there.

Curvature sign convention: R(X,Y,Z,W) = g(nab_X nab_Y Z - nab_Y nab_X Z
- nab_{[X,Y]} Z, W), fixed so that R(X, JX, JX, X) = 4 rho ||X||^4.  With it
the Einstein constant is R = 2(m+1) rho for complex dimension m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .jets import Jet, jet_einsum, jstack

CHART_BOUNDARY_TOL = 1e-6

__all__ = [
    "AmbientSpec",
    "flat_space",
    "space_form",
    "ambient_J",
    "ambient_metric",
    "pullback_along",
    "metric_along",
    "christoffel_along",
    "curvature_tensor_point",
    "einstein_constant",
    "in_chart",
]


@dataclass(frozen=True)
class AmbientSpec:
    """Ambient space selection: flat C^m is rho = 0."""

    rho: float
    complex_dim: int

    def __post_init__(self):
        if not np.isfinite(self.rho):
            raise UsageError(f"ambient rho must be finite, got {self.rho!r}")

    @property
    def real_dim(self):
        return 2 * self.complex_dim

    @property
    def is_flat(self):
        return self.rho == 0.0


def flat_space(complex_dim):
    return AmbientSpec(0.0, complex_dim)


def space_form(rho, complex_dim):
    if rho == 0.0:
        raise UsageError("space_form ambient requires rho != 0")
    return AmbientSpec(float(rho), complex_dim)


def ambient_J(spec):
    """The constant complex-structure matrix, blockwise (x, y) -> (-y, x)."""
    m = spec.complex_dim
    J = np.zeros((2 * m, 2 * m))
    for p in range(m):
        J[2 * p + 1, 2 * p] = 1.0   # J e_x = e_y
        J[2 * p, 2 * p + 1] = -1.0  # J e_y = -e_x
    return J


def in_chart(spec, z_values):
    """Where 1 + rho|z|^2 at chart points z_values (..., 2m) is finite and
    above CHART_BOUNDARY_TOL: the chart of a rho < 0 space form ends there,
    and where rho|z|^2 overflows no metric is representable."""
    with np.errstate(over="ignore"):
        margin = 1.0 + spec.rho * np.sum(np.asarray(z_values) ** 2, axis=-1)
    return np.isfinite(margin) & (margin > CHART_BOUNDARY_TOL)


def _require_chart(spec, z_values):
    """DomainError unless every point z_values (..., 2m) is in chart."""
    if not np.all(in_chart(spec, z_values)):
        raise DomainError("point outside the chart domain: 1 + rho|z|^2 "
                          f"is not finite and above {CHART_BOUNDARY_TOL}")


def _inverse_margin(spec, z_jets):
    """1/(1 + rho|z|^2) as a jet; a point outside the chart raises."""
    _require_chart(spec, np.moveaxis(z_jets.value(), 0, -1))
    s2 = jet_einsum("A...,A...->...", z_jets, z_jets)
    return (1.0 + spec.rho * s2).reciprocal()


def ambient_metric(spec, z):
    """Ambient metric at chart points: z (..., 2m) -> (..., 2m, 2m).

    A I + c (z z^T + Jz Jz^T) with A = 1/(1 + rho|z|^2) and c = -rho A^2,
    the metric that metric_along applies; the identity for rho = 0.  A
    point outside the chart raises DomainError.
    """
    z = np.asarray(z, dtype=float)
    _require_chart(spec, z)
    A = 1.0 / (1.0 + spec.rho * np.sum(z * z, axis=-1))
    Jz = z @ ambient_J(spec).T
    g = z[..., :, None] * z[..., None, :]
    g += Jz[..., :, None] * Jz[..., None, :]
    g *= (-spec.rho * A * A)[..., None, None]
    g += A[..., None, None] * np.eye(z.shape[-1])
    return g


def _common(z, a, b):
    """z, a and b truncated to the common order of a and b, and einsum
    labels for the axes of a and of b between A and z's batch axes."""
    o = min(a.order, b.order)
    own = [v.coeffs.ndim - z.coeffs.ndim for v in (a, b)]
    return (z.truncated(o), a.truncated(o), b.truncated(o),
            "ij"[:own[0]], "kl"[:own[1]])


def _pairings(spec, z, a, si, b, sj):
    """A = 1/(1 + rho|z|^2), after the chart check, and <v, z>, <v, Jz> of
    v = a and v = b on a last axis p: (si..., p, batch...), (sj..., p, ...).
    When b is a, as in Gamma^N(dF, dF), the pairings of a serve both."""
    A = _inverse_margin(spec, z)
    zJz = jstack([z, jet_einsum("AB,B...->A...", ambient_J(spec), z)])
    pa = jet_einsum(f"A{si}...,pA...->{si}p...", a, zJz)
    return A, pa, (pa if b is a else
                   jet_einsum(f"A{sj}...,pA...->{sj}p...", b, zJz))


def pullback_along(spec, z, a):
    """The pulled-back pair g = g_N(a, a) and F*w = g_N(Ja, a) at
    chart-coordinate jets z, in closed form, from one set of pairings.

    z: Jet (A, batch...); a: Jet (A, i, batch...), as dF.  Returns g and
    F*w, each (i, j, batch...) at the order of a, to which z is truncated
    first.  g is metric_along(spec, z, a, a).  With x and y the even and
    odd rows of a and X = x^T y, <J a_i, a_j> = X_ij - X_ji; J being
    orthogonal and skew, <Ja, z> = -<a, Jz> and <Ja, Jz> = <a, z>, so
    F*w = Y - Y^T with Y = A X + c <a, z> (x) <a, Jz>, which is exactly
    antisymmetric.  rho = 0 is <a, a> and X - X^T.
    """
    z, a, _, si, sj = _common(z, a, a)
    ij = f"{si}{sj}..."
    g = jet_einsum(f"A{si}...,A{sj}...->{ij}", a, a)
    Y = jet_einsum(f"A{si}...,A{sj}...->{ij}", a[0::2], a[1::2])
    if spec.rho != 0.0:
        A, pa, _ = _pairings(spec, z, a, si, a, sj)
        cpa = pa * (A * A * -spec.rho)
        g = A * g + jet_einsum(f"{si}p...,{sj}p...->{ij}", cpa, pa)
        Y = A * Y + jet_einsum(f"{si}...,{sj}...->{ij}", cpa[:, 0], pa[:, 1])
    return g, Jet(Y.dim, Y.order, Y.coeffs - np.swapaxes(Y.coeffs, 0, 1))


def metric_along(spec, z, a, b):
    """g_N(a, b) at chart-coordinate jets z, in closed form.

    g_N(a, b) = A <a, b> + c (<a, z><b, z> + <a, Jz><b, Jz>) with the
    Euclidean chart product <., .>, A = 1/(1 + rho|z|^2) and c = -rho A^2.
    z: Jet (A, batch...) with A of length 2m; a (A, i..., batch...) and
    b (A, j..., batch...) are tangent-vector jets.  Returns (i..., j...,
    batch...) at the common order of a and b, to which every operand is
    truncated first.  rho = 0 is <a, b>.
    """
    z, a, b, si, sj = _common(z, a, b)
    dot = f"A{si}...,A{sj}...->{si}{sj}..."
    if spec.rho == 0.0:
        return jet_einsum(dot, a, b)
    A, pa, pb = _pairings(spec, z, a, si, b, sj)
    return (A * jet_einsum(dot, a, b) + jet_einsum(
        f"{si}p...,{sj}p...->{si}{sj}...", pa * (A * A * -spec.rho), pb))


def christoffel_along(spec, z, a, b):
    """Levi-Civita connection Gamma^N(a, b) at chart-coordinate jets z.

    Closed form of the space form in this chart (Kobayashi-Nomizu II,
    ch. IX 7), with Euclidean chart products and J = ambient_J:
    Gamma(a, b) = -rho A [(b.z) a + (b.Jz) Ja + (a.z) b + (a.Jz) Jb].
    Operands as in metric_along; returns the vector (i..., j..., A,
    batch...).  rho = 0 is 0.
    """
    z, a, b, si, sj = _common(z, a, b)
    out = f"{si}{sj}A..."
    if spec.rho == 0.0:
        shape = a.shape[1:1 + len(si)] + b.shape[1:1 + len(sj)] + z.shape
        return Jet.constant(z.dim, z.order, np.zeros(shape))
    A, pa, pb = _pairings(spec, z, a, si, b, sj)
    J, s = ambient_J(spec), A * -spec.rho
    aJa, bJb = (jstack([v, jet_einsum("AB,B...->A...", J, v)]) for v in (a, b))
    return (jet_einsum(f"{sj}p...,pA{si}...->{out}", pb * s, aJa)
            + jet_einsum(f"{si}p...,pA{sj}...->{out}", pa * s, bJb))


def einstein_constant(spec):
    """Einstein constant R with Ricci = R g; equals 2(m+1) rho here."""
    return 2.0 * (spec.complex_dim + 1) * spec.rho


def curvature_tensor_point(spec, z):
    """Full curvature tensor R(e_a, e_b, e_c, e_d) at chart points.

    z: (..., 2m).  Returns (..., 2m, 2m, 2m, 2m).  Space-form closed form:
    R(X,Y,Z,W) = rho [ g(Y,Z) g(X,W) - g(X,Z) g(Y,W)
                      + g(JY,Z) g(JX,W) - g(JX,Z) g(JY,W)
                      - 2 g(JX,Y) g(JZ,W) ].
    """
    g = ambient_metric(spec, z)
    J = ambient_J(spec)
    Jg = np.einsum("ca,...cb->...ab", J, g)     # Jg[a, b] = g(J e_a, e_b)
    R = (
        np.einsum("...bc,...ad->...abcd", g, g)
        - np.einsum("...ac,...bd->...abcd", g, g)
        + np.einsum("...bc,...ad->...abcd", Jg, Jg)
        - np.einsum("...ac,...bd->...abcd", Jg, Jg)
        - 2.0 * np.einsum("...ab,...cd->...abcd", Jg, Jg)
    )
    return spec.rho * R

