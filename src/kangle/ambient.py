"""Ambient Kahler-Einstein data: flat C^{2n} and complex space forms.

Chart convention: real coordinates are interleaved, (x^1, y^1, ..., x^m, y^m)
with z^k = x^k + i y^k, so the complex structure J acts blockwise by
(x, y) -> (-y, x).  Space forms of holomorphic sectional curvature ``4 rho``
are realized in a single affine chart through the potential
``(1/rho) log(1 + rho |z|^2)`` (Fubini-Study type for rho > 0, Bergman type
for rho < 0); the realified metric is normalized to the identity at z = 0.

Curvature sign convention: R(X,Y,Z,W) = g(nab_X nab_Y Z - nab_Y nab_X Z
- nab_{[X,Y]} Z, W), fixed so that R(X, JX, JX, X) = 4 rho ||X||^4.  With it
the Einstein constant is R = 2(m+1) rho for complex dimension m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, UsageError
from .jets import Jet, jet_einsum

CHART_BOUNDARY_TOL = 1e-6

__all__ = [
    "AmbientSpec",
    "flat_space",
    "space_form",
    "ambient_J",
    "ambient_metric",
    "ambient_christoffel",
    "ambient_metric_point",
    "curvature_tensor_point",
    "einstein_constant",
    "chart_margin",
    "check_chart_domain",
]


@dataclass(frozen=True)
class AmbientSpec:
    """Ambient space selection: kind in {"flat", "space_form"}."""

    kind: str
    rho: float
    complex_dim: int

    def __post_init__(self):
        if self.kind not in ("flat", "space_form"):
            raise UsageError(f"unknown ambient kind {self.kind!r}")
        if self.kind == "flat" and self.rho != 0.0:
            raise UsageError("flat ambient requires rho = 0")
        if self.kind == "space_form" and self.rho == 0.0:
            raise UsageError("space_form ambient requires rho != 0")

    @property
    def real_dim(self):
        return 2 * self.complex_dim

    @property
    def is_flat(self):
        return self.kind == "flat"


def flat_space(complex_dim):
    return AmbientSpec("flat", 0.0, complex_dim)


def space_form(rho, complex_dim):
    return AmbientSpec("space_form", float(rho), complex_dim)


def ambient_J(spec):
    """The constant complex-structure matrix, blockwise (x, y) -> (-y, x)."""
    m = spec.complex_dim
    J = np.zeros((2 * m, 2 * m))
    for p in range(m):
        J[2 * p + 1, 2 * p] = 1.0   # J e_x = e_y
        J[2 * p, 2 * p + 1] = -1.0  # J e_y = -e_x
    return J


def chart_margin(spec, z_values):
    """1 + rho |z|^2 at chart points z_values (..., 2m); the chart of a
    rho < 0 space form ends where it reaches CHART_BOUNDARY_TOL."""
    return 1.0 + spec.rho * np.sum(np.asarray(z_values) ** 2, axis=-1)


def check_chart_domain(spec, z_values):
    """Reject points at or beyond the chart boundary (rho < 0 only).

    z_values: array (..., 2m) of chart coordinates.
    """
    if spec.is_flat or spec.rho > 0:
        return
    margin = chart_margin(spec, z_values)
    if np.any(margin <= CHART_BOUNDARY_TOL):
        worst = float(np.min(margin))
        raise ChartDomainError(
            f"point outside the chart domain: 1 + rho|z|^2 = {worst:.3e} "
            f"<= {CHART_BOUNDARY_TOL}"
        )


def _metric_entries(spec, x, y):
    """Metric components from chart coordinates given as jets or arrays.

    x, y: lists of the m real/imaginary parts.  Returns a 2m x 2m nested
    list in the interleaved convention.  Works verbatim for jets and for
    plain numpy arrays since only field arithmetic is used.
    """
    m = spec.complex_dim
    rho = spec.rho
    s2 = None
    for p in range(m):
        t = x[p] * x[p] + y[p] * y[p]
        s2 = t if s2 is None else s2 + t
    A = 1.0 / (1.0 + rho * s2)
    A2r = A * A * rho
    rows = [[None] * (2 * m) for _ in range(2 * m)]
    for p in range(m):
        for q in range(m):
            P = x[p] * x[q] + y[p] * y[q]      # Re(conj(z_p) z_q)
            Q = x[p] * y[q] - y[p] * x[q]      # Im(conj(z_p) z_q)
            re = -(A2r * P) + (A if p == q else 0.0)
            im = -(A2r * Q)
            rows[2 * p][2 * q] = re            # g(x_p, x_q)
            rows[2 * p + 1][2 * q + 1] = re    # g(y_p, y_q)
            rows[2 * p][2 * q + 1] = im        # g(x_p, y_q)
            rows[2 * p + 1][2 * q] = -im       # g(y_p, x_q)
    return rows


def ambient_metric(spec, z_jets):
    """Ambient metric as jets, evaluated on chart-coordinate jets.

    z_jets: Jet with leading axis of length 2m (the chart coordinates);
    result has leading axes (2m, 2m).
    """
    m = spec.complex_dim
    if z_jets.coeffs.shape[0] != 2 * m:
        raise UsageError("z_jets leading axis must have length 2m")
    if spec.is_flat:
        eye = np.eye(2 * m)
        coeffs = np.zeros((2 * m, 2 * m) + z_jets.coeffs.shape[1:])
        coeffs[..., 0] = eye.reshape((2 * m, 2 * m) + (1,) * (coeffs.ndim - 3))
        return Jet(z_jets.dim, z_jets.order, coeffs)
    check_chart_domain(spec, np.moveaxis(z_jets.value(), 0, -1))
    x = [z_jets[2 * p] for p in range(m)]
    y = [z_jets[2 * p + 1] for p in range(m)]
    rows = _metric_entries(spec, x, y)
    flat_entries = []
    for a in range(2 * m):
        for b in range(2 * m):
            e = rows[a][b]
            if not isinstance(e, Jet):
                e = Jet.constant(z_jets.dim, z_jets.order,
                                 np.broadcast_to(e, x[0].shape))
            flat_entries.append(e.coeffs)
    coeffs = np.stack(flat_entries, axis=0).reshape(
        (2 * m, 2 * m) + flat_entries[0].shape
    )
    return Jet(z_jets.dim, z_jets.order, coeffs)


def ambient_christoffel(spec, z_jets):
    """Levi-Civita connection as jets, evaluated on chart-coordinate jets.

    Closed form of the space form in this chart (Kobayashi-Nomizu II,
    ch. IX 7), with Euclidean chart products and J = ambient_J:
    Gamma(X, Y) = -rho/(1 + rho|z|^2) [(Y.z) X + (Y.Jz) JX
                                       + (X.z) Y + (X.Jz) JY].
    z_jets: Jet with leading axis of length 2m; result has leading axes
    (2m, 2m, 2m) = Gamma^A_{BC}.  It vanishes for the flat ambient.
    """
    m2 = spec.real_dim
    if z_jets.coeffs.shape[0] != m2:
        raise UsageError("z_jets leading axis must have length 2m")
    check_chart_domain(spec, np.moveaxis(z_jets.value(), 0, -1))
    J = ambient_J(spec)
    s2 = jet_einsum("A...,A...->...", z_jets, z_jets)
    c = (1.0 + spec.rho * s2).reciprocal() * (-spec.rho)
    cz = z_jets * c                                          # (C, b)
    cJz = jet_einsum("CD,D...->C...", J, z_jets) * c
    eye = np.eye(m2)
    T = (np.einsum("AB,C...->ABC...", eye, cz.coeffs)
         + np.einsum("AB,C...->ABC...", J, cJz.coeffs))
    return Jet(z_jets.dim, z_jets.order, T + np.swapaxes(T, 1, 2))


def ambient_metric_point(spec, z):
    """Ambient metric as plain arrays: z (..., 2m) -> (..., 2m, 2m)."""
    m = spec.complex_dim
    z = np.asarray(z, dtype=float)
    if spec.is_flat:
        return np.broadcast_to(np.eye(2 * m), z.shape[:-1] + (2 * m, 2 * m)).copy()
    check_chart_domain(spec, z)
    x = [z[..., 2 * p] for p in range(m)]
    y = [z[..., 2 * p + 1] for p in range(m)]
    rows = _metric_entries(spec, x, y)
    out = np.empty(z.shape[:-1] + (2 * m, 2 * m))
    for a in range(2 * m):
        for b in range(2 * m):
            out[..., a, b] = rows[a][b]
    return out


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
    z = np.asarray(z, dtype=float)
    m2 = spec.real_dim
    if spec.is_flat:
        return np.zeros(z.shape[:-1] + (m2,) * 4)
    g = ambient_metric_point(spec, z)
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

