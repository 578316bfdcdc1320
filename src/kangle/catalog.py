"""Built-in catalog of immersions with self-asserted expected properties.

Every entry records what is known about it (minimality, equal or constant
angles, classification, a closed-form angle function where one exists) and
the suite asserts those expectations whenever the entry runs; the catalog is
self-testing.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dsl import parse_immersion
from .errors import UsageError

__all__ = ["CatalogEntry", "builtin_catalog", "get_entry", "entry_names"]

# the flat wobbled torus that checks the sign conventions
CALIBRATION_SURFACE = (
    "n=1; ambient=flat; periodic; map=[cos(u1), sin(u1), "
    "cos(u2) + 0.3*sin(u1), sin(u2) + 0.2*cos(u1 + u2)]")


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    name: str
    text: str
    box: tuple                      # ((lo, hi), ...) per domain variable
    minimal: bool = False
    equal_angles: bool = True
    constant_angle: bool = False
    classification: str = "generic"
    angle_fn: object = None         # callable points -> cos(theta) or None
    ambient: object = None          # AmbientSpec to run in, or None for the text's

    def spec(self):
        spec = parse_immersion(self.text, name=self.name)
        if self.ambient is None:
            return spec
        return dataclasses.replace(spec, ambient=self.ambient)


def _linear_graph_text(n, a):
    comps = []
    for p in range(n):
        x1, x2 = f"u{2 * p + 1}", f"u{2 * p + 2}"
        if a == 0:
            comps += [x1, "0", x2, "0"]
        else:
            comps += [x1, f"-({a!r}*{x2})", x2, f"{a!r}*{x1}"]
    return f"n={n}; ambient=flat; map=[" + ", ".join(comps) + "]"


def _linear_cls(a):
    if a == 0:
        return "Lagrangian"
    if a == 1:
        return "complex"
    return "generic"


def _slant_factor(c, k):
    s = math.sqrt(1.0 - c * c)
    u, v = f"u{2 * k + 1}", f"u{2 * k + 2}"
    return f"{s!r}*sin({u}), -({s!r}*cos({u})), {c!r}*{u}, {v}"


def _ds_text():
    U = "sin(u1+u3)*cosh(u2+u4)"
    V = "-(cos(u1+u3)*sinh(u2+u4))"
    return (f"n=2; ambient=flat; map=[u1, {U}, u2, {V}, "
            f"u3, -({U}), u4, -({V})]")


def _ds_angle(points):
    q = np.cos(points[:, 0] + points[:, 2]) ** 2 \
        + np.sinh(points[:, 1] + points[:, 3]) ** 2
    return 2.0 * np.sqrt(q) / np.sqrt(1.0 + 4.0 * q)


def _torus_text(n, radius, rho=None):
    comps = ", ".join(
        f"{radius!r}*cos(u{i + 1}), {radius!r}*sin(u{i + 1})"
        for i in range(2 * n)
    )
    amb = "flat" if rho is None else f"space_form({rho!r})"
    return f"n={n}; ambient={amb}; periodic; map=[{comps}]"


def builtin_catalog():
    """The full entry list; deterministic, no randomness at build time."""
    entries = []

    # (1) totally geodesic linear graphs F(X) = (X, a J X): constant equal
    # angle 2|a|/(1+a^2)
    for n in (1, 2, 3):
        for a in (0.0, 0.25, 0.5, 1.0, 2.0):
            cos_a = 2.0 * abs(a) / (1.0 + a * a)
            entries.append(CatalogEntry(
                name=f"linear_n{n}_a{a:g}".replace(".", "p"),
                text=_linear_graph_text(n, a),
                box=((-1.0, 1.0),) * (2 * n),
                minimal=True, equal_angles=True, constant_angle=True,
                classification=_linear_cls(a),
                angle_fn=(lambda pts, c=cos_a: np.full(pts.shape[0], c)),
            ))

    # (2) the minimal graph with equal, non-constant angles: the graph of the
    # sin/sinh map, Lagrangian on a union of 2-planes
    entries.append(CatalogEntry(
        name="ds_graph", text=_ds_text(), box=((-1.0, 1.0),) * 4,
        minimal=True, equal_angles=True, constant_angle=False,
        classification="generic", angle_fn=_ds_angle,
    ))

    # (3) real plane (a=0 above) and Lagrangian product tori
    entries.append(CatalogEntry(
        name="lagrangian_torus_2", text=_torus_text(1, 1.0),
        box=((0.0, 2.0 * np.pi),) * 2,
        equal_angles=True, constant_angle=True, classification="Lagrangian",
        angle_fn=lambda pts: np.zeros(pts.shape[0]),
    ))
    # circle radius 1/sqrt(2), so |H| = sqrt(2)/2
    entries.append(CatalogEntry(
        name="lagrangian_torus_4", text=_torus_text(2, 1.0 / math.sqrt(2.0)),
        box=((0.0, 2.0 * np.pi),) * 4,
        equal_angles=True, constant_angle=True, classification="Lagrangian",
        angle_fn=lambda pts: np.zeros(pts.shape[0]),
    ))

    # (4) holomorphic graphs: complex submanifolds
    entries.append(CatalogEntry(
        name="complex_graph_2",
        text="n=1; ambient=flat; map=[u1, u2, u1^2 - u2^2, 2*u1*u2]",
        box=((-1.0, 1.0),) * 2, minimal=True, equal_angles=True,
        constant_angle=True, classification="complex",
        angle_fn=lambda pts: np.ones(pts.shape[0]),
    ))
    # product of two holomorphic curve graphs
    entries.append(CatalogEntry(
        name="complex_product_4",
        text=("n=2; ambient=flat; map=[u1, u2, u1^2 - u2^2, 2*u1*u2, "
              "u3, u4, sin(u3)*cosh(u4), cos(u3)*sinh(u4)]"),
        box=((-1.0, 1.0),) * 4, minimal=True, equal_angles=True,
        constant_angle=True, classification="complex",
        angle_fn=lambda pts: np.ones(pts.shape[0]),
    ))

    # (5) trig-polynomial periodic surfaces, flat and space-form ambients
    # wobbled torus; crosses the Lagrangian locus
    entries.append(CatalogEntry(
        name="trig_flat_2d",
        text=CALIBRATION_SURFACE,
        box=((0.0, 2.0 * np.pi),) * 2,
        equal_angles=True, classification="mixed",
    ))
    entries.append(CatalogEntry(
        name="trig_sf_pos",
        text=("n=1; ambient=space_form(1); periodic; map=[cos(u1), sin(u1), "
              "cos(u2) + 0.25*sin(u1), sin(u2) + 0.15*cos(u1 + u2)]"),
        box=((0.0, 2.0 * np.pi),) * 2,
        equal_angles=True, classification="mixed",
    ))
    entries.append(CatalogEntry(
        name="trig_sf_neg",
        text=("n=1; ambient=space_form(-1); periodic; "
              "map=[0.3*cos(u1), 0.3*sin(u1), 0.3*cos(u2) + 0.1*sin(u1), "
              "0.3*sin(u2) + 0.06*cos(u1 + u2)]"),
        box=((0.0, 2.0 * np.pi),) * 2,
        equal_angles=True, classification="mixed",
    ))
    # generic distinct-angle immersion for gating tests
    entries.append(CatalogEntry(
        name="trig_flat_4d",
        text=("n=2; ambient=flat; periodic; map=["
              "cos(u1), sin(u1), cos(u2) + 0.3*sin(u1), sin(u2), "
              "cos(u3) + 0.2*sin(u1), sin(u3), cos(u4), "
              "sin(u4) + 0.25*cos(u1 + u3)]"),
        box=((0.0, 2.0 * np.pi),) * 4,
        equal_angles=False, classification="mixed",
    ))

    # (6) quaternionic graph: holomorphic for a second constant complex
    # structure, equal angles for the ambient one; a complex point at the
    # origin, angles vary over (0, 1)
    entries.append(CatalogEntry(
        name="quaternionic_graph",
        text=("n=2; ambient=flat; map=[u1, u2, u3, u4, "
              "u1^2 - u3^2, u2^2 - u4^2, 2*u1*u3, 2*u2*u4]"),
        box=((-1.0, 1.0),) * 4, minimal=True, equal_angles=True,
        classification="mixed",
    ))

    # (7) non-minimal products of slant factors with one constant angle 0.6
    c = 0.6
    for n in (1, 2, 3):
        comps = ", ".join(_slant_factor(c, k) for k in range(n))
        entries.append(CatalogEntry(
            name=f"slant_product_{2 * n}" if n > 1 else "slant_cylinder",
            text=f"n={n}; ambient=flat; map=[{comps}]",
            box=((-2.5, 2.5),) * (2 * n),
            minimal=False, equal_angles=True, constant_angle=True,
            classification="generic",
            angle_fn=lambda pts, cc=c: np.full(pts.shape[0], cc),
        ))

    # Lagrangian tori inside space-form charts (non-minimal there)
    entries.append(CatalogEntry(
        name="lagrangian_torus_sf_pos", text=_torus_text(2, 0.5, rho=1.0),
        box=((0.0, 2.0 * np.pi),) * 4,
        equal_angles=True, constant_angle=True, classification="Lagrangian",
        angle_fn=lambda pts: np.zeros(pts.shape[0]),
    ))
    entries.append(CatalogEntry(
        name="lagrangian_torus_sf_neg", text=_torus_text(2, 0.35, rho=-1.0),
        box=((0.0, 2.0 * np.pi),) * 4,
        equal_angles=True, constant_angle=True, classification="Lagrangian",
        angle_fn=lambda pts: np.zeros(pts.shape[0]),
    ))

    # the fixed surface of the sign calibration doubles as a catalog entry
    entries.append(CatalogEntry(
        name="calibration_surface",
        text=CALIBRATION_SURFACE,
        box=((0.0, 2.0 * np.pi),) * 2,
        equal_angles=True, classification="mixed",
    ))
    return entries


def entry_names():
    return [e.name for e in builtin_catalog()]


def get_entry(name):
    for e in builtin_catalog():
        if e.name == name:
            return e
    raise UsageError(f"no catalog entry named {name!r}; "
                     f"known: {', '.join(entry_names())}")
