"""Shared fixtures and the finite-difference oracle used across tests."""

import itertools

import numpy as np
import pytest

from kangle.identities import calibrate_conventions


@pytest.fixture(scope="session")
def conventions():
    return calibrate_conventions(3)


def mean_curvature_jets(spec, snap):
    """(JH)-flat and (JH)^T as jets on ``snap``'s points, built from the
    public geometry functions as the ``_extrinsic`` stage builds them; the
    snapshot keeps only their values and derivatives at the points."""
    import kangle.calculus as ca
    from kangle import ambient as amb
    from kangle.dsl import eval_components
    from kangle.geometry import mean_curvature, second_fundamental_form
    from kangle.jets import jet_einsum

    F = eval_components(spec, snap.points, order=snap.order)
    dF = ca.jstack([ca.partials(F[A]) for A in range(snap.ambient_dim)])
    gN = gammaN = None
    if not spec.ambient.is_flat:
        gN = amb.ambient_metric(spec.ambient, F.truncated(snap.order - 1))
        gammaN = amb.ambient_christoffel(spec.ambient,
                                         F.truncated(snap.order - 2))
    sff = second_fundamental_form(dF, snap.jets["gamma"], gammaN)
    JH = jet_einsum("AB,B...->A...", snap.JN,
                    mean_curvature(sff, snap.jets["g_inv"], snap.n))
    if gN is not None:
        JH = ca._jes("AB...,A...->B...", gN, JH)
    JHb = ca._jes("A...,Ai...->i...", JH, dF)
    return JHb, ca._jes("ij...,j...->i...", snap.jets["g_inv"], JHb)


def central_diff(f, point, alpha, h=1e-4, richardson=True):
    """Mixed partial d^alpha f(point) by nested central differences.

    f: callable on a 1-D numpy point.  alpha: multi-index.  Uses step h
    with one Richardson extrapolation level by default (h and h/2).
    """
    point = np.asarray(point, dtype=float)

    def deriv(g, var, step):
        def out(x):
            xp = x.copy()
            xm = x.copy()
            xp[var] += step
            xm[var] -= step
            return (g(xp) - g(xm)) / (2.0 * step)
        return out

    def estimate(step):
        g = f
        for var, k in enumerate(alpha):
            for _ in range(k):
                g = deriv(g, var, step)
        return g(point)

    if not richardson:
        return estimate(h)
    d1 = estimate(h)
    d2 = estimate(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def all_multi_indices(dim, max_order):
    out = []
    for alpha in itertools.product(range(max_order + 1), repeat=dim):
        if 0 < sum(alpha) <= max_order:
            out.append(alpha)
    return out


def mp_eval_expr(expr, coords):
    """Evaluate a dsl.Expr on mpmath numbers."""
    import mpmath as mp

    from kangle.dsl import Bin, Num, Pow, Unary, Var

    if isinstance(expr, Num):
        return mp.mpf(float(expr.value))
    if isinstance(expr, Var):
        return coords[expr.index - 1]
    if isinstance(expr, Unary):
        arg = mp_eval_expr(expr.arg, coords)
        if expr.fn == "neg":
            return -arg
        return getattr(mp, {"atan": "atan"}.get(expr.fn, expr.fn))(arg)
    if isinstance(expr, Bin):
        a = mp_eval_expr(expr.left, coords)
        b = mp_eval_expr(expr.right, coords)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[expr.op]
    if isinstance(expr, Pow):
        return mp_eval_expr(expr.base, coords) ** expr.exponent
    raise TypeError(expr)


def mp_central_diff(expr, point, alpha, h="1e-3", dps=40):
    """Truncation-limited mixed-partial oracle in mpmath arithmetic."""
    import mpmath as mp
    with mp.workdps(dps):
        base = [mp.mpf(float(p)) for p in point]

        def f(coords):
            return mp_eval_expr(expr, coords)

        def deriv(g, var, step):
            def out(coords):
                up = list(coords)
                dn = list(coords)
                up[var] = up[var] + step
                dn[var] = dn[var] - step
                return (g(up) - g(dn)) / (2 * step)
            return out

        def estimate(step):
            g = f
            for var, k in enumerate(alpha):
                for _ in range(k):
                    g = deriv(g, var, step)
            return g(base)

        step = mp.mpf(h)
        d1, d2 = estimate(step), estimate(step / 2)
        return float((4 * d2 - d1) / 3)
