"""Oracles shared across tests: closed forms, full-tensor routes and finite
differences."""

import itertools

import numpy as np


def ambient_metric_jet(spec, z_jets):
    """The ambient metric as jets on chart-coordinate jets, the oracle of
    ``ambient.ambient_metric`` and of the Christoffel and curvature tensors
    derived from it.

    Closed form, with A = 1/(1 + rho|z|^2) and c = -rho A^2:
    g(x_p, x_q) = g(y_p, y_q) = A delta_pq + c (x_p x_q + y_p y_q),
    g(x_p, y_q) = -g(y_p, x_q) = c (x_p y_q - y_p x_q).
    z_jets: Jet with leading axis of length 2m; result has leading axes
    (2m, 2m).  It is the identity for rho = 0.
    """
    from kangle.jets import Jet, jet_einsum

    m = spec.complex_dim
    s2 = jet_einsum("A...,A...->...", z_jets, z_jets)
    A = (1.0 + spec.rho * s2).reciprocal()
    c = A * A * (-spec.rho)
    x, y = z_jets[0::2], z_jets[1::2]
    xc, yc = x[None, :] * c, y[None, :] * c
    re = (x[:, None] * xc + y[:, None] * yc).coeffs
    xy = (x[:, None] * yc).coeffs
    im = xy - np.swapaxes(xy, 0, 1)
    diag = np.arange(m)
    re[diag, diag] += A.coeffs
    g = np.moveaxis(np.empty(re.shape[-1:] + (2 * m,) * 2 + re.shape[2:-1]),
                    0, -1)
    g[0::2, 0::2] = re
    g[1::2, 1::2] = re
    g[0::2, 1::2] = im
    g[1::2, 0::2] = -im
    return Jet(z_jets.dim, z_jets.order, g)


def pullback_form(spec, z_jets, a):
    """(F*w)_ij = 1/2 (g_N(J a_i, a_j) - g_N(J a_j, a_i)) with the whole
    ambient metric jet ``ambient_metric_jet`` along z_jets and J a formed
    first: the full-tensor oracle of the F*w of ``ambient.pullback_along``.
    a: Jet (A, i, batch...); result (i, j, batch...) at the order of a."""
    from kangle import ambient as amb
    from kangle.jets import Jet, jet_einsum

    gN = ambient_metric_jet(spec, z_jets.truncated(a.order))
    Ja = jet_einsum("AB,Bi...->Ai...", amb.ambient_J(spec), a)
    w = jet_einsum("Ai...,Aj...->ij...", Ja,
                   jet_einsum("AB...,Bj...->Aj...", gN, a))
    return Jet(w.dim, w.order, 0.5 * (w.coeffs - np.swapaxes(w.coeffs, 0, 1)))


def ambient_christoffel(spec, z_jets):
    """Levi-Civita connection of the space form as a jet tensor, the oracle
    of ``ambient.christoffel_along``.

    Gamma(X, Y) = -rho/(1 + rho|z|^2) [(Y.z) X + (Y.Jz) JX + (X.z) Y
    + (X.Jz) JY] (Kobayashi-Nomizu II, ch. IX 7), with Euclidean chart
    products and J = ambient_J.  z_jets: Jet with leading axis of length
    2m; result has leading axes (2m, 2m, 2m) = Gamma^A_{BC}.
    """
    from kangle import ambient as amb
    from kangle.jets import Jet, jet_einsum

    J = amb.ambient_J(spec)
    s2 = jet_einsum("A...,A...->...", z_jets, z_jets)
    c = (1.0 + spec.rho * s2).reciprocal() * (-spec.rho)
    cz = z_jets * c                                          # (C, b)
    cJz = jet_einsum("CD,D...->C...", J, z_jets) * c
    T = (jet_einsum("AB,C...->ABC...", np.eye(spec.real_dim), cz)
         + jet_einsum("AB,C...->ABC...", J, cJz)).coeffs
    return Jet(z_jets.dim, z_jets.order, T + np.swapaxes(T, 1, 2))


def codiff(t, g_inv, gamma):
    """(delta t)_{k...} = -g^{ij} (nabla_i t)_{jk...}, in the standard sign,
    with the whole jet nabla t formed first: the full-tensor oracle of the
    traced delta F*w of the ``forms`` stage."""
    from kangle.calculus import cov_d
    from kangle.jets import jet_einsum

    rest = "kmn"[:len(t.shape) - 2]
    return -jet_einsum(f"ij...,ij{rest}...->{rest}...", g_inv, cov_d(t, gamma))


def two_form_pairing(a, b, g_inv):
    """<a, b> = (1/2) g^{ik} g^{jl} a_{ij} b_{kl}, with b^{ij} formed first:
    the full-tensor oracle of the traced |F*w|^2 of the ``forms`` stage.

    The 1/2 makes ||e^1 ^ e^2||^2 = 1; the choice is pinned by the angle
    norm identity ||F*w||^2 = n cos^2(theta).
    """
    from kangle.jets import jet_einsum

    b_up = jet_einsum("ik...,kl...->il...", g_inv, b)
    b_up = jet_einsum("jl...,il...->ij...", g_inv, b_up)     # b^{ij}
    return jet_einsum("ij...,ij...->...", a, b_up) * 0.5


def mean_curvature(sff, g_inv, n):
    """H = (1/2n) g^{ij} sff_ij of a whole sff jet (i, j, A, b): the
    full-tensor oracle of the traced H of the ``extrinsic`` stage."""
    from kangle.jets import jet_einsum

    return jet_einsum("ij...,ijA...->A...", g_inv, sff) * (1.0 / (2 * n))


def tensor_route(spec, snap):
    """F's jets on ``snap``'s points and, by the tensor route, the ambient
    metric jet g_N and the mean curvature H: the whole sff jet, with the
    Christoffel tensor of g_N along F contracted against dF, traced by
    ``mean_curvature``.  Returns (F, dF, g_N, Gamma^N, H)."""
    import kangle.calculus as ca
    from kangle.dsl import eval_components
    from kangle.jets import Jet, jet_einsum

    F = eval_components(spec, snap.points, order=snap.order)
    dF = ca.jstack([ca.partials(F[A]) for A in range(snap.ambient_dim)])
    gN = ambient_metric_jet(spec.ambient, F.truncated(snap.order - 1))
    gammaN = ambient_christoffel(spec.ambient, F.truncated(snap.order - 2))
    corr = jet_einsum("Ak...,kij...->ijA...", dF, snap.jets["gamma"])
    t = jet_einsum("ABC...,Bi...->AiC...", gammaN, dF)
    sff = Jet(corr.dim, corr.order, np.einsum(
        "iAj...->ijA...", ca.partials(dF).coeffs) - corr.coeffs) \
        + jet_einsum("AiC...,Cj...->ijA...", t, dF)
    return F, dF, gN, gammaN, mean_curvature(sff, snap.jets["g_inv"], snap.n)


def mean_curvature_jets(spec, snap):
    """(JH)-flat and (JH)^T as jets on ``snap``'s points; the snapshot keeps
    only their values and derivatives at the points.  They are built by the
    tensor route (``tensor_route``), not by the closed forms the pipeline
    applies."""
    from kangle.jets import jet_einsum

    _, dF, gN, _, H = tensor_route(spec, snap)
    JH = jet_einsum("AB,B...->A...", snap.JN, H)
    JHb = jet_einsum("A...,Ai...->i...",
                     jet_einsum("AB...,A...->B...", gN, JH), dF)
    return JHb, jet_einsum("ij...,j...->i...", snap.jets["g_inv"], JHb)


def exterior_d_twoform0(w):
    """(dw)_ijk = d_i w_jk - d_j w_ik + d_k w_ij of a 2-form jet at its
    base points: the closedness tests' d, which the package never forms."""
    import kangle.calculus as ca
    dw = ca.partials(w).value()
    return dw - np.einsum("jik...->ijk...", dw) + np.einsum("kij...->ijk...", dw)


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
