"""Tensor calculus over jet fields.

Tensors of jets are represented as a single :class:`~kangle.jets.Jet` whose
leading axes are the tensor component axes, followed by the batch axis over
sample points, followed by the coefficient axis.  Contractions go through
:func:`kangle.jets.jet_einsum`; a covariant derivative lowers the truncation
order by one, and a jet sum or product is formed at the lower operand order
(:mod:`kangle.jets`), so a caller caps an order by truncating an operand.

Index conventions (``b`` = batch axis):

* metric ``g``            -> axes (i, j, b)
* inverse metric          -> axes (i, j, b)
* Christoffel ``gamma``   -> axes (k, i, j, b), Gamma^k_{ij}
* vector field ``V``      -> axes (i, b), components V^i
* 1-form ``s``            -> axes (i, b), components s_i
* 2-form ``w``            -> axes (i, j, b), antisymmetric
* (1,1) tensor ``T``      -> axes (k, j, b), components T^k_j
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, jet_einsum, jstack

__all__ = [
    "contract",
    "jstack",
    "jet_matrix_inverse",
    "partials",
    "christoffel",
    "riemann_from_christoffel",
    "cov_d",
    "divergence",
    "codiff",
    "exterior_d_oneform",
    "trace_hessian",
    "gradient_vector",
    "two_form_pairing",
]


# contraction plans, keyed on subscripts and operand shapes past the batch
# axis; a race between threads only plans the same path twice
_PLANS = {}


def contract(subscripts, *operands):
    """np.einsum along a contraction path planned once and then reused.

    Every operand and the output carry the batch label ``b`` first, so the
    cheapest path does not depend on the batch size: one plan, found by
    ``np.einsum_path(..., optimize="optimal")``, serves every batch and
    masked sub-batch with the same trailing shapes.
    """
    key = (subscripts,) + tuple(op.shape[1:] for op in operands)
    path = _PLANS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
        _PLANS[key] = path
    return np.einsum(subscripts, *operands, optimize=path)


def jet_matrix_inverse(G):
    """Inverse of a jet matrix G[i, j, b] via a finite Neumann series.

    Exact in the truncated jet ring: with G = G0 + N (N has zero constant
    term), G^-1 = (sum_p (-G0^-1 N)^p) G0^-1, and the series terminates at
    the truncation order.
    """
    m = G.coeffs.shape[0]
    G0 = np.moveaxis(G.coeffs[..., 0], (0, 1), (-2, -1))        # (b, m, m)
    I0 = np.moveaxis(np.linalg.inv(G0), (-2, -1), (0, 1))       # (i, j, b)
    N = Jet(G.dim, G.order, G.coeffs.copy(order="K"))
    N.coeffs[..., 0] = 0.0
    M = jet_einsum("ik...,kj...->ij...", -I0, N)
    total = acc = M
    for _ in range(G.order - 1):
        acc = jet_einsum("ik...,kj...->ij...", M, acc)
        total = total + acc
    for i in range(m):
        total.coeffs[i, i, ..., 0] += 1.0
    return jet_einsum("ik...,kj...->ij...", total, I0)


def partials(T):
    """Stack all partial derivatives as a new leading axis (order drops by 1)."""
    return jstack([T.derivative(v) for v in range(T.dim)])


def christoffel(g, g_inv=None):
    """Christoffel symbols Gamma^k_{ij} (jets, one order below g)."""
    dg = partials(g)                      # dg[v, i, j, b] = d_v g_ij
    if g_inv is None:
        g_inv = jet_matrix_inverse(g)
    sym = Jet(dg.dim, dg.order,
              np.einsum("ilj...->lij...", dg.coeffs)
              + np.einsum("jli...->lij...", dg.coeffs)
              - dg.coeffs)                # sym[l, i, j] = d_i g_lj + d_j g_li - d_l g_ij
    return jet_einsum("kl...,lij...->kij...", g_inv, sym) * 0.5


def riemann_from_christoffel(gamma, g):
    """Curvature R_{ijkl} = g(R(d_i, d_j) d_k, d_l) at the base points.

    Convention: R(X, Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_{[X,Y]} Z.
    Returns a plain array of shape (b, m, m, m, m).
    """
    dG = np.moveaxis(partials(gamma).value(), -1, 0)   # (b, v, l, j, k): d_v G^l_{jk}
    G0 = np.moveaxis(gamma.value(), -1, 0)             # (b, l, j, k)
    # R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik}
    term = np.einsum("biljk->bijkl", dG)
    quad = np.einsum("blim,bmjk->bijkl", G0, G0)
    R_up = term - term.swapaxes(1, 2) + quad - quad.swapaxes(1, 2)
    g0 = np.moveaxis(g.value(), -1, 0)
    return np.einsum("bijkm,bml->bijkl", R_up, g0)


def cov_d(T, gamma, upper=()):
    """(nabla T)[i, t..., b] of a tensor jet T[t..., b], one order below T
    and no deeper than gamma.

    Axis p of T is contravariant if p is in ``upper``, else covariant:
    d_i T + G^{t_p}_{il} T[..l..] (upper) - G^l_{i t_p} T[..l..] (lower),
    summed over the axes in order.  T is truncated before it is
    differentiated and before the G.T products, so no term is formed past
    the order of the result.
    """
    o = min(T.order - 1, gamma.order)
    out = partials(T.truncated(o + 1))
    T = T.truncated(o)
    t = "jkmn"[:len(T.shape) - 1]        # tensor axes; i derivative, l dummy
    for p, a in enumerate(t):
        slot = t[:p] + "l" + t[p + 1:]
        if p in upper:
            out = out + jet_einsum(f"{a}il...,{slot}...->i{t}...", gamma, T)
        else:
            out = out - jet_einsum(f"li{a}...,{slot}...->i{t}...", gamma, T)
    return out


def divergence(V, gamma):
    """div V = trace of nabla V (a jet one order below V)."""
    nV = cov_d(V, gamma, upper=(0,))
    return Jet(nV.dim, nV.order, np.einsum("ii...->...", nV.coeffs))


def codiff(t, g_inv, gamma):
    """(delta t)_{k...} = -g^{ij} (nabla_i t)_{jk...}, in the standard sign."""
    rest = "kmn"[:len(t.shape) - 2]
    return -jet_einsum(f"ij...,ij{rest}...->{rest}...", g_inv, cov_d(t, gamma))


def exterior_d_oneform(s):
    """(ds)[i, j, b] = d_i s_j - d_j s_i."""
    ds = partials(s)
    return Jet(ds.dim, ds.order, ds.coeffs - np.swapaxes(ds.coeffs, 0, 1))


def trace_hessian(f, g_inv, gamma):
    """g^{ij} Hess f_{ij} (the 'div grad' Laplacian, as a jet)."""
    return jet_einsum("ij...,ij...->...", g_inv, cov_d(partials(f), gamma))


def gradient_vector(f, g_inv):
    """(grad f)^i = g^{ij} d_j f, one order below f, at most g_inv's."""
    return jet_einsum("ij...,j...->i...", g_inv, partials(f))


def two_form_pairing(a, b, g_inv):
    """<a, b> = (1/2) g^{ik} g^{jl} a_{ij} b_{kl}.

    The 1/2 makes ||e^1 ^ e^2||^2 = 1; the choice is pinned by the angle
    norm identity ||F*w||^2 = n cos^2(theta).
    """
    b_up = jet_einsum("ik...,kl...->il...", g_inv, b)
    b_up = jet_einsum("jl...,il...->ij...", g_inv, b_up)     # b^{ij}
    return jet_einsum("ij...,ij...->...", a, b_up) * 0.5
