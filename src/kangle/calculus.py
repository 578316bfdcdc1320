"""Tensor calculus over jet fields.

Tensors of jets are represented as a single :class:`~kangle.jets.Jet` whose
leading axes are the tensor component axes, followed by the batch axis over
sample points, followed by the coefficient axis.  Contractions go through
:func:`kangle.jets.jet_einsum`; a covariant derivative lowers the truncation
order by one, and a jet sum or product is formed at the lower operand order
(:mod:`kangle.jets`), so a caller caps an order by truncating an operand.
A jet product costs its coefficient pairs times its output components, so
a quantity read only as a trace (the codifferential, the norm of a 2-form,
the mean curvature) is contracted before it is multiplied out, in
:mod:`kangle.geometry`; the full-tensor forms are the tests' oracles.

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

import math

import numpy as np

from .errors import UsageError
from .jets import Jet, jet_einsum, jstack, partials

__all__ = [
    "contract",
    "jstack",
    "jet_matrix_inverse",
    "partials",
    "christoffel",
    "riemann_from_christoffel",
    "cov_d",
    "divergence",
    "exterior_d_oneform",
    "trace_hessian",
    "gradient_vector",
]


# compiled contraction plans, keyed on subscripts and operand shapes past
# the batch axis; a race between threads only plans the same key twice
_PLANS = {}


def contract(subscripts, *operands):
    """np.einsum of batch-first operands, replayed from a plan compiled once.

    Every operand and the output carry the batch label ``b`` first, so the
    cheapest path does not depend on the batch size: one plan serves every
    batch and masked sub-batch with the same trailing shapes.  The plan is
    the path of ``np.einsum_path(..., optimize="optimal")`` compiled into
    pairwise steps, each an axis permutation and ``(-1, L, K)`` reshape of
    its left operand, a ``(-1, K, R)`` one of its right operand and one
    ``np.matmul``, then the transpose to the output's axis order.  A call
    replays the steps and plans nothing.  A subscript with a step that is
    not a batched matmul (a repeated label, a label summed within one
    operand, or a size-1 axis broadcast against a longer one) raises
    ``UsageError`` when it is planned.
    """
    key = (subscripts,) + tuple(op.shape[1:] for op in operands)
    plan = _PLANS.get(key)
    if plan is None:
        path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
        plan = _PLANS[key] = _compile(subscripts, path[1:],
                                      [op.shape for op in operands])
    steps, final = plan
    ops = list(operands)
    for i, j, perm_a, shape_a, perm_b, shape_b, shape in steps:
        b, a = ops.pop(j), ops.pop(i)
        ops.append(np.matmul(a.transpose(perm_a).reshape(shape_a),
                             b.transpose(perm_b).reshape(shape_b)).reshape(shape))
    return ops[0].transpose(final)


def _compile(subscripts, path, shapes):
    """contract's plan, (steps, final transpose), for an einsum path of
    operands of these shapes."""
    def refuse(why):
        return UsageError(f"contract cannot compile {subscripts!r}: {why}")

    ins, out = subscripts.split("->")
    terms = ins.split(",")
    if any(t[:1] != "b" for t in terms + [out]):
        raise refuse("an operand or the output lacks the leading batch label b")
    if any(len(set(t)) < len(t) for t in terms + [out]):
        raise refuse("a label repeats within one operand")
    size = {}
    for t, shape in zip(terms, shapes):
        for c, n in zip(t, shape):
            if size.setdefault(c, n) != n:
                raise refuse(f"label {c} has sizes {size[c]} and {n}")
    steps = []
    for pair in path:
        if len(pair) != 2:
            raise refuse("a step is not a pairwise contraction")
        i, j = sorted(pair)
        tb, ta = terms.pop(j), terms.pop(i)
        keep = set(out).union(*terms)
        batch = [c for c in ta if c in tb and c in keep]
        summed = [c for c in ta if c in tb and c not in keep]
        left = [c for c in ta if c not in tb]
        right = [c for c in tb if c not in ta]
        if not keep.issuperset(left + right):
            raise refuse(f"a label of {ta},{tb} is summed within one operand")
        L, K, R = (math.prod(size[c] for c in g) for g in (left, summed, right))
        steps.append((i, j,
                      tuple(ta.index(c) for c in batch + left + summed), (-1, L, K),
                      tuple(tb.index(c) for c in batch + summed + right), (-1, K, R),
                      (-1,) + tuple(size[c] for c in batch[1:] + left + right)))
        terms.append("".join(batch + left + right))
    return tuple(steps), tuple(terms[0].index(c) for c in out)


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


def christoffel(g, g_inv):
    """Christoffel symbols Gamma^k_{ij} (jets, one order below g)."""
    dg = partials(g)                      # dg[v, i, j, b] = d_v g_ij
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
