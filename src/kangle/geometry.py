"""Pointwise geometry of a parametric immersion, computed from jets.

The entry point is :func:`compute_snapshot`, which evaluates an immersion
on a batch of domain points and derives the invariants the identity suites
consume: induced metric, pulled-back form, Kahler angles, polar complex
structure, second fundamental form, mean curvature, tangential projection
of J applied to the mean curvature, curvature tensors, codifferentials,
Laplacians and the eigenframe sums.  They come from the ordered
``STAGES``; a caller names the keys it reads, only the stages up to the
last one that writes them run, and F is formed only as deep as those
stages declare.

The jets read only through a trace, |F*w|^2, delta F*w and H, are
contracted before they are multiplied out, so nabla F*w and sff exist
only as values at the points.

Every sum over a unitary eigenframe Z_a = (X_a - i J_w X_a)/2 of (TM, J_w)
is a contraction with P = sum_a Z_a (x) conj(Z_a) = (g^-1 - i J_w g^-1)/4,
so no frame is built: J_w is 0 on ker F*w, where P is g^-1/4.

Quantities that are only defined away from the Lagrangian locus (smallest
angle ~ 0) or away from complex points (largest angle ~ 1) are formed at
the point from the derivatives of cos^2 and F*w by the chain rule; outside
their mask the exported arrays hold NaN and the mask records
applicability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ambient as amb
from . import calculus as ca
from .dsl import eval_components
from .errors import UsageError
from .jets import Jet, jet_einsum

# classification codes and tolerances
GENERIC, LAGRANGIAN, COMPLEX, MIXED = 0, 1, 2, 3
CLASS_NAMES = {GENERIC: "generic", LAGRANGIAN: "Lagrangian",
               COMPLEX: "complex", MIXED: "mixed"}

TOL_LAGRANGIAN = 1e-6       # cos(theta) below this counts as a zero angle
TOL_COMPLEX = 1e-6          # 1 - cos(theta) below this counts as a complex angle
TOL_EQUAL = 1e-8            # gate on max |cos a - cos b|
NEAR_GATE_BUFFER = 1e-4     # keep-away band around the singular loci
PAIRING_TOL = 1e-7          # skew singular values must pair up this well

__all__ = [
    "Snapshot",
    "STAGES",
    "compute_snapshot",
    "reads",
    "pullback_form",
    "kahler_angles",
    "signed_angle_n1",
    "second_fundamental_form",
    "weitzenboeck_operator",
    "gauss_equation_residual",
]


def _at_points(jet):
    """Values of a jet field at the points: (comp..., B) -> (B, comp...)."""
    return np.moveaxis(jet.value(), -1, 0)


@dataclass
class Snapshot:
    """The invariants computed at a batch of domain points.

    Value arrays are batch-first; jet fields keep the component-axes-first
    layout of :mod:`kangle.calculus`.  ``masks`` maps context names to
    boolean arrays over the batch.  ``index`` holds each kept point's index
    into the caller's points, and ``rejected`` lists the dropped points as
    (index into the caller's points, reason).
    """

    n: int
    order: int
    points: np.ndarray
    index: np.ndarray
    ambient_spec: amb.AmbientSpec
    rejected: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    jets: dict = field(default_factory=dict)
    masks: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.__dict__["data"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def JN(self):
        """The ambient complex structure J, the same at every point."""
        return amb.ambient_J(self.ambient_spec)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def domain_dim(self):
        return 2 * self.n

    @property
    def ambient_dim(self):
        return 4 * self.n


def reads(*keys):
    """Declare the snapshot keys a reader reads, as ``fn.reads``."""
    def declare(fn):
        fn.reads = keys
        return fn
    return declare


def writes(*keys, order):
    """Declare the snapshot keys a stage writes, as ``fn.writes``, and how
    many derivatives of F they read, as ``fn.order``.

    An order-j coefficient of a jet product or unary function depends only
    on operand coefficients of order <= j, so F formed deeper than the
    stages that run declare changes no value; a stage that read deeper
    than it declares raises at ``partials`` of an order-0 jet.
    """
    def declare(fn):
        fn.writes, fn.order = keys, order
        return fn
    return declare


def pullback_form(spec, F, dF):
    """(F*w)_ij = g_N(J dF d_i, dF d_j) along F; antisymmetrized against
    roundoff."""
    JdF = jet_einsum("AB,Bi...->Ai...", amb.ambient_J(spec), dF)
    w = amb.metric_along(spec, F, JdF, dF)
    return Jet(w.dim, w.order, 0.5 * (w.coeffs - np.swapaxes(w.coeffs, 0, 1)))


def kahler_angles(g0, W0):
    """Angles and polar complex structure.

    Returns (cos_angles desc (B, n), J_w in coordinate components (B, d, d),
    pairing gap (B,)).  J_w is the pointwise polar factor of (F*w)#: a
    partial isometry with kernel ker F*w.  Where the gap exceeds
    PAIRING_TOL the angles do not exist; the ``_angles`` stage drops those
    points.
    """
    L = np.linalg.cholesky(g0)
    Linv_W = np.linalg.solve(L, W0)                    # L^-1 W
    What = np.swapaxes(np.linalg.solve(L, np.swapaxes(Linv_W, -1, -2)),
                       -1, -2)                         # L^-1 W L^-T
    What = 0.5 * (What - np.swapaxes(What, -1, -2))
    U, S, Vt = np.linalg.svd(What)                     # S descending, paired
    gap = np.max(np.abs(S[:, 0::2] - S[:, 1::2]), axis=-1)
    cos = np.clip(0.5 * (S[:, 0::2] + S[:, 1::2]), 0.0, 1.0 + 1e-10)
    # the polar factor of -What: the partial isometry with kernel ker What
    keep = (S > TOL_LAGRANGIAN).astype(float)
    Jhat = -np.einsum("bik,bk,bkj->bij", U, keep, Vt)
    Lt = np.swapaxes(L, -1, -2)
    Jw = np.einsum("bik,bkl,blj->bij", np.linalg.inv(Lt), Jhat, Lt)
    return cos, Jw, gap


def signed_angle_n1(g0, W0):
    """cos(theta~) = F*w(e1, e2) for the oriented orthonormal frame (n=1)."""
    if W0.shape[-1] != 2:
        raise UsageError("signed angle is defined only for n=1")
    det = g0[:, 0, 0] * g0[:, 1, 1] - g0[:, 0, 1] ** 2
    return W0[:, 0, 1] / np.sqrt(det)


def second_fundamental_form(spec, F, dF, g_inv, gamma, gamma_tr):
    """The second fundamental form at the points, sff[b, i, j, A], and its
    trace, the mean curvature H (A, b), as a jet at the order of d^2 F.

    sff_ij = d_i d_j F - dF_k Gamma^k_{ij} + Gamma^N(dF_i, dF_j) along F.
    H is traced before the middle product is formed: with gamma_tr =
    Gamma^k = g^{ij} Gamma^k_{ij}, 2n H = g^{ij} d_i d_j F - dF_k Gamma^k
    + g^{ij} Gamma^N(dF_i, dF_j).  Gamma^N(dF, dF) is formed once, for
    both."""
    ddF = ca.partials(dF)                          # (i, A, j, b)
    dF = dF.truncated(ddF.order)
    GN = amb.christoffel_along(spec, F, dF, dF)    # (i, j, A, b)
    H = (jet_einsum("ij...,iAj...->A...", g_inv, ddF)
         - jet_einsum("Ak...,k...->A...", dF, gamma_tr)
         + jet_einsum("ij...,ijA...->A...", g_inv, GN)) * (1.0 / ddF.dim)
    sff0 = (np.einsum("biAj->bijA", _at_points(ddF))
            - np.einsum("bAk,bkij->bijA", _at_points(dF), _at_points(gamma))
            + _at_points(GN))
    return sff0, H


def weitzenboeck_operator(RM, g_inv0, alpha0):
    """Curvature term of the 2-form Weitzenbock formula, applied to alpha.

    (q alpha)_{xy} = g^{kl}[ (R(d_k, d_x) alpha)(d_l, d_y)
                           - (R(d_k, d_y) alpha)(d_l, d_x) ]
    with (R(U,V) alpha)(A,B) = -alpha(R(U,V)A, B) - alpha(A, R(U,V)B).
    """
    T = -ca.contract("bkl,bpq,bkxlq,bpy->bxy", g_inv0, g_inv0, RM, alpha0) \
        - ca.contract("bkl,bpq,bkxyq,blp->bxy", g_inv0, g_inv0, RM, alpha0)
    return T - np.swapaxes(T, -1, -2)


@reads("RM", "sff0", "gN0", "dF0", "F0")
def gauss_equation_residual(snapshot):
    """Max relative defect of R^M vs ambient curvature + sff quadratics."""
    RM = snapshot.RM
    sff0 = snapshot.sff0                                    # (b, i, j, A)
    gN0 = snapshot.gN0
    dF0 = snapshot.dF0                                      # (b, A, i)
    RN = amb.curvature_tensor_point(snapshot.ambient_spec, snapshot.F0)
    RN_pull = ca.contract("bABCD,bAi,bBj,bCk,bDl->bijkl",
                          RN, dF0, dF0, dF0, dF0)
    quad = ca.contract("bilA,bAB,bjkB->bijkl", sff0, gN0, sff0)
    quad2 = ca.contract("bjlA,bAB,bikB->bijkl", sff0, gN0, sff0)
    rhs = RN_pull + quad - quad2
    # the 1e-9 floor guards intrinsically flat cases where both sides vanish
    scale = max(np.max(np.abs(RM)) + np.max(np.abs(rhs)), 1e-9)
    return np.max(np.abs(RM - rhs)) / scale


# ---------------------------------------------------------------------------
# the pipeline: ordered stages, each writing the snapshot keys it declares


def _plan(reads, order):
    """The stages that write ``reads`` and the order to form F at.

    The stages run in order up to the last one that writes a key of
    ``reads`` (None runs every stage), and F is formed at the deepest order
    one of them declares.  A key that no stage writes, or an ``order``
    below that deepest one, raises UsageError.
    """
    stages = STAGES
    if reads is not None:
        last = 0
        for key in reads:
            if key not in _WRITER:
                raise UsageError(f"no snapshot stage writes {key!r}")
            last = max(last, _WRITER[key])
        stages = STAGES[:last + 1]
    needed = max(stage.order for stage in stages)
    if order < needed:
        raise UsageError(f"order {order} is too low: the snapshot keys read "
                         f"need F to order {needed}")
    return stages, needed


def compute_snapshot(spec, points, order=3, reads=None):
    """Evaluate the immersion and the invariants named in ``reads``.

    points: (B, 2n).  Points where a Taylor coefficient of F is not finite
    (F or a derivative overflows, or F has no jet, as log(u) at u <= 0),
    outside the chart of the ambient, where F is not an immersion, or where
    the Kahler angles fail to pair are dropped and reported in
    ``snapshot.rejected``, by their index into ``points``; an empty batch,
    or one whose every point is dropped, comes back with ``size`` 0, every
    key of a full snapshot and the reason for each dropped point in
    ``rejected``, and the caller decides what an empty result means.
    reads: snapshot keys; only the
    stages up to the last one that writes one of them run, and F is formed
    at the deepest order those stages declare, which ``snap.order``
    reports; an ``order`` below it raises UsageError before F is evaluated.
    Each stage reads keys of the stages before it; ``work`` carries what no
    reader needs (F, dF, the |F*w|^2 the form Laplacians differentiate, the
    contracted Christoffel Gamma^k = g^{ij} Gamma^k_{ij} that delta F*w and
    H are traced with, the nabla F*w, d delta F*w and (JH)-flat the masked
    fields reuse, and the tensor P the frame sums contract with) and is
    dropped.  It holds no ambient tensor: g_N and Gamma^N are applied along
    F in closed form (``ambient.metric_along``,
    ``ambient.christoffel_along``).
    """
    stages, order = _plan(reads, order)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    snap = Snapshot(n=spec.n, order=order, points=points,
                    index=np.arange(len(points)), ambient_spec=spec.ambient)
    work = {"F": eval_components(spec, points, order=order)}
    for stage in stages:
        stage(snap, work)
    return snap


def _gate(snap, work, good, reason):
    """Drop the points where ``good`` is false from everything computed so
    far: the points and their indices, every jet of ``snap.jets`` and
    ``work`` and every array of ``snap.data`` and ``snap.masks``.  Each
    dropped point is recorded in ``snap.rejected`` as (index into the
    caller's points, reason).  A gate that drops the last point leaves a
    batch of zero points, on which the later stages run as on any other."""
    if np.all(good):
        return
    bad, keep = np.nonzero(~good)[0], np.nonzero(good)[0]
    snap.rejected += [(int(snap.index[b]), reason) for b in bad]
    snap.points, snap.index = snap.points[keep], snap.index[keep]
    for store in (snap.jets, work, snap.data, snap.masks):
        for key, value in store.items():
            if isinstance(value, Jet):
                store[key] = value.take_batch(keep)
            else:
                store[key] = value[keep]


@writes("F0", "dF0", "g0", "sqrt_det_g0", "g", order=1)
def _core(snap, work):
    """F, the finite and chart gates, dF, g, the immersion gate and
    sqrt(det g) at the points; their values read dF."""
    spec, m = snap.ambient_spec, snap.ambient_dim
    with np.errstate(over="ignore"):     # the gate reports the overflow
        finite = np.isfinite(np.sum(work["F"].coeffs ** 2, axis=(0, -1)))
    _gate(snap, work, finite, "map or a derivative not finite")
    snap.data["F0"] = _at_points(work["F"])
    _gate(snap, work, amb.in_chart(spec, snap.F0), "outside chart domain")
    F = work["F"]
    dF = ca.jstack([ca.partials(F[A]) for A in range(m)])   # (A, i, b)
    work["dF"] = dF
    snap.jets["g"] = amb.metric_along(spec, F, dF, dF)
    eig = np.linalg.eigvalsh(_at_points(snap.jets["g"]))
    _gate(snap, work, eig[:, 0] > 1e-12 * np.maximum(eig[:, -1], 1.0),
          "not an immersion")
    g0 = _at_points(snap.jets["g"])
    snap.data.update(dF0=_at_points(work["dF"]), g0=g0,
                     sqrt_det_g0=np.sqrt(np.linalg.det(g0)))


@writes("g_inv0", "g_inv", "gamma", order=2)
def _connection(snap, work):
    """g^-1 and Gamma; Gamma reads d^2 F."""
    g = snap.jets["g"]
    g_inv = ca.jet_matrix_inverse(g)
    snap.jets.update(g_inv=g_inv, gamma=ca.christoffel(g, g_inv))
    snap.data["g_inv0"] = _at_points(g_inv)


@writes("W0", "norm_W2_0", "cos2_0", "sin2_0", "grad_cos2_0", "grad_sin2_0",
        "delta_W0", "norm_delta_W2", "norm_nabla_W2", "cos2",
        "delta_W", "W_sharp", order=2)
def _forms(snap, work):
    """F*w and its calculus to first order: norms, gradients, delta F*w
    and nabla F*w; the derivatives of F*w read d^2 F.  d F*w = F*(dw) = 0,
    w being closed, so no stage forms it.

    The traced jets are contracted before they are multiplied out: with
    the operator (F*w)#^i_j = g^{ik} W_jk and Gamma^k = g^{ij} Gamma^k_{ij},
    |F*w|^2 = -tr((F*w)#^2) / 2 and (delta F*w)_k = -g^{ij} d_i W_jk
    + Gamma^l W_lk - Gamma^l_{ik} (F*w)#^i_l, so nabla F*w is formed only
    at the points."""
    n, g_inv0 = snap.n, snap.g_inv0
    g_inv, gamma = snap.jets["g_inv"], snap.jets["gamma"]
    W = pullback_form(snap.ambient_spec, work["F"], work["dF"])  # (i, j, b)
    W0 = _at_points(W)
    sharp = "ik...,jk...->ij..."                    # (F*w)#: (i, j, b)
    Ws2 = jet_einsum(sharp, g_inv, W)
    norm_W2_jet = jet_einsum("ij...,ji...->...", Ws2, Ws2) * -0.5
    cos2 = norm_W2_jet * (1.0 / n)
    # (F*w)# to first order, as its readers and delta F*w read it
    W_sharp = jet_einsum(sharp, g_inv.truncated(1), W)
    gamma_tr = jet_einsum("ij...,kij...->k...", g_inv, gamma)    # (k, b)
    delta_W = (jet_einsum("l...,lk...->k...", gamma_tr, W)       # standard sign
               - jet_einsum("ij...,ijk...->k...", g_inv, ca.partials(W))
               - jet_einsum("lik...,il...->k...", gamma, W_sharp))
    delta_W0 = _at_points(delta_W)
    nW0 = _at_points(ca.cov_d(W.truncated(1), gamma))        # (b, i, j, k)
    grad_cos2_0 = _at_points(ca.gradient_vector(cos2, g_inv.truncated(0)))
    work.update(norm_W2=norm_W2_jet, nW0=nW0, gamma_tr=gamma_tr)
    snap.jets.update(cos2=cos2, delta_W=delta_W, W_sharp=W_sharp)
    snap.data.update(
        W0=W0, norm_W2_0=norm_W2_jet.value(), cos2_0=cos2.value(),
        sin2_0=1.0 - cos2.value(), grad_cos2_0=grad_cos2_0,
        grad_sin2_0=-grad_cos2_0,
        delta_W0=delta_W0,
        norm_delta_W2=np.einsum("bij,bi,bj->b", g_inv0, delta_W0, delta_W0),
        norm_nabla_W2=0.5 * ca.contract("bim,bjp,bkq,bijk,bmpq->b",
                                        g_inv0, g_inv0, g_inv0, nW0, nW0),
    )


@writes("hodge_pair", "lap_norm_W2", "lap_cos2", order=3)
def _form_laplacians(snap, work):
    """Delta |F*w|^2, Delta cos^2 and the Hodge pairing <Delta F*w, F*w>;
    the Hessian of |F*w|^2 and d delta F*w read d^3 F.  F*w is closed, so
    its Hodge Laplacian d delta F*w + delta d F*w is d delta F*w."""
    g_inv0, g_inv, gamma = snap.g_inv0, snap.jets["g_inv"], snap.jets["gamma"]
    dd_W0 = _at_points(ca.exterior_d_oneform(snap.jets["delta_W"]))
    lap_norm_W2 = ca.trace_hessian(work["norm_W2"], g_inv, gamma).value()
    work["dd_W0"] = dd_W0
    snap.data.update(
        hodge_pair=0.5 * ca.contract("bim,bjp,bij,bmp->b",
                                     g_inv0, g_inv0, dd_W0, snap.W0),
        lap_norm_W2=lap_norm_W2, lap_cos2=lap_norm_W2 / snap.n,
    )


@writes("cos_angles", "pair_gap", "Jw0", "rank", "classification",
        "equal_gate", "near_equal_warn", "cos_signed", order=1)
def _angles(snap, work):
    """Kahler angles, the pairing gate, the polar structure, the frame
    tensor P and classification; they read dF."""
    cos_angles, Jw0, pair_gap = kahler_angles(snap.g0, snap.W0)
    snap.data.update(cos_angles=cos_angles, pair_gap=pair_gap, Jw0=Jw0)
    _gate(snap, work, pair_gap <= PAIRING_TOL * (1.0 + cos_angles[:, 0]),
          "angles failed to pair")
    g0, W0, cos_angles = snap.g0, snap.W0, snap.cos_angles
    work["P"] = 0.25 * (snap.g_inv0 - 1j * (snap.Jw0 @ snap.g_inv0))
    minc, maxc = cos_angles[:, -1], cos_angles[:, 0]
    spread = maxc - minc
    equal_gate = spread <= TOL_EQUAL
    classification = np.full(snap.size, GENERIC, dtype=int)
    classification[(minc < TOL_LAGRANGIAN) | (maxc > 1.0 - TOL_COMPLEX)] = MIXED
    classification[maxc < TOL_LAGRANGIAN] = LAGRANGIAN
    classification[minc > 1.0 - TOL_COMPLEX] = COMPLEX
    snap.data.update(
        rank=2 * np.sum(cos_angles > TOL_LAGRANGIAN, axis=1),
        classification=classification, equal_gate=equal_gate,
        near_equal_warn=(~equal_gate) & (spread <= 10 * TOL_EQUAL),
    )
    if snap.n == 1:
        snap.data["cos_signed"] = signed_angle_n1(g0, W0)


@writes("gN0", "sff0", "H0", "normH2", "nablaH", "nabla_perpH", "JHtop0",
        "nabla_JHtop", "d_JHb", "div_JHtop", "div_Wsharp_JHtop", order=3)
def _extrinsic(snap, work):
    """g_N at the points, the second fundamental form, mean curvature H and
    (JH)^T with their pointwise derivatives; H reads d^2 F and nabla H
    reads d^3 F."""
    spec, F, dF = snap.ambient_spec, work["F"], work["dF"]
    g_inv, gamma = snap.jets["g_inv"], snap.jets["gamma"]
    dF0, m = snap.dF0, snap.ambient_dim
    gN0 = amb.ambient_metric(spec, snap.F0)
    sff0, H = second_fundamental_form(spec, F, dF, g_inv, gamma,
                                      work["gamma_tr"])      # H: (A, b)
    H0 = _at_points(H)
    JH = jet_einsum("AB,B...->A...", snap.JN, H)
    JHb = amb.metric_along(spec, F, JH, dF)                  # 1-form (i, b)
    JHtop = jet_einsum("ij...,j...->i...", g_inv, JHb)       # vector (i, b)

    # pointwise derivative data of H and (JH)^T; nabla H = dH + Gamma^N(dF, H)
    nablaH = _at_points(ca.partials(H)) + _at_points(        # (b, i, A)
        amb.christoffel_along(spec, F, dF, H.truncated(0)))
    proj_T = ca.contract("bAi,bij,bBj,bBC->bAC", dF0, snap.g_inv0, dF0, gN0)
    proj_N = np.broadcast_to(np.eye(m), (snap.size, m, m)) - proj_T
    V_wjh = jet_einsum("ij...,j...->i...", snap.jets["W_sharp"], JHtop)
    nabla_JHtop = _at_points(ca.cov_d(JHtop, gamma, upper=(0,)))
    work["JHb0"] = _at_points(JHb)
    snap.data.update(
        gN0=gN0, sff0=sff0, H0=H0,
        normH2=np.einsum("bA,bAB,bB->b", H0, gN0, H0), nablaH=nablaH,
        nabla_perpH=np.einsum("bAC,biC->biA", proj_N, nablaH),
        JHtop0=_at_points(JHtop), nabla_JHtop=nabla_JHtop,
        d_JHb=_at_points(ca.exterior_d_oneform(JHb)),
        div_JHtop=np.einsum("bii->b", nabla_JHtop),
        div_Wsharp_JHtop=ca.divergence(V_wjh, gamma).value(),
    )


@writes("RM", "sumRM", "sumRM_imag", "S_pair", order=3)
def _curvature(snap, work):
    """Curvature of M, its eigenframe sum R(Z_a, Z_b, conj Z_a, conj Z_b)
    and the Weitzenbock pairing; R^M reads d Gamma, so d^3 F."""
    P, g_inv0, W0 = work["P"], snap.g_inv0, snap.W0
    RM = ca.riemann_from_christoffel(snap.jets["gamma"], snap.jets["g"])
    sumRM = ca.contract("bijkl,bik,bjl->b", RM, P, P)
    qW = weitzenboeck_operator(RM, g_inv0, W0)
    snap.data.update(
        RM=RM, sumRM=np.real(sumRM), sumRM_imag=np.abs(np.imag(sumRM)),
        S_pair=0.5 * ca.contract("bim,bjp,bij,bmp->b", g_inv0, g_inv0, qW, W0),
    )


@writes("sumA", "sumA_perp", "sumRe_perp", "sumB", "sumC", "sumD", "sumE",
        order=3)
def _frame_sums(snap, work):
    """The eigenframe sums of the identity formulas, each sum_a B(Z_a,
    conj Z_a) written as B contracted with P; they read nabla H, so d^3 F."""
    P, gN0 = work["P"], snap.gN0
    JdF = np.einsum("AB,bBi->bAi", snap.JN, snap.dF0)           # (b, A, i)
    # g_N(nabla_Z H, J dF conj Z) and its normal part
    nH = ca.contract("biA,bAB,bBj,bij->b", snap.nablaH, gN0, JdF, P)
    nH_perp = ca.contract("biA,bAB,bBj,bij->b", snap.nabla_perpH, gN0, JdF, P)
    HJdF = ca.contract("bA,bAB,bBj->bj", snap.H0, gN0, JdF)    # g_N(H, J dF)
    # sum_ab g_N(sff(conj Z_a, Z_b), J dF Z_a) conj Z_b
    sff_JdF = ca.contract("bijA,bAB,bBk,bki,bjl->bl", snap.sff0, gN0, JdF,
                          P, P)
    snap.data.update(
        sumA=-2.0 * np.imag(nH),
        sumA_perp=np.imag(nH_perp),
        sumRe_perp=np.real(nH_perp),
        sumB=np.imag(ca.contract("bik,bkl,bil->b", snap.nabla_JHtop,
                                 snap.g0, P)),
        sumC=np.einsum("bij,bij->b", snap.d_JHb, P),
        sumD=-2.0 * np.einsum("bj,bjk->bk", HJdF, np.imag(P)),
        # sum_a sff(conj Z_a, Z_a) = tr_g sff / 4 = n H / 2
        sumE=0.5 * snap.n * np.einsum("bk,bkl->bl", HJdF, P) - sff_JdF,
    )


def _where(mask, value):
    """value where mask holds, NaN elsewhere; mask is over the batch."""
    return np.where(mask.reshape(mask.shape + (1,) * (value.ndim - 1)),
                    value, np.nan)


@writes("off_complex", "jw_field", "band", "sigma", "kappa", "lap_kappa",
        "grad_costheta", "norm_grad_costheta2", "norm_nabla_Jw2", "delta_Jw0",
        "div_Jw_JHtop_over_sin2", "div_Jw_JHtop", "delta_W_sharp0",
        "norm_grad_abs_sin2", "grad_log_sin2", "sigma_jh0", "dsigma_jh0",
        "sigma_dw0", "dsigma_dw0", "sigma_trace0", "sff11_norm2", order=2)
def _masked_fields(snap, work):
    """Quantities defined only away from the singular loci, NaN outside
    their mask: the chain and product rules at the point, in u = cos^2, its
    differential du, Delta u, nabla F*w and d delta F*w, with c = sqrt(u),
    s = 1 - u and V = (F*w)# (JH)^T; du reads d^2 F."""
    n, cos = snap.n, snap.cos_angles
    offL = cos[:, -1] > NEAR_GATE_BUFFER
    offC = cos[:, 0] < 1.0 - NEAR_GATE_BUFFER
    m_jw = snap.equal_gate & offL
    m_band = m_jw & offC
    m_sigma = snap.equal_gate & offC
    snap.masks.update(off_complex=offC, jw_field=m_jw, band=m_band,
                      sigma=m_sigma)
    g0, gi0, gN0, sff0, Jw0 = (snap.g0, snap.g_inv0, snap.gN0, snap.sff0,
                               snap.Jw0)
    u, s, grad_u = snap.cos2_0, snap.sin2_0, snap.grad_cos2_0
    du = _at_points(ca.partials(snap.jets["cos2"].truncated(1)))   # (b, i)
    du2 = np.einsum("bi,bi->b", du, grad_u)                         # |du|^2
    Ws = _at_points(snap.jets["W_sharp"])                           # (b, i, j)
    V = np.einsum("bij,bj->bi", Ws, snap.JHtop0)
    V_du = np.einsum("bi,bi->b", V, du)
    nWs = np.einsum("bkl,bijl->bikj", gi0, work["nW0"])     # nabla (F*w)#
    JdF = np.einsum("AB,bBk->bAk", snap.JN, snap.dF0)
    # (1,1) part of the second fundamental form w.r.t. J_w
    sff11 = 0.5 * (sff0 + ca.contract("bki,blj,bklA->bijA", Jw0, Jw0, sff0))

    def over_s(alpha, d_alpha):
        """alpha / s and d(alpha / s) = (d alpha + du ^ alpha / s) / s."""
        wedge = np.einsum("bi,bj->bij", du, alpha)
        wedge = (wedge - np.swapaxes(wedge, 1, 2)) / s[:, None, None]
        return alpha / s[:, None], (d_alpha + wedge) / s[:, None, None]

    # a field may divide by zero outside its mask, where _where drops it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.sqrt(u)
        grad_c = grad_u / (2.0 * c)[:, None]
        # J_w = (F*w)# / c: nabla J_w = (nabla (F*w)# - (F*w)# du / 2u) / c
        nJw = (nWs - np.einsum("bi,bkj->bikj", du, Ws)
               / (2.0 * u)[:, None, None, None]) / c[:, None, None, None]
        div_VJ = (snap.div_Wsharp_JHtop - V_du / (2.0 * u)) / c
        dkappa = n / (c * s)                             # d kappa / du
        d2kappa = dkappa * (3.0 * u - 1.0) / (2.0 * u * s)
        sigma_jh, dsigma_jh = over_s(work["JHb0"] * (2.0 * n),
                                     snap.d_JHb * (2.0 * n))
        sigma_dw, dsigma_dw = over_s(snap.delta_W0, work["dd_W0"])
        fields = dict(
            grad_costheta=(m_jw, grad_c),
            norm_grad_costheta2=(m_jw, np.einsum("bij,bi,bj->b",
                                                 g0, grad_c, grad_c)),
            norm_nabla_Jw2=(m_jw, ca.contract("bim,bkl,bjp,bikj,bmlp->b",
                                              gi0, g0, gi0, nJw, nJw)),
            delta_Jw0=(m_jw, -np.einsum("bij,bikj->bk", gi0, nJw)),
            # delta (F*w)# as a vector: g^{ki} (delta W)_i
            delta_W_sharp0=(m_jw, np.einsum("bki,bi->bk", gi0, snap.delta_W0)),
            div_Jw_JHtop=(m_jw, div_VJ),
            sff11_norm2=(m_jw, ca.contract("bik,bjl,bijA,bAB,bklB->b",
                                           gi0, gi0, sff11, gN0, sff11)),
            kappa=(m_band, np.log((1.0 + c) / (1.0 - c)) * n),
            lap_kappa=(m_band, dkappa * snap.lap_cos2 + d2kappa * du2),
            norm_grad_abs_sin2=(m_band, du2 / (4.0 * s)),
            grad_log_sin2=(m_band, -grad_u / s[:, None]),
            div_Jw_JHtop_over_sin2=(m_band, div_VJ / s + V_du / (c * s**2)),
            sigma_jh0=(m_sigma, sigma_jh), dsigma_jh0=(m_sigma, dsigma_jh),
            sigma_dw0=(m_sigma, sigma_dw), dsigma_dw0=(m_sigma, dsigma_dw),
            # trace form: sigma(X) = -(1/sin^2) g^{ik} g_N(sff(i, X), J dF(k))
            sigma_trace0=(m_sigma, -ca.contract(
                "bik,bixA,bAB,bBk->bx", gi0, sff0, gN0, JdF) / s[:, None]),
        )
    snap.data.update({key: _where(mask, value)
                      for key, (mask, value) in fields.items()})


STAGES = (_core, _connection, _forms, _form_laplacians, _angles, _extrinsic,
          _curvature, _frame_sums, _masked_fields)
# each snapshot key -> the index in STAGES of the one stage that writes it
_WRITER = {key: at for at, stage in enumerate(STAGES) for key in stage.writes}
