"""Pointwise geometry of a parametric immersion, computed from jets.

The entry point is :func:`compute_snapshot`, which evaluates an immersion
on a batch of domain points and derives the invariants the identity suites
consume: induced metric, pulled-back form, Kahler angles, polar complex
structure, second fundamental form, mean curvature, tangential projection
of J applied to the mean curvature, curvature tensors, codifferentials,
Laplacians and the complex eigenframes.  They come from the ordered
``STAGES``; a caller names the keys it reads, only the stages up to the
last one that writes them run, and F is formed only as deep as those
stages declare.

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
from .errors import (
    ChartDomainError,
    DegenerateAngleError,
    DomainError,
    NotAnImmersionError,
    UsageError,
)
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
    "JET_ORDER",
    "Snapshot",
    "STAGES",
    "compute_snapshot",
    "reads",
    "induced_metric",
    "pullback_form",
    "kahler_angles",
    "signed_angle_n1",
    "second_fundamental_form",
    "mean_curvature",
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
    than it declares raises at ``Jet.derivative`` of an order-0 jet.
    """
    def declare(fn):
        fn.writes, fn.order = keys, order
        return fn
    return declare


def induced_metric(a, b, gN=None):
    """g_N(a d_i, b d_j) as jets; a and b have axes (A, i, b).

    With a = b = dF this is the induced metric g_ij.  gN None is flat.
    """
    if gN is None:
        return jet_einsum("Ai...,Aj...->ij...", a, b)
    step = ca._jes("AB...,Bj...->Aj...", gN, b)
    return ca._jes("Ai...,Aj...->ij...", a, step)


def pullback_form(dF, J, gN=None):
    """(F*w)_ij = g_N(J dF d_i, dF d_j); antisymmetrized against roundoff."""
    JdF = jet_einsum("AB,Bi...->Ai...", J, dF)
    w = induced_metric(JdF, dF, gN)
    return Jet(w.dim, w.order, 0.5 * (w.coeffs - np.swapaxes(w.coeffs, 0, 1)))


def _skew_spectrum(What):
    """Paired skew spectrum of 2-forms in orthonormal frames, one SVD each.

    What: (B, d, d) antisymmetric.  Returns (pair-averaged singular values
    desc (B, n), pairing gap (B,), polar factor of -What (B, d, d), right
    singular vectors Vt (B, d, d)); the polar factor is the partial isometry
    whose kernel is ker What, spanned by the rows of Vt with S <= TOL.
    """
    U, S, Vt = np.linalg.svd(What)                   # S descending
    gap = np.max(np.abs(S[:, 0::2] - S[:, 1::2]), axis=-1)
    keep = (S > TOL_LAGRANGIAN).astype(float)
    polar = -np.einsum("bik,bk,bkj->bij", U, keep, Vt)
    return 0.5 * (S[:, 0::2] + S[:, 1::2]), gap, polar, Vt


def kahler_angles(g0, W0):
    """Angles, polar complex structure and the orthonormal-frame form.

    Returns (cos_angles desc (B, n), J_w in coordinate components (B, d, d),
    What (B, d, d), L (B, d, d), right singular vectors of What (B, d, d),
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
    cos, gap, Jhat, Vt = _skew_spectrum(What)
    cos = np.clip(cos, 0.0, 1.0 + 1e-10)
    Lt = np.swapaxes(L, -1, -2)
    Jw = np.einsum("bik,bkl,blj->bij", np.linalg.inv(Lt), Jhat, Lt)
    return cos, Jw, What, L, Vt, gap


def signed_angle_n1(g0, W0):
    """cos(theta~) = F*w(e1, e2) for the oriented orthonormal frame (n=1)."""
    if W0.shape[-1] != 2:
        raise UsageError("signed angle is defined only for n=1")
    det = g0[:, 0, 0] * g0[:, 1, 1] - g0[:, 0, 1] ** 2
    return W0[:, 0, 1] / np.sqrt(det)


def second_fundamental_form(dF, gamma, gammaN_F=None):
    """sff[i, j, A] = d_i d_j F^A + Gamma^N(dF_i, dF_j)^A - dF^A_k Gamma^k_{ij}."""
    ddF = ca.partials(dF)                          # (i, A, j, b)
    ddF = Jet(ddF.dim, ddF.order, np.einsum("iAj...->ijA...", ddF.coeffs))
    corr = ca._jes("Ak...,kij...->ijA...", dF, gamma)
    out = ddF - corr
    if gammaN_F is not None:
        t = ca._jes("ABC...,Bi...->AiC...", gammaN_F, dF)
        t = ca._jes("AiC...,Cj...->ijA...", t, dF)
        out = out + t
    return out


def mean_curvature(sff, g_inv, n):
    """H = (1/2n) g^{ij} sff_ij, a normal-valued jet (A, b)."""
    return ca._jes("ij...,ijA...->A...", g_inv, sff) * (1.0 / (2 * n))


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
    spec = snapshot.ambient_spec
    if spec.is_flat:
        RN_pull = 0.0
    else:
        RN = amb.curvature_tensor_point(spec, snapshot.F0)
        RN_pull = ca.contract("bABCD,bAi,bBj,bCk,bDl->bijkl",
                              RN, dF0, dF0, dF0, dF0)
    quad = ca.contract("bilA,bAB,bjkB->bijkl", sff0, gN0, sff0)
    quad2 = ca.contract("bjlA,bAB,bikB->bijkl", sff0, gN0, sff0)
    rhs = RN_pull + quad - quad2
    # the 1e-9 floor guards intrinsically flat cases where both sides vanish
    scale = max(np.max(np.abs(RM)) + np.max(np.abs(rhs)), 1e-9)
    return np.max(np.abs(RM - rhs)) / scale


# ---------------------------------------------------------------------------
# complex eigenframes


def _complex_frame(What, L, cos, Vt):
    """Orthonormal eigenframe pairs (X_a, Y_a) of F*w, in coordinates.

    Off the kernel Y_a = J_w X_a, from the eigenvectors of i What; a kernel
    pair (cos <= TOL_LAGRANGIAN) is the matching even and odd right singular
    vector of What, an orthonormal basis of the kernel.  Returns (X, Y) with
    shape (b, n, d).
    """
    n = What.shape[1] // 2
    _, evecs = np.linalg.eigh(1j * What)      # ascending; last n are +cos
    picked = evecs[:, :, 2 * n - 1:n - 1:-1]             # +cos, descending
    ker = (cos <= TOL_LAGRANGIAN)[:, None, :]
    X = np.where(ker, np.swapaxes(Vt[:, 0::2], -1, -2),
                 np.sqrt(2.0) * np.real(picked))         # (b, d, n)
    Y = np.where(ker, np.swapaxes(Vt[:, 1::2], -1, -2),
                 -np.sqrt(2.0) * np.imag(picked))
    # back to coordinates: v = L^{-T} v_hat
    Lt = np.swapaxes(L, -1, -2)
    Xc = np.linalg.solve(Lt, X)
    Yc = np.linalg.solve(Lt, Y)
    return np.swapaxes(Xc, -1, -2), np.swapaxes(Yc, -1, -2)   # (b, n, d)


def _normal_frame(dF0, gN0):
    """g_N-orthonormal basis of the normal space.

    dF0: (b, A, i).  Returns nu with shape (b, d, A) (d normal vectors).
    With g_N = C C^T, C^T carries g_N to the Euclidean product; the last
    columns Q of a complete QR of C^T dF span the image of the normal
    space there, and nu = C^-T Q.
    """
    d = dF0.shape[-1]
    Ct = np.swapaxes(np.linalg.cholesky(gN0), -1, -2)
    Q, _ = np.linalg.qr(Ct @ dF0, mode="complete")
    return np.swapaxes(np.linalg.solve(Ct, Q[:, :, d:]), -1, -2)


# ---------------------------------------------------------------------------
# the pipeline: ordered stages, each writing the snapshot keys it declares


def _plan(reads, order):
    """The stages that write ``reads`` and the order to form F at.

    The stages run in order up to the last one that writes a key of
    ``reads`` (None runs every stage), and F is formed at ``order`` capped
    at the deepest order one of them declares.  A key that no stage
    writes raises UsageError.
    """
    stages = STAGES
    if reads is not None:
        last = 0
        for key in reads:
            at = [k for k, stage in enumerate(STAGES) if key in stage.writes]
            if not at:
                raise UsageError(f"no snapshot stage writes {key!r}")
            last = max(last, at[0])
        stages = STAGES[:last + 1]
    return stages, min(order, max(stage.order for stage in stages))


def compute_snapshot(spec, points, order=3, reads=None):
    """Evaluate the immersion and the invariants named in ``reads``.

    points: (B, 2n).  Points where |F|^2 is not finite, outside the chart
    of the ambient, where F is not an immersion, or where the Kahler angles
    fail to pair are dropped and reported in ``snapshot.rejected``, by their
    index into ``points``; the gate that leaves no point raises.  reads:
    snapshot keys; only the stages up to the last one that writes one of
    them run, and F is formed at ``order`` capped at the deepest order
    those stages declare, which ``snap.order`` reports.  Each stage reads
    keys of the stages before it; ``work`` carries what no reader needs (F,
    dF, g_N, Gamma_N along F, the |F*w|^2 and d F*w the form Laplacians
    differentiate, the nabla F*w, d delta F*w and (JH)-flat the masked
    fields reuse, and the factors the eigenframes are built from) and is
    dropped.
    """
    stages, order = _plan(reads, order)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not len(points):
        raise UsageError("a snapshot needs at least one point")
    snap = Snapshot(n=spec.n, order=order, points=points,
                    index=np.arange(len(points)), ambient_spec=spec.ambient)
    work = {"F": eval_components(spec, points, order=order)}
    for stage in stages:
        stage(snap, work)
    return snap


def _gate(snap, work, good, reason, error):
    """Drop the points where ``good`` is false from everything computed so
    far: the points and their indices, every jet of ``snap.jets`` and
    ``work`` and every array of ``snap.data`` and ``snap.masks``.  Each
    dropped point is recorded in ``snap.rejected`` as (index into the
    caller's points, reason); ``error`` is raised when no point is left."""
    if np.all(good):
        return
    bad, keep = np.nonzero(~good)[0], np.nonzero(good)[0]
    snap.rejected += [(int(snap.index[b]), reason) for b in bad]
    if not keep.size:
        raise error(f"no point left: {reason} at {bad.size} point(s), "
                    f"e.g. {snap.points[bad[0]]}")
    snap.points, snap.index = snap.points[keep], snap.index[keep]
    for store in (snap.jets, work, snap.data, snap.masks):
        for key, value in store.items():
            if isinstance(value, Jet):
                store[key] = value.take_batch(keep)
            elif value is not None:
                store[key] = value[keep]


@writes("F0", "dF0", "gN0", "g0", "sqrt_det_g0", "g", order=1)
def _core(snap, work):
    """F, the finite-value and chart gates, dF, g_N along F, g, the
    immersion gate and sqrt(det g); their values read dF."""
    spec, m = snap.ambient_spec, snap.ambient_dim
    snap.data["F0"] = _at_points(work["F"])
    with np.errstate(over="ignore"):     # the gate reports the overflow
        finite = np.isfinite(np.sum(snap.F0 ** 2, axis=-1))
    _gate(snap, work, finite, "map value not finite", DomainError)
    _gate(snap, work, amb.chart_margin(spec, snap.F0) > amb.CHART_BOUNDARY_TOL,
          "outside chart domain", ChartDomainError)
    F = work["F"]
    dF = ca.jstack([ca.partials(F[A]) for A in range(m)])   # (A, i, b)
    # metric (A, B, b), closed form along F
    gN = None if spec.is_flat else amb.ambient_metric(
        spec, F.truncated(snap.order - 1))
    work.update(dF=dF, gN=gN)
    snap.jets["g"] = induced_metric(dF, dF, gN)
    eig = np.linalg.eigvalsh(_at_points(snap.jets["g"]))
    _gate(snap, work, eig[:, 0] > 1e-12 * np.maximum(eig[:, -1], 1.0),
          "not an immersion", NotAnImmersionError)
    dF, gN, g0 = work["dF"], work["gN"], _at_points(snap.jets["g"])
    snap.data.update(
        dF0=_at_points(dF),
        gN0=(np.broadcast_to(np.eye(m), (snap.size, m, m)) if gN is None
             else _at_points(gN)),
        g0=g0, sqrt_det_g0=np.sqrt(np.linalg.det(g0)),
    )


@writes("g_inv0", "g_inv", "gamma", order=2)
def _connection(snap, work):
    """g^-1, Gamma, and Gamma_N along F (closed form, into ``work``); Gamma
    reads d^2 F."""
    spec, g = snap.ambient_spec, snap.jets["g"]
    g_inv = ca.jet_matrix_inverse(g)
    snap.jets.update(g_inv=g_inv, gamma=ca.christoffel(g, g_inv))
    work["gammaN_F"] = (None if spec.is_flat else amb.ambient_christoffel(
        spec, work["F"].truncated(snap.order - 2)))        # (A, B, C, b)
    snap.data["g_inv0"] = _at_points(g_inv)


@writes("W0", "norm_W2_0", "cos2_0", "sin2_0", "grad_cos2_0", "grad_sin2_0",
        "delta_W0", "norm_delta_W2", "norm_nabla_W2", "dW3_0", "cos2",
        "delta_W", "W_sharp", order=2)
def _forms(snap, work):
    """F*w and its calculus to first order: norms, gradients, delta F*w,
    nabla F*w and d F*w; the derivatives of F*w read d^2 F."""
    n, g_inv0 = snap.n, snap.g_inv0
    g_inv, gamma = snap.jets["g_inv"], snap.jets["gamma"]
    W = pullback_form(work["dF"], snap.JN, work["gN"])       # (i, j, b)
    W0 = _at_points(W)
    norm_W2_jet = ca.two_form_pairing(W, W, g_inv)
    cos2 = norm_W2_jet * (1.0 / n)
    delta_W = ca.codiff(W, g_inv, gamma)                     # standard sign
    delta_W0 = _at_points(delta_W)
    nW0 = _at_points(ca.cov_d(W, gamma, order=0))            # (b, i, j, k)
    dW3 = ca.exterior_d_twoform(W)
    grad_cos2_0 = _at_points(ca.gradient_vector(cos2, g_inv, order=0))
    # (F*w)#: the operator (i, j, b); its readers differentiate it once
    W_sharp = ca._jes("ik...,jk...->ij...", g_inv, W, order=1)
    work.update(norm_W2=norm_W2_jet, dW3=dW3, nW0=nW0)
    snap.jets.update(cos2=cos2, delta_W=delta_W, W_sharp=W_sharp)
    snap.data.update(
        W0=W0, norm_W2_0=norm_W2_jet.value(), cos2_0=cos2.value(),
        sin2_0=1.0 - cos2.value(), grad_cos2_0=grad_cos2_0,
        grad_sin2_0=-grad_cos2_0,
        delta_W0=delta_W0,
        norm_delta_W2=np.einsum("bij,bi,bj->b", g_inv0, delta_W0, delta_W0),
        norm_nabla_W2=0.5 * ca.contract("bim,bjp,bkq,bijk,bmpq->b",
                                        g_inv0, g_inv0, g_inv0, nW0, nW0),
        dW3_0=_at_points(dW3),
    )


@writes("hodge_pair", "lap_norm_W2", "lap_cos2", order=3)
def _form_laplacians(snap, work):
    """Delta |F*w|^2, Delta cos^2 and the Hodge pairing <Delta F*w, F*w>;
    the Hessian of |F*w|^2 and d delta F*w read d^3 F."""
    g_inv0, g_inv, gamma = snap.g_inv0, snap.jets["g_inv"], snap.jets["gamma"]
    dd_W0 = _at_points(ca.exterior_d_oneform(snap.jets["delta_W"]))
    delta_dW0 = _at_points(ca.codiff(work["dW3"], g_inv, gamma))
    hodge_W0 = dd_W0 + delta_dW0
    lap_norm_W2 = ca.trace_hessian(work["norm_W2"], g_inv, gamma).value()
    work["dd_W0"] = dd_W0
    snap.data.update(
        hodge_pair=0.5 * ca.contract("bim,bjp,bij,bmp->b",
                                     g_inv0, g_inv0, hodge_W0, snap.W0),
        lap_norm_W2=lap_norm_W2, lap_cos2=lap_norm_W2 / snap.n,
    )


@writes("cos_angles", "pair_gap", "Jw0", "frame_X", "frame_Y", "Z", "rank",
        "classification", "equal_gate", "near_equal_warn", "cos_signed",
        order=1)
def _angles(snap, work):
    """Kahler angles, the pairing gate, the polar structure, eigenframes and
    classification; they read dF."""
    cos_angles, Jw0, What, L, Vt, pair_gap = kahler_angles(snap.g0, snap.W0)
    snap.data.update(cos_angles=cos_angles, pair_gap=pair_gap, Jw0=Jw0)
    work.update(What=What, L=L, Vt=Vt)
    _gate(snap, work, pair_gap <= PAIRING_TOL * (1.0 + cos_angles[:, 0]),
          "angles failed to pair", DegenerateAngleError)
    g0, W0, cos_angles = snap.g0, snap.W0, snap.cos_angles
    frame_X, frame_Y = _complex_frame(work["What"], work["L"], cos_angles,
                                      work["Vt"])
    minc, maxc = cos_angles[:, -1], cos_angles[:, 0]
    spread = maxc - minc
    equal_gate = spread <= TOL_EQUAL
    classification = np.full(snap.size, GENERIC, dtype=int)
    classification[(minc < TOL_LAGRANGIAN) | (maxc > 1.0 - TOL_COMPLEX)] = MIXED
    classification[maxc < TOL_LAGRANGIAN] = LAGRANGIAN
    classification[minc > 1.0 - TOL_COMPLEX] = COMPLEX
    snap.data.update(
        frame_X=frame_X, frame_Y=frame_Y,
        Z=0.5 * (frame_X - 1j * frame_Y),                    # (b, n, d)
        rank=2 * np.sum(cos_angles > TOL_LAGRANGIAN, axis=1),
        classification=classification, equal_gate=equal_gate,
        near_equal_warn=(~equal_gate) & (spread <= 10 * TOL_EQUAL),
    )
    if snap.n == 1:
        snap.data["cos_signed"] = signed_angle_n1(g0, W0)


@writes("sff0", "H0", "normH2", "nablaH", "nabla_perpH", "JHtop0",
        "nabla_JHtop", "d_JHb", "div_JHtop", "div_Wsharp_JHtop", order=3)
def _extrinsic(snap, work):
    """Second fundamental form, mean curvature H and (JH)^T with their
    pointwise derivatives; H reads d^2 F and nabla H reads d^3 F."""
    dF, gN, gammaN_F = work["dF"], work["gN"], work["gammaN_F"]
    g_inv, gamma = snap.jets["g_inv"], snap.jets["gamma"]
    dF0, gN0, m = snap.dF0, snap.gN0, snap.ambient_dim
    sff = second_fundamental_form(dF, gamma, gammaN_F)       # (i, j, A, b)
    H = mean_curvature(sff, g_inv, snap.n)                   # (A, b)
    H0 = _at_points(H)
    JH = jet_einsum("AB,B...->A...", snap.JN, H)
    if gN is None:
        JHb = ca._jes("A...,Ai...->i...", JH, dF)            # 1-form (i, b)
    else:
        lowered = ca._jes("AB...,A...->B...", gN, JH)
        JHb = ca._jes("B...,Bi...->i...", lowered, dF)
    JHtop = ca._jes("ij...,j...->i...", g_inv, JHb)          # vector (i, b)

    # pointwise derivative data of H and (JH)^T
    nablaH = _at_points(ca.partials(H)).copy()               # (b, i, A)
    if gammaN_F is not None:
        gNF0 = _at_points(gammaN_F)                          # (b, A, B, C)
        nablaH += np.einsum("bABC,bBi,bC->biA", gNF0, dF0, H0)
    proj_T = ca.contract("bAi,bij,bBj,bBC->bAC", dF0, snap.g_inv0, dF0, gN0)
    proj_N = np.broadcast_to(np.eye(m), (snap.size, m, m)) - proj_T
    V_wjh = ca._jes("ij...,j...->i...", snap.jets["W_sharp"], JHtop)
    work["JHb0"] = _at_points(JHb)
    snap.data.update(
        sff0=_at_points(sff), H0=H0,
        normH2=np.einsum("bA,bAB,bB->b", H0, gN0, H0), nablaH=nablaH,
        nabla_perpH=np.einsum("bAC,biC->biA", proj_N, nablaH),
        JHtop0=_at_points(JHtop),
        nabla_JHtop=_at_points(ca.cov_d(JHtop, gamma, upper=(0,))),
        d_JHb=_at_points(ca.exterior_d_oneform(JHb)),
        div_JHtop=ca.divergence(JHtop, gamma).value(),
        div_Wsharp_JHtop=ca.divergence(V_wjh, gamma).value(),
    )


@writes("RM", "sumRM", "sumRM_imag", "S_pair", order=3)
def _curvature(snap, work):
    """Curvature of M, its complex-frame sum and the Weitzenbock pairing;
    R^M reads d Gamma, so d^3 F."""
    Z, g_inv0, W0 = snap.Z, snap.g_inv0, snap.W0
    RM = ca.riemann_from_christoffel(snap.jets["gamma"], snap.jets["g"])
    sumRM = ca.contract("bijkl,bui,buk,bvj,bvl->b",
                        RM, Z, np.conj(Z), Z, np.conj(Z))
    qW = weitzenboeck_operator(RM, g_inv0, W0)
    snap.data.update(
        RM=RM, sumRM=np.real(sumRM), sumRM_imag=np.abs(np.imag(sumRM)),
        S_pair=0.5 * ca.contract("bim,bjp,bij,bmp->b", g_inv0, g_inv0, qW, W0),
    )


@writes("sumA", "sumA_perp", "sumRe_perp", "sumB", "sumC", "sumD", "sumE",
        order=3)
def _frame_sums(snap, work):
    """The complex eigenframe sums of the identity formulas; they read
    nabla H, so d^3 F."""
    Z = snap.Z                                   # (b, n, d), complex
    Zb = np.conj(Z)
    gN0 = snap.gN0

    def gN_pair(u, v):
        """Ambient pairing of (..., A)-indexed complex arrays."""
        return np.einsum("b...A,bAB,b...B->b...", u, gN0, v)

    JdF = np.einsum("AB,bBi->bAi", snap.JN, snap.dF0)           # (b, A, i)
    JdF_Z = np.einsum("bAi,bmi->bmA", JdF, Z)
    JdF_Zb = np.einsum("bAi,bmi->bmA", JdF, Zb)
    nH_Z = np.einsum("biA,bmi->bmA", snap.nablaH, Z)
    nH_perp_Z = np.einsum("biA,bmi->bmA", snap.nabla_perpH, Z)

    g_nHZ_JdFZb = gN_pair(nH_Z, JdF_Zb)                         # (b, m)
    g_nHperpZ_JdFZb = gN_pair(nH_perp_Z, JdF_Zb)
    nJH_Z = np.einsum("bik,bmi->bmk", snap.nabla_JHtop, Z)
    gH_JdFZ = gN_pair(np.broadcast_to(
        snap.H0[:, None, :], JdF_Z.shape).copy(), JdF_Z)

    # sums for the gradient-of-sin^2 identity
    sff0c = snap.sff0.astype(complex)
    sff_ZbZ = np.einsum("bijA,bmi,bmj->bmA", sff0c, Zb, Z)      # (b, m, A)
    t1 = ca.contract("bmA,bAB,bnB->bn", sff_ZbZ, gN0, JdF_Z)
    sff_ZbZb2 = ca.contract("bijA,bmi,bnj->bmnA", sff0c, Zb, Z)  # sff(Zb_m, Z_n)
    t2 = ca.contract("bmnA,bAB,bmB->bn", sff_ZbZb2, gN0, JdF_Z)

    snap.data.update(
        sumA=np.sum(-2.0 * np.imag(g_nHZ_JdFZb), axis=1),
        sumA_perp=np.sum(np.imag(g_nHperpZ_JdFZb), axis=1),
        sumRe_perp=np.sum(np.real(g_nHperpZ_JdFZb), axis=1),
        sumB=np.sum(np.imag(
            np.einsum("bmk,bkl,bml->bm", nJH_Z, snap.g0, Zb)), axis=1),
        sumC=np.einsum("bij,bmi,bmj->b", snap.d_JHb.astype(complex), Z, Zb),
        sumD=np.sum(2.0 * np.real(1j * gH_JdFZ[..., None] * Zb), axis=1),
        sumE=np.einsum("bn,bnk->bk", t1 - t2, Zb),
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
    sff11 = 0.5 * (sff0 + np.einsum("bki,blj,bklA->bijA", Jw0, Jw0, sff0))

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


@writes("nu", "w_perp", "normal_angles", "J_perp", "Phi_nu", "Xi_nu",
        order=1)
def _normal_bundle(snap, work):
    """Normal frame, normal-bundle form, polar factor and the Phi/Xi maps;
    they read dF."""
    gN0, dF0, JN = snap.gN0, snap.dF0, snap.JN
    nu = _normal_frame(dF0, gN0)                             # (b, a, A)
    Jnu = np.einsum("AB,baB->baA", JN, nu)
    w_perp = np.einsum("baA,bAB,bcB->bac", Jnu, gN0, nu)
    w_perp = 0.5 * (w_perp - np.swapaxes(w_perp, -1, -2))
    normal_cos, _, J_perp, _ = _skew_spectrum(w_perp)
    JdF = np.einsum("AB,bBi->bAi", JN, dF0)
    Phi_nu = np.einsum("bAi,bAB,baB->bai", JdF, gN0, nu)     # (b, a, i)
    rhs = np.einsum("baA,bAB,bBj->baj", Jnu, gN0, dF0)
    Xi = np.einsum("bjk,bak->baj", snap.g_inv0, rhs)
    snap.data.update(nu=nu, w_perp=w_perp,
                     normal_angles=np.clip(normal_cos, 0.0, None),
                     J_perp=J_perp, Phi_nu=Phi_nu, Xi_nu=Xi)


STAGES = (_core, _connection, _forms, _form_laplacians, _angles, _extrinsic,
          _curvature, _frame_sums, _masked_fields, _normal_bundle)

JET_ORDER = max(stage.order for stage in STAGES)
"""The order a full snapshot forms F at: the deepest a stage declares."""
