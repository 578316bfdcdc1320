"""Residual evaluators for the pointwise angle identities.

Every identity is evaluated as LHS - RHS over a batch snapshot, with an
applicability gate so formulas are only asserted on their domain of
validity.  Each suite returns one ``Residual`` column block per identity;
``run_identity_suite`` alone judges the blocks against the tolerances and
builds the records, which carry the raw sides, absolute and relative
residuals and the gating reason; nothing is asserted at points whose
classification violates an identity's hypotheses.

Two sign conventions are not fixed a priori and are calibrated once per
process on a built-in flat surface: ``s_delta`` (the scalar Laplacian as a
multiple of the metric trace of the Hessian) and ``delta_sign`` (the
codifferential as a multiple of minus the metric contraction of the
covariant derivative).  ``calibrate_conventions`` tries all four sign pairs
and requires exactly one to close the n=1 angle-Laplacian identity and the
form-codifferential identity; the winning pair is stamped into every run
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ambient import einstein_constant
from .calculus import contract
from .catalog import CALIBRATION_SURFACE
from .dsl import parse_immersion
from .errors import ConventionError
from .geometry import GENERIC, LAGRANGIAN, compute_snapshot, reads

TOL_ABS_DEFAULT = 1e-7
TOL_REL_DEFAULT = 1e-5

__all__ = [
    "Conventions",
    "IdentityResidual",
    "Residual",
    "calibrate_conventions",
    "verify_prop3_1",
    "verify_lemma3_1",
    "verify_delta_kappa",
    "verify_weitzenboeck",
    "verify_prop3_4",
    "verify_section4",
    "verify_prop3_6",
    "evaluate_hypothesis_fields",
    "run_identity_suite",
    "finite_or_none",
    "SUITES",
    "SUITE_READERS",
]


@dataclass(frozen=True)
class Conventions:
    """Calibrated sign conventions, recorded in every report header."""

    s_delta: int
    delta_sign: int
    two_form_normalization: str = "half"

    def as_dict(self):
        return {"s_delta": self.s_delta, "delta_sign": self.delta_sign,
                "two_form_normalization": self.two_form_normalization}


@dataclass
class IdentityResidual:
    """One named residual at one point; its sides and residuals are None
    where the identity is not applicable."""

    id: str
    point_index: int
    lhs: object
    rhs: object
    abs_residual: float | None
    rel_residual: float | None
    applicable: bool
    reason: str
    tol_abs: float
    tol_rel: float
    passed: bool

    def as_dict(self):
        return {
            "id": self.id, "point_index": self.point_index,
            "lhs": self.lhs, "rhs": self.rhs,
            "abs_residual": finite_or_none(self.abs_residual),
            "rel_residual": finite_or_none(self.rel_residual),
            "applicable": self.applicable, "reason": self.reason,
            "tol_abs": finite_or_none(self.tol_abs),
            "tol_rel": finite_or_none(self.tol_rel),
            "pass": self.passed,
        }


def finite_or_none(x):
    """x for a JSON report: None where it is missing or not finite."""
    return x if x is not None and math.isfinite(x) else None


@dataclass
class Residual:
    """One identity LHS - RHS over a snapshot's batch, as columns: lhs and
    rhs (B,) or (B, k), the (B,) scale of the largest term, which divides
    the relative residual, the (B,) gate and the reason (an array or one
    str) a point fails it.  A ``reported`` block is a ratio, not judged."""

    id: str
    lhs: np.ndarray
    rhs: np.ndarray
    scale: np.ndarray
    applicable: np.ndarray
    reason: object = ""
    reported: bool = False

    def residuals(self):
        """(abs, rel), each (B,): the largest |LHS - RHS| over the
        components and abs / scale; lhs / rhs twice if reported."""
        with np.errstate(invalid="ignore", divide="ignore"):
            if self.reported:
                return self.lhs / self.rhs, self.lhs / self.rhs
            diff = np.abs(self.lhs - self.rhs)
            a = np.max(diff.reshape(len(diff), -1), axis=1)
            return a, a / np.maximum(self.scale, 1e-300)


def _column(values, applicable):
    """Per-point report values of a (B,) or (B, k) array: None where the
    record is not applicable or a value is not finite."""
    cells = values.astype(object)
    cells[~np.isfinite(values)] = None
    return [c if ok else None
            for c, ok in zip(cells.tolist(), applicable.tolist())]


def _judge(block, index, tol_abs, tol_rel):
    """The records of one block, for the caller's points ``index``; the
    one place a residual meets a tolerance."""
    a, rel = block.residuals()
    app = block.applicable
    if block.reported:
        passed, tol_abs, tol_rel = np.ones_like(app), None, None
    else:
        passed = app & ((a <= tol_abs) | (rel <= tol_rel))
    rows = zip(index.tolist(), _column(block.lhs, app),
               _column(block.rhs, app), _column(a, app), _column(rel, app),
               app.tolist(), np.where(app, "", block.reason).tolist(),
               passed.tolist())
    return [IdentityResidual(block.id, *row, tol_abs, tol_rel, ok)
            for *row, ok in rows]


def _reason_array(B, masks_and_reasons):
    """Compose a gate from (mask, reason-when-False) pairs."""
    applicable = np.ones(B, dtype=bool)
    reasons = np.array([""] * B, dtype=object)
    for mask, why in masks_and_reasons:
        newly = applicable & ~mask
        reasons[newly] = why
        applicable &= mask
    return applicable, reasons


def _costheta_bar(snap):
    return np.mean(snap.cos_angles, axis=1)


def _curv_sum(snap):
    """The complexified curvature sum in the identity source's convention.

    The source's curvature tensor is the negative of ours (calibrated once
    against the n=2 angle-Laplacian identity and, independently, against the
    equal-angle closed form of the Weitzenbock curvature pairing).
    """
    return -snap.sumRM


# ---------------------------------------------------------------------------
# identity suites


@reads("equal_gate", "cos_angles", "norm_W2_0", "jw_field", "norm_nabla_W2",
       "norm_grad_costheta2", "norm_nabla_Jw2", "Jw0", "grad_costheta",
       "delta_W_sharp0", "norm_delta_W2", "delta_Jw0", "band", "sumE",
       "grad_sin2_0", "grad_cos2_0", "g0", "sin2_0", "sff11_norm2")
def verify_prop3_1(snap, conventions):
    """Equal-angle norm/codifferential identities for the pulled-back form."""
    B, n = snap.size, snap.n
    sd = conventions.delta_sign
    cosb = _costheta_bar(snap)
    out = []

    eq = snap.equal_gate
    app, why = _reason_array(B, [(eq, "angles not equal")])
    lhs = snap.norm_W2_0
    rhs = n * cosb**2
    out.append(Residual("prop3.1.norm_fw", lhs, rhs,
                        np.maximum(np.abs(lhs), np.abs(rhs)) + 1.0, app, why))

    m_jw = snap.masks["jw_field"]
    app, why = _reason_array(B, [(eq, "angles not equal"),
                                 (m_jw, "Lagrangian point")])
    gc2 = snap.norm_grad_costheta2
    lhs = snap.norm_nabla_W2
    rhs = n * gc2 + 0.5 * cosb**2 * snap.norm_nabla_Jw2
    scale = np.abs(lhs) + np.abs(n * gc2) + \
        np.abs(0.5 * cosb**2 * snap.norm_nabla_Jw2) + 1e-30
    out.append(Residual("prop3.1.norm_grad_fw", lhs, rhs, scale, app, why))

    Jgc = np.einsum("bij,bj->bi", snap.Jw0, snap.grad_costheta)
    lhs_v = sd * snap.delta_W_sharp0
    rhs_v = (n - 2.0) * Jgc
    scale = np.sqrt(np.abs(snap.norm_delta_W2)) + \
        np.abs(n - 2) * np.sqrt(np.abs(gc2)) + 1e-30
    out.append(Residual("prop3.1.delta_form", lhs_v, rhs_v, scale, app, why))

    lhs = snap.norm_delta_W2
    rhs = (n - 2.0) ** 2 * gc2
    out.append(Residual("prop3.1.norm_delta_fw", lhs, rhs,
                        np.abs(lhs) + np.abs(rhs) + 1e-30, app, why))

    lhs_v = cosb[:, None] * sd * snap.delta_Jw0
    rhs_v = (n - 1.0) * Jgc
    scale = cosb * np.linalg.norm(snap.delta_Jw0, axis=1) \
        + np.abs(n - 1) * np.sqrt(np.abs(gc2)) + 1e-30
    out.append(Residual("prop3.1.delta_jw", lhs_v, rhs_v, scale, app, why))

    m_band = snap.masks["band"]
    app, why = _reason_array(B, [(eq, "angles not equal"),
                                 (m_band, "Lagrangian or complex point")])
    lhs_v = (1.0 - n) * snap.grad_sin2_0
    rhs_v = 16.0 * cosb[:, None] * np.real(1j * snap.sumE)
    scale = np.linalg.norm(lhs_v, axis=1) + np.linalg.norm(rhs_v, axis=1) \
        + np.linalg.norm(snap.grad_cos2_0, axis=1) + 1e-30
    out.append(Residual("prop3.1.grad_sin2", lhs_v, rhs_v, scale, app, why))

    # (g): reported ratio, not asserted
    with np.errstate(invalid="ignore", divide="ignore"):
        num = np.einsum("bij,bi,bj->b", snap.g0, snap.grad_sin2_0,
                        snap.grad_sin2_0)
        den = cosb**2 * snap.sin2_0 * snap.sff11_norm2
        defined = np.isfinite(num / den)
    out.append(Residual("prop3.1.estimate_ratio", num, den, den,
                        app & defined, "ratio undefined at this point",
                        reported=True))
    return out


@reads("dF0", "cos_angles", "nablaH", "gN0", "sff0", "nabla_JHtop", "g0", "H0",
       "g_inv0", "W0", "nabla_perpH", "Jw0", "JHtop0", "sumD", "normH2",
       "sumA", "sumB", "sumC", "equal_gate", "sumA_perp", "jw_field",
       "div_Jw_JHtop", "delta_Jw0", "div_JHtop", "sumRe_perp")
def verify_lemma3_1(snap, conventions):
    """Mean-curvature projection identities (any immersion, gated parts)."""
    B, n = snap.size, snap.n
    sd = conventions.delta_sign
    out = []
    JdF = np.einsum("AB,bBi->bAi", snap.JN, snap.dF0)
    cosb = _costheta_bar(snap)

    # (i) both equalities, tested against all coordinate pairs (X, Y)
    lhs = contract("biA,bAB,bBj->bij", snap.nablaH, snap.gN0, JdF)
    Jsff = np.einsum("AB,bijB->bijA", snap.JN, snap.sff0)
    rhs1 = -np.einsum("bik,bkj->bij", snap.nabla_JHtop, snap.g0) \
        - np.einsum("bA,bAB,bijB->bij", snap.H0, snap.gN0, Jsff)
    Wsharp0 = np.einsum("bik,bjk->bij", snap.g_inv0, snap.W0)
    sff_W = np.einsum("bikA,bkj->bijA", snap.sff0, Wsharp0)
    rhs2 = -np.einsum("bA,bAB,bijB->bij", snap.H0, snap.gN0, sff_W) \
        + contract("biA,bAB,bBj->bij", snap.nabla_perpH, snap.gN0, JdF)
    scale = np.max(np.abs(lhs).reshape(B, -1), axis=1) + \
        np.max(np.abs(rhs1).reshape(B, -1), axis=1) + 1e-30
    app = np.ones(B, dtype=bool)
    lhs = lhs.reshape(B, -1)
    out.append(Residual("lemma3.1.i_a", lhs, rhs1.reshape(B, -1), scale, app))
    out.append(Residual("lemma3.1.i_b", lhs, rhs2.reshape(B, -1), scale, app))

    # (ii) half J_w (JH)^T equals the frame sum; needs full rank
    full_rank = snap.cos_angles[:, -1] > 1e-4
    app, why = _reason_array(B, [(full_rank, "Lagrangian direction present")])
    lhs_v = 0.5 * np.einsum("bij,bj->bi", snap.Jw0, snap.JHtop0)
    rhs_v = snap.sumD
    scale = np.linalg.norm(lhs_v, axis=1) + np.linalg.norm(rhs_v, axis=1) \
        + np.sqrt(snap.normH2) + 1e-30
    out.append(Residual("lemma3.1.ii", lhs_v, rhs_v, scale, app, why))

    # (iii) the chain t1 = t2 = t3 (= t4 equal angles) (= t5 off L)
    t1 = 2.0 * snap.sumA
    t2 = 4.0 * snap.sumB
    t3 = np.real(-2j * snap.sumC)
    hscale = np.sqrt(snap.normH2) * (1.0 + np.max(
        np.abs(snap.sff0).reshape(B, -1), axis=1)) + np.abs(t1) + 1e-30
    app = np.ones(B, dtype=bool)
    out.append(Residual("lemma3.1.iii_frame", t1, t2, hscale, app))
    out.append(Residual("lemma3.1.iii_exterior", t1, t3, hscale, app))
    eq = snap.equal_gate
    app, why = _reason_array(B, [(eq, "angles not equal")])
    t4 = -2.0 * n * cosb * snap.normH2 - 4.0 * snap.sumA_perp
    out.append(Residual("lemma3.1.iii_normal", t1, t4, hscale + np.abs(t4),
                        app, why))
    m_jw = snap.masks["jw_field"]
    app, why = _reason_array(B, [(eq, "angles not equal"),
                                 (m_jw, "Lagrangian point")])
    t5 = -snap.div_Jw_JHtop + sd * np.einsum(
        "bij,bi,bj->b", snap.g0, snap.JHtop0, snap.delta_Jw0)
    out.append(Residual("lemma3.1.iii_divergence", t1, t5,
                        hscale + np.abs(t5), app, why))

    # (iv) divergence of (JH)^T
    app, why = _reason_array(B, [(eq, "angles not equal")])
    lhs = snap.div_JHtop
    rhs = -4.0 * snap.sumRe_perp
    out.append(Residual("lemma3.1.iv", lhs, rhs, hscale + np.abs(lhs), app,
                        why))
    return out


def _delta_kappa_gate(snap):
    B = snap.size
    return _reason_array(B, [
        (snap.equal_gate, "angles not equal"),
        (snap.masks["band"], "within buffer of the Lagrangian or complex locus"),
        (snap.classification == GENERIC, "classification not generic"),
    ])


@reads("cos_angles", "sin2_0", "equal_gate", "band", "classification", "sumRM",
       "norm_nabla_Jw2", "norm_grad_costheta2", "lap_kappa", "g0",
       "grad_costheta", "sumD", "sumA", "delta_Jw0", "JHtop0",
       "div_Jw_JHtop_over_sin2")
def verify_delta_kappa(snap, conventions):
    """Angle-Laplacian identities (general form, divergence form, n=1 form)."""
    B, n = snap.size, snap.n
    sD, sd = conventions.s_delta, conventions.delta_sign
    R = einstein_constant(snap.ambient_spec)
    cosb = _costheta_bar(snap)
    sin2 = snap.sin2_0
    app, why = _delta_kappa_gate(snap)
    out = []

    with np.errstate(invalid="ignore", divide="ignore"):
        bracket = cosb * (
            -2.0 * n * R
            + 32.0 * _curv_sum(snap) / sin2
            + snap.norm_nabla_Jw2 / sin2
            + 8.0 * (n - 1.0) * snap.norm_grad_costheta2 / sin2**2
        )
        lhs = sD * snap.lap_kappa
        mid = np.einsum("bij,bi,bj->b", snap.g0, snap.grad_costheta,
                        snap.sumD)
        rhs32 = bracket - (16.0 * n / sin2**2) * cosb * mid \
            + (8.0 * n / sin2) * snap.sumA
        scale = np.abs(bracket) + np.abs(lhs) \
            + np.abs((8.0 * n / np.maximum(sin2, 1e-30)) * snap.sumA) + 1e-30
        out.append(Residual("prop3.2.delta_kappa", lhs, rhs32, scale, app,
                            why))

        jh_term = 4.0 * n * sd * np.einsum(
            "bij,bi,bj->b", snap.g0, snap.delta_Jw0,
            snap.JHtop0) / sin2
        rhs33 = bracket - 4.0 * n * snap.div_Jw_JHtop_over_sin2 + jh_term
        out.append(Residual("prop3.3.delta_kappa", lhs, rhs33, scale, app,
                            why))

    if n == 1:
        rhs_c = -2.0 * R * cosb - 4.0 * snap.div_Jw_JHtop_over_sin2
        scale = np.abs(lhs) + np.abs(rhs_c) \
            + 2.0 * np.abs(R) * cosb + 1e-30
        out.append(Residual("cor3.2.delta_kappa", lhs, rhs_c, scale, app,
                            why))
    return out


@reads("lap_norm_W2", "hodge_pair", "norm_nabla_W2", "S_pair", "cos_angles",
       "equal_gate", "sumRM")
def verify_weitzenboeck(snap, conventions):
    """The 2-form Bochner balance for the pulled-back form (any immersion)."""
    sD, sd = conventions.s_delta, conventions.delta_sign
    terms = np.stack([
        0.5 * sD * snap.lap_norm_W2,
        sd * snap.hodge_pair,
        -snap.norm_nabla_W2,
        -snap.S_pair,
    ])
    resid = np.sum(terms, axis=0)
    scale = np.sum(np.abs(terms), axis=0) + 1e-30
    app = np.ones(snap.size, dtype=bool)
    out = [Residual("eq2.2.weitzenboeck", resid, np.zeros_like(resid), scale,
                    app)]
    # equal-angle closed form of the curvature pairing
    cosb = _costheta_bar(snap)
    app, why = _reason_array(snap.size, [(snap.equal_gate, "angles not equal")])
    rhs = 16.0 * cosb**2 * _curv_sum(snap)
    scale = np.abs(snap.S_pair) + np.abs(rhs) + 1e-30
    out.append(Residual("eq2.2.s_closed_form", snap.S_pair, rhs, scale, app,
                        why))
    return out


@reads("cos_angles", "sin2_0", "equal_gate", "band", "classification", "Jw0",
       "JHtop0", "g0", "grad_costheta", "S_pair", "norm_nabla_W2",
       "norm_grad_abs_sin2", "div_Wsharp_JHtop", "lap_cos2", "W0",
       "grad_log_sin2", "normH2", "delta_W0")
def verify_prop3_4(snap, conventions):
    """Laplacian of cos^2 and the two rewritings of its last term."""
    B, n = snap.size, snap.n
    sD, sd = conventions.s_delta, conventions.delta_sign
    R = einstein_constant(snap.ambient_spec)
    cosb = _costheta_bar(snap)
    sin2 = snap.sin2_0
    app, why = _delta_kappa_gate(snap)
    out = []
    with np.errstate(invalid="ignore", divide="ignore"):
        Jw_jh = np.einsum("bij,bj->bi", snap.Jw0, snap.JHtop0)
        pair = np.einsum("bij,bi,bj->b", snap.g0, snap.grad_costheta, Jw_jh)
        term32 = -(4.0 * n * (2.0 + (n - 4.0) * sin2) / sin2) * pair
        terms = np.stack([
            -2.0 * n * sin2 * cosb**2 * R * np.ones(B),
            2.0 * snap.S_pair,
            2.0 * snap.norm_nabla_W2,
            4.0 * (n - 2.0) * snap.norm_grad_abs_sin2,
            -4.0 * n * snap.div_Wsharp_JHtop,
            term32,
        ])
        lhs = n * sD * snap.lap_cos2
        rhs = np.sum(terms, axis=0)
        scale = np.sum(np.abs(terms), axis=0) + np.abs(lhs) + 1e-30
        out.append(Residual("prop3.4.delta_cos2", lhs, rhs, scale, app, why))

        if n == 2:
            Wpair = np.einsum("bij,bi,bj->b", snap.W0, snap.JHtop0,
                              snap.grad_log_sin2)
            rhs_33 = 8.0 * Wpair
            scale = np.abs(term32) + np.abs(rhs_33) + \
                np.sqrt(snap.normH2) + 1e-30
            out.append(Residual("prop3.4.term_3_3", term32,
                                rhs_33, scale, app, why))
        if n >= 3:
            dfw_jh = sd * np.einsum("bi,bi->b", snap.delta_W0, snap.JHtop0)
            rhs_34 = (4.0 * n * (2.0 + (n - 4.0) * sin2)
                      / (sin2 * (n - 2.0))) * dfw_jh
            scale = np.abs(term32) + np.abs(rhs_34) + \
                np.sqrt(snap.normH2) + 1e-30
            out.append(Residual("prop3.4.term_3_4", term32,
                                rhs_34, scale, app, why))
    return out


@reads("cos_angles", "sin2_0", "equal_gate", "off_complex", "W0", "JHtop0",
       "grad_log_sin2", "div_Wsharp_JHtop", "normH2", "sff0", "nabla_perpH",
       "grad_sin2_0")
def verify_section4(snap, conventions):
    """The n=2 divergence identity and its pointwise corollary."""
    B, n = snap.size, snap.n
    out = []
    if n != 2:
        return out
    R = einstein_constant(snap.ambient_spec)
    cosb = _costheta_bar(snap)
    sin2 = snap.sin2_0
    eq = snap.equal_gate
    offC = snap.masks["off_complex"]
    app, why = _reason_array(B, [(eq, "angles not equal"),
                                 (offC, "complex point")])
    with np.errstate(invalid="ignore", divide="ignore"):
        lhs = sin2 * cosb**2 * R
        # applicable at equal-angle Lagrangian points too, where the field
        # is NaN; there cos^2 is at its minimum 0, so the field is 0
        Wpair_log = np.einsum("bij,bi,bj->b", snap.W0, snap.JHtop0,
                              np.nan_to_num(snap.grad_log_sin2))
        rhs = -2.0 * snap.div_Wsharp_JHtop + 2.0 * Wpair_log
        scale = np.abs(lhs) + 2.0 * np.abs(snap.div_Wsharp_JHtop) \
            + 2.0 * np.abs(Wpair_log) + snap.normH2 + 1e-30
        out.append(Residual("eq4.1.divergence", lhs, rhs, scale, app, why))

    # pointwise corollary: stated for parallel mean curvature
    sff_scale = np.max(np.abs(snap.sff0).reshape(B, -1), axis=1)
    parallel = np.max(np.abs(snap.nabla_perpH).reshape(B, -1), axis=1) \
        <= 1e-6 * (1.0 + sff_scale)
    app, why = _reason_array(B, [(eq, "angles not equal"),
                                 (parallel, "mean curvature not parallel")])
    lhs = sin2**2 * cosb**2 * R + 8.0 * sin2 * cosb**2 * snap.normH2
    Wpair_s2 = np.einsum("bij,bi,bj->b", snap.W0, snap.JHtop0,
                         snap.grad_sin2_0)
    rhs = 2.0 * Wpair_s2
    scale = np.abs(sin2**2 * cosb**2 * R) + 8.0 * sin2 * cosb**2 * snap.normH2 \
        + np.abs(rhs) + 1e-30
    out.append(Residual("cor1.1.pointwise", lhs, rhs, scale, app, why))
    return out


@reads("cos_angles", "sigma", "equal_gate", "sigma_jh0", "sigma_dw0",
       "sigma_trace0", "dsigma_jh0", "dsigma_dw0", "W0", "grad_cos2_0",
       "cos2_0", "sin2_0", "d_JHb", "frame_X", "frame_Y", "normH2",
       "sumA_perp", "classification", "sff0")
def verify_prop3_6(snap, conventions):
    """The sigma 1-form, its exterior derivative, and the constant-angle
    equalities; plus closedness of ((JH)^T)-flat on Lagrangian points."""
    B, n = snap.size, snap.n
    sd = conventions.delta_sign
    R = einstein_constant(snap.ambient_spec)
    cosb = _costheta_bar(snap)
    out = []

    m_sig = snap.masks["sigma"]
    app, why = _reason_array(B, [
        (snap.equal_gate, "angles not equal"),
        (m_sig, "within buffer of the complex locus"),
    ])
    sigma = snap.sigma_jh0 + sd * snap.sigma_dw0
    scale = np.linalg.norm(sigma, axis=1) + \
        np.linalg.norm(snap.sigma_trace0, axis=1) + 1e-30
    out.append(Residual("prop3.6.sigma_trace", sigma, snap.sigma_trace0,
                        scale, app, why))

    dsigma = snap.dsigma_jh0 + sd * snap.dsigma_dw0
    rhs = R * snap.W0
    scale = np.max(np.abs(dsigma).reshape(B, -1), axis=1) \
        + np.abs(R) * np.max(np.abs(snap.W0).reshape(B, -1), axis=1) + 1e-30
    out.append(Residual("prop3.6.dsigma", dsigma.reshape(B, -1),
                        rhs.reshape(B, -1), scale, app, why))

    # constant-angle equalities
    const_angle = np.linalg.norm(snap.grad_cos2_0, axis=1) <= 1e-7 * (
        1.0 + np.abs(snap.cos2_0))
    app, why = _reason_array(B, [
        (snap.equal_gate, "angles not equal"),
        (const_angle, "angle not constant at this point"),
    ])
    lhs = R * cosb * snap.sin2_0
    mid = 2.0 * np.einsum("bij,bmi,bmj->b", snap.d_JHb,
                          snap.frame_X, snap.frame_Y)
    right = -4.0 * n * cosb * snap.normH2 - 8.0 * snap.sumA_perp
    scale = np.abs(lhs) + np.abs(mid) + np.abs(right) + snap.normH2 + 1e-30
    out.append(Residual("prop3.6.const_angle_left", lhs, mid, scale, app,
                        why))
    out.append(Residual("prop3.6.const_angle_right", mid, right, scale, app,
                        why))

    # closedness of the (JH)-flat form at Lagrangian points
    lag = snap.classification == LAGRANGIAN
    app, why = _reason_array(B, [(lag, "not a Lagrangian point")])
    dnorm = np.max(np.abs(snap.d_JHb).reshape(B, -1), axis=1)
    scale = np.sqrt(snap.normH2) * (1.0 + np.max(
        np.abs(snap.sff0).reshape(B, -1), axis=1)) + 1e-30
    out.append(Residual("cor2.1.closed", dnorm, np.zeros(B), scale, app, why))
    return out


@reads("cos_angles", "sin2_0", "W0", "JHtop0", "grad_sin2_0", "delta_W0",
       "normH2", "norm_grad_costheta2", "sumRM")
def evaluate_hypothesis_fields(snap, conventions):
    """Named diagnostic scalars from the hypothesis sides of the theorems.

    These are reported, not asserted (they are inequalities/diagnostics)."""
    B, n = snap.size, snap.n
    sd = conventions.delta_sign
    R = einstein_constant(snap.ambient_spec)
    cosb = _costheta_bar(snap)
    sin2 = snap.sin2_0
    Wpair_s2 = np.einsum("bij,bi,bj->b", snap.W0, snap.JHtop0,
                         snap.grad_sin2_0)
    dfw_jh = sd * np.einsum("bi,bi->b", snap.delta_W0, snap.JHtop0)
    # NaN |grad cos|^2 at Lagrangian points counts as 0, which sets the
    # field's reported min/max there
    fields = {
        "thm1.2.sign_field": R * Wpair_s2,
        "thm1.3.delta_fw_jh": dfw_jh,
        "remark2.combined": 4.0 * n**2 * cosb**2 * snap.normH2
        + n * sin2 * cosb**2 * R
        - (n - 2.0) ** 2 * np.nan_to_num(snap.norm_grad_costheta2)
        + 2.0 * n * dfw_jh,
        "prop1.2.parallel_defect": snap.normH2 + (sin2 / (4.0 * n)) * R,
        "prop3.5.isotropic_sum": _curv_sum(snap),
    }
    return fields


# every suite's reader; "hypotheses" is reported, not a residual suite
SUITE_READERS = {
    "prop3.1": verify_prop3_1,
    "lemma3.1": verify_lemma3_1,
    "delta_kappa": verify_delta_kappa,
    "weitzenboeck": verify_weitzenboeck,
    "prop3.4": verify_prop3_4,
    "section4": verify_section4,
    "prop3.6": verify_prop3_6,
    "hypotheses": evaluate_hypothesis_fields,
}
SUITES = tuple(SUITE_READERS)


def run_identity_suite(snap, suites, conventions, tol_abs=TOL_ABS_DEFAULT,
                       tol_rel=TOL_REL_DEFAULT):
    """Evaluate the selected suites on a snapshot; returns the records,
    ordered by (id, point_index), with ``point_index`` the index of the
    point in the points the snapshot was computed on."""
    blocks = [block for name in suites if name != "hypotheses"
              for block in SUITE_READERS[name](snap, conventions)]
    return [record for block in sorted(blocks, key=lambda b: b.id)
            for record in _judge(block, snap.index, tol_abs, tol_rel)]


# ---------------------------------------------------------------------------
# sign calibration

def _calibration_snapshot(order):
    spec = parse_immersion(CALIBRATION_SURFACE, name="calibration_surface")
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(0.0, 2.0 * np.pi, size=(160, 2))
    return compute_snapshot(spec, pts, order=order, reads=(
        verify_delta_kappa.reads + verify_prop3_1.reads))


def _closes(blocks, ident, where=True):
    """Whether the block ``ident`` has a point that is applicable and in
    ``where``, and closes to rel < 1e-5 at every such point."""
    block, = (b for b in blocks if b.id == ident)
    rel = block.residuals()[1][block.applicable & where]
    return bool(rel.size) and np.max(rel) < 1e-5


@lru_cache(maxsize=4)
def calibrate_conventions(order=3):
    """Fix (s_delta, delta_sign) on the built-in calibration surface.

    s_delta: the n=1 angle-Laplacian identity must close.
    delta_sign: the form-codifferential identity delta(F*w)# =
    (n-2) J_w(grad cos theta) must close.
    Raises ConventionError unless exactly one assignment of each closes.
    """
    snap = _calibration_snapshot(order)
    gate, _ = _delta_kappa_gate(snap)
    strong = gate & (np.abs(snap.lap_kappa) > 1e-3)
    if np.count_nonzero(strong) < 10:
        raise ConventionError("calibration surface yields too few generic points")

    closing_sD = [sD for sD in (1, -1) if _closes(
        verify_delta_kappa(snap, Conventions(s_delta=sD, delta_sign=1)),
        "cor3.2.delta_kappa", strong)]
    if len(closing_sD) != 1:
        raise ConventionError(
            f"scalar-Laplacian sign calibration not unique: {closing_sD}"
        )
    closing_sd = [sd for sd in (1, -1) if _closes(
        verify_prop3_1(snap, Conventions(s_delta=closing_sD[0],
                                         delta_sign=sd)),
        "prop3.1.delta_form")]
    if len(closing_sd) != 1:
        raise ConventionError(
            f"codifferential sign calibration not unique: {closing_sd}"
        )
    return Conventions(s_delta=closing_sD[0], delta_sign=closing_sd[0])
