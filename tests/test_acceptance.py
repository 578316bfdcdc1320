"""The acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE n: PASS`` line (visible under
``pytest -s tests/test_acceptance.py``) and asserts the criterion at its
stated tolerance.  Criterion 1 carries a documented discrepancy: the
closed-form angle printed in the source material for the sin/sinh graph is
provably not attainable by any flat-chart realization of that graph (the
determinant of the pulled-back form matrix is polynomial in the map's
Jacobian entries, the printed formula would force a non-polynomial one).
The as-built closed form differs by a square root in the denominator and is
verified to 1e-15; the literal printed form is kept as a strict xfail.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import kangle.calculus as ca
from conftest import mean_curvature_jets
from kangle.ambient import (
    ambient_metric,
    curvature_tensor_point,
    einstein_constant,
    space_form,
)
from kangle.catalog import builtin_catalog, get_entry
from kangle.geometry import LAGRANGIAN, compute_snapshot, gauss_equation_residual
from kangle.identities import calibrate_conventions, evaluate_hypothesis_fields
from kangle.jets import jet_seed_all
from kangle.runner import run_suite, sample_points


def _ok(num, msg):
    print(f"\nACCEPTANCE {num}: PASS - {msg}")


# --------------------------------------------------------------- 1: angles


def _ds_snapshot_256():
    entry = get_entry("ds_graph")
    pts = sample_points(((-1.0, 1.0),) * 4, 256, seed=20240811)
    return compute_snapshot(entry.spec(), pts), pts


def test_criterion_1_ds_angles_and_minimality():
    t0 = time.perf_counter()
    snap, pts = _ds_snapshot_256()
    q = np.cos(pts[:, 0] + pts[:, 2]) ** 2 + np.sinh(pts[:, 1] + pts[:, 3]) ** 2
    closed_form = 2.0 * np.sqrt(q) / np.sqrt(1.0 + 4.0 * q)
    dev = np.max(np.abs(snap.cos_angles - closed_form[:, None]))
    spread = np.max(snap.cos_angles[:, 0] - snap.cos_angles[:, 1])
    h = np.max(np.sqrt(snap.normH2))
    elapsed = time.perf_counter() - t0
    assert dev < 1e-9
    assert spread < 1e-9
    assert h < 1e-9
    assert elapsed < 5.0
    _ok(1, f"closed form dev {dev:.1e}, angle spread {spread:.1e}, "
           f"|H| {h:.1e}, {elapsed:.2f}s for 256 points")


@pytest.mark.xfail(
    strict=True,
    reason="printed closed form is not attainable for this construction; "
           "see the as-built form (square root in the denominator)")
def test_criterion_1_literal_printed_formula():
    snap, pts = _ds_snapshot_256()
    q = np.cos(pts[:, 0] + pts[:, 2]) ** 2 + np.sinh(pts[:, 1] + pts[:, 3]) ** 2
    printed = 2.0 * np.sqrt(q) / (1.0 + 4.0 * q)
    assert np.max(np.abs(snap.cos_angles - printed[:, None])) < 1e-9


# ------------------------------------------------------ 2: Lagrangian locus


def test_criterion_2_ds_lagrangian_locus():
    spec = get_entry("ds_graph").spec()
    locus = np.array([[0.0, 0.0, np.pi / 2, 0.0],
                      [1.0, 0.0, np.pi / 2 - 1.0, 0.0]])
    snap = compute_snapshot(spec, locus)
    assert np.max(snap.cos_angles) <= 1e-9
    assert np.all(snap.classification == LAGRANGIAN)
    _ok(2, f"locus cos(theta) max {np.max(snap.cos_angles):.1e}, "
           f"both points classified Lagrangian")


# ----------------------------------------------------------- 3: linear family


def test_criterion_3_linear_family():
    worst_angle, worst_sff = 0.0, 0.0
    for n in (1, 2, 3):
        for a in (0.0, 0.25, 0.5, 1.0, 2.0):
            name = f"linear_n{n}_a{a:g}".replace(".", "p")
            entry = get_entry(name)
            pts = sample_points(entry.box, 16, seed=5)
            snap = compute_snapshot(entry.spec(), pts)
            want = 2.0 * abs(a) / (1.0 + a * a)
            worst_angle = max(worst_angle,
                              float(np.max(np.abs(snap.cos_angles - want))))
            worst_sff = max(worst_sff, float(np.max(np.abs(snap.sff0))))
    assert worst_angle < 1e-12
    assert worst_sff < 1e-10
    _ok(3, f"angle dev {worst_angle:.1e}, sff {worst_sff:.1e} over 15 entries")


# ----------------------------------------------------------- 4: identity run

CRITERION_4_IDENTITIES = [
    "prop3.1.norm_fw", "prop3.1.norm_grad_fw", "prop3.1.delta_form",
    "prop3.1.norm_delta_fw", "prop3.1.delta_jw", "prop3.1.grad_sin2",
    "lemma3.1.i_a", "lemma3.1.i_b", "lemma3.1.ii", "lemma3.1.iii_frame",
    "lemma3.1.iii_exterior", "lemma3.1.iii_normal",
    "lemma3.1.iii_divergence", "lemma3.1.iv",
    "prop3.2.delta_kappa", "prop3.3.delta_kappa", "cor3.2.delta_kappa",
    "prop3.4.delta_cos2", "prop3.4.term_3_3", "prop3.4.term_3_4",
    "eq2.2.weitzenboeck", "eq4.1.divergence", "cor1.1.pointwise",
    "prop3.6.sigma_trace", "prop3.6.dsigma", "prop3.6.const_angle_left",
    "prop3.6.const_angle_right", "cor2.1.closed",
]


def test_criterion_4_identity_suites():
    t0 = time.perf_counter()
    report = run_suite(points=48, seed=20240811)
    elapsed = time.perf_counter() - t0
    assert report["pass"]
    per = report["summary"]["per_identity"]
    for ident in CRITERION_4_IDENTITIES:
        info = per.get(ident)
        assert info is not None, f"{ident} never evaluated"
        assert info["applicable"] >= 100, (ident, info)
        assert info["failed"] == 0, (ident, info)
    assert elapsed < 60.0
    _ok(4, f"{report['summary']['records_applicable']} applicable records, "
           f"0 failed, {len(CRITERION_4_IDENTITIES)} identities each with "
           f">=100 applicable points, {elapsed:.1f}s")


# -------------------------------------------------------------- 5: ambient


def test_criterion_5_ambient_validation():
    worst_einstein, worst_curv = 0.0, 0.0
    rng = np.random.default_rng(55)
    for n in (1, 2):
        for rho in (1.0, -1.0, 0.5, -0.5):
            spec = space_form(rho, 2 * n)
            scale = 0.4 if rho < 0 else 0.8
            z = rng.uniform(-scale, scale, (20, spec.real_dim)) \
                / np.sqrt(spec.complex_dim)
            from kangle.ambient import ambient_metric_point
            g = ambient_metric_point(spec, z)
            R4 = curvature_tensor_point(spec, z)
            ric = np.einsum("...il,...iyzl->...yz", np.linalg.inv(g), R4)
            worst_einstein = max(worst_einstein, float(np.max(
                np.abs(ric - einstein_constant(spec) * g))))
            gj = ambient_metric(spec, ca.jstack(
                jet_seed_all(spec.real_dim, 3, z)))
            R_jet = ca.riemann_from_christoffel(ca.christoffel(gj), gj)
            worst_curv = max(worst_curv, float(
                np.max(np.abs(R_jet - R4)) / np.max(np.abs(R4))))
    assert worst_einstein < 1e-7
    assert worst_curv < 1e-6
    assert einstein_constant(space_form(1.0, 2)) == 6.0
    _ok(5, f"Einstein defect {worst_einstein:.1e}, jet-vs-closed-form "
           f"curvature {worst_curv:.1e}, R = 6 rho for n=1")


# ------------------------------------------------------- 6: Gauss equation


def test_criterion_6_gauss_equation_all_entries():
    worst = 0.0
    for entry in builtin_catalog():
        pts = sample_points(entry.box, 24, seed=66)
        snap = compute_snapshot(entry.spec(), pts)
        worst = max(worst, gauss_equation_residual(snap))
    assert worst < 1e-6
    _ok(6, f"worst relative Gauss residual {worst:.1e} over "
           f"{len(builtin_catalog())} entries")


# ---------------------------------------------------------- 7: quadrature


def test_criterion_7_torus_integral_identities():
    from test_quadrature import torus_integrals
    worst_stokes, worst_23 = 0.0, 0.0
    for name in ("lagrangian_torus_2", "trig_flat_2d", "trig_sf_pos",
                 "trig_sf_neg", "calibration_surface"):
        q = torus_integrals(name, 64)
        vol = q["volume"]
        worst_stokes = max(
            worst_stokes,
            abs(q["lap_cos2"]) / vol,
            abs(q["div_field"]) / vol)
        lhs = q["hodge_pair"]
        rhs = q["delta_fw_norm2"]
        worst_23 = max(worst_23, abs(lhs - rhs) / max(rhs, 1e-8))
    # spectral convergence between successive grids, above the noise floor
    exact = torus_integrals("trig_flat_2d", 96)["delta_fw_norm2"]
    e16 = abs(torus_integrals("trig_flat_2d", 16)["delta_fw_norm2"] - exact)
    e32 = abs(torus_integrals("trig_flat_2d", 32)["delta_fw_norm2"] - exact)
    ratio = e16 / max(e32, 1e-300)
    # 4-dim tori: integrands vanish identically; checked at a reduced grid
    t4 = torus_integrals("lagrangian_torus_4", 8)
    assert t4["hodge_pair"] == 0.0
    assert t4["delta_fw_norm2"] == 0.0
    assert worst_stokes < 1e-8
    assert worst_23 < 1e-6
    assert ratio > 1e3
    _ok(7, f"Laplacian integrals {worst_stokes:.1e} of volume, global form "
           f"identity rel {worst_23:.1e} at grid 64, spectral ratio {ratio:.1e}")


# ----------------------------------------------------- 8: Lagrangian torus


def test_criterion_8_lagrangian_torus():
    entry = get_entry("lagrangian_torus_4")
    pts = sample_points(entry.box, 64, seed=88)
    snap = compute_snapshot(entry.spec(), pts)
    conv = calibrate_conventions(3)
    h_dev = np.max(np.abs(np.sqrt(snap.normH2) - np.sqrt(2.0) / 2.0))
    # circle-curvature oracle: radius r circles give |H| = 1/(2r)
    r = 1.0 / np.sqrt(2.0)
    assert abs(1.0 / (2.0 * r) - np.sqrt(2.0) / 2.0) < 1e-15
    assert h_dev < 1e-9
    d_closed = np.max(np.abs(snap.d_JHb))
    assert d_closed < 1e-9
    sigma = snap.sigma_jh0 + conv.delta_sign * snap.sigma_dw0
    # nabla sigma from the jets sigma is built from, at every point
    assert np.all(snap.masks["sigma"])
    jets = snap.jets
    JHb, _ = mean_curvature_jets(entry.spec(), snap)
    sigma_jet = ((JHb * (2.0 * snap.n) + jets["delta_W"] * conv.delta_sign)
                 * (1.0 - jets["cos2"]).truncated(1).reciprocal())
    nabla = ca.cov_d(sigma_jet, jets["gamma"], order=0).value()
    assert np.max(np.abs(nabla)) < 1e-8
    assert np.min(np.linalg.norm(sigma, axis=1)) > 0.1
    _ok(8, f"|H| dev {h_dev:.1e} vs circle oracle, d((JH)^T)-flat "
           f"{d_closed:.1e}, parallel nonzero sigma "
           f"(|nabla sigma| {np.max(np.abs(nabla)):.1e})")


# ------------------------------------------------- 9: rational consistency


def test_criterion_9_exact_rational_consistency():
    """Exact-arithmetic consistency of the parallel-mean-curvature relation:
    with n=1 and sin^2 = 8/9, the defect |H|^2 + (sin^2/4n) 6 rho vanishes
    exactly iff rho = -(3/4)|H|^2; the package's defect field follows the
    same relation on real entries."""
    n = 1
    sin2 = Fraction(8, 9)
    hits = 0
    for H2 in (Fraction(1), Fraction(2, 3), Fraction(7, 5), Fraction(9, 4)):
        rho_star = -Fraction(3, 4) * H2
        for rho in (rho_star, rho_star + Fraction(1, 10**6), Fraction(0),
                    -Fraction(5, 4) * H2):
            R = 6 * rho
            defect = H2 + sin2 / (4 * n) * R
            assert (defect == 0) == (rho == rho_star)
            hits += 1
    conv = calibrate_conventions(3)
    # flat Lagrangian torus of unit circles: |H|^2 = 1/2, sin^2 = 1, R = 0
    torus = get_entry("lagrangian_torus_2")
    snap = compute_snapshot(torus.spec(), sample_points(torus.box, 16, 99))
    field = evaluate_hypothesis_fields(snap, conv)["prop1.2.parallel_defect"]
    torus_dev = float(np.max(np.abs(field - 0.5)))
    assert torus_dev < 1e-12
    # curved n=1 entry: the field is the exact defect of its own |H|^2, sin^2
    curved = get_entry("trig_sf_pos")
    snap = compute_snapshot(curved.spec(), sample_points(curved.box, 16, 99))
    field = evaluate_hypothesis_fields(snap, conv)["prop1.2.parallel_defect"]
    rho = Fraction(snap.ambient_spec.rho)
    for b in range(snap.size):
        exact = float(Fraction(snap.normH2[b])
                      + Fraction(snap.sin2_0[b]) / (4 * n) * 6 * rho)
        assert abs(field[b] - exact) <= 1e-12 * (1.0 + abs(exact))
        hits += 1
    _ok(9, f"parallel-mean-curvature defect vanishes exactly iff "
           f"rho = -(3/4)|H|^2 ({hits} exact checks); flat torus defect "
           f"dev {torus_dev:.1e}")


# ------------------------------------------------------- 10: jets + parser


def test_criterion_10_jet_and_parser_robustness():
    # the bodies live in test_dsl and are cached: a session that collects
    # both modules runs each check once
    from test_dsl import check_jets_match_fd, check_parser_fuzz
    check_jets_match_fd()
    check_parser_fuzz()
    _ok(10, "1000 jet derivative checks vs finite differences at rel 1e-6; "
            "100000 fuzz inputs, positioned diagnostics, zero crashes")


# ------------------------------------------------------- 11: calibration


def test_criterion_11_convention_calibration():
    from test_identities import check_calibration_sign_uniqueness
    check_calibration_sign_uniqueness()
    conv = calibrate_conventions(3)
    report = run_suite(entries=["linear_n1_a0p5"], suites=["prop3.1"],
                       points=8)
    assert report["conventions"] == conv.as_dict()
    _ok(11, f"unique sign assignment (s_delta={conv.s_delta}, "
            f"delta_sign={conv.delta_sign}), recorded in the report header")
