"""Identity residual suites: closure, gating soundness, calibration."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest

from kangle.ambient import einstein_constant
from kangle.catalog import _torus_text, builtin_catalog, get_entry
from kangle.dsl import parse_immersion
from kangle.errors import ConventionError
from kangle.geometry import GENERIC, compute_snapshot, gauss_equation_residual
from kangle import geometry
from kangle.identities import (
    CONVENTIONS,
    SUITE_READERS,
    calibrate_conventions,
    evaluate_hypothesis_fields,
    run_identity_suite,
    SUITES,
)

ALL_SUITES = [s for s in SUITES if s != "hypotheses"]


def snap_of(name, count=48, seed=0, order=3):
    entry = get_entry(name)
    rng = np.random.default_rng(seed)
    pts = np.stack([rng.uniform(lo, hi, count) for lo, hi in entry.box], -1)
    return compute_snapshot(entry.spec(), pts, order=order)


# ----------------------------------------------------------- calibration

def test_calibration_is_unique_and_cached():
    calibrate_conventions(3)
    hits = calibrate_conventions.cache_info().hits
    assert calibrate_conventions(3) is None
    assert calibrate_conventions.cache_info().hits == hits + 1
    assert CONVENTIONS == {"s_delta": 1, "delta_sign": 1,
                           "two_form_normalization": "half"}


# The calibration check is also acceptance criterion 11. Its body is cached,
# so a session that collects both runs it once; a failure is not cached.


@functools.cache
def check_calibration_sign_uniqueness():
    """Each calibration identity closes at every applicable point with its
    LHS as the code forms it and not with that LHS negated, so exactly the
    signs of CONVENTIONS close, and the calibration passes."""
    from kangle.identities import _calibration_snapshot
    snap = _calibration_snapshot(3)
    for suite, ident, sign in (("delta_kappa", "cor3.2.delta_kappa",
                                "s_delta"),
                               ("prop3.1", "prop3.1.delta_form",
                                "delta_sign")):
        block, = (b for b in SUITE_READERS[suite](snap) if b.id == ident)
        app = block.applicable
        assert np.any(app), ident
        closing = []
        for s in (1, -1):
            negated = dataclasses.replace(block, lhs=s * block.lhs)
            diff = np.abs(negated.lhs - negated.rhs).reshape(snap.size, -1)
            rel = np.max(diff, axis=1)[app] / negated.scale[app]
            if np.max(rel) < 1e-5:
                closing.append(s)
        assert closing == [CONVENTIONS[sign]], (ident, closing)
    calibrate_conventions(3)


def test_calibration_sign_uniqueness():
    check_calibration_sign_uniqueness()


@pytest.mark.parametrize("stage, jet_keys, data_keys, sign", [
    ("_forms", ("delta_W",), ("delta_W0",), "codifferential"),
    ("_form_laplacians", (), ("lap_norm_W2", "lap_cos2"), "scalar-Laplacian"),
])
def test_a_flipped_sign_stops_the_calibration(monkeypatch, stage, jet_keys,
                                              data_keys, sign):
    """A stage that writes an operator with the other sign makes the
    calibration raise, naming the sign, instead of adopting that sign."""
    def flip(fn):
        @functools.wraps(fn)
        def flipped(snap, work):
            fn(snap, work)
            for key in jet_keys:
                snap.jets[key] = -snap.jets[key]
            for key in data_keys:
                snap.data[key] = -snap.data[key]
        return flipped if fn.__name__ == stage else fn

    monkeypatch.setattr(geometry, "STAGES",
                        tuple(flip(fn) for fn in geometry.STAGES))
    calibrate_conventions.cache_clear()
    try:
        with pytest.raises(ConventionError, match=f"^{sign} sign"):
            calibrate_conventions(3)
    finally:
        monkeypatch.undo()
        calibrate_conventions.cache_clear()


# -------------------------------------------------------- suite closure

REPRESENTATIVE = [
    "linear_n3_a0p5", "ds_graph", "quaternionic_graph", "slant_cylinder",
    "slant_product_4", "slant_product_6", "lagrangian_torus_2",
    "lagrangian_torus_4", "trig_flat_2d", "trig_sf_pos", "trig_sf_neg",
    "trig_flat_4d", "complex_product_4", "lagrangian_torus_sf_neg",
]


@pytest.mark.parametrize("name", REPRESENTATIVE)
def test_all_applicable_records_pass(name):
    snap = snap_of(name)
    records = run_identity_suite(snap, ALL_SUITES)
    bad = [r for r in records if r.applicable and not r.passed]
    assert not bad, [(r.id, r.abs_residual, r.rel_residual) for r in bad[:5]]


@pytest.mark.parametrize("radius,rho", [(0.4, 1.0), (0.3, -1.0)])
def test_space_form_n3_tori(radius, rho):
    """n = 3 tori in curved space forms (12 ambient variables): no point is
    rejected, the Gauss equation closes and every applicable record passes."""
    spec = parse_immersion(_torus_text(3, radius, rho=rho))
    pts = np.random.default_rng(0).uniform(0.0, 2 * np.pi, (48, 6))
    snap = compute_snapshot(spec, pts)
    assert not snap.rejected
    assert gauss_equation_residual(snap) < 1e-6
    records = run_identity_suite(snap, ALL_SUITES)
    assert any(r.applicable for r in records)
    bad = [r for r in records if r.applicable and not r.passed]
    assert not bad, [(r.id, r.abs_residual, r.rel_residual) for r in bad[:5]]


def test_ds_minimal_delta_kappa_curvature_terms():
    """On the minimal graph the angle Laplacian balances pure curvature
    terms; assert the residual is small relative to genuinely large sides."""
    snap = snap_of("ds_graph", count=100)
    recs = [r for r in run_identity_suite(snap, ["delta_kappa"])
            if r.id == "prop3.2.delta_kappa" and r.applicable]
    assert len(recs) >= 60
    sides = np.array([np.abs(r.lhs) for r in recs])
    assert np.max(sides) > 1.0          # nontrivial content
    assert max(r.rel_residual for r in recs) < 1e-5


def test_cor32_R_term_sign():
    """The n=1 identity closes with R = 6 rho and fails with the sign
    flipped, in both curved ambients."""
    for name in ("trig_sf_pos", "trig_sf_neg"):
        snap = snap_of(name, count=60)
        R = einstein_constant(snap.ambient_spec)
        assert R == 6.0 * snap.ambient_spec.rho
        recs = [r for r in run_identity_suite(snap, ["delta_kappa"])
                if r.id == "cor3.2.delta_kappa" and r.applicable]
        assert recs and max(r.rel_residual for r in recs) < 1e-5
        # negative control: evaluating the same identity with -R must fail
        cosb = snap.cos_angles.mean(1)
        m = snap.masks["band"] & (snap.classification == GENERIC)
        lhs = snap.lap_kappa[m]
        rhs_wrong = 2.0 * R * cosb[m] - 4.0 * snap.div_Jw_JHtop_over_sin2[m]
        scale = np.abs(lhs) + np.abs(rhs_wrong)
        assert np.min(np.abs(lhs - rhs_wrong) / scale) > 1e-3


def test_slant_product_nonminimal_balances():
    """Constant-angle non-minimal entries: the mean-curvature terms must
    cancel exactly in the angle-Laplacian and the normal-derivative sums."""
    snap = snap_of("slant_product_4", count=60)
    assert np.min(snap.normH2) > 0.01
    recs = run_identity_suite(snap, ["prop3.6", "delta_kappa"])
    const = [r for r in recs if r.id.startswith("prop3.6.const_angle")]
    assert const and all(r.applicable for r in const)
    assert all(r.passed for r in const)
    # the two summands of the right side are individually nonzero and cancel
    cosb = snap.cos_angles.mean(1)
    term_H = 4.0 * snap.n * cosb * snap.normH2
    assert np.min(term_H) > 0.01


def test_cor11_gated_on_parallel_mean_curvature():
    """The pointwise corollary assumes parallel mean curvature; the slant
    product is not parallel, so the records must be gated, not asserted."""
    snap = snap_of("slant_product_4", count=30)
    recs = run_identity_suite(snap, ["section4"])
    cor = [r for r in recs if r.id == "cor1.1.pointwise"]
    assert cor
    assert all(not r.applicable for r in cor)
    assert all("parallel" in r.reason for r in cor)
    eq41 = [r for r in recs if r.id == "eq4.1.divergence"]
    assert all(r.applicable and r.passed for r in eq41)


def test_gating_soundness_distinct_angles():
    snap = snap_of("trig_flat_4d", count=40)
    assert not np.any(snap.equal_gate)
    recs = run_identity_suite(snap, ALL_SUITES)
    for r in recs:
        if r.id.startswith(("prop3.2", "prop3.3", "cor3.2", "prop3.4",
                            "eq4.1", "cor1.1", "prop3.6.sigma",
                            "prop3.6.dsigma", "prop3.6.const")):
            assert not r.applicable, r.id
            assert r.reason != ""
        if r.id.startswith(("lemma3.1.i_", "lemma3.1.iii_frame",
                            "lemma3.1.iii_exterior", "eq2.2.weitzenboeck")):
            assert r.applicable and r.passed, (r.id, r.abs_residual)


def test_gating_soundness_lagrangian():
    snap = snap_of("lagrangian_torus_4", count=30)
    recs = run_identity_suite(snap, ["delta_kappa", "prop3.1"])
    for r in recs:
        if r.id.endswith("delta_kappa"):
            assert not r.applicable
            assert "Lagrangian" in r.reason or "buffer" in r.reason
        if r.id == "prop3.1.norm_fw":
            assert r.applicable and r.passed


def test_convergence_order_3_to_4():
    """Raising the jet order must not increase residuals beyond noise."""
    worst = {}
    for order in (3, 4):
        snap = snap_of("ds_graph", count=24, order=order)
        recs = run_identity_suite(snap, ALL_SUITES)
        for r in recs:
            if r.applicable and np.isfinite(r.rel_residual) \
               and not r.id.endswith("estimate_ratio"):
                key = (r.id, r.point_index)
                worst.setdefault(key, {})[order] = r.rel_residual
    for key, vals in worst.items():
        assert vals[4] <= max(2.0 * vals[3], 1e-12), (key, vals)


def test_hypothesis_fields():
    snap = snap_of("ds_graph", count=20)
    fields = evaluate_hypothesis_fields(snap)
    # minimal: every mean-curvature diagnostic vanishes
    assert np.max(np.abs(fields["thm1.2.sign_field"])) < 1e-12
    assert np.max(np.abs(fields["thm1.3.delta_fw_jh"])) < 1e-12
    snap2 = snap_of("linear_n2_a0p5", count=10)
    f2 = evaluate_hypothesis_fields(snap2)
    assert np.max(np.abs(f2["thm1.2.sign_field"])) < 1e-12
    # flat ambient, minimal: parallel defect is plain |H|^2 = 0
    assert np.max(np.abs(f2["prop1.2.parallel_defect"])) < 1e-12


def test_parallel_defect_rational_consistency():
    """Exact-arithmetic consistency of the parallel-mean-curvature relation:
    with n=1 and sin^2 = 8/9, the defect |H|^2 + (sin^2/4n) 6 rho vanishes
    exactly iff rho = -(3/4)|H|^2."""
    n = 1
    sin2 = Fraction(8, 9)
    for H2 in (Fraction(1), Fraction(3, 7), Fraction(5, 2)):
        rho_star = -Fraction(3, 4) * H2
        for rho in (rho_star, rho_star + Fraction(1, 1000), Fraction(1, 3)):
            R = 6 * rho
            defect = H2 + sin2 / (4 * n) * R
            assert (defect == 0) == (rho == rho_star)


def test_records_are_deterministic():
    a = run_identity_suite(snap_of("trig_sf_pos", count=20), ALL_SUITES)
    b = run_identity_suite(snap_of("trig_sf_pos", count=20), ALL_SUITES)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert repr(ra.as_dict()) == repr(rb.as_dict())


def test_estimate_ratio_reported():
    snap = snap_of("ds_graph", count=30)
    recs = [r for r in run_identity_suite(snap, ["prop3.1"])
            if r.id == "prop3.1.estimate_ratio" and r.applicable]
    assert recs
    ratios = np.array([r.abs_residual for r in recs])
    assert np.all(np.isfinite(ratios))
    assert np.all(ratios >= 0.0)
