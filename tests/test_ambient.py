"""Ambient-space validation: Einstein property, Kahler property, curvature."""

import numpy as np
import pytest

import kangle.calculus as ca
from kangle.ambient import (
    ambient_christoffel,
    ambient_J,
    ambient_metric,
    ambient_metric_point,
    chart_margin,
    check_chart_domain,
    curvature_tensor_point,
    einstein_constant,
    flat_space,
    space_form,
)
from kangle.dsl import parse_immersion
from kangle.errors import ChartDomainError, UsageError
from kangle.geometry import compute_snapshot
from kangle.jets import Jet, jet_einsum, jet_seed_all


def _chart_points(rng, spec, count):
    scale = 0.45 if spec.rho < 0 else 0.8
    return rng.uniform(-scale, scale, (count, spec.real_dim)) \
        / np.sqrt(spec.complex_dim)


def test_J_square_and_hermitian():
    rng = np.random.default_rng(0)
    for spec in (flat_space(2), space_form(1.0, 2), space_form(-0.5, 4)):
        J = ambient_J(spec)
        assert np.array_equal(J @ J, -np.eye(spec.real_dim))
        z = _chart_points(rng, spec, 20)
        g = ambient_metric_point(spec, z)
        X = rng.normal(size=(20, spec.real_dim))
        Y = rng.normal(size=(20, spec.real_dim))
        JX = np.einsum("ab,...b->...a", J, X)
        JY = np.einsum("ab,...b->...a", J, Y)
        gXY = np.einsum("...ab,...a,...b->...", g, X, Y)
        gJXJY = np.einsum("...ab,...a,...b->...", g, JX, JY)
        assert np.max(np.abs(gXY - gJXJY)) < 1e-10
        # w(X, Y) = g(JX, Y) is antisymmetric
        w = np.einsum("...ab,...a,...b->...", g, JX, Y) \
            + np.einsum("...ab,...a,...b->...", g, JY, X)
        assert np.max(np.abs(w)) < 1e-12


def test_metric_identity_at_origin_and_flat():
    spec = space_form(1.0, 2)
    g = ambient_metric_point(spec, np.zeros((1, 4)))
    assert np.allclose(g[0], np.eye(4))
    flat = flat_space(3)
    z = np.random.default_rng(1).normal(size=(5, 6))
    assert np.allclose(ambient_metric_point(flat, z),
                       np.broadcast_to(np.eye(6), (5, 6, 6)))
    assert not np.any(ambient_christoffel(
        flat, ca.jstack(jet_seed_all(6, 2, z))).coeffs)


def test_metric_jets_match_pointwise():
    rng = np.random.default_rng(2)
    spec = space_form(1.0, 2)
    z = _chart_points(rng, spec, 7)
    gj = ambient_metric(spec, ca.jstack(jet_seed_all(4, 2, z)))
    g = ambient_metric_point(spec, z)
    assert np.max(np.abs(np.moveaxis(gj.value(), -1, 0) - g)) < 1e-10


def test_holomorphic_sectional_curvature():
    rng = np.random.default_rng(3)
    for rho in (1.0, -1.0, 0.5, -0.5):
        spec = space_form(rho, 2)
        z = _chart_points(rng, spec, 10)
        g = ambient_metric_point(spec, z)
        J = ambient_J(spec)
        X = rng.normal(size=(10, 4))
        JX = np.einsum("ab,...b->...a", J, X)
        num = np.einsum("...abcd,...a,...b,...c,...d->...",
                        curvature_tensor_point(spec, z), X, JX, JX, X)
        n2 = np.einsum("...ab,...a,...b->...", g, X, X)
        assert np.max(np.abs(num / n2**2 - 4.0 * rho)) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rho", [1.0, -1.0, 0.5, -0.5])
def test_einstein_property(n, rho):
    """Numerically contracted Ricci equals R g at 20 random chart points."""
    rng = np.random.default_rng(10 * n + int(rho * 10) % 7)
    spec = space_form(rho, 2 * n)
    z = _chart_points(rng, spec, 20)
    g = ambient_metric_point(spec, z)
    R = curvature_tensor_point(spec, z)
    ric = np.einsum("...il,...iyzl->...yz", np.linalg.inv(g), R)
    defect = np.max(np.abs(ric - einstein_constant(spec) * g))
    assert defect < 1e-7


def test_einstein_constant_values():
    assert einstein_constant(flat_space(2)) == 0.0
    assert einstein_constant(space_form(1.0, 2)) == 6.0
    assert einstein_constant(space_form(-0.5, 4)) == -5.0


@pytest.mark.parametrize("n,rho", [(1, 1.0), (1, -1.0), (2, 0.5), (2, -0.5)])
def test_closed_form_vs_jet_curvature(n, rho):
    """Closed-form connection and curvature vs the jet/Christoffel route,
    20 points; the connection agrees in every jet coefficient."""
    rng = np.random.default_rng(n + int(3 * rho) % 5)
    spec = space_form(rho, 2 * n)
    z = _chart_points(rng, spec, 20)
    gj = ambient_metric(spec, ca.jstack(jet_seed_all(spec.real_dim, 3, z)))
    gamma = ca.christoffel(gj)
    gamma_closed = ambient_christoffel(
        spec, ca.jstack(jet_seed_all(spec.real_dim, 2, z)))
    assert gamma_closed.coeffs.shape == gamma.coeffs.shape
    assert np.max(np.abs(gamma_closed.coeffs - gamma.coeffs)) \
        < 1e-13 * np.max(np.abs(gamma.coeffs))
    R_jet = ca.riemann_from_christoffel(gamma, gj)
    R_closed = curvature_tensor_point(spec, z)
    scale = np.max(np.abs(R_closed))
    assert np.max(np.abs(R_jet - R_closed)) / scale < 1e-6
    assert np.max(np.abs(
        ca.riemann_from_christoffel(gamma_closed, gj) - R_closed)) / scale \
        < 1e-6


def test_kahler_condition_nabla_J():
    """nabla J = 0 with the jet-derived and with the closed-form Gamma."""
    rng = np.random.default_rng(4)
    spec = space_form(-1.0, 2)
    z = _chart_points(rng, spec, 10)
    seeds = ca.jstack(jet_seed_all(4, 3, z))
    J = ambient_J(spec)
    Jc = np.zeros((4, 4, 10, seeds.coeffs.shape[-1]))
    Jc[..., 0] = J[:, :, None]
    for gamma in (ca.christoffel(ambient_metric(spec, seeds)),
                  ambient_christoffel(spec, seeds.truncated(2))):
        nJ = ca.cov_d(Jet(4, 3, Jc), gamma, upper=(0,))
        assert np.max(np.abs(nJ.coeffs)) < 1e-8


def test_kahler_form_closed():
    rng = np.random.default_rng(5)
    spec = space_form(0.5, 2)
    z = _chart_points(rng, spec, 10)
    gj = ambient_metric(spec, ca.jstack(jet_seed_all(4, 2, z)))
    J = ambient_J(spec)
    w = jet_einsum("ca,cb...->ab...", J, gj)   # w_ab = g(J e_a, e_b)
    dw = ca.exterior_d_twoform(w)
    assert np.max(np.abs(dw.value())) < 1e-8


def test_first_bianchi():
    rng = np.random.default_rng(6)
    spec = space_form(-0.5, 4)
    z = _chart_points(rng, spec, 8)
    R = curvature_tensor_point(spec, z)
    bianchi = R + np.einsum("bijkl->bjkil", R) + np.einsum("bijkl->bkijl", R)
    assert np.max(np.abs(bianchi)) < 1e-10


def test_chart_domain_rejection():
    spec = space_form(-1.0, 2)
    z = np.array([[0.6, 0.0, 0.0, 0.8], [0.3, 0.4, 0.0, 0.0]])
    assert np.allclose(chart_margin(spec, z), [0.0, 0.75])
    with pytest.raises(ChartDomainError):
        check_chart_domain(spec, z[:1])
    with pytest.raises(ChartDomainError):
        check_chart_domain(spec, np.array([1.0, 0.1, 0.0, 0.0]))
    check_chart_domain(spec, z[1:])
    # the closed-form connection guards the chart like the metric does
    with pytest.raises(ChartDomainError):
        ambient_christoffel(spec, ca.jstack(jet_seed_all(4, 1, z[:1])))
    # rho > 0 has no boundary
    check_chart_domain(space_form(1.0, 2), np.array([10.0, 0.0, 0.0, 0.0]))


def test_rejected_indices_refer_to_the_callers_points():
    """After the chart gate, immersion-gate indices still index the
    points passed in, not the chart-filtered batch."""
    spec = parse_immersion(
        "n=1; ambient=space_form(-1.0); map=[u1, u2^3, 0, 0.1*u1]")
    pts = np.array([[2.0, 0.5], [0.3, 0.4], [0.1, 0.0]])
    snap = compute_snapshot(spec, pts)
    assert snap.rejected == [(0, "outside chart domain"),
                             (2, "not an immersion")]
    assert np.array_equal(snap.points, pts[[1]])


def test_spec_validation():
    for rho in (0.0, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(UsageError):
            space_form(rho, 2)
    with pytest.raises(UsageError):
        from kangle.ambient import AmbientSpec
        AmbientSpec("flat", 1.0, 2)
