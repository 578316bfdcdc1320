"""Ambient-space validation: Einstein property, Kahler property, curvature."""

import numpy as np
import pytest

import kangle.calculus as ca
from conftest import (ambient_christoffel, ambient_metric_jet,
                      exterior_d_twoform0, pullback_form)
from kangle.ambient import (
    AmbientSpec,
    ambient_J,
    ambient_metric,
    christoffel_along,
    curvature_tensor_point,
    einstein_constant,
    flat_space,
    in_chart,
    metric_along,
    pullback_along,
    space_form,
)
from kangle.dsl import parse_immersion
from kangle.errors import DomainError, UsageError
from kangle.geometry import compute_snapshot
from kangle.jets import (Jet, jet_einsum, jet_seed_all, jet_unary,
                         num_coeffs)


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
        g = ambient_metric(spec, z)
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
    g = ambient_metric(spec, np.zeros((1, 4)))
    assert np.allclose(g[0], np.eye(4))
    flat = flat_space(3)
    z = np.random.default_rng(1).normal(size=(5, 6))
    assert np.allclose(ambient_metric(flat, z),
                       np.broadcast_to(np.eye(6), (5, 6, 6)))
    gj = ambient_metric_jet(flat, ca.jstack(jet_seed_all(6, 2, z)))
    assert np.array_equal(gj.value(), np.broadcast_to(np.eye(6)[..., None],
                                                      (6, 6, 5)))
    assert not np.any(gj.coeffs[..., 1:])
    assert not np.any(ambient_christoffel(
        flat, ca.jstack(jet_seed_all(6, 2, z))).coeffs)
    assert not np.any(curvature_tensor_point(flat, z))


def test_metric_jets_match_pointwise():
    rng = np.random.default_rng(2)
    spec = space_form(1.0, 2)
    z = _chart_points(rng, spec, 7)
    gj = ambient_metric_jet(spec, ca.jstack(jet_seed_all(4, 2, z)))
    g = ambient_metric(spec, z)
    assert np.max(np.abs(np.moveaxis(gj.value(), -1, 0) - g)) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rho", [1.0, -1.0, 0.5, -0.5, 0.0])
def test_metric_is_the_hessian_of_the_potential(n, rho):
    """g = (H + J^T H J)/4 with H the real Hessian of the Kahler potential
    K = (1/rho) log(1 + rho|z|^2), and K = |z|^2 for the flat ambient."""
    rng = np.random.default_rng(20 + n)
    spec = space_form(rho, 2 * n) if rho else flat_space(2 * n)
    m2 = spec.real_dim
    z = _chart_points(rng, spec, 9)
    seeds = jet_seed_all(m2, 2, z)
    s2 = sum(t * t for t in seeds)
    K = s2 if rho == 0.0 else jet_unary(1.0 + rho * s2, "log") * (1.0 / rho)
    eye = np.eye(m2, dtype=int)
    H = np.moveaxis(np.array([[K.extract(eye[a] + eye[b]) for b in range(m2)]
                              for a in range(m2)]), -1, 0)
    J = ambient_J(spec)
    oracle = 0.25 * (H + np.einsum("ca,...cd,db->...ab", J, H, J))
    g = ambient_metric(spec, z)
    gj = ambient_metric_jet(spec, ca.jstack(seeds))
    assert np.max(np.abs(g - oracle)) < 1e-12
    assert np.max(np.abs(np.moveaxis(gj.value(), -1, 0) - oracle)) < 1e-12


def test_holomorphic_sectional_curvature():
    rng = np.random.default_rng(3)
    for rho in (1.0, -1.0, 0.5, -0.5):
        spec = space_form(rho, 2)
        z = _chart_points(rng, spec, 10)
        g = ambient_metric(spec, z)
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
    g = ambient_metric(spec, z)
    R = curvature_tensor_point(spec, z)
    ric = np.einsum("...il,...iyzl->...yz", np.linalg.inv(g), R)
    defect = np.max(np.abs(ric - einstein_constant(spec) * g))
    assert defect < 1e-7


def test_einstein_constant_values():
    assert einstein_constant(flat_space(2)) == 0.0
    assert einstein_constant(space_form(1.0, 2)) == 6.0
    assert einstein_constant(space_form(-0.5, 4)) == -5.0


def _agree(got, want):
    """Same shape and every jet coefficient within 1e-13 of the largest."""
    assert got.coeffs.shape == want.coeffs.shape
    return np.max(np.abs(got.coeffs - want.coeffs)) \
        < 1e-13 * np.max(np.abs(want.coeffs))


@pytest.mark.parametrize("n,rho", [(1, 1.0), (1, -1.0), (2, 0.5), (2, -0.5)])
def test_closed_form_vs_jet_curvature(n, rho):
    """Closed-form connection and curvature vs the jet/Christoffel route,
    20 points; the connection agrees in every jet coefficient.  g_N and
    Gamma^N applied along z to random vector jets a and b equal the metric
    jet and the connection tensor contracted against them, in every jet
    coefficient, and at rho = 0 they are <a, b> and 0."""
    rng = np.random.default_rng(n + int(3 * rho) % 5)
    spec = space_form(rho, 2 * n)
    z = _chart_points(rng, spec, 20)
    gj = ambient_metric_jet(spec, ca.jstack(jet_seed_all(spec.real_dim, 3, z)))
    gamma = ca.christoffel(gj, ca.jet_matrix_inverse(gj))
    zj = ca.jstack(jet_seed_all(spec.real_dim, 2, z))
    gamma_closed = ambient_christoffel(spec, zj)
    assert _agree(gamma_closed, gamma)

    K = zj.coeffs.shape[-1]
    a = Jet(zj.dim, 2, rng.normal(size=(spec.real_dim, 3, 20, K)))
    b = Jet(zj.dim, 2, rng.normal(size=(spec.real_dim, 2, 20, K)))
    gb = jet_einsum("AB...,Bj...->Aj...", gj.truncated(2), b)
    assert _agree(metric_along(spec, zj, a, b),
                  jet_einsum("Ai...,Aj...->ij...", a, gb))
    ga = jet_einsum("ABC...,Bi...->AiC...", gamma_closed, a)
    assert _agree(christoffel_along(spec, zj, a, b),
                  jet_einsum("AiC...,Cj...->ijA...", ga, b))
    flat = flat_space(2 * n)
    assert np.array_equal(metric_along(flat, zj, a, b).coeffs,
                          jet_einsum("Ai...,Aj...->ij...", a, b).coeffs)
    zero = christoffel_along(flat, zj, a, b)
    assert zero.shape == (3, 2, spec.real_dim, 20)
    assert not np.any(zero.coeffs)
    R_jet = ca.riemann_from_christoffel(gamma, gj)
    R_closed = curvature_tensor_point(spec, z)
    scale = np.max(np.abs(R_closed))
    assert np.max(np.abs(R_jet - R_closed)) / scale < 1e-6
    assert np.max(np.abs(
        ca.riemann_from_christoffel(gamma_closed, gj) - R_closed)) / scale \
        < 1e-6


@pytest.mark.parametrize("rho", [0.0, 1.0, -1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pullback_along_matches_the_oracle(n, rho):
    """pullback_along's g is metric_along(z, a, a) byte for byte, and its
    F*w is exactly antisymmetric and within 1e-13 of the full-tensor
    oracle 1/2 (g_N(Ja, a) - transpose), which forms the ambient metric
    jet and J a first, for random jets z and a of orders 0 to 2 in 2n
    variables, z at 20 chart points of flat C^2n and the space forms of
    rho = 1 and -1, as F and dF of an n-immersion."""
    rng = np.random.default_rng(10 * n + int(rho) % 3)
    spec = AmbientSpec(rho, 2 * n)
    K = num_coeffs(2 * n, 3)
    zc = 0.1 * rng.normal(size=(spec.real_dim, 20, K))
    zc[..., 0] = _chart_points(rng, spec, 20).T
    zj = Jet(2 * n, 3, zc)
    for order in (0, 1, 2):
        K = num_coeffs(2 * n, order)
        a = Jet(zj.dim, order, rng.normal(size=(spec.real_dim, 2 * n, 20, K)))
        g, W = pullback_along(spec, zj, a)
        assert np.array_equal(g.coeffs, metric_along(spec, zj, a, a).coeffs)
        assert np.array_equal(W.coeffs, -np.swapaxes(W.coeffs, 0, 1))
        assert W.order == order and W.shape == (2 * n, 2 * n, 20)
        assert _agree(W, pullback_form(spec, zj, a)), (order, rho)


def test_kahler_condition_nabla_J():
    """nabla J = 0 with the jet-derived and with the closed-form Gamma."""
    rng = np.random.default_rng(4)
    spec = space_form(-1.0, 2)
    z = _chart_points(rng, spec, 10)
    seeds = ca.jstack(jet_seed_all(4, 3, z))
    J = ambient_J(spec)
    Jc = np.zeros((4, 4, 10, seeds.coeffs.shape[-1]))
    Jc[..., 0] = J[:, :, None]
    gj = ambient_metric_jet(spec, seeds)
    for gamma in (ca.christoffel(gj, ca.jet_matrix_inverse(gj)),
                  ambient_christoffel(spec, seeds.truncated(2))):
        nJ = ca.cov_d(Jet(4, 3, Jc), gamma, upper=(0,))
        assert np.max(np.abs(nJ.coeffs)) < 1e-8


def test_kahler_form_closed():
    rng = np.random.default_rng(5)
    spec = space_form(0.5, 2)
    z = _chart_points(rng, spec, 10)
    gj = ambient_metric_jet(spec, ca.jstack(jet_seed_all(4, 2, z)))
    J = ambient_J(spec)
    w = jet_einsum("ca,cb...->ab...", J, gj)   # w_ab = g(J e_a, e_b)
    assert np.max(np.abs(exterior_d_twoform0(w))) < 1e-8


def test_first_bianchi():
    rng = np.random.default_rng(6)
    spec = space_form(-0.5, 4)
    z = _chart_points(rng, spec, 8)
    R = curvature_tensor_point(spec, z)
    bianchi = R + np.einsum("bijkl->bjkil", R) + np.einsum("bijkl->bkijl", R)
    assert np.max(np.abs(bianchi)) < 1e-10


def test_chart_domain_rejection():
    """For n = 1, 2: the chart of rho < 0 ends where 1 + rho|z|^2 reaches
    1e-6, rho > 0 has no boundary, and a margin that overflows is outside
    in either sign, with no warning; the closed forms along z check the
    chart like the metric does."""
    for n in (1, 2):
        for rho in (1.0, -1.0):
            spec = space_form(rho, 2 * n)
            z = np.zeros((5, spec.real_dim))
            z[0, 0], z[0, -1] = 0.6, 0.8            # |z| = 1
            z[1, :2] = 0.3, 0.4                     # |z| = 0.5
            z[2, 0] = 1e200                         # rho |z|^2 overflows
            z[3, -1] = np.sqrt(1.0 - 2e-6)          # margin 2e-6 at rho = -1
            z[4, -1] = np.sqrt(1.0 - 5e-7)          # margin 5e-7 at rho = -1
            assert in_chart(spec, z).tolist() == [rho > 0, True, False,
                                                  True, rho > 0]
            ambient_metric(spec, z[[1, 3]])
            for k in ([0, 4] if rho < 0 else []) + [2]:
                zj = ca.jstack(jet_seed_all(spec.real_dim, 1, z[k:k + 1]))
                for check in (lambda: ambient_metric(spec, z[k]),
                              lambda: metric_along(spec, zj, zj, zj),
                              lambda: pullback_along(spec, zj, zj[:, None]),
                              lambda: christoffel_along(spec, zj, zj, zj)):
                    with pytest.raises(DomainError):
                        check()


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
        AmbientSpec(float("nan"), 2)
    assert flat_space(2).is_flat and not space_form(-0.5, 2).is_flat
