"""Snapshot pipeline: metric, angles, curvature, frames, tangent/normal
morphisms."""

import numpy as np
import pytest

from conftest import central_diff, exterior_d_twoform0
from kangle.catalog import get_entry
from kangle.dsl import parse_immersion
from kangle.geometry import (
    COMPLEX,
    GENERIC,
    LAGRANGIAN,
    TOL_LAGRANGIAN,
    compute_snapshot,
    gauss_equation_residual,
)
from kangle.jets import Jet, partials


def snap_of(name, count=40, seed=0, order=3):
    entry = get_entry(name)
    rng = np.random.default_rng(seed)
    pts = np.stack([rng.uniform(lo, hi, count) for lo, hi in entry.box], -1)
    return compute_snapshot(entry.spec(), pts, order=order)


@pytest.mark.parametrize("name, order", [
    ("ds_graph", 4), ("trig_sf_pos", 3), ("slant_product_6", 3)])
def test_snapshot_jets_are_made_coefficient_major(name, order, monkeypatch):
    """Every jet of a full snapshot is coefficient-major, and no producer
    leaves that layout to the copy in Jet.__init__."""
    init, copied = Jet.__init__, []

    def counting_init(self, dim, order, coeffs):
        if not np.moveaxis(np.asarray(coeffs), -1, 0).flags.c_contiguous:
            copied.append(np.shape(coeffs))
        init(self, dim, order, coeffs)

    monkeypatch.setattr(Jet, "__init__", counting_init)
    snap = snap_of(name, count=12, order=order)
    assert copied == []
    assert snap.jets
    for key, jet in snap.jets.items():
        assert np.moveaxis(jet.coeffs, -1, 0).flags.c_contiguous, key
    # the counter sees a C-ordered (b, K) array
    Jet(2, 1, np.zeros((4, 3)))
    assert copied == [(4, 3)]


def test_snapshots_apply_the_ambient_along_F(monkeypatch):
    """A full snapshot forms no ambient metric jet, flat or curved: g_N and
    Gamma^N are applied along F in closed form, and ambient_metric is
    called once, on the plain (B, 4n) array of F values, for gN0."""
    import kangle.ambient as amb
    metric, shapes = amb.ambient_metric, []

    def counting(spec, z):
        shapes.append(np.shape(z))
        return metric(spec, z)

    monkeypatch.setattr(amb, "ambient_metric", counting)
    for name in ("trig_sf_pos", "lagrangian_torus_sf_pos", "ds_graph"):
        shapes.clear()
        snap = snap_of(name, count=12)
        assert shapes == [snap.F0.shape], name


# ---------------------------------------------------------------- metric

def test_induced_metric_linear():
    a = 0.5
    snap = snap_of("linear_n1_a0p5")
    assert np.max(np.abs(snap.g0 - (1 + a * a) * np.eye(2))) < 1e-12


def test_induced_metric_torus_identity():
    snap = snap_of("lagrangian_torus_2")
    assert np.max(np.abs(snap.g0 - np.eye(2))) < 1e-12


def test_induced_metric_vs_fd():
    entry = get_entry("ds_graph")
    spec = entry.spec()
    from kangle.dsl import eval_components_floats
    pts = np.random.default_rng(1).uniform(-1, 1, (3, 4))
    snap = compute_snapshot(spec, pts)
    for b, p in enumerate(pts):
        dF = np.empty((8, 4))
        for A in range(8):
            for i in range(4):
                alpha = tuple(int(v == i) for v in range(4))
                dF[A, i] = central_diff(
                    lambda x, A=A: eval_components_floats(spec, x[None])[0, A],
                    p, alpha)
        g_fd = dF.T @ dF
        assert np.max(np.abs(snap.g0[b] - g_fd)) < 1e-8


# ---------------------------------------------------------------- angles

def test_real_plane_is_lagrangian():
    snap = snap_of("linear_n1_a0")
    assert np.all(snap.classification == LAGRANGIAN)
    assert np.max(snap.cos_angles) < 1e-12
    assert np.max(np.abs(snap.W0)) < 1e-12


def test_linear_angles_all_n():
    for n in (1, 2, 3):
        for a in (0.25, 0.5, 2.0):
            name = f"linear_n{n}_a{a:g}".replace(".", "p")
            snap = snap_of(name, count=10)
            want = 2 * a / (1 + a * a)
            assert np.max(np.abs(snap.cos_angles - want)) < 1e-12


def test_ds_angles_and_locus():
    entry = get_entry("ds_graph")
    snap = snap_of("ds_graph", count=64)
    want = entry.angle_fn(snap.points)
    assert np.max(np.abs(snap.cos_angles - want[:, None])) < 1e-12
    assert np.all(snap.equal_gate)
    locus = np.array([[0, 0, np.pi / 2, 0], [1, 0, np.pi / 2 - 1, 0]])
    sl = compute_snapshot(entry.spec(), locus)
    assert np.all(sl.classification == LAGRANGIAN)
    assert np.max(sl.cos_angles) < 1e-12


def test_signed_angle():
    snap = snap_of("complex_graph_2")
    assert np.max(np.abs(snap.cos_signed - 1.0)) < 1e-12
    # swapping the domain coordinates reverses orientation
    flipped = parse_immersion(
        "n=1; ambient=flat; map=[u2, u1, u2^2 - u1^2, 2*u2*u1]")
    snap2 = compute_snapshot(flipped, np.random.default_rng(0).uniform(-1, 1, (10, 2)))
    assert np.max(np.abs(snap2.cos_signed + 1.0)) < 1e-12
    torus = snap_of("lagrangian_torus_2")
    assert np.max(np.abs(torus.cos_signed)) < 1e-12


def test_angle_bounds_and_order():
    for name in ("ds_graph", "trig_flat_4d", "quaternionic_graph"):
        snap = snap_of(name)
        cos = snap.cos_angles
        assert np.all(cos >= 0.0)
        assert np.all(cos <= 1.0 + 1e-10)
        assert np.all(np.diff(cos, axis=1) <= 1e-12)


# ------------------------------------------------------------ polar factor

def test_polar_factor_properties():
    snap = snap_of("ds_graph", count=60)
    J = snap.Jw0
    JJ = np.einsum("bij,bjk->bik", J, J)
    assert np.max(np.abs(JJ + np.eye(4))) < 1e-9       # off-kernel everywhere
    # g-antisymmetry of the polar factor
    gJ = np.einsum("bij,bjk->bik", snap.g0, J)
    assert np.max(np.abs(gJ + np.swapaxes(gJ, 1, 2))) < 1e-9


def test_polar_field_matches_pointwise():
    snap = snap_of("ds_graph", count=60)
    m = snap.masks["jw_field"]
    Ws = np.einsum("bik,bjk->bij", snap.g_inv0, snap.W0)
    cos = snap.cos_angles.mean(1)
    field = Ws / cos[:, None, None]
    assert np.max(np.abs(field[m] - snap.Jw0[m])) < 1e-8


def test_signed_vs_unsigned_angle():
    snap = snap_of("trig_flat_2d", count=80)
    assert np.max(np.abs(np.abs(snap.cos_signed) - snap.cos_angles[:, 0])) < 1e-10


# ------------------------------------------------- second fundamental form

def test_sff_linear_vanishes():
    snap = snap_of("linear_n2_a0p5")
    assert np.max(np.abs(snap.sff0)) < 1e-10


def test_sff_symmetry_and_normality():
    for name in ("ds_graph", "trig_sf_pos", "slant_product_4"):
        snap = snap_of(name, count=30)
        sym = snap.sff0 - np.swapaxes(snap.sff0, 1, 2)
        assert np.max(np.abs(sym)) < 1e-9
        tang = np.einsum("bijA,bAB,bBk->bijk", snap.sff0, snap.gN0, snap.dF0)
        assert np.max(np.abs(tang)) < 1e-9


def test_torus_sff_norm_and_H():
    """Unit circles: each factor curvature 1, so |sff|^2 = 2 and |H| = sqrt2/2."""
    snap = snap_of("lagrangian_torus_2")
    sff_norm2 = np.einsum("bik,bjl,bijA,bAB,bklB->b", snap.g_inv0,
                          snap.g_inv0, snap.sff0, snap.gN0, snap.sff0)
    assert np.max(np.abs(sff_norm2 - 2.0)) < 1e-12
    assert np.max(np.abs(np.sqrt(snap.normH2) - np.sqrt(2) / 2)) < 1e-12


def test_H_normal_and_minimal_entries():
    snap = snap_of("ds_graph", count=100)
    assert np.max(np.sqrt(snap.normH2)) < 1e-9
    tang = np.einsum("bA,bAB,bBk->bk", snap.H0, snap.gN0, snap.dF0)
    assert np.max(np.abs(tang)) < 1e-9


def test_jh_top():
    ds = snap_of("ds_graph", count=20)
    assert np.max(np.abs(ds.JHtop0)) < 1e-9          # minimal: H = 0
    torus = snap_of("lagrangian_torus_2")
    njh = np.einsum("bij,bi,bj->b", torus.g0, torus.JHtop0, torus.JHtop0)
    assert np.max(np.abs(np.sqrt(njh) - np.sqrt(torus.normH2))) < 1e-12


def test_jh_top_vanishes_at_complex_point_with_H():
    # graph of |z|^2: complex point at the origin with H != 0
    spec = parse_immersion("n=1; ambient=flat; map=[u1, u2, u1^2 + u2^2, 0]")
    snap = compute_snapshot(spec, np.zeros((1, 2)))
    assert snap.classification[0] == COMPLEX
    assert np.sqrt(snap.normH2[0]) > 0.1
    assert np.max(np.abs(snap.JHtop0)) < 1e-12


# ------------------------------------------------------------- curvature

def test_flat_entries_have_flat_metric():
    for name in ("linear_n2_a0p5", "lagrangian_torus_4", "slant_product_4"):
        snap = snap_of(name, count=20)
        assert np.max(np.abs(snap.RM)) < 1e-10


def test_gauss_equation_all_entries():
    from kangle.catalog import builtin_catalog
    for entry in builtin_catalog():
        rng = np.random.default_rng(7)
        pts = np.stack([rng.uniform(lo, hi, 20) for lo, hi in entry.box], -1)
        snap = compute_snapshot(entry.spec(), pts)
        assert gauss_equation_residual(snap) < 1e-6, entry.name


def test_gauss_curvature_vs_fd_oracle():
    """Sectional curvature of a curved holomorphic graph against a
    finite-difference oracle: the induced metric is conformal, so
    K = -(1/2 lambda) Lap log(lambda) with lambda measured by differencing
    the immersion components."""
    spec = parse_immersion("n=1; ambient=flat; map=[u1, u2, u1^2 - u2^2, 2*u1*u2]")
    from kangle.dsl import eval_components_floats

    import mpmath as mp

    from conftest import mp_eval_expr

    def loglam(x, y):
        total = mp.mpf(0)
        for comp in spec.components:
            d = mp.diff(lambda s: mp_eval_expr(comp, [s, y]), x)
            total += d * d
        return mp.log(total)

    pts = np.array([[0.3, 0.2], [-0.4, 0.5], [0.1, -0.6]])
    snap = compute_snapshot(spec, pts)
    # the oracle applies to conformal metrics; check that first
    assert np.max(np.abs(snap.g0[:, 0, 0] - snap.g0[:, 1, 1])) < 1e-12
    assert np.max(np.abs(snap.g0[:, 0, 1])) < 1e-12
    with mp.workdps(40):
        for b, p in enumerate(pts):
            x0, y0 = mp.mpf(float(p[0])), mp.mpf(float(p[1]))
            lap = mp.diff(lambda s: loglam(s, y0), x0, 2) \
                + mp.diff(lambda s: loglam(x0, s), y0, 2)
            K_fd = float(-lap / (2.0 * mp.e**loglam(x0, y0)))
            K_jet = snap.RM[b, 0, 1, 1, 0] / (
                snap.g0[b, 0, 0] * snap.g0[b, 1, 1] - snap.g0[b, 0, 1] ** 2)
            assert abs(K_jet - K_fd) < 1e-6 * max(1.0, abs(K_fd))


# ------------------------------------------------------------ laplacians

def test_scalar_laplacian_flat():
    from kangle.calculus import trace_hessian
    spec = parse_immersion("n=1; ambient=flat; map=[u1, 0, u2, 0]")
    pts = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    snap = compute_snapshot(spec, pts)
    from kangle.jets import jet_seed_all
    u = jet_seed_all(2, 3, pts)
    f = u[0] * u[0] + u[1] * u[1]
    lap = trace_hessian(f, snap.jets["g_inv"], snap.jets["gamma"])
    assert np.max(np.abs(lap.value() - 4.0)) < 1e-12
    const = trace_hessian(f * 0.0 + 2.5, snap.jets["g_inv"], snap.jets["gamma"])
    assert np.max(np.abs(const.value())) < 1e-14


def test_lap_cos2_vs_fd():
    """Laplacian of cos^2 on the minimal graph vs a finite-difference oracle
    built from snapshots at shifted points (div of the metric gradient)."""
    entry = get_entry("ds_graph")
    spec = entry.spec()
    pts = np.array([[0.3, 0.1, -0.2, 0.4], [0.1, -0.5, 0.7, 0.2]])
    snap = compute_snapshot(spec, pts)

    def sqrtg_grad(x):
        s = compute_snapshot(spec, np.asarray(x)[None], order=3)
        c2 = s.jets["cos2"]
        grad = np.einsum("ijb,jb->ib", s.g_inv0.transpose(1, 2, 0),
                         partials(c2).value())
        return np.sqrt(np.linalg.det(s.g0[0])) * grad[:, 0]

    for b, p in enumerate(pts):
        div = 0.0
        for i in range(4):
            alpha = tuple(int(v == i) for v in range(4))
            div += central_diff(lambda x, i=i: sqrtg_grad(x)[i], p, alpha,
                                h=1e-3)
        lap_fd = div / np.sqrt(np.linalg.det(snap.g0[b]))
        assert abs(snap.lap_cos2[b] - lap_fd) < 1e-6 * max(1.0, abs(lap_fd))


def test_trace_hessian_equals_div_grad():
    snap = snap_of("trig_sf_pos", count=20)
    import kangle.calculus as ca
    f = snap.jets["cos2"]
    lap1 = ca.trace_hessian(f, snap.jets["g_inv"], snap.jets["gamma"]).value()
    grad = ca.gradient_vector(f, snap.jets["g_inv"])
    lap2 = ca.divergence(grad, snap.jets["gamma"]).value()
    assert np.max(np.abs(lap1 - lap2)) < 1e-9


def test_pullback_form_closed():
    import kangle.calculus as ca
    from kangle.dsl import eval_components
    from kangle.geometry import pullback_form
    for name in ("ds_graph", "trig_sf_neg", "quaternionic_graph"):
        spec = get_entry(name).spec()
        pts = snap_of(name, count=50).points
        F = eval_components(spec, pts, order=2)
        dF = ca.jstack([ca.partials(F[A]) for A in range(4 * spec.n)])
        dW3 = exterior_d_twoform0(pullback_form(spec.ambient, F, dF))
        assert np.max(np.abs(dW3)) < 1e-9, name


def test_delta_fw_vanishes_on_ds():
    """n=2 equal angles make the pulled-back form co-closed (harmonic)."""
    snap = snap_of("ds_graph", count=80)
    assert np.max(np.sqrt(snap.norm_delta_W2)) < 1e-8


# ------------------------------------------------- tangent/normal morphisms

def _normal_part(snap):
    """The g_N-orthogonal projector onto the normal space, P_N = I - dF
    g^-1 dF^T g_N (b, A, B), and Phi = P_N J dF (b, A, i): Phi(X) is the
    normal part of J dF X.  Neither needs a normal frame."""
    dF, gN = snap.dF0, snap.gN0
    P_T = np.einsum("bAi,bij,bCj,bCB->bAB", dF, snap.g_inv0, dF, gN)
    P_N = np.eye(snap.ambient_dim) - P_T
    Phi = np.einsum("bAB,BC,bCi->bAi", P_N, snap.JN, dF)
    return P_N, Phi


def _tangent_part(snap, V):
    """Coordinates of the tangent part of ambient vectors V (b, A, ...)."""
    return np.einsum("bij,bAj,bAB,bB...->bi...", snap.g_inv0, snap.dF0,
                     snap.gN0, V)


def test_phi_xi_identities():
    """With Xi(nu) = (J nu)^T: -Xi o Phi = Id + (W#)^2 on TM, -Phi o Xi =
    Id + (J^perp)^2 on the normal space, and |Phi|^2 = 2 sum sin^2."""
    for name in ("ds_graph", "trig_flat_4d", "slant_product_4", "trig_sf_pos",
                 "lagrangian_torus_2", "lagrangian_torus_sf_neg"):
        snap = snap_of(name, count=30)
        P_N, Phi = _normal_part(snap)
        Ws = np.einsum("bik,bjk->bij", snap.g_inv0, snap.W0)
        XiPhi = _tangent_part(snap, np.einsum("AB,bBi->bAi", snap.JN, Phi))
        want = np.eye(snap.domain_dim) + Ws @ Ws
        assert np.max(np.abs(-XiPhi - want)) < 1e-8, name
        J_perp = P_N @ snap.JN @ P_N
        P_T = np.eye(snap.ambient_dim) - P_N
        PhiXi = P_N @ snap.JN @ P_T @ snap.JN @ P_N
        assert np.max(np.abs(-PhiXi - (P_N + J_perp @ J_perp))) < 1e-8, name
        nPhi2 = np.einsum("bij,bAi,bAB,bBj->b", snap.g_inv0, Phi, snap.gN0,
                          Phi)
        want2 = 2.0 * np.sum(1.0 - snap.cos_angles**2, axis=1)
        assert np.max(np.abs(nPhi2 - want2)) < 1e-8, name


def test_normal_angles_match_tangent_angles():
    """The skew map J^perp = P_N J P_N of the normal space, written in a
    g_N-orthonormal basis through g_N = C C^T, has the Kahler angles as its
    top 2n singular values, in pairs."""
    # regular torus grid nodes include points where an ambient coordinate
    # axis is tangent to the surface, which random points almost never hit
    axis = np.arange(16) * (2 * np.pi / 16)
    grid = np.stack([m.ravel() for m in np.meshgrid(axis, axis,
                                                    indexing="ij")], -1)
    grid_snap = compute_snapshot(get_entry("trig_sf_pos").spec(), grid)
    for snap in (snap_of("ds_graph", count=20),
                 snap_of("trig_sf_pos", count=20), grid_snap,
                 snap_of("trig_flat_4d"), snap_of("slant_product_4")):
        P_N, _ = _normal_part(snap)
        Ct = np.swapaxes(np.linalg.cholesky(snap.gN0), 1, 2)
        J_perp = Ct @ P_N @ snap.JN @ P_N @ np.linalg.inv(Ct)
        S = np.linalg.svd(J_perp, compute_uv=False)[:, :snap.domain_dim]
        for pair in (S[:, 0::2], S[:, 1::2]):
            assert np.max(np.abs(pair - snap.cos_angles)) < 1e-8


def test_phi_isometry_equal_angles():
    snap = snap_of("ds_graph", count=30)
    _, Phi = _normal_part(snap)
    gram = np.einsum("bAi,bAB,bBj->bij", Phi, snap.gN0, Phi)
    assert np.max(np.abs(gram - snap.sin2_0[:, None, None] * snap.g0)) < 1e-8


def test_lagrangian_J_maps_normal_to_tangent():
    """On a Lagrangian submanifold J dF X is normal, so -Xi o Phi = Id."""
    snap = snap_of("lagrangian_torus_2")
    _, Phi = _normal_part(snap)
    XiPhi = _tangent_part(snap, np.einsum("AB,bBi->bAi", snap.JN, Phi))
    assert np.max(np.abs(-XiPhi - np.eye(2))) < 1e-10


# ----------------------------------------------------------- invariances

def _eigenframe(snap, rng):
    """Unitary eigenframe of F*w in coordinates, each pair turned by a
    random phase: (X, Y) with shape (b, n, d), from the +cos eigenvectors v
    of i What as X = sqrt(2) Re v, Y = -sqrt(2) Im v."""
    Lt_inv = np.linalg.inv(np.swapaxes(np.linalg.cholesky(snap.g0), 1, 2))
    What = np.swapaxes(Lt_inv, 1, 2) @ snap.W0 @ Lt_inv
    v = np.linalg.eigh(1j * What)[1][:, :, snap.n:]     # ascending: +cos last
    v = v * np.exp(2j * np.pi * rng.uniform(size=(snap.size, 1, snap.n)))
    X, Y = (np.swapaxes(np.sqrt(2.0) * Lt_inv @ part, 1, 2)
            for part in (np.real(v), -np.imag(v)))
    return X, Y


def test_frame_rotation_invariance():
    """Off the kernel, every frame sum and sumRM (contractions with P) equal
    the sums over a unitary eigenframe (X_a, Y_a = J_w X_a) of F*w whose
    pairs are turned by random phases."""
    rng = np.random.default_rng(3)
    for name in ("ds_graph", "slant_product_6", "quaternionic_graph",
                 "trig_flat_4d"):
        _check_frame_sums(snap_of(name, count=24), rng)


def _check_frame_sums(snap, rng):
    X, Y = _eigenframe(snap, rng)
    Z, Zb = 0.5 * (X - 1j * Y), 0.5 * (X + 1j * Y)
    assert np.max(np.abs(np.einsum("bij,baj->bai", snap.Jw0, X) - Y)) < 1e-10

    def pair(T):
        """sum_a T(Z_a, conj Z_a)."""
        return np.einsum("bij,bai,baj->b", T, Z, Zb)

    JdF = np.einsum("AB,bBi->bAi", snap.JN, snap.dF0)
    nH, nH_perp = (pair(np.einsum("biA,bAB,bBj->bij", nabla, snap.gN0, JdF))
                   for nabla in (snap.nablaH, snap.nabla_perpH))
    HJ = np.einsum("bA,bAB,bBj->bj", snap.H0, snap.gN0, JdF)
    T = np.einsum("bijA,bAB,bBk->bijk", snap.sff0, snap.gN0, JdF)
    want = dict(
        sumA=-2.0 * np.imag(nH), sumA_perp=np.imag(nH_perp),
        sumRe_perp=np.real(nH_perp),
        sumB=np.imag(pair(np.einsum("bik,bkl->bil", snap.nabla_JHtop,
                                    snap.g0))),
        sumC=pair(snap.d_JHb),
        sumD=2.0 * np.real(1j * np.einsum("bj,baj,bak->bk", HJ, Z, Zb)),
        sumE=np.einsum("bijk,bai,baj,bck,bcl->bl", T, Zb, Z, Z, Zb)
        - np.einsum("bijk,bai,bcj,bak,bcl->bl", T, Zb, Z, Z, Zb),
        sumRM=np.real(np.einsum("bijkl,bui,buk,bvj,bvl->b", snap.RM, Z, Zb,
                                Z, Zb)),
    )
    off = np.all(snap.cos_angles > TOL_LAGRANGIAN, axis=1)
    assert np.sum(off) >= 20
    for key, value in want.items():
        err = np.max(np.abs(snap.data[key] - value)[off])
        assert err <= 1e-12 * (1.0 + np.max(np.abs(value[off]))), key
    # prop3.6 reads 2 sum_a d(JH)-flat(X_a, Y_a) as 4 Im sumC
    mid = 2.0 * np.einsum("bij,bai,baj->b", snap.d_JHb, X, Y)
    assert np.max(np.abs(mid - 4.0 * np.imag(snap.sumC))[off]) \
        <= 1e-12 * (1.0 + np.max(np.abs(mid[off])))


@pytest.mark.parametrize("name", ["lagrangian_torus_sf_neg",
                                  "lagrangian_torus_4"])
def test_lagrangian_points_have_no_kernel_frame(name):
    """J_w is 0 on ker F*w, so at a Lagrangian point P = g^-1/4 is real and
    sumD, the one sum that reads Im P alone, is exactly 0: no kernel basis
    is picked."""
    snap = snap_of(name, count=24)
    lag = np.all(snap.cos_angles <= TOL_LAGRANGIAN, axis=1)
    assert np.all(lag)
    assert np.max(np.abs(snap.H0)) > 0.1
    assert np.all(snap.sumD[lag] == 0.0)


def test_snapshot_decomposes_F_w_once(monkeypatch):
    """The frame sums need one SVD of F*w per batch and no eigenframe, and
    a full snapshot makes no other decomposition."""
    calls = {"svd": 0, "eigh": 0, "qr": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    entry = get_entry("slant_product_6")
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (8, 6))
    compute_snapshot(entry.spec(), pts, reads=("sumRM", "sumE"))
    assert calls == {"svd": 1, "eigh": 0, "qr": 0}
    calls.update(svd=0)
    compute_snapshot(entry.spec(), pts, reads=None)
    assert calls == {"svd": 1, "eigh": 0, "qr": 0}


def test_ambient_isometry_invariance(monkeypatch):
    """A unitary-affine ambient isometry leaves all snapshot scalars alone."""
    entry = get_entry("ds_graph")
    spec = entry.spec()
    pts = np.random.default_rng(5).uniform(-1, 1, (15, 4))
    snap = compute_snapshot(spec, pts)
    from kangle import geometry
    from kangle.dsl import eval_components
    from kangle.jets import Jet

    rng = np.random.default_rng(6)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Q, _ = np.linalg.qr(A)
    U = np.zeros((8, 8))
    U[0::2, 0::2] = np.real(Q)
    U[1::2, 1::2] = np.real(Q)
    U[0::2, 1::2] = -np.imag(Q)
    U[1::2, 0::2] = np.imag(Q)
    shift = rng.normal(size=8)
    F = eval_components(spec, pts, order=3)
    c = np.einsum("AB,B...->A...", U, F.coeffs)
    c[..., 0] += shift[:, None]
    monkeypatch.setattr(geometry, "eval_components",
                        lambda *args, **kwargs: Jet(4, 3, c))
    snap2 = compute_snapshot(spec, pts)
    assert np.max(np.abs(snap2.cos_angles - snap.cos_angles)) < 1e-9
    for key in ("normH2", "norm_nabla_W2", "S_pair", "sumRM", "norm_W2_0",
                "hodge_pair", "lap_norm_W2", "norm_delta_W2"):
        assert np.max(np.abs(np.nan_to_num(snap2.data[key])
                             - np.nan_to_num(snap.data[key]))) < 1e-9, key


def test_hyperkahler_angle_formula():
    """For the graph holomorphic w.r.t. a second constant complex structure,
    cos(theta) = |(J X)^T| for any unit tangent X."""
    snap = snap_of("quaternionic_graph", count=50, seed=8)
    rng = np.random.default_rng(9)
    X = np.einsum("bAi,bi->bA", snap.dF0, rng.normal(size=(snap.size, 4)))
    X /= np.sqrt(np.einsum("bA,bA->b", X, X))[:, None]
    JX = np.einsum("AB,bB->bA", snap.JN, X)
    coef = np.einsum("bAi,bij,bA->bj", snap.dF0, snap.g_inv0, JX)
    tang = np.einsum("bAj,bj->bA", snap.dF0, coef)
    norm = np.sqrt(np.einsum("bA,bA->b", tang, tang))
    assert np.max(np.abs(norm - snap.cos_angles[:, 0])) < 1e-8


def test_not_an_immersion_detected():
    spec = parse_immersion("n=1; ambient=flat; map=[u1*u1, 0, u2, 0]")
    pts = np.array([[0.0, 0.5], [0.5, 0.5]])
    snap = compute_snapshot(spec, pts)
    assert len(snap.rejected) == 1
    assert snap.size == 1
    empty = compute_snapshot(spec, pts[:1])
    assert empty.size == 0
    assert empty.rejected == [(0, "not an immersion")]


def test_chart_rejection_in_snapshot():
    spec = parse_immersion("n=1; ambient=space_form(-1); map=[u1, 0, u2, 0]")
    pts = np.array([[0.2, 0.1], [2.0, 0.0]])
    snap = compute_snapshot(spec, pts)
    assert len(snap.rejected) == 1
    assert snap.size == 1


# --------------------------------------------------------- masked fields


def _masked_by_jets(snap, JHb, JHtop):
    """Every masked field as a jet composition on its mask's sub-batch:
    sqrt, log and reciprocal jets differentiated by cov_d, divergence,
    trace_hessian and exterior_d_oneform.  Returns {key: (mask, value)}."""
    import kangle.calculus as ca
    from kangle.jets import jet_einsum, jet_unary

    def at(jet):
        return np.moveaxis(jet.value(), -1, 0)

    n, jets = snap.n, {**snap.jets, "JHb": JHb, "JHtop": JHtop}
    jets["sin2"] = 1.0 - jets["cos2"]
    out = {}
    for mask in ("jw_field", "band", "sigma"):
        idx = np.nonzero(snap.masks[mask])[0]
        J = {k: v.take_batch(idx) for k, v in jets.items()}
        g0, gi0, gN0 = snap.g0[idx], snap.g_inv0[idx], snap.gN0[idx]
        sff0, Jw0 = snap.sff0[idx], snap.Jw0[idx]
        inv_sin2 = J["sin2"].truncated(1).reciprocal()
        fields = {}
        if mask != "sigma":
            c = jet_unary(J["cos2"], "sqrt")
            Jw = jet_einsum("ij...,...->ij...", J["W_sharp"],
                            c.truncated(1).reciprocal())
            VJ = jet_einsum("ij...,j...->i...", Jw, J["JHtop"])
        if mask == "jw_field":
            gc = at(ca.gradient_vector(c, J["g_inv"].truncated(0)))
            nJw = at(ca.cov_d(Jw, J["gamma"], upper=(0,)))
            rot = np.einsum("bki,blj,bklA->bijA", Jw0, Jw0, sff0)
            sff11 = 0.5 * (sff0 + rot)
            fields = dict(
                grad_costheta=gc,
                norm_grad_costheta2=np.einsum("bij,bi,bj->b", g0, gc, gc),
                norm_nabla_Jw2=np.einsum("bim,bkl,bjp,bikj,bmlp->b",
                                         gi0, g0, gi0, nJw, nJw),
                delta_Jw0=-np.einsum("bij,bikj->bk", gi0, nJw),
                delta_W_sharp0=np.einsum("bki,bi->bk", gi0, at(J["delta_W"])),
                div_Jw_JHtop=ca.divergence(VJ, J["gamma"]).value(),
                sff11_norm2=np.einsum("bik,bjl,bijA,bAB,bklB->b",
                                      gi0, gi0, sff11, gN0, sff11))
        if mask == "band":
            kappa = jet_unary((1.0 + c) / (1.0 - c), "log") * float(n)
            sin2 = J["sin2"].truncated(1)
            grad_abs_sin = at(ca.gradient_vector(jet_unary(sin2, "sqrt"),
                                                 J["g_inv"]))
            fields = dict(
                kappa=kappa.value(),
                lap_kappa=ca.trace_hessian(kappa, J["g_inv"],
                                           J["gamma"]).value(),
                norm_grad_abs_sin2=np.einsum("bij,bi,bj->b", g0,
                                             grad_abs_sin, grad_abs_sin),
                grad_log_sin2=at(ca.gradient_vector(jet_unary(sin2, "log"),
                                                    J["g_inv"])),
                div_Jw_JHtop_over_sin2=ca.divergence(jet_einsum(
                    "i...,...->i...", VJ, inv_sin2), J["gamma"]).value())
        if mask == "sigma":
            for tag, alpha in (("jh", J["JHb"] * (2.0 * n)),
                               ("dw", J["delta_W"])):
                sigma = jet_einsum("i...,...->i...", alpha, inv_sin2)
                fields[f"sigma_{tag}0"] = at(sigma)
                fields[f"dsigma_{tag}0"] = at(ca.exterior_d_oneform(sigma))
            JdF = np.einsum("AB,bBk->bAk", snap.JN, snap.dF0[idx])
            fields["sigma_trace0"] = -np.einsum(
                "bik,bixA,bAB,bBk->bx", gi0, sff0, gN0,
                JdF) / snap.sin2_0[idx][:, None]
        out.update({key: (mask, value) for key, value in fields.items()})
    return out


def test_masked_fields_equal_their_jet_compositions():
    """The pointwise chain-rule fields equal the jet compositions they
    stand for, to rounding, and are NaN outside their masks; the first four
    entries give every field values of order one, and on the Lagrangian
    torus only the sigma fields are defined."""
    from conftest import mean_curvature_jets

    scale = {}
    for name in ("ds_graph", "quaternionic_graph", "trig_sf_pos",
                 "trig_sf_neg", "lagrangian_torus_4"):
        snap = snap_of(name, count=24, seed=3)
        JHb, JHtop = mean_curvature_jets(get_entry(name).spec(), snap)
        assert np.allclose(np.moveaxis(JHtop.value(), -1, 0), snap.JHtop0,
                           rtol=0.0, atol=1e-12)
        want = _masked_by_jets(snap, JHb, JHtop)
        assert len(want) == 17
        for key, (mask, value) in want.items():
            field, inside = snap.data[key], snap.masks[mask]
            assert np.all(np.isnan(field[~inside])), (name, key)
            if not value.size:
                continue
            top = np.max(np.abs(value))
            assert np.max(np.abs(field[inside] - value)) \
                <= 1e-12 * (1.0 + top), (name, key)
            scale[key] = max(scale.get(key, 0.0), top)
    assert len(scale) == 17
    assert min(scale.values()) > 0.1, scale


def test_traced_jets_equal_their_full_tensor_forms():
    """delta F*w, |F*w|^2 and H are contracted before they are multiplied
    out (the ``forms`` and ``extrinsic`` stages).  On every catalog entry,
    the four curved ones included, they equal the full-tensor oracles,
    which form nabla F*w, b^{ij} and the whole sff jet first, and so do
    Delta |F*w|^2, (F*w)# and nabla H, which are built on them.  The
    bound, 1e-12 relative to max(|x|, 1), is about 100 times the largest
    difference seen, 8e-15 (``lap_norm_W2``)."""
    from conftest import codiff, tensor_route, two_form_pairing
    from kangle.calculus import trace_hessian
    from kangle.catalog import entry_names
    from kangle.geometry import pullback_form
    from kangle.jets import jet_einsum
    from kangle.runner import sample_points

    def at(jet):
        return np.moveaxis(jet.value(), -1, 0)

    worst = {}
    for name in entry_names():
        entry = get_entry(name)
        snap = compute_snapshot(entry.spec(), sample_points(entry.box, 24,
                                                            1234))
        F, dF, _, gammaN, H = tensor_route(entry.spec(), snap)
        g_inv, gamma = snap.jets["g_inv"], snap.jets["gamma"]
        W = pullback_form(snap.ambient_spec, F, dF)
        norm = two_form_pairing(W, W, g_inv)
        delta = codiff(W, g_inv, gamma)
        pairs = {
            "delta_W0": (snap.delta_W0, at(delta)),
            "delta_W": (snap.jets["delta_W"].coeffs, delta.coeffs),
            "norm_W2_0": (snap.norm_W2_0, norm.value()),
            "cos2": (snap.jets["cos2"].coeffs * snap.n, norm.coeffs),
            "lap_norm_W2": (snap.lap_norm_W2,
                            trace_hessian(norm, g_inv, gamma).value()),
            "W_sharp": (snap.jets["W_sharp"].coeffs, jet_einsum(
                "ik...,jk...->ij...", g_inv.truncated(1), W).coeffs),
            "H0": (snap.H0, at(H)),
            "nablaH": (snap.nablaH, at(partials(H)) + np.einsum(
                "bABC,bBi,bC->biA", at(gammaN), snap.dF0, snap.H0)),
        }
        for key, (got, want) in pairs.items():
            assert got.shape == want.shape, (name, key)
            rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))
            worst[key] = max(worst.get(key, 0.0), rel)
            assert rel <= 1e-12, (name, key, rel)
    assert worst.keys() == {"delta_W0", "delta_W", "norm_W2_0", "cos2",
                            "lap_norm_W2", "W_sharp", "H0", "nablaH"}
