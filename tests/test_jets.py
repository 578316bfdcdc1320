"""Jet arithmetic against finite differences and ring axioms."""

import numpy as np
import pytest

from conftest import all_multi_indices, central_diff
from kangle.errors import DomainError, SingularityError, UsageError
from kangle.jets import (
    Jet,
    jet_einsum,
    jet_seed,
    jet_seed_all,
    jet_unary,
    multi_indices,
    num_coeffs,
)


def test_seed_examples():
    j = jet_seed(2, 2, [3.0, 5.0], 0)
    want = np.zeros(num_coeffs(2, 2))
    want[0] = 3.0
    # graded-lex order puts (0,1) before (1,0)
    assert j.coeffs[2] == 1.0
    assert j.value() == 3.0
    assert np.sum(np.abs(j.coeffs)) == 4.0

    j = jet_seed(1, 3, [0.0], 0)
    assert np.allclose(j.coeffs, [0.0, 1.0, 0.0, 0.0])

    j = jet_seed(4, 3, [0.1, 0.2, 0.3, 0.4], 3)
    assert j.value() == 0.4
    assert j.extract((0, 0, 0, 1)) == 1.0


def test_seed_out_of_range():
    with pytest.raises(DomainError):
        jet_seed(2, 2, [0.0, 0.0], 2)


def test_square_of_coordinate():
    x = jet_seed(1, 2, [2.0], 0)
    sq = x * x
    assert np.allclose(sq.coeffs, [4.0, 4.0, 1.0])


def test_division_identity():
    u = jet_seed_all(2, 3, [0.3, 0.7])
    a = (1.5 + u[0] * u[1]) * jet_unary(u[0], "exp")
    one = a / a
    want = np.zeros(one.coeffs.shape[-1])
    want[0] = 1.0
    assert np.max(np.abs(one.coeffs - want)) < 1e-15


def test_zero_division_raises():
    x = jet_seed(1, 2, [0.0], 0)
    with pytest.raises(SingularityError):
        (1.0 + x) / x


def test_dim_mismatch_raises():
    a = jet_seed(1, 2, [0.0], 0)
    b = jet_seed(2, 2, [0.0, 0.0], 0)
    with pytest.raises(UsageError):
        a + b


def _naive_product(dim, order, a, b):
    """Truncated Cauchy product summed over pairs of multi-indices."""
    exps = multi_indices(dim, order)
    slot = {alpha: k for k, alpha in enumerate(exps)}
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i, alpha in enumerate(exps):
        for j, beta in enumerate(exps):
            if sum(alpha) + sum(beta) <= order:
                k = slot[tuple(x + y for x, y in zip(alpha, beta))]
                out[..., k] += a[..., i] * b[..., j]
    return out


@pytest.mark.parametrize("dim", range(1, 9))
def test_product_matches_the_naive_cauchy_product(dim):
    rng = np.random.default_rng(dim)
    for order in range(5):
        K = num_coeffs(dim, order)
        a = rng.normal(size=(2, 3, K))
        b = rng.normal(size=(2, 3, K))
        row = rng.normal(size=(3, K))
        col = rng.normal(size=(2, 1, K))
        want = _naive_product(dim, order, a, b)
        # the rounding of a sum of at most 2^order products of normals
        tol = 1e-13 * (1.0 + np.max(np.abs(want)))
        for x, y in ((a, b), (a, row), (col, a), (col, row)):
            got = (Jet(dim, order, x) * Jet(dim, order, y)).coeffs
            assert np.allclose(got, _naive_product(dim, order, x, y),
                               rtol=0.0, atol=tol), (order, x.shape, y.shape)
        got = jet_einsum("bi,i->bi", Jet(dim, order, a),
                         Jet(dim, order, row)).coeffs
        assert np.allclose(got, _naive_product(dim, order, a, row),
                           rtol=0.0, atol=tol), order
        # a contraction: sum over the shared axis i of pairwise products
        got = jet_einsum("bi,ci->bc", Jet(dim, order, a),
                         Jet(dim, order, b)).coeffs
        want = _naive_product(dim, order, a[:, None], b[None]).sum(axis=2)
        assert np.allclose(got, want, rtol=0.0, atol=3 * tol), order


def _mp_central_diff(f, x0, k, h="1e-4"):
    """High-precision central differences (step 1e-4, one Richardson level).

    Runs in 50-digit arithmetic so the oracle is truncation-limited, not
    roundoff-limited.
    """
    import mpmath as mp
    with mp.workdps(50):
        x0 = mp.mpf(x0)

        def nested(g, step):
            def out(x):
                return (g(x + step) - g(x - step)) / (2 * step)
            return out

        def estimate(step):
            g = f
            for _ in range(k):
                g = nested(g, step)
            return g(x0)

        h = mp.mpf(h)
        d1, d2 = estimate(h), estimate(h / 2)
        return float((4 * d2 - d1) / 3)


def test_sin_cos_product_against_fd():
    import mpmath as mp
    u = jet_seed(1, 3, [0.7], 0)
    prod = jet_unary(u, "sin") * jet_unary(u, "cos")
    for k in (1, 2, 3):
        fd = _mp_central_diff(lambda x: mp.sin(x) * mp.cos(x), 0.7, k)
        assert abs(prod.extract((k,)) - fd) < 1e-9


def test_unary_examples():
    z = Jet.constant(1, 3, 0.0)
    assert np.allclose(jet_unary(z, "exp").coeffs, [1, 0, 0, 0])
    x = jet_seed(1, 3, [0.0], 0)
    assert np.allclose(jet_unary(x, "sinh").coeffs, [0, 1, 0, 1.0 / 6.0])

    import mpmath as mp
    u = jet_seed(1, 3, [0.5], 0)
    lg = jet_unary(1.0 + u * u, "log")
    for k in (1, 2, 3):
        fd = _mp_central_diff(lambda x: mp.log(1 + x**2), 0.5, k)
        assert abs(lg.extract((k,)) - fd) < 1e-9


def test_unary_domain_error_carries_value():
    x = jet_seed(1, 2, [-2.0], 0)
    with pytest.raises(SingularityError, match="constant term -2.0"):
        jet_unary(x, "log")


def test_unknown_unary_name_raises_usage_error():
    x = jet_seed(1, 2, [0.5], 0)
    for name in ("pow_int", "tan", "bogus"):
        with pytest.raises(UsageError, match="unknown unary function"):
            jet_unary(x, name)


def test_extract_examples():
    u1, u2 = jet_seed_all(2, 2, [1.3, -0.4])
    assert (u1 * u2).extract((1, 1)) == 1.0
    x = jet_seed(1, 2, [2.0], 0)
    assert (x * x).extract((2,)) == 2.0
    assert (x * x).extract((0,)) == 4.0
    with pytest.raises(UsageError):
        x.extract((3,))


def _random_jets(rng, dim, order, count=1):
    pts = rng.uniform(-1.0, 1.0, (count, dim))
    seeds = jet_seed_all(dim, order, pts)
    out = []
    for _ in range(3):
        a = Jet.constant(dim, order, rng.normal(size=count))
        for s in seeds:
            a = a + s * rng.normal()
        a = a * jet_unary(0.3 * seeds[0], "cos") + \
            jet_unary(1.7 + seeds[-1] * seeds[0], "log")
        out.append(a)
    return out


def test_ring_axioms():
    rng = np.random.default_rng(42)
    for dim, order in ((1, 4), (3, 3), (5, 2)):
        a, b, c = _random_jets(rng, dim, order, count=8)
        assoc = (a * b) * c - a * (b * c)
        assert np.max(np.abs(assoc.coeffs)) < 1e-13
        distr = a * (b + c) - (a * b + a * c)
        assert np.max(np.abs(distr.coeffs)) < 1e-13
        one = Jet.constant(dim, order, np.ones(8))
        assert np.max(np.abs((a * one - a).coeffs)) < 1e-13
        assert np.max(np.abs((a + (-a)).coeffs)) == 0.0


def test_chain_rule_consistency():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 0.9, (6, 2))
    u, v = jet_seed_all(2, 4, pts)
    g = 0.5 + u * u + jet_unary(v, "sin") * 0.3
    # exp(log g) == g,  sqrt(g)^2 == g,  sin^2 + cos^2 == 1
    back = jet_unary(jet_unary(g, "log"), "exp")
    assert np.max(np.abs(back.coeffs - g.coeffs)) < 1e-12
    rt = jet_unary(g, "sqrt")
    assert np.max(np.abs((rt * rt).coeffs - g.coeffs)) < 1e-12
    s, c = jet_unary(g, "sin"), jet_unary(g, "cos")
    ident = s * s + c * c
    want = np.zeros(ident.coeffs.shape[-1])
    want[0] = 1.0
    assert np.max(np.abs(ident.coeffs - want)) < 1e-12
    # log(cosh x + sinh x) == x
    x = jet_seed(1, 4, [0.37], 0)
    lhs = jet_unary(jet_unary(x, "cosh") + jet_unary(x, "sinh"), "log")
    assert np.max(np.abs(lhs.coeffs - x.coeffs)) < 1e-12


def test_derivative_consistency():
    u, v = jet_seed_all(2, 3, [[0.3, 0.8]])
    f = jet_unary(u * v + 0.2 * u, "sin")
    df = f.derivative(0)
    # d/du sin(uv + 0.2u) = (v + 0.2) cos(uv + 0.2u)
    want = (v.truncated(2) + 0.2) * jet_unary((u * v + 0.2 * u).truncated(2), "cos")
    assert np.max(np.abs(df.coeffs - want.coeffs)) < 1e-14


def test_powi():
    x = jet_seed(1, 4, [1.2], 0)
    assert np.allclose(x.powi(0).coeffs, [1, 0, 0, 0, 0])
    assert np.max(np.abs((x.powi(3) - x * x * x).coeffs)) < 1e-13
    with pytest.raises(DomainError):
        x.powi(-1)

