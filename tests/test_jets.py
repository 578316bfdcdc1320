"""Jet arithmetic against finite differences and ring axioms."""

import tracemalloc

import numpy as np
import pytest

from conftest import all_multi_indices, central_diff
from kangle.calculus import jstack, partials
from kangle.errors import DomainError, UsageError
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


def test_zero_division_gives_non_finite_coefficients():
    x = jet_seed(1, 2, [0.0], 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (1.0 + x) / x
    assert not np.any(np.isfinite(q.coeffs))


def test_dim_mismatch_raises():
    a = jet_seed(1, 2, [0.0], 0)
    b = jet_seed(2, 2, [0.0, 0.0], 0)
    for op in (lambda x, y: x + y, lambda x, y: x * y,
               lambda x, y: jet_einsum("...,...->...", x, y)):
        with pytest.raises(UsageError, match="dim mismatch"):
            op(a, b)
        with pytest.raises(UsageError, match="dim mismatch"):
            op(b.truncated(1), a)


def test_mixed_orders_meet_at_the_lower_order():
    """A sum or product of jets of orders 3 and 1 is the same operation on
    both operands truncated to order 1, bit for bit, in either order."""
    rng = np.random.default_rng(3)
    deep = Jet(4, 3, rng.normal(size=(2, 5, num_coeffs(4, 3))))
    low = Jet(4, 1, rng.normal(size=(2, 5, num_coeffs(4, 1))))
    ops = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        "*": lambda x, y: x * y,
        "jet_einsum": lambda x, y: jet_einsum("ib...,jb...->ijb...", x, y),
    }
    for name, op in ops.items():
        for x, y in ((deep, low), (low, deep)):
            got = op(x, y)
            want = op(x.truncated(1), y.truncated(1))
            assert (got.dim, got.order) == (4, 1), (name, x.order)
            assert np.array_equal(got.coeffs, want.coeffs), (name, x.order)


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
        # the product sums each slot's pairs in the naive order, ascending
        # in the left multi-index, so it rounds exactly as the naive sum
        for x, y in ((a, b), (a, row), (col, a), (col, row)):
            got = (Jet(dim, order, x) * Jet(dim, order, y)).coeffs
            assert np.array_equal(got, _naive_product(dim, order, x, y)), \
                (order, x.shape, y.shape)
        # the rounding of a sum of at most 2^order products of normals
        tol = 1e-13 * (1.0 + np.max(np.abs(want)))
        for spec, x, y in (("bi,i->bi", a, row), ("bi,bi->bi", col, a)):
            got = jet_einsum(spec, Jet(dim, order, x), Jet(dim, order, y))
            assert np.allclose(got.coeffs, _naive_product(dim, order, x, y),
                               rtol=0.0, atol=tol), (order, spec)
        # a contraction: sum over the shared axis i of pairwise products
        got = jet_einsum("bi,ci->bc", Jet(dim, order, a),
                         Jet(dim, order, b)).coeffs
        want = _naive_product(dim, order, a[:, None], b[None]).sum(axis=2)
        assert np.allclose(got, want, rtol=0.0, atol=3 * tol), order


def _peak_bytes(fn):
    """tracemalloc's peak of traced bytes during fn(), after one warm-up."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_products_allocate_no_pair_length_arrays():
    # gathering both operands once per coefficient pair peaks at 7x and
    # 12.6x the output here; reading them in place leaves about the
    # output plus the temporaries of the largest shift, near 2x
    rng = np.random.default_rng(5)
    a, b = (Jet(2, 3, rng.normal(size=(4096, num_coeffs(2, 3))))
            for _ in range(2))
    out = (a * b).coeffs.nbytes
    assert _peak_bytes(lambda: a * b) < 3 * out
    a, b = (Jet(2, 2, rng.normal(size=(4, 2, 4096, num_coeffs(2, 2))))
            for _ in range(2))
    spec = "Ai...,Aj...->ij..."
    out = jet_einsum(spec, a, b).coeffs.nbytes
    assert _peak_bytes(lambda: jet_einsum(spec, a, b)) < 3 * out


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


def test_unary_outside_its_domain_gives_non_finite_coefficients():
    with np.errstate(divide="ignore", invalid="ignore"):
        log = jet_unary(jet_seed(1, 2, [-2.0], 0), "log")
        sqrt = jet_unary(jet_seed(1, 2, [0.0], 0), "sqrt")
    assert np.isnan(log.value())
    assert not np.any(np.isfinite(sqrt.coeffs))


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
    df = partials(f)[0]
    # d/du sin(uv + 0.2u) = (v + 0.2) cos(uv + 0.2u)
    want = (v.truncated(2) + 0.2) * jet_unary((u * v + 0.2 * u).truncated(2), "cos")
    assert np.max(np.abs(df.coeffs - want.coeffs)) < 1e-14


def test_powi():
    x = jet_seed(1, 4, [1.2], 0)
    assert np.allclose(x.powi(0).coeffs, [1, 0, 0, 0, 0])
    assert np.max(np.abs((x.powi(3) - x * x * x).coeffs)) < 1e-13
    with pytest.raises(DomainError):
        x.powi(-1)



# ------------------------------------------------------- memory layouts

LAYOUTS = ("C", "F", "coefficient_major", "sliced")


def _coefficient_major(c):
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(c, -1, 0)), 0, -1)


def _laid_out(c, layout):
    """The array c (..., K) in a memory layout."""
    if layout == "C":
        return np.ascontiguousarray(c)
    if layout == "F":
        return np.asfortranarray(c)
    if layout == "coefficient_major":
        return _coefficient_major(c)
    # F[A] of a coefficient-major stack: planes with gaps between them
    return _coefficient_major(np.stack([np.zeros_like(c), c]))[1]


def _jet(dim, order, c, layout):
    """A jet holding c in ``layout``, past the copy in Jet.__init__, as a
    kernel input."""
    jet = Jet(dim, order, c)
    jet.coeffs = _laid_out(c, layout)
    return jet


def _is_coefficient_major(jet):
    return np.moveaxis(jet.coeffs, -1, 0).flags.c_contiguous


def _naive_reciprocal(dim, order, a):
    inv = 1.0 / a[..., 0]
    u = a.copy()
    u[..., 0] = 0.0
    acc = np.zeros_like(a)
    acc[..., 0] = inv * (-inv) ** order
    for k in range(order - 1, -1, -1):
        acc = _naive_product(dim, order, acc, u)
        acc[..., 0] += inv * (-inv) ** k
    return acc


def _naive_derivative(dim, order, a, var):
    exps = multi_indices(dim, order)
    slot = {alpha: k for k, alpha in enumerate(exps)}
    child = multi_indices(dim, order - 1)
    out = np.zeros(a.shape[:-1] + (len(child),))
    for k, beta in enumerate(child):
        up = tuple(b + (i == var) for i, b in enumerate(beta))
        out[..., k] = up[var] * a[..., slot[up]]
    return out


def _naive_einsum(dim, order, spec, a, b):
    """Binary einsum over truncated products, one pair of slots at a time."""
    exps = multi_indices(dim, order)
    slot = {alpha: k for k, alpha in enumerate(exps)}
    out = [0.0] * len(exps)
    for i, alpha in enumerate(exps):
        for j, beta in enumerate(exps):
            if sum(alpha) + sum(beta) <= order:
                k = slot[tuple(x + y for x, y in zip(alpha, beta))]
                out[k] = out[k] + np.einsum(spec, a[..., i], b[..., j])
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_partials_is_every_naive_derivative(layout):
    """partials, one gather, stacks the derivative in every variable, bit
    for bit, for every dim and order and with leading axes."""
    rng = np.random.default_rng(23)
    for dim in range(1, 9):
        for order in range(1, 5):
            a = rng.uniform(-1.0, 1.0, (2, 3, num_coeffs(dim, order)))
            got = partials(_jet(dim, order, a, layout))
            want = np.stack([_naive_derivative(dim, order, a, v)
                             for v in range(dim)])
            assert (got.dim, got.order) == (dim, order - 1)
            assert _is_coefficient_major(got), (dim, order)
            assert np.array_equal(got.coeffs, want), (dim, order)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_kernels_take_any_layout_and_emit_coefficient_major(layout):
    dim, order = 3, 3
    K = num_coeffs(dim, order)
    rng = np.random.default_rng(17)
    a = rng.uniform(-0.5, 0.5, (4, 5, K))
    a[..., 0] += 2.0
    b = rng.uniform(-0.5, 0.5, (4, 5, K))
    m = rng.uniform(-1.0, 1.0, (4, 4))
    # the second operand in another layout, so mixed pairs occur too
    other = LAYOUTS[(LAYOUTS.index(layout) + 1) % len(LAYOUTS)]
    A, B = _jet(dim, order, a, layout), _jet(dim, order, b, other)
    # x[None, :] * c in the ambient metric jet of tests/conftest.py: a
    # (1, m, b) jet times an (m, b) one
    A1 = _jet(dim, order, a[None], layout)
    c = b[0]
    C = _jet(dim, order, c, other)
    cases = [
        (A * B, _naive_product(dim, order, a, b)),
        (A1 * B, _naive_product(dim, order, a[None], b)),
        (B * A1, _naive_product(dim, order, b, a[None])),
        (A.reciprocal(), _naive_reciprocal(dim, order, a)),
        (partials(A)[1], _naive_derivative(dim, order, a, 1)),
        (A.take_batch([4, 0, 2]), a[..., [4, 0, 2], :]),
        (jstack([A, B, A]), np.stack([a, b, a])),
        (jet_einsum("ib,jb->ijb", A, B),
         _naive_einsum(dim, order, "ib,jb->ijb", a, b)),
        (jet_einsum("i...,...->i...", A, C),
         _naive_einsum(dim, order, "ib,b->ib", a, c)),
        (jet_einsum("ik,kb->ib", _laid_out(m, layout), A),
         np.einsum("ik,kbZ->ibZ", m, a)),
        (jet_einsum("kb,ki->ib", A, _laid_out(m.T, layout)),
         np.einsum("kbZ,ki->ibZ", a, m.T)),
    ]
    for n, (got, want) in enumerate(cases):
        assert _is_coefficient_major(got), n
        assert got.coeffs.shape == want.shape, n
        err = np.max(np.abs(got.coeffs - want)) / np.max(np.abs(want))
        assert err <= 1e-15, (n, err)
