"""Parser, printer and evaluation tests, including the fuzz property."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_multi_indices, central_diff
from exprgen import random_expr
from kangle.catalog import builtin_catalog
from kangle.dsl import (
    Bin,
    ImmersionSpec,
    Num,
    Pow,
    Unary,
    Var,
    eval_components,
    eval_components_floats,
    parse_immersion,
    print_immersion,
)
from kangle.errors import (
    ArityError,
    ImmersionSyntaxError,
    KangleError,
    SpecNameError,
)

LINEAR_A1 = "n=1; ambient=flat; map=[u1, u2, -u2, u1]"


def test_parse_linear_graph():
    spec = parse_immersion(LINEAR_A1)
    assert spec.n == 1
    assert len(spec.components) == 4
    assert spec.ambient.is_flat
    assert not spec.periodic


def test_missing_bracket_is_positioned():
    with pytest.raises(ImmersionSyntaxError) as err:
        parse_immersion("n=1; ambient=flat; map=[u1, u2, u1, u2")
    assert err.value.line == 1
    assert err.value.column == 39
    assert "]" in err.value.expected


def test_non_finite_space_form_curvature_is_positioned():
    for rho in ("0", "1e400", "-1e400"):
        with pytest.raises(ImmersionSyntaxError) as err:
            parse_immersion(f"n=1; ambient=space_form({rho}); "
                            "map=[u1, u2, 0, 0]")
        assert (err.value.line, err.value.column) == (1, 14), rho
        assert "finite nonzero real" in err.value.expected


def test_arity_error():
    with pytest.raises(ArityError) as err:
        parse_immersion("n=2; ambient=flat; map=[u1,u2,u3]")
    assert "8" in str(err.value)
    assert "3" in str(err.value)


def test_unknown_variable_and_function():
    with pytest.raises(SpecNameError) as err:
        parse_immersion("n=1; ambient=flat; map=[u5, u2, u1, u2]")
    assert "u5" in str(err.value)
    with pytest.raises(SpecNameError):
        parse_immersion("n=1; ambient=flat; map=[tan(u1), u2, u1, u2]")


def test_periodic_and_space_form_and_comments():
    text = """# a comment
    n=1; ambient=space_form(-0.5); periodic;
    map=[0.1*u1, u2, 0, 0]  # trailing comment
    """
    spec = parse_immersion(text)
    assert spec.periodic
    assert spec.ambient.rho == -0.5
    assert spec.ambient.complex_dim == 2


def test_power_binds_through_unary_minus():
    # grammar: base := "-" base, factor := base ["^" INT]
    spec = parse_immersion("n=1; ambient=flat; map=[-u1^2, u2, u1, u2]")
    comp = spec.components[0]
    assert isinstance(comp, Pow)
    assert isinstance(comp.base, Unary) and comp.base.fn == "neg"


def test_negative_exponent_rejected():
    with pytest.raises(ImmersionSyntaxError):
        parse_immersion("n=1; ambient=flat; map=[u1^-2, u2, u1, u2]")


def test_roundtrip_catalog():
    for entry in builtin_catalog():
        spec = entry.spec()
        text = print_immersion(spec)
        again = parse_immersion(text, name=entry.name)
        assert again == spec, entry.name
        assert print_immersion(again) == text


def test_roundtrip_idempotent():
    spec = parse_immersion(LINEAR_A1)
    once = print_immersion(spec)
    assert print_immersion(parse_immersion(once)) == once


def test_ds_at_origin_vanishes():
    from kangle.catalog import get_entry
    spec = get_entry("ds_graph").spec()
    F = eval_components(spec, np.zeros((1, 4)), order=0)
    assert np.max(np.abs(F.value())) == 0.0


def test_linear_first_order_jets():
    a = 0.5
    spec = parse_immersion(
        f"n=1; ambient=flat; map=[u1, -({a}*u2), u2, {a}*u1]")
    F = eval_components(spec, np.zeros((1, 2)), order=1)
    dF = np.array([[F[A].extract((1, 0))[0], F[A].extract((0, 1))[0]]
                   for A in range(4)])
    want = np.array([[1, 0], [0, -a], [0, 1], [a, 0]], dtype=float)
    assert np.allclose(dF, want)


def test_eval_first_order_against_fd():
    from kangle.catalog import get_entry
    spec = get_entry("ds_graph").spec()
    pts = np.random.default_rng(0).uniform(-1, 1, (3, 4))
    F = eval_components(spec, pts, order=1)
    for b, p in enumerate(pts):
        for v in range(4):
            alpha = tuple(int(i == v) for i in range(4))
            for A in range(8):
                fd = central_diff(
                    lambda x, A=A: eval_components_floats(spec, x[None])[0, A],
                    p, alpha)
                assert abs(F[A].extract(alpha)[b] - fd) < 1e-8


def test_eval_deterministic():
    from kangle.catalog import get_entry
    spec = get_entry("trig_flat_2d").spec()
    pts = np.random.default_rng(5).uniform(0, 6, (10, 2))
    c1 = eval_components(spec, pts, order=3).coeffs
    c2 = eval_components(spec, pts, order=3).coeffs
    assert np.array_equal(c1, c2)


# The two checks below are also acceptance criterion 10. Each body is cached,
# so a session that collects both runs it once; a failure is not cached and
# fails both tests.


@functools.cache
def check_jets_match_fd():
    """1000 random expression/point derivative checks vs finite differences.

    The oracle runs in high-precision arithmetic so it is truncation-limited
    rather than roundoff-limited; the jets must agree to relative 1e-6."""
    from conftest import mp_central_diff
    from kangle.dsl import _eval_expr
    from kangle.jets import jet_seed_all

    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        n_vars = int(rng.integers(1, 5))
        expr = random_expr(rng, n_vars, depth=int(rng.integers(2, 7)))
        point = rng.uniform(-1.0, 1.0, n_vars)
        seeds = jet_seed_all(n_vars, 3, point[None])
        val = _eval_expr(expr, seeds)
        if not hasattr(val, "extract"):
            continue
        for alpha in all_multi_indices(n_vars, 3):
            got = val.extract(alpha)[0]
            fd = mp_central_diff(expr, point, alpha)
            scale = max(abs(got), abs(fd), 1.0)
            assert abs(got - fd) <= 1e-6 * scale, (expr, alpha, got, fd)
            checked += 1
    assert checked >= 1000


def test_jets_match_fd_on_random_expressions():
    check_jets_match_fd()


def _random_text(rng):
    pieces = ["n", "=", ";", "ambient", "flat", "space_form", "map", "[", "]",
              "(", ")", ",", "+", "-", "*", "/", "^", "u1", "u2", "sin",
              "cos", "1", "2.5", "#", "\n", "periodic", "u", "foo", " "]
    if rng.random() < 0.2:
        length = int(rng.integers(0, 60))
        return "".join(chr(rng.integers(1, 128)) for _ in range(length))
    length = int(rng.integers(0, 40))
    return "".join(rng.choice(pieces) for _ in range(length))


@functools.cache
def check_parser_fuzz():
    """100000 fuzz inputs: every failure is a positioned diagnostic."""
    rng = np.random.default_rng(99)
    for _ in range(100_000):
        text = _random_text(rng)
        try:
            parse_immersion(text)
        except ImmersionSyntaxError as exc:
            assert exc.line >= 1 and exc.column >= 1
        except KangleError:
            pass


def test_parser_fuzz_never_crashes():
    check_parser_fuzz()


@st.composite
def expr_trees(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return random_expr(rng, 2, depth=draw(st.integers(0, 5)))


@given(expr_trees())
@settings(max_examples=200, deadline=None)
def test_printer_roundtrip_property(expr):
    from kangle.ambient import flat_space
    spec = ImmersionSpec(1, flat_space(2), (expr, Num(0.0), Num(0.0), Num(0.0)))
    text = print_immersion(spec)
    again = parse_immersion(text)
    assert again.components[0] == expr
