"""Parser and evaluation tests, including the fuzz property."""

import functools

import numpy as np
import pytest

from conftest import all_multi_indices, central_diff
from exprgen import random_expr
from kangle.dsl import (
    Bin,
    Num,
    Pow,
    Unary,
    Var,
    eval_components,
    eval_components_floats,
    parse_immersion,
)
from kangle.errors import ImmersionSyntaxError, UsageError

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


# texts with one character or literal that is no token of the grammar, and
# its line and column: superscript, Arabic-Indic and fullwidth digits, the
# minus sign U+2212, and a literal whose float overflows
BAD_TOKENS = {
    "superscript": ("n=1; ambient=flat; map=[u1, u2, \u00b2, 0]", 1, 33),
    "superscript-curvature": (
        "n=1; ambient=space_form(\u00b2); map=[u1, u2, 0, 0]", 1, 25),
    "superscript-variable": (
        "n=1; ambient=flat;\nmap=[u1, u2, u\u00b2, 0]", 2, 15),
    "arabic-indic-variable": (
        "n=1; ambient=flat; map=[u\u0661, u2, 0, 0]", 1, 26),
    "arabic-indic": ("n=1; ambient=flat; map=[u1, u2, \u0663, 0]", 1, 33),
    "fullwidth": ("n=1; ambient=flat; map=[u1, u2, \uff11, 0]", 1, 33),
    "minus-sign": ("n=1; ambient=flat; map=[u1, u2, \u2212u1, 0]", 1, 33),
    "overflowing-literal": (
        "n=1; ambient=flat; map=[u1, u2, " + "9" * 400 + ", 0]", 1, 33),
}


@pytest.mark.parametrize("text, line, column", BAD_TOKENS.values(),
                         ids=BAD_TOKENS)
def test_a_character_outside_the_grammar_is_positioned(text, line, column):
    with pytest.raises(ImmersionSyntaxError) as err:
        parse_immersion(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_end_of_input_after_a_comment_is_at_the_end():
    for head in ("", "# header\n", "\n\n"):
        text = head + "n=1; ambient=flat; map=[u1, u2, 0, 0  # no ]"
        with pytest.raises(ImmersionSyntaxError) as err:
            parse_immersion(text)
        last = text.split("\n")[-1]
        assert (err.value.line, err.value.column) == (
            text.count("\n") + 1, len(last) + 1), head
        assert "]" in err.value.expected


def test_arity_error():
    """A wrong count of components is reported at the closing bracket."""
    with pytest.raises(ImmersionSyntaxError) as err:
        parse_immersion("n=2; ambient=flat; map=[u1,u2,u3]")
    assert (err.value.line, err.value.column) == (1, 33)
    assert err.value.expected == ("8 map components",)
    assert str(err.value).startswith("found 3 map components at line 1")


def test_unknown_variable_and_function():
    """An unknown name or an out-of-range uK is reported at its token."""
    names = ("u1..u2", "sin", "cos", "sinh", "cosh", "exp", "log", "sqrt",
             "atan")
    for name, column, text in (
            ("u5", 25, "n=1; ambient=flat; map=[u5, u2, u1, u2]"),
            ("u3", 39, "n=1; ambient=flat; map=[u1, u2, u1, 2*u3]"),
            ("tan", 25, "n=1; ambient=flat; map=[tan(u1), u2, u1, u2]")):
        with pytest.raises(ImmersionSyntaxError) as err:
            parse_immersion(text)
        assert (err.value.line, err.value.column) == (1, column), text
        assert err.value.expected == names
        assert repr(name) in str(err.value)


@pytest.mark.parametrize("n, ok", [(0, False), (1, True), (4, True),
                                   (5, False), (99, False)])
def test_n_is_in_one_to_four(n, ok):
    comps = ", ".join(["u1"] * 4 * n) or "u1"
    text = f"n={n}; ambient=flat; map=[{comps}]"
    if ok:
        assert parse_immersion(text).n == n
        return
    with pytest.raises(ImmersionSyntaxError) as err:
        parse_immersion(text)
    assert (err.value.line, err.value.column) == (1, 3)
    assert err.value.expected == ("integer in 1..4",)


def test_an_overflowing_constant_power_names_its_component():
    """10^400 overflows a Python float before any jet is formed: the
    error names the component and the cause, not an errno tuple."""
    spec = parse_immersion("n=1; ambient=flat; map=[u1, u2, 10^400, 0]")
    with pytest.raises(UsageError) as err:
        eval_components(spec, np.zeros((1, 2)))
    assert str(err.value) == ("component 3 failed to evaluate: a constant "
                              "subexpression overflows a float")


def test_the_float_evaluator_names_an_overflowing_component():
    """The float evaluator of the oracles reports 10^400 as the jet
    evaluator does, with the same UsageError."""
    spec = parse_immersion("n=1; ambient=flat; map=[u1, u2, 10^400, 0]")
    with pytest.raises(UsageError) as err:
        eval_components_floats(spec, np.zeros((1, 2)))
    assert str(err.value) == ("component 3 failed to evaluate: a constant "
                              "subexpression overflows a float")


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
    with pytest.raises(ImmersionSyntaxError) as info:
        parse_immersion("n=1; ambient=flat; map=[u1^-2, u2, u1, u2]")
    assert info.value.column == 28
    assert info.value.expected == ("non-negative integer exponent",)


@pytest.mark.parametrize("text, tree", [
    ("u1 - u2 - 1", Bin("-", Bin("-", Var(1), Var(2)), Num(1.0))),
    ("u1 - (u2 - 1)", Bin("-", Var(1), Bin("-", Var(2), Num(1.0)))),
    ("u1 / u2 * 2", Bin("*", Bin("/", Var(1), Var(2)), Num(2.0))),
    ("u1 + u2 * u1", Bin("+", Var(1), Bin("*", Var(2), Var(1)))),
    ("(u1 + u2)^2", Pow(Bin("+", Var(1), Var(2)), 2)),
    ("sin(u1)^2", Pow(Unary("sin", Var(1)), 2)),
    ("--u1", Unary("neg", Unary("neg", Var(1)))),
    ("2.5e-1*u1", Bin("*", Num(0.25), Var(1))),
])
def test_precedence_and_associativity(text, tree):
    spec = parse_immersion(f"n=1; ambient=flat; map=[{text}, 0, 0, 0]")
    assert spec.components[0] == tree


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


PIECES = ["n", "=", ";", "ambient", "flat", "space_form", "map", "[", "]",
          "(", ")", ",", "+", "-", "*", "/", "^", "u1", "u2", "sin", "cos",
          "1", "2.5", "#", "\n", "periodic", "u", "foo", " "]


def _random_text(rng):
    if rng.random() < 0.2:
        length = int(rng.integers(0, 60))
        return "".join(chr(rng.integers(1, 128)) for _ in range(length))
    length = int(rng.integers(0, 40))
    return "".join(PIECES[i] for i in rng.integers(len(PIECES), size=length))


def _parse_or_positioned(text):
    """Parse ``text``; the only failure allowed is a positioned
    ImmersionSyntaxError."""
    try:
        parse_immersion(text)
    except ImmersionSyntaxError as exc:
        assert exc.line >= 1 and exc.column >= 1, (text, exc)


@functools.cache
def check_parser_fuzz():
    """100000 fuzz inputs: every failure is a positioned diagnostic."""
    rng = np.random.default_rng(99)
    for _ in range(100_000):
        _parse_or_positioned(_random_text(rng))


def test_parser_fuzz_never_crashes():
    check_parser_fuzz()


def test_non_ascii_fuzz_raises_only_kangle_errors():
    """5000 texts of the fuzz pieces and the characters of BAD_TOKENS, half
    of them after a valid head, so that they also reach the map."""
    pieces = PIECES + ["\u00b2", "\u0661", "\u0663", "\uff11", "\u2212",
                       "9" * 400]
    rng = np.random.default_rng(314)
    for _ in range(5000):
        head = "n=1; ambient=flat; map=[" if rng.random() < 0.5 else ""
        picks = rng.integers(len(pieces), size=int(rng.integers(0, 40)))
        _parse_or_positioned(head + "".join(pieces[k] for k in picks))
