"""Text format for immersion definitions (.imm files) and its evaluator.

Grammar (whitespace and ``#`` line comments are insignificant)::

    file    := "n" "=" INT ";" "ambient" "=" ambient ";" ["periodic" ";"]
               "map" "=" "[" expr { "," expr } "]"
    ambient := "flat" | "space_form" "(" REAL ")"
    expr    := term { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := base [ "^" INT ]
    base    := REAL | VAR | FUNC "(" expr ")" | "(" expr ")" | "-" base
    VAR     := "u" INT              (u1 .. u_{2n})
    FUNC    := sin cos sinh cosh exp log sqrt atan

Tokens are ASCII: INT is [0-9]+, REAL adds a fraction and an exponent
[eE][+-]?[0-9]+ and must be a finite float, and a name is
[A-Za-z_][A-Za-z0-9_]*; any other character is a positioned error.

Components are listed in the interleaved chart convention
(x^1, y^1, x^2, y^2, ...), so an ``n``-spec, n in 1..4, has exactly ``4n``
components in the variables u1..u_{2n}.  The parser checks all of it: a
wrong ``n``, arity or name is a positioned error like a syntax error.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientSpec, flat_space, space_form
from .errors import ImmersionSyntaxError, UsageError
from .jets import MAX_DIM, Jet, jet_seed_all, jet_unary, jstack

# the functions of the grammar and the plain float evaluator's tables
_FLOAT_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh,
                    "cosh": np.cosh, "exp": np.exp, "log": np.log,
                    "sqrt": np.sqrt, "atan": np.arctan}
FUNCTIONS = tuple(_FLOAT_FUNCTIONS)
_FLOAT_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_JET_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}

__all__ = [
    "Expr", "Num", "Var", "Unary", "Bin", "Pow",
    "ImmersionSpec", "parse_immersion", "parse_ambient",
    "eval_components", "eval_components_floats",
]


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, as written: u<index>


@dataclass(frozen=True)
class Unary(Expr):
    fn: str  # one of FUNCTIONS, or "neg"
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class ImmersionSpec:
    """A parsed immersion definition F: R^{2n} -> chart of the ambient;
    ``parse_immersion`` is the one check of its n, arity and names."""

    n: int
    ambient: AmbientSpec
    components: tuple
    name: str = ""
    periodic: bool = False

    @property
    def domain_dim(self):
        return 2 * self.n

    @property
    def ambient_dim(self):
        return 4 * self.n


# ---------------------------------------------------------------------------
# tokenizer

# one alternative per token kind, in ASCII classes only; the catch-all
# last alternative makes every other character a positioned error
_TOKEN = re.compile(r"""
    (?P<NUM> (?: [0-9]+ (?:\.[0-9]*)? | \.[0-9]+ ) (?: [eE][+-]?[0-9]+ )? )
  | (?P<IDENT> [A-Za-z_][A-Za-z0-9_]* )
  | (?P<SYMBOL> [=;,\[\]()+\-*/^] )
  | (?P<NEWLINE> \n )
  | (?P<BLANK> [ \t\r]+ | \#[^\n]* )
  | (?P<BAD> . )
""", re.VERBOSE)
_VAR = re.compile(r"u[0-9]+")


@dataclass
class _Token:
    kind: str   # NUM, IDENT, EOF, or the symbol itself
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "BAD":
            raise ImmersionSyntaxError(
                f"unexpected character {m.group()!r}", line, col)
        elif kind != "BLANK":
            kind = m.group() if kind == "SYMBOL" else kind
            tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message, expected=()):
        tok = self.peek()
        raise ImmersionSyntaxError(message, tok.line, tok.col, expected)

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            self.fail(f"found {found!r}", expected=(what or kind,))
        return self.advance()

    def expect_keyword(self, word):
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            found = tok.text or "end of input"
            self.fail(f"found {found!r}", expected=(word,))
        return self.advance()

    def parse_int(self, what, low=0, high=float("inf")):
        tok = self.expect("NUM", what)
        try:
            value = int(tok.text)    # a literal with "." or "e" is no INT
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise ImmersionSyntaxError(
                f"found {tok.text!r}", tok.line, tok.col, (what,))
        return value

    def parse_real(self):
        sign = 1.0
        if self.peek().kind == "-":
            self.advance()
            sign = -1.0
        return sign * float(self.expect("NUM", "real number").text)

    # -- grammar --------------------------------------------------

    def parse_file(self, name=""):
        self.expect_keyword("n")
        self.expect("=")
        n = self.parse_int(f"integer in 1..{MAX_DIM // 2}", 1, MAX_DIM // 2)
        self.expect(";")
        self.expect_keyword("ambient")
        self.expect("=")
        amb = self.parse_ambient(n)
        self.expect(";")
        periodic = False
        if self.peek().kind == "IDENT" and self.peek().text == "periodic":
            self.advance()
            self.expect(";")
            periodic = True
        self.expect_keyword("map")
        self.expect("=")
        self.expect("[")
        comps = [self.parse_expr(n)]
        while self.peek().kind == ",":
            self.advance()
            comps.append(self.parse_expr(n))
        if self.peek().kind == "]" and len(comps) != 4 * n:
            self.fail(f"found {len(comps)} map components",
                      (f"{4 * n} map components",))
        self.expect("]")
        self.expect("EOF", "end of input")
        return ImmersionSpec(n, amb, tuple(comps), name, periodic)

    def parse_ambient(self, n):
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"found {tok.text or 'end of input'!r}",
                      expected=("flat", "space_form"))
        if tok.text == "flat":
            self.advance()
            return flat_space(2 * n)
        if tok.text == "space_form":
            self.advance()
            self.expect("(")
            rho = self.parse_real()
            self.expect(")")
            if rho == 0.0 or not np.isfinite(rho):
                raise ImmersionSyntaxError(
                    "space_form curvature parameter must be finite and "
                    "nonzero", tok.line, tok.col, ("finite nonzero real",),
                )
            return space_form(rho, 2 * n)
        self.fail(f"found {tok.text!r}", expected=("flat", "space_form"))

    def parse_expr(self, n):
        left = self.parse_term(n)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_term(n)
            left = Bin(op, left, right)
        return left

    def parse_term(self, n):
        left = self.parse_factor(n)
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            right = self.parse_factor(n)
            left = Bin(op, left, right)
        return left

    def parse_factor(self, n):
        base = self.parse_base(n)
        if self.peek().kind == "^":
            self.advance()
            return Pow(base, self.parse_int("non-negative integer exponent"))
        return base

    def parse_base(self, n):
        tok = self.peek()
        if tok.kind == "NUM":
            if not np.isfinite(float(tok.text)):
                self.fail("number overflows a float", ("finite real",))
            return Num(float(self.advance().text))
        if tok.kind == "-":
            self.advance()
            return Unary("neg", self.parse_base(n))
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr(n)
            self.expect(")")
            return inner
        if tok.kind == "IDENT":
            name = tok.text
            if name in FUNCTIONS:
                self.advance()
                self.expect("(")
                arg = self.parse_expr(n)
                self.expect(")")
                return Unary(name, arg)
            if _VAR.fullmatch(name) and 1 <= int(name[1:]) <= 2 * n:
                self.advance()
                return Var(int(name[1:]))
            self.fail(f"unknown function or variable {name!r}",
                      (f"u1..u{2 * n}",) + FUNCTIONS)
        self.fail(f"found {tok.text or 'end of input'!r}",
                  expected=("number", "variable", "function", "(", "-"))


def parse_immersion(text, name=""):
    """Parse an immersion definition; raises positioned diagnostics."""
    return _Parser(text).parse_file(name=name)


def parse_ambient(text, n):
    """Parse the ``ambient`` rule alone, for an immersion of dimension n."""
    parser = _Parser(text)
    amb = parser.parse_ambient(n)
    parser.expect("EOF", "end of input")
    return amb


# ---------------------------------------------------------------------------
# evaluation


def _eval_expr(e, seeds):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return seeds[e.index - 1]
    if isinstance(e, Unary):
        arg = _eval_expr(e.arg, seeds)
        if e.fn == "neg":
            return -arg
        if not isinstance(arg, Jet):
            arg = Jet.constant(seeds[0].dim, seeds[0].order,
                               np.broadcast_to(arg, seeds[0].shape))
        return jet_unary(arg, e.fn)
    if isinstance(e, Bin):
        return _JET_OPS[e.op](_eval_expr(e.left, seeds),
                              _eval_expr(e.right, seeds))
    if isinstance(e, Pow):
        base = _eval_expr(e.base, seeds)
        if not isinstance(base, Jet):
            return float(base) ** e.exponent
        return base.powi(e.exponent)
    raise UsageError(f"not an expression node: {e!r}")


def eval_components(spec, point, order=3):
    """Evaluate all 4n component expressions over jets seeded at ``point``.

    point: array (..., 2n).  Returns a Jet with leading axes (4n, ...).
    """
    point = np.atleast_2d(np.asarray(point, dtype=float))
    if point.shape[-1] != spec.domain_dim:
        raise UsageError(
            f"point has {point.shape[-1]} coordinates, expected {spec.domain_dim}"
        )
    seeds = jet_seed_all(spec.domain_dim, order, point)
    comps = []
    for k, comp in enumerate(spec.components):
        try:
            # a coefficient that overflows or is singular stays inf or NaN:
            # the snapshot's finite gate reports its point
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                val = _eval_expr(comp, seeds)
        except ZeroDivisionError as exc:
            raise UsageError(f"component {k + 1} failed to evaluate: {exc}") from exc
        except OverflowError as exc:
            raise UsageError(
                f"component {k + 1} failed to evaluate: a constant "
                f"subexpression overflows a float") from exc
        if not isinstance(val, Jet):
            val = Jet.constant(spec.domain_dim, order,
                               np.broadcast_to(np.asarray(val, dtype=float),
                                               point.shape[:-1]))
        comps.append(val)
    return jstack(comps)


def _eval_floats(e, coords):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return coords[e.index - 1]
    if isinstance(e, Unary):
        arg = _eval_floats(e.arg, coords)
        if e.fn == "neg":
            return -arg
        return _FLOAT_FUNCTIONS[e.fn](arg)
    if isinstance(e, Bin):
        return _FLOAT_OPS[e.op](_eval_floats(e.left, coords),
                                _eval_floats(e.right, coords))
    if isinstance(e, Pow):
        return _eval_floats(e.base, coords) ** e.exponent
    raise UsageError(f"not an expression node: {e!r}")


def eval_components_floats(spec, point):
    """Plain float evaluation of F (no jets); point (..., 2n) -> (..., 4n)."""
    point = np.asarray(point, dtype=float)
    coords = [point[..., v] for v in range(spec.domain_dim)]
    vals = [np.broadcast_to(_eval_floats(c, coords), point.shape[:-1])
            for c in spec.components]
    return np.stack(vals, axis=-1)
