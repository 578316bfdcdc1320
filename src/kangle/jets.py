"""Truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` stores the Taylor coefficients (partial derivative / alpha!) of a
scalar quantity at a base point, for every multi-index alpha of total degree
<= ``order``, in up to 8 variables and to order <= 4.  Coefficients live in a
dense numpy array whose *last* axis runs over multi-indices in graded
lexicographic order; any leading axes broadcast, so a whole field of jets
(e.g. one per sample point, per tensor component) is a single Jet value.

Every derivative used elsewhere in the package is read off from these jets;
there is no symbolic differentiation and no finite differencing outside the
test oracles.

A sum or product of jets of orders p and q is exact to order min(p, q) and
no further, so ``+``, ``-``, ``*`` and ``jet_einsum`` truncate the deeper
operand to the lower order; a caller caps an order by truncating an operand.
The unary functions and the reciprocal sum a Taylor series in the nilpotent
part of a jet by Horner's scheme under the same rule: step j of p is a
product at order j, and only the last is at the jet's own order.

Coefficients are coefficient-major: ``np.moveaxis(coeffs, -1, 0)`` is
C-contiguous, one contiguous plane per Taylor coefficient.  Every producer
emits this layout (``Jet.__init__`` copies any other): the product kernel
reads each operand's planes in place, as plane prefixes, and one einsum
runs 4-6x slower on mixed layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .errors import DomainError, UsageError

MAX_DIM = 8
MAX_ORDER = 4

__all__ = [
    "Jet",
    "jet_seed",
    "jet_unary",
    "jstack",
    "partials",
    "num_coeffs",
    "multi_indices",
]


# ---------------------------------------------------------------------------
# multi-index tables


def multi_indices(dim, order):
    """Multi-indices of total degree <= order, graded-lexicographic."""
    idx = [a for a in product(range(order + 1), repeat=dim) if sum(a) <= order]
    idx.sort(key=lambda a: (sum(a), a))
    return idx


def num_coeffs(dim, order):
    return math.comb(dim + order, order)


@dataclass(frozen=True)
class _Tables:
    dim: int
    order: int
    position: dict              # multi-index -> slot
    shifts: tuple               # (alpha, n_alpha, slots alpha + beta), 0<|alpha|<order
    partials: tuple             # (slot, factor) tables (K', dim) of d/du^v
    factorials: np.ndarray      # alpha! per slot


_TABLE_CACHE: dict = {}


def _tables(dim, order):
    key = (dim, order)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    if not (1 <= dim <= MAX_DIM):
        raise UsageError(f"jet dim must be in 1..{MAX_DIM}, got {dim}")
    if not (0 <= order <= MAX_ORDER):
        raise UsageError(f"jet order must be in 0..{MAX_ORDER}, got {order}")

    exps = multi_indices(dim, order)
    pos = {a: i for i, a in enumerate(exps)}

    # the partners beta != 0 of a left slot alpha, |alpha| + |beta| <= order,
    # are the slots 1 .. n_alpha - 1 with n_alpha = num_coeffs(dim,
    # order - |alpha|): the graded layout makes them a plane prefix
    shifts = []
    for i, a in enumerate(exps):
        if not 0 < sum(a) < order:
            continue
        n = num_coeffs(dim, order - sum(a))
        slots = [pos[tuple(x + y for x, y in zip(a, b))] for b in exps[1:n]]
        shifts.append((i, n, np.asarray(slots, dtype=np.intp)))

    # slot k of d/du^v reads the slot of beta_k + e_v, times beta_k[v] + 1
    up = [[tuple(b + (i == v) for i, b in enumerate(beta)) for v in range(dim)]
          for beta in multi_indices(dim, order - 1)]
    parts = (np.array([[pos[a] for a in row] for row in up],
                      dtype=np.intp).reshape(-1, dim),
             np.array([[a[v] for v, a in enumerate(row)] for row in up],
                      dtype=float).reshape(-1, dim))
    facts = np.array(
        [math.prod(math.factorial(k) for k in a) for a in exps], dtype=float
    )

    tab = _Tables(dim, order, pos, tuple(shifts), parts, facts)
    _TABLE_CACHE[key] = tab
    return tab


def _planes(c, ndim=1):
    """The (K, ...) plane view of coefficients c, with unit axes to ndim."""
    c = c.reshape((1,) * (ndim - c.ndim) + c.shape)
    return c.transpose((-1,) + tuple(range(c.ndim - 1)))


def _coeffs(planes):
    """The (..., K) coefficient view of planes (K, ...)."""
    return planes.transpose(tuple(range(1, planes.ndim)) + (0,))


def _shift_add(tab, a, b, out, scale_b=np.multiply, scale_a=np.multiply):
    """Truncated Cauchy product of the planes a and b (K, ...) into out.

    scale_b(p, q) multiplies one plane p of a into planes q of b, and
    scale_a(p, q) planes p of a by one plane q of b.  out = a[0] b, then
    each left slot 0 < |alpha| < order adds a[alpha] b[1:n_alpha] into the
    slots alpha + beta, then out[1:] += a[1:] b[0].  Operands are read in
    place, as planes and plane prefixes, and each slot sums its pairs in
    ascending alpha, the order of the naive double loop.
    """
    scale_b(a[0], b, out=out)
    for i, n, slots in tab.shifts:
        out[slots] += scale_b(a[i], b[1:n])
    out[1:] += scale_a(a[1:], b[0])
    return out


def _product(tab, a, b):
    """Truncated Cauchy product of coefficient arrays a and b."""
    nd = max(a.ndim, b.ndim)
    a, b = _planes(a, nd), _planes(b, nd)
    out = np.empty(a.shape[:1] + np.broadcast(a[0], b[0]).shape)
    return _coeffs(_shift_add(tab, a, b, out))


@lru_cache(maxsize=1024)
def _einsum_shape(spec, *shapes):
    """The output shape of ``np.einsum(spec)`` on operands of these shapes."""
    ins, out = spec.split("->")
    size, dots = {}, ()
    for labels, shape in zip(ins.split(","), shapes):
        head, ellipsis, tail = labels.partition("...")
        stop = len(shape) - len(tail)
        if ellipsis:
            dots = np.broadcast_shapes(dots, shape[len(head):stop])
        for label, n in zip(head + tail, shape[:len(head)] + shape[stop:]):
            if size.get(label, 1) == 1:
                size[label] = n
    head, ellipsis, tail = out.partition("...")
    return (tuple(size[c] for c in head) + (dots if ellipsis else ())
            + tuple(size[c] for c in tail))


# ---------------------------------------------------------------------------
# the Jet value


class Jet:
    """Dense truncated Taylor expansion; immutable by convention.

    coeffs has shape (..., K) with K = C(dim + order, order); leading axes
    broadcast through all arithmetic.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim, order, coeffs):
        self.dim = dim
        self.order = order
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape[-1] != num_coeffs(dim, order):
            raise UsageError(
                f"coefficient axis has length {self.coeffs.shape[-1]}, "
                f"expected {num_coeffs(dim, order)} for dim={dim} order={order}"
            )
        if not _planes(self.coeffs).flags.c_contiguous:
            self.coeffs = _coeffs(np.ascontiguousarray(_planes(self.coeffs)))

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, dim, order, value):
        value = np.asarray(value, dtype=float)
        c = _coeffs(np.zeros((num_coeffs(dim, order),) + value.shape))
        c[..., 0] = value
        return cls(dim, order, c)

    # -- introspection ------------------------------------------------

    @property
    def shape(self):
        return self.coeffs.shape[:-1]

    def value(self):
        """Constant term, i.e. the underlying point value."""
        return self.coeffs[..., 0]

    def extract(self, alpha):
        """Raw partial derivative d^alpha f at the base point (= alpha! c_alpha)."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise UsageError(f"multi-index length {len(alpha)} != dim {self.dim}")
        if sum(alpha) > self.order:
            raise UsageError(
                f"|alpha|={sum(alpha)} exceeds truncation order {self.order}"
            )
        tab = _tables(self.dim, self.order)
        slot = tab.position[alpha]
        return self.coeffs[..., slot] * tab.factorials[slot]

    # -- structure ----------------------------------------------------

    def truncated(self, order):
        """Forget coefficients above ``order`` (graded layout makes this a slice)."""
        if order > self.order:
            raise UsageError("cannot raise truncation order of a jet")
        if order == self.order:
            return self
        return Jet(self.dim, order, self.coeffs[..., : num_coeffs(self.dim, order)])

    def take_batch(self, idx):
        """Select a subset along the batch axis (the last leading axis)."""
        planes = np.take(_planes(self.coeffs), idx, axis=-1)
        return Jet(self.dim, self.order, _coeffs(planes))

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        planes = np.ascontiguousarray(_planes(self.coeffs)[(slice(None),) + key])
        return Jet(self.dim, self.order, _coeffs(planes))

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, shape={self.shape})"

    # -- arithmetic ---------------------------------------------------

    def _meet(self, other):
        """self and other truncated to the lower of their orders."""
        if self.dim != other.dim:
            raise UsageError(f"jet dim mismatch: {self.dim} vs {other.dim}")
        o = min(self.order, other.order)
        return self.truncated(o), other.truncated(o)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._meet(other)
            return Jet(a.dim, a.order, a.coeffs + b.coeffs)
        lead = np.broadcast_shapes(self.shape, np.shape(other))
        c = _coeffs(np.empty(self.coeffs.shape[-1:] + lead))
        c[...] = self.coeffs
        c[..., 0] += other
        return Jet(self.dim, self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._meet(other)
            tab = _tables(a.dim, a.order)
            return Jet(a.dim, a.order, _product(tab, a.coeffs, b.coeffs))
        other = np.asarray(other, dtype=float)
        return Jet(self.dim, self.order, self.coeffs * other[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        inv = 1.0 / self.coeffs[..., 0]
        # geometric series in the nilpotent part, Horner form
        series = [inv * (-inv) ** k for k in range(self.order + 1)]
        return self._horner(series)

    def powi(self, k):
        """Integer power, k >= 0."""
        k = int(k)
        if k < 0:
            raise DomainError("integer powers must have exponent >= 0")
        result = Jet.constant(self.dim, self.order, np.ones(self.shape))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _horner(self, series):
        """Evaluate sum_k series[k] * (self - self0)^k by Horner's scheme.

        The bracket formed at step j is multiplied by u^(p - j) afterwards,
        u = self - self0 having no constant term, so it is needed only to
        order j: step j multiplies the order j - 1 bracket, padded with zero
        coefficients that meet only u's zero constant term, by u truncated
        to order j (Griewank and Walther, Evaluating Derivatives, ch. 13).
        """
        u = Jet(self.dim, self.order, self.coeffs.copy(order="K"))
        u.coeffs[..., 0] = 0.0
        lead = np.broadcast_shapes(*(np.shape(c) for c in series))
        acc = Jet.constant(self.dim, 0, np.broadcast_to(series[-1], lead))
        for j, c in enumerate(series[-2::-1], 1):
            planes = np.zeros((num_coeffs(self.dim, j),) + acc.shape)
            planes[:acc.coeffs.shape[-1]] = _planes(acc.coeffs)
            acc = Jet(self.dim, j, _coeffs(planes)) * u.truncated(j) + c
        return acc


def partials(T):
    """All partial derivatives of T stacked as a new leading axis, one order
    below T: ``partials(T)[v]`` is d/du^v T."""
    if T.order == 0:
        raise UsageError("cannot differentiate an order-0 jet")
    slots, factors = _tables(T.dim, T.order).partials
    planes = _planes(T.coeffs)[slots]                  # (K', dim, ...)
    planes *= factors.reshape(factors.shape + (1,) * (planes.ndim - 2))
    return Jet(T.dim, T.order - 1, _coeffs(planes))


def jet_seed(dim, order, point, var_index):
    """Jet of the coordinate function u^var_index at ``point``.

    ``point`` may carry leading batch axes; its last axis has length dim.
    """
    point = np.asarray(point, dtype=float)
    if point.shape[-1] != dim:
        raise UsageError(f"point has {point.shape[-1]} coordinates, expected {dim}")
    if not 0 <= var_index < dim:
        raise DomainError(f"var_index {var_index} out of range 0..{dim - 1}")
    c = _coeffs(np.zeros((num_coeffs(dim, order),) + point.shape[:-1]))
    c[..., 0] = point[..., var_index]
    if order >= 1:
        tab = _tables(dim, order)
        unit = tuple(int(i == var_index) for i in range(dim))
        c[..., tab.position[unit]] = 1.0
    return Jet(dim, order, c)


def jet_seed_all(dim, order, point):
    """All dim coordinate jets at once."""
    return [jet_seed(dim, order, point, v) for v in range(dim)]


def jstack(jets):
    """Stack jets along a new first component axis."""
    planes = np.stack([_planes(j.coeffs) for j in jets], axis=1)
    return Jet(jets[0].dim, jets[0].order, _coeffs(planes))


# ---------------------------------------------------------------------------
# unary functions: compose a univariate Taylor series with the jet


def _series_sin(a0, p):
    s, c = np.sin(a0), np.cos(a0)
    table = [s, c, -s, -c]
    return [table[k % 4] / math.factorial(k) for k in range(p + 1)]


def _series_cos(a0, p):
    s, c = np.sin(a0), np.cos(a0)
    table = [c, -s, -c, s]
    return [table[k % 4] / math.factorial(k) for k in range(p + 1)]


def _series_sinh(a0, p):
    table = [np.sinh(a0), np.cosh(a0)]
    return [table[k % 2] / math.factorial(k) for k in range(p + 1)]


def _series_cosh(a0, p):
    table = [np.cosh(a0), np.sinh(a0)]
    return [table[k % 2] / math.factorial(k) for k in range(p + 1)]


def _series_exp(a0, p):
    e = np.exp(a0)
    return [e / math.factorial(k) for k in range(p + 1)]


def _series_log(a0, p):
    out = [np.log(a0)]
    for k in range(1, p + 1):
        out.append((-1.0) ** (k + 1) / (k * a0**k))
    return out


def _series_sqrt(a0, p):
    r = np.sqrt(a0)
    out = [r]
    coef = 0.5
    for k in range(1, p + 1):
        out.append(coef * r / a0**k)
        coef *= (0.5 - k) / (k + 1)
    return out


def _series_atan(a0, p):
    q = 1.0 + a0 * a0
    derivs = [np.arctan(a0), 1.0 / q, -2.0 * a0 / q**2,
              (6.0 * a0 * a0 - 2.0) / q**3, 24.0 * a0 * (1.0 - a0 * a0) / q**4]
    return [derivs[k] / math.factorial(k) for k in range(p + 1)]


_UNARY = {
    "sin": _series_sin,
    "cos": _series_cos,
    "sinh": _series_sinh,
    "cosh": _series_cosh,
    "exp": _series_exp,
    "log": _series_log,
    "sqrt": _series_sqrt,
    "atan": _series_atan,
}


def jet_unary(a, name):
    """Apply an elementary function to a jet.

    Where the function has no Taylor series (log at a value <= 0, sqrt at
    0), the coefficients are inf or NaN, as numpy gives them.
    """
    try:
        gen = _UNARY[name]
    except KeyError:
        raise UsageError(f"unknown unary function {name!r}") from None
    return a._horner(gen(a.coeffs[..., 0], a.order))


# ---------------------------------------------------------------------------
# einsum with jet-valued entries


def jet_einsum(spec, a, b):
    """Binary einsum where multiplication is truncated jet multiplication.

    ``spec`` addresses only the leading (component/batch) axes, e.g.
    ``"Aib,ABb,..."`` is not allowed -- exactly two operands.  Either operand
    may be a plain ndarray (constant coefficients), in which case it scales
    the other jet's coefficients.  The label ``Z`` is reserved.
    """
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    if "Z" in spec:
        raise UsageError("label Z is reserved in jet_einsum")
    a_jet = isinstance(a, Jet)
    b_jet = isinstance(b, Jet)
    if a_jet and b_jet:
        a, b = a._meet(b)
        tab = _tables(a.dim, a.order)
        p = np.empty(a.coeffs.shape[-1:]
                     + _einsum_shape(f"{sa},{sb}->{out}", a.shape, b.shape))
        _shift_add(tab, _planes(a.coeffs), _planes(b.coeffs), p,
                   partial(np.einsum, f"{sa},Z{sb}->Z{out}"),
                   partial(np.einsum, f"Z{sa},{sb}->Z{out}"))
        return Jet(a.dim, a.order, _coeffs(p))
    if a_jet:
        p = np.einsum(f"Z{sa},{sb}->Z{out}", _planes(a.coeffs),
                      np.ascontiguousarray(b, dtype=float))
        return Jet(a.dim, a.order, _coeffs(p))
    if b_jet:
        p = np.einsum(f"{sa},Z{sb}->Z{out}",
                      np.ascontiguousarray(a, dtype=float), _planes(b.coeffs))
        return Jet(b.dim, b.order, _coeffs(p))
    raise UsageError("jet_einsum needs at least one Jet operand")
