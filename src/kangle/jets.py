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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DomainError, SingularityError, UsageError

MAX_DIM = 8
MAX_ORDER = 4

__all__ = [
    "Jet",
    "jet_seed",
    "jet_unary",
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
    exponents: tuple            # multi-indices, graded-lex
    position: dict              # multi-index -> slot
    mul_ia: np.ndarray          # gather indices into left factor
    mul_ib: np.ndarray          # gather indices into right factor
    mul_blocks: tuple           # (start, stop, n_slots, size) per pair count
    mul_slots: np.ndarray       # slot -> its column among the block sums
    derivative: tuple           # per variable: (parent_slots, factors)
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
    K = len(exps)

    ia, ib, out = [], [], []
    for i, a in enumerate(exps):
        for j, b in enumerate(exps):
            if sum(a) + sum(b) <= order:
                ia.append(i)
                ib.append(j)
                out.append(pos[tuple(x + y for x, y in zip(a, b))])
    # group the pairs by (pairs per slot, slot): the slots that sum the
    # same number of pairs form one block, summed by a reshape
    out = np.asarray(out, dtype=np.intp)
    count = np.bincount(out, minlength=K)
    pairs = np.argsort(count[out] * K + out, kind="stable")
    ia = np.asarray(ia, dtype=np.intp)[pairs]
    ib = np.asarray(ib, dtype=np.intp)[pairs]
    sizes, n_slots = np.unique(count, return_counts=True)
    stops = np.cumsum(sizes * n_slots)
    blocks = tuple(zip((stops - sizes * n_slots).tolist(), stops.tolist(),
                       n_slots.tolist(), sizes.tolist()))
    slots = np.argsort(np.argsort(count, kind="stable"))

    deriv = []
    if order >= 1:
        child = multi_indices(dim, order - 1)
        for v in range(dim):
            parents = []
            factors = []
            for b in child:
                bp = list(b)
                bp[v] += 1
                parents.append(pos[tuple(bp)])
                factors.append(bp[v])
            deriv.append(
                (np.asarray(parents, dtype=np.intp), np.asarray(factors, dtype=float))
            )
    facts = np.array(
        [math.prod(math.factorial(k) for k in a) for a in exps], dtype=float
    )

    tab = _Tables(dim, order, tuple(exps), pos, ia, ib, blocks, slots,
                  tuple(deriv), facts)
    _TABLE_CACHE[key] = tab
    return tab


def _sum_pairs(tab, t):
    """Sum the pair products ``t`` (last axis = pairs) into their slots."""
    lead = t.shape[:-1]
    sums = [t[..., start:stop] if size == 1 else
            t[..., start:stop].reshape(lead + (n, size)).sum(-1)
            for start, stop, n, size in tab.mul_blocks]
    return np.concatenate(sums, axis=-1)[..., tab.mul_slots]


def _scatter_mul(tab, ta, tb):
    """Truncated Cauchy product of coefficient arrays (last axis = slots)."""
    return _sum_pairs(tab, ta[..., tab.mul_ia] * tb[..., tab.mul_ib])


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

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, dim, order, value):
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (num_coeffs(dim, order),))
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

    def derivative(self, var):
        """Partial derivative jet (same dim, order-1)."""
        if not 0 <= var < self.dim:
            raise DomainError(f"variable index {var} out of range 0..{self.dim - 1}")
        if self.order == 0:
            raise UsageError("cannot differentiate an order-0 jet")
        parents, factors = _tables(self.dim, self.order).derivative[var]
        return Jet(self.dim, self.order - 1, self.coeffs[..., parents] * factors)

    def take_batch(self, idx):
        """Select a subset along the batch axis (the last leading axis)."""
        return Jet(self.dim, self.order, self.coeffs[..., idx, :])

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        return Jet(self.dim, self.order, self.coeffs[key + (slice(None),)])

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, shape={self.shape})"

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.dim != other.dim or self.order != other.order:
            raise UsageError(
                f"jet mismatch: ({self.dim},{self.order}) vs "
                f"({other.dim},{other.order})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.dim, self.order, self.coeffs + other.coeffs)
        c = np.broadcast_arrays(
            self.coeffs, np.zeros(np.shape(other) + (1,))
        )[0].copy()
        c[..., 0] = c[..., 0] + other
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
            self._check_compatible(other)
            tab = _tables(self.dim, self.order)
            return Jet(self.dim, self.order, _scatter_mul(tab, self.coeffs, other.coeffs))
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
        b0 = self.coeffs[..., 0]
        if np.any(b0 == 0.0):
            raise SingularityError("division by a jet with zero constant term")
        inv = 1.0 / b0
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
        """Evaluate sum_k series[k] * (self - self0)^k by Horner's scheme."""
        u = Jet(self.dim, self.order, self.coeffs.copy())
        u.coeffs[..., 0] = 0.0
        lead = np.broadcast_shapes(*(np.shape(c) for c in series))
        acc = Jet.constant(self.dim, self.order, np.broadcast_to(series[-1], lead))
        for c in series[-2::-1]:
            acc = acc * u
            acc = acc + c
        return acc


def jet_seed(dim, order, point, var_index):
    """Jet of the coordinate function u^var_index at ``point``.

    ``point`` may carry leading batch axes; its last axis has length dim.
    """
    point = np.asarray(point, dtype=float)
    if point.shape[-1] != dim:
        raise UsageError(f"point has {point.shape[-1]} coordinates, expected {dim}")
    if not 0 <= var_index < dim:
        raise DomainError(f"var_index {var_index} out of range 0..{dim - 1}")
    c = np.zeros(point.shape[:-1] + (num_coeffs(dim, order),))
    c[..., 0] = point[..., var_index]
    if order >= 1:
        tab = _tables(dim, order)
        unit = tuple(int(i == var_index) for i in range(dim))
        c[..., tab.position[unit]] = 1.0
    return Jet(dim, order, c)


def jet_seed_all(dim, order, point):
    """All dim coordinate jets at once."""
    return [jet_seed(dim, order, point, v) for v in range(dim)]


# ---------------------------------------------------------------------------
# unary functions: compose a univariate Taylor series with the jet


def _series_sin(a0, p):
    table = [np.sin(a0), np.cos(a0), -np.sin(a0), -np.cos(a0)]
    return [table[k % 4] / math.factorial(k) for k in range(p + 1)]


def _series_cos(a0, p):
    table = [np.cos(a0), -np.sin(a0), -np.cos(a0), np.sin(a0)]
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
    "sin": (_series_sin, None),
    "cos": (_series_cos, None),
    "sinh": (_series_sinh, None),
    "cosh": (_series_cosh, None),
    "exp": (_series_exp, None),
    "log": (_series_log, "strictly positive"),
    "sqrt": (_series_sqrt, "strictly positive"),
    "atan": (_series_atan, None),
}


def jet_unary(a, name):
    """Apply an elementary function to a jet."""
    try:
        gen, domain = _UNARY[name]
    except KeyError:
        raise UsageError(f"unknown unary function {name!r}") from None
    a0 = a.coeffs[..., 0]
    if domain is not None and np.any(a0 <= 0.0):
        raise SingularityError(f"{name} applied to a jet with non-positive "
                               f"constant term {float(np.min(a0))}")
    return a._horner(gen(a0, a.order))


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
        a._check_compatible(b)
        tab = _tables(a.dim, a.order)
        t = np.einsum(
            f"{sa}Z,{sb}Z->{out}Z",
            a.coeffs[..., tab.mul_ia],
            b.coeffs[..., tab.mul_ib],
        )
        return Jet(a.dim, a.order, _sum_pairs(tab, t))
    if a_jet:
        c = np.einsum(f"{sa}Z,{sb}->{out}Z", a.coeffs, np.asarray(b, dtype=float))
        return Jet(a.dim, a.order, c)
    if b_jet:
        c = np.einsum(f"{sa},{sb}Z->{out}Z", np.asarray(a, dtype=float), b.coeffs)
        return Jet(b.dim, b.order, c)
    raise UsageError("jet_einsum needs at least one Jet operand")
