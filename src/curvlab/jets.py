"""Truncated multivariate Taylor arithmetic (jets).

A jet of order ``m`` at a point stores the coefficients

    c_alpha = d^alpha f / alpha!           for all |alpha| <= m,

i.e. the Taylor coefficients of ``f`` in the offset from the expansion
point.  Arithmetic on jets is exact on those coefficients: adding,
multiplying and composing jets produces the jet of the corresponding
function.  Orders up to :data:`MAX_ORDER` are supported; differentiating
consumes one order.

Storage is dense.  Coefficients live in a flat ``float64`` vector indexed
by the multi-index table of a :class:`JetContext`; multi-indices are
ordered by (degree, lexicographic), so truncating to a lower order is a
prefix slice.

Two layers are exposed:

* an array layer (``seed_coeffs``, ``jet_einsum``, ``partial_coeffs``,
  ...) that operates on ndarrays whose *last* axis is the coefficient
  axis — tensor fields are just arrays of shape ``tensor_shape + (ncoef,)``
  and contractions vectorize over all leading axes;
* a scalar :class:`Jet` class with operator overloading for expression
  evaluation and small formula work.

Jets are immutable; every operation returns fresh arrays.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DerivativeExhaustedError,
    EvaluationDomainError,
    UnsupportedOrderError,
)

MAX_ORDER = 3


def multi_indices(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with ``|alpha| <= order``, by (degree, lex)."""
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        block = set()
        for combo in itertools.combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for v in combo:
                alpha[v] += 1
            block.add(tuple(alpha))
        out.extend(sorted(block))
    return tuple(out)


class JetContext:
    """Precomputed index/multiplication tables for one ``(dim, order)``.

    Attributes
    ----------
    multis : tuple of multi-index tuples, ordered by (degree, lex).
    ncoef : number of stored coefficients, ``C(dim + order, order)``.
    ncoef_at : ``ncoef_at[k]`` = number of coefficients of degree <= k,
        i.e. the prefix length that realizes truncation to order ``k``.
    """

    def __init__(self, dim: int, order: int):
        if dim < 1:
            raise ValueError(f"jet dimension must be >= 1, got {dim}")
        if not 0 <= order <= MAX_ORDER:
            raise UnsupportedOrderError(
                f"jet order must be in 0..{MAX_ORDER}, got {order}"
            )
        self.dim = dim
        self.order = order
        self.multis = multi_indices(dim, order)
        self.ncoef = len(self.multis)
        self.index = {alpha: pos for pos, alpha in enumerate(self.multis)}
        degs = np.array([sum(a) for a in self.multis])
        self.ncoef_at = tuple(
            int(np.count_nonzero(degs <= k)) for k in range(order + 1)
        )
        # positions of the first-order coefficients e_1..e_dim (the gradient)
        if order >= 1:
            self.grad_pos = np.array(
                [self.index[tuple(int(i == j) for j in range(dim))] for i in range(dim)]
            )
        else:
            self.grad_pos = np.zeros(0, dtype=int)
        self._build_product_table()
        self._dsrc: list[np.ndarray] | None = None
        self._dfac: list[np.ndarray] | None = None

    def _build_product_table(self) -> None:
        pairs = []
        for ia, a in enumerate(self.multis):
            da = sum(a)
            for ib, b in enumerate(self.multis):
                if da + sum(b) > self.order:
                    continue
                k = self.index[tuple(x + y for x, y in zip(a, b))]
                pairs.append((k, ia, ib))
        pairs.sort()
        arr = np.array(pairs)
        self.pair_left = np.ascontiguousarray(arr[:, 1])
        self.pair_right = np.ascontiguousarray(arr[:, 2])
        # group boundaries for reduceat: pairs are sorted by target k and
        # every k has at least the (0, k) pair, so all groups are nonempty
        targets = arr[:, 0]
        self.pair_starts = np.searchsorted(targets, np.arange(self.ncoef))

    def _build_derivative_table(self) -> None:
        lower = get_context(self.dim, self.order - 1)
        dsrc, dfac = [], []
        for i in range(self.dim):
            src = np.empty(lower.ncoef, dtype=np.intp)
            fac = np.empty(lower.ncoef)
            for t, beta in enumerate(lower.multis):
                bumped = list(beta)
                bumped[i] += 1
                src[t] = self.index[tuple(bumped)]
                fac[t] = beta[i] + 1
            dsrc.append(src)
            dfac.append(fac)
        self._dsrc, self._dfac = dsrc, dfac

    def derivative_table(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if self.order == 0:
            raise DerivativeExhaustedError(
                "cannot differentiate an order-0 jet; seed with a higher order"
            )
        if self._dsrc is None:
            self._build_derivative_table()
        assert self._dsrc is not None and self._dfac is not None
        return self._dsrc[i], self._dfac[i]


@lru_cache(maxsize=None)
def get_context(dim: int, order: int) -> JetContext:
    return JetContext(dim, order)


# ---------------------------------------------------------------------------
# array layer: last axis = coefficient axis


def seed_coeffs(point: Sequence[float], ctx: JetContext) -> np.ndarray:
    """Coefficient rows of the coordinate functions at ``point``.

    Returns shape ``(dim, ncoef)``: row ``i`` is the jet of ``x_{i+1}``,
    value ``point[i]`` and unit first-order coefficient.
    """
    pt = np.asarray(point, dtype=float)
    if pt.shape != (ctx.dim,):
        raise ValueError(f"point of length {ctx.dim} expected, got shape {pt.shape}")
    out = np.zeros((ctx.dim, ctx.ncoef))
    out[:, 0] = pt
    if ctx.order >= 1:
        out[np.arange(ctx.dim), ctx.grad_pos] = 1.0
    return out


def constant_coeffs(value: float, ctx: JetContext) -> np.ndarray:
    out = np.zeros(ctx.ncoef)
    out[0] = value
    return out


def jet_mul(a: np.ndarray, b: np.ndarray, ctx: JetContext) -> np.ndarray:
    """Jet product, broadcasting over leading axes."""
    p = a[..., ctx.pair_left] * b[..., ctx.pair_right]
    return np.add.reduceat(p, ctx.pair_starts, axis=-1)


def jet_einsum(subscripts: str, a: np.ndarray, b: np.ndarray, ctx: JetContext) -> np.ndarray:
    """einsum over tensor axes with jet multiplication as scalar product.

    ``subscripts`` uses lowercase letters for the tensor axes only, e.g.
    ``"kl,lij->kij"``; the trailing coefficient axis is handled internally
    (contracted tensor indices are summed while coefficient vectors are
    convolved).  Both operands must share ``ctx``.
    """
    ins, out = subscripts.split("->")
    s1, s2 = ins.split(",")
    p = np.einsum(
        f"{s1}Z,{s2}Z->{out}Z",
        a[..., ctx.pair_left],
        b[..., ctx.pair_right],
    )
    return np.add.reduceat(p, ctx.pair_starts, axis=-1)


def partial_coeffs(a: np.ndarray, i: int, ctx: JetContext) -> np.ndarray:
    """d/dx_{i+1} on the coefficient axis; result lives in order-1 context."""
    src, fac = ctx.derivative_table(i)
    return a[..., src] * fac


def truncate_coeffs(a: np.ndarray, ctx: JetContext, new_order: int) -> np.ndarray:
    if new_order > ctx.order:
        raise UnsupportedOrderError(
            f"cannot raise order {ctx.order} to {new_order} by truncation"
        )
    return np.ascontiguousarray(a[..., : ctx.ncoef_at[new_order]])


def apply_series(a: np.ndarray, series: Sequence[float], ctx: JetContext) -> np.ndarray:
    """Compose a univariate Taylor series with a jet (Horner form).

    ``series[k]`` must be ``f^(k)(a_0)/k!`` for the jet's value ``a_0``.
    """
    abar = np.array(a, dtype=float)
    abar[..., 0] = 0.0
    res = np.zeros_like(abar)
    res[..., 0] = series[ctx.order]
    for k in range(ctx.order - 1, -1, -1):
        res = jet_mul(res, abar, ctx)
        res[..., 0] += series[k]
    return res


# univariate derivative series --------------------------------------------


def _series_exp(v: float, order: int) -> list[float]:
    try:
        e = math.exp(v)
    except OverflowError:
        raise EvaluationDomainError(f"exp of {v!r} leaves the float range") from None
    return [e / math.factorial(k) for k in range(order + 1)]


def _series_log(v: float, order: int) -> list[float]:
    if v <= 0.0:
        raise EvaluationDomainError(f"log of non-positive value {v!r}")
    out = [math.log(v)]
    try:
        for k in range(1, order + 1):
            out.append((-1.0) ** (k - 1) / (k * v**k))
    except (OverflowError, ZeroDivisionError):
        raise EvaluationDomainError(
            f"derivatives of log at {v!r} leave the float range"
        ) from None
    return out


def _series_sin(v: float, order: int) -> list[float]:
    cyc = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
    return [cyc[k % 4] / math.factorial(k) for k in range(order + 1)]


def _series_cos(v: float, order: int) -> list[float]:
    cyc = [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)]
    return [cyc[k % 4] / math.factorial(k) for k in range(order + 1)]


def _series_power(v: float, q: float, order: int) -> list[float]:
    # c_k = binom(q, k) v^(q-k); used for sqrt (q=1/2) and 1/x (q=-1)
    out = []
    coef = 1.0
    try:
        for k in range(order + 1):
            out.append(coef * v ** (q - k))
            coef *= (q - k) / (k + 1)
    except OverflowError:
        raise EvaluationDomainError(
            f"derivatives of x^{q:g} at {v!r} leave the float range"
        ) from None
    return out


def reciprocal_coeffs(a: np.ndarray, ctx: JetContext) -> np.ndarray:
    v = float(a[..., 0]) if a.ndim == 1 else None
    if v is None:
        raise ValueError("reciprocal_coeffs expects a single coefficient vector")
    if v == 0.0:
        raise EvaluationDomainError("division by a jet with value 0")
    return apply_series(a, _series_power(v, -1.0, ctx.order), ctx)


# ---------------------------------------------------------------------------
# scalar Jet


class Jet:
    """Scalar truncated Taylor expansion; immutable.

    Construct with :func:`seed` / :func:`constant` rather than directly.
    Supports ``+ - * /`` against jets and numbers, ``** c`` for integer and
    half-integer constants, and the functions :func:`sin`, :func:`cos`,
    :func:`exp`, :func:`log`, :func:`sqrt` from this module.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        ctx = get_context(dim, order)
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (ctx.ncoef,):
            raise ValueError(f"expected {ctx.ncoef} coefficients, got {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("Jet instances are immutable")

    # -- accessors

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    @property
    def gradient(self) -> np.ndarray:
        """First-order partials d f/d x_i (requires order >= 1)."""
        if self.order < 1:
            raise DerivativeExhaustedError("order-0 jet carries no gradient")
        return self.coeffs[self._ctx.grad_pos].copy()

    @property
    def _ctx(self) -> JetContext:
        return get_context(self.dim, self.order)

    def coeff(self, alpha: Sequence[int]) -> float:
        """Taylor coefficient for multi-index ``alpha`` (= d^alpha f / alpha!)."""
        return float(self.coeffs[self._ctx.index[tuple(alpha)]])

    def derivative(self, alpha: Sequence[int]) -> float:
        """Partial derivative d^alpha f (coefficient times alpha!)."""
        fac = 1.0
        for a in alpha:
            fac *= math.factorial(a)
        return self.coeff(alpha) * fac

    def todict(self) -> dict[tuple[int, ...], float]:
        """Mapping multi-index -> coefficient, in (degree, lex) order."""
        return {a: float(c) for a, c in zip(self._ctx.multis, self.coeffs)}

    def directional(self, x: Sequence[float]) -> float:
        """Directional derivative ``x . grad`` at the base point."""
        return float(np.dot(np.asarray(x, dtype=float), self.gradient))

    def partial(self, i: int) -> "Jet":
        """d/dx_{i+1}; result has order reduced by one."""
        if not 0 <= i < self.dim:
            raise IndexError(f"variable index {i} out of range for dim {self.dim}")
        out = partial_coeffs(self.coeffs, i, self._ctx)
        return Jet(self.dim, self.order - 1, out)

    def truncate(self, new_order: int) -> "Jet":
        return Jet(self.dim, new_order, truncate_coeffs(self.coeffs, self._ctx, new_order))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"

    # -- arithmetic

    def _coerce(self, other) -> np.ndarray | None:
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ValueError(
                    "jet mismatch: "
                    f"({self.dim},{self.order}) vs ({other.dim},{other.order})"
                )
            return other.coeffs
        if isinstance(other, (int, float, np.floating, np.integer)):
            return constant_coeffs(float(other), self._ctx)
        return None

    def __add__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return Jet(self.dim, self.order, self.coeffs + oc)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs)

    def __sub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return Jet(self.dim, self.order, self.coeffs - oc)

    def __rsub__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return Jet(self.dim, self.order, oc - self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.dim, self.order, self.coeffs * float(other))
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return Jet(self.dim, self.order, jet_mul(self.coeffs, oc, self._ctx))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise EvaluationDomainError("division by zero constant")
            return Jet(self.dim, self.order, self.coeffs / float(other))
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self * Jet(self.dim, self.order, reciprocal_coeffs(oc, self._ctx))

    def __rtruediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        recip = Jet(self.dim, self.order, reciprocal_coeffs(self.coeffs, self._ctx))
        return Jet(self.dim, self.order, jet_mul(oc, recip.coeffs, self._ctx))

    def __pow__(self, exponent):
        """Power with constant exponent; integer or half-integer only.

        Integer powers lower to repeated multiplication (valid for any
        base value); half-integer powers lower to ``exp(q * log(base))``
        and therefore require a positive base value.
        """
        q = float(exponent)
        if q == int(q):
            return self._int_pow(int(q))
        if 2.0 * q == int(2.0 * q):
            return exp(q * log(self))
        raise ValueError(
            f"exponent must be an integer or half-integer constant, got {exponent!r}"
        )

    def _int_pow(self, k: int) -> "Jet":
        """Binary powering from the base: ⌊log₂k⌋ squarings plus
        popcount(k) − 1 products (k = 0 gives the constant 1)."""
        if k < 0:
            base = Jet(self.dim, self.order, reciprocal_coeffs(self.coeffs, self._ctx))
            return base._int_pow(-k)
        if k == 0:
            return Jet(self.dim, self.order, constant_coeffs(1.0, self._ctx))
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base


def seed(point: Sequence[float], order: int) -> list[Jet]:
    """Jets of the coordinate functions at ``point``, ready to evaluate with."""
    pt = np.asarray(point, dtype=float)
    ctx = get_context(len(pt), order)
    rows = seed_coeffs(pt, ctx)
    return [Jet(ctx.dim, order, rows[i]) for i in range(ctx.dim)]


def constant(value: float, dim: int, order: int) -> Jet:
    ctx = get_context(dim, order)
    return Jet(dim, order, constant_coeffs(float(value), ctx))


def _apply(a: Jet, series: list[float]) -> Jet:
    return Jet(a.dim, a.order, apply_series(a.coeffs, series, a._ctx))


def sin(a: Jet) -> Jet:
    return _apply(a, _series_sin(a.value, a.order))


def cos(a: Jet) -> Jet:
    return _apply(a, _series_cos(a.value, a.order))


def exp(a: Jet) -> Jet:
    return _apply(a, _series_exp(a.value, a.order))


def log(a: Jet) -> Jet:
    return _apply(a, _series_log(a.value, a.order))


def sqrt(a: Jet) -> Jet:
    if a.value <= 0.0:
        raise EvaluationDomainError(f"sqrt of non-positive value {a.value!r}")
    return _apply(a, _series_power(a.value, 0.5, a.order))
