"""Chart-based Riemannian pipeline: metric -> connection -> curvature.

Everything is computed per point from jets of the metric entries.  The
order budget works out as follows: the metric is evaluated as order-3
jets, so Christoffel symbols carry order 2, the curvature tensor order 1,
and covariant derivatives of curvature come out as plain values — exactly
enough for every identity this package checks, with no finite
differencing anywhere in the pipeline.  The inverse metric is built at
order 2 only, since Γ = ½ g⁻¹ ∂g is the highest-order product it enters.

Sign conventions (pinned by the unit-sphere test in the suite):

    R(X,Y)Z = ∇_X ∇_Y Z − ∇_Y ∇_X Z − ∇_[X,Y] Z
    R(X,Y,Z,U) = g(R(X,Y)Z, U)
    K(x,y) = R(x,y,y,x)          for g-orthonormal x, y
    S(x,y) = trace of v -> R(x, v) y   (so S_ab = R_apqb g^pq)
    τ = g^ab S_ab

With these choices the round unit sphere has K = +1 and τ > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import exprlang, jets
from .errors import (
    DegenerateMetricError,
    DomainError,
    SchemaError,
)

# largest max |g_ij − g_ji| accepted as a symmetric metric; above it the
# metric fails validation, below it the chart works on the symmetric part
METRIC_SYMMETRY_TOL = 1e-8

# rows per chunk in :func:`contract` are chosen so that no intermediate
# holds more than this many entries (32 KiB): a session keeps every sampled
# point's tensors alive while it evaluates batches, so batch temporaries
# add directly to its peak memory
_CONTRACT_CHUNK = 1 << 12


# ---------------------------------------------------------------------------
# matrix-valued fields on a chart


class ExprMatrixField:
    """Matrix field whose entries are expression-language sources."""

    def __init__(self, entries: Sequence[Sequence[str]], dim: int):
        self.dim = dim
        n = len(entries)
        if n != dim or any(len(row) != dim for row in entries):
            raise SchemaError(f"matrix field must be {dim}x{dim}")
        self.sources = tuple(tuple(row) for row in entries)
        self.exprs = tuple(
            tuple(exprlang.parse(src, dim) for src in row) for row in entries
        )

    def evaluate(self, point: Sequence[float], order: int) -> np.ndarray:
        """Entry jets at ``point``; shape ``(dim, dim, ncoef(order))``."""
        coords = jets.seed(point, order)
        ctx = jets.get_context(self.dim, order)
        out = np.empty((self.dim, self.dim, ctx.ncoef))
        for i in range(self.dim):
            for j in range(self.dim):
                out[i, j] = exprlang.evaluate(self.exprs[i][j], coords).coeffs
        return out


class CallableMatrixField:
    """Matrix field backed by a function ``fn(point, order) -> (d,d,ncoef)``.

    Used for fields with no convenient closed form in the expression
    language (the 6-sphere's almost-complex structure).
    """

    def __init__(self, fn: Callable[[Sequence[float], int], np.ndarray], dim: int):
        self.dim = dim
        self.fn = fn
        self.sources = None

    def evaluate(self, point: Sequence[float], order: int) -> np.ndarray:
        out = np.asarray(self.fn(point, order), dtype=float)
        ctx = jets.get_context(self.dim, order)
        if out.shape != (self.dim, self.dim, ctx.ncoef):
            raise ValueError(
                f"callable field returned shape {out.shape}, "
                f"expected {(self.dim, self.dim, ctx.ncoef)}"
            )
        return out


MatrixField = ExprMatrixField | CallableMatrixField


# ---------------------------------------------------------------------------
# manifold description


@dataclass(frozen=True)
class SampleBox:
    center: np.ndarray
    half_width: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "half_width", np.asarray(self.half_width, dtype=float))
        if self.center.shape != self.half_width.shape or self.center.ndim != 1:
            raise SchemaError("sample_box center/half_width must be equal-length vectors")
        if np.any(self.half_width <= 0):
            raise SchemaError("sample_box half_width entries must be positive")


@dataclass(frozen=True)
class ManifoldSpec:
    """A chart with a metric, an optional almost-complex structure,
    an optional domain predicate (chart valid where ``domain > 0``),
    and a sampling box."""

    name: str
    dim: int
    metric: MatrixField
    complex_structure: MatrixField | None = None
    domain: exprlang.Expr | None = None
    sample_box: SampleBox | None = None
    params: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise SchemaError(f"dimension must be even and >= 2, got {self.dim}")
        if self.sample_box is None:
            object.__setattr__(
                self,
                "sample_box",
                SampleBox(np.zeros(self.dim), np.ones(self.dim)),
            )
        if self.sample_box.center.shape != (self.dim,):
            raise SchemaError(
                f"sample_box must have length {self.dim}, "
                f"got {self.sample_box.center.shape}"
            )

    @property
    def n(self) -> int:
        """Half the dimension (the 'n' of a 2n-dimensional manifold)."""
        return self.dim // 2

    def contains(self, point: Sequence[float]) -> bool:
        if self.domain is None:
            return True
        return exprlang.evaluate_values(self.domain, point) > 0.0

    def require_contains(self, point: Sequence[float]) -> None:
        if not self.contains(point):
            raise DomainError(
                f"point {np.asarray(point)!r} violates the domain predicate "
                f"of manifold {self.name!r}"
            )


def sample_points(spec: ManifoldSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the sample box, rejected against the domain."""
    box = spec.sample_box
    out = np.empty((count, spec.dim))
    got = 0
    attempts = 0
    limit = 1000 * count + 1000
    while got < count:
        if attempts >= limit:
            raise DomainError(
                f"could not draw {count} points inside the domain of "
                f"{spec.name!r} after {attempts} attempts"
            )
        p = box.center + box.half_width * rng.uniform(-1.0, 1.0, size=spec.dim)
        attempts += 1
        if spec.contains(p):
            out[got] = p
            got += 1
    return out


# ---------------------------------------------------------------------------
# per-point geometry


class PointGeometry:
    """All curvature data of a manifold at one chart point.

    Index conventions on the arrays (last axis = jet coefficients where
    present, all earlier axes tensor slots):

    ``gamma[k,i,j]``          Γᵏ_ij (symmetric in i,j)
    ``riemann[a,b,c,d]``      R(∂_a,∂_b,∂_c,∂_d), fully lowered
    ``ricci[a,b]``            S(∂_a,∂_b)
    ``nabla_riemann[m,a,b,c,d]``  (∇_m R)(∂_a,∂_b,∂_c,∂_d)
    ``nabla_ricci[m,a,b]``    (∇_m S)(∂_a,∂_b)
    """

    def __init__(self, spec: ManifoldSpec, point: Sequence[float]):
        self.spec = spec
        self.point = np.asarray(point, dtype=float)
        spec.require_contains(self.point)
        d = spec.dim
        ctx3 = jets.get_context(d, 3)
        ctx2 = jets.get_context(d, 2)
        ctx1 = jets.get_context(d, 1)

        G = spec.metric.evaluate(self.point, 3)
        sym_res = float(np.abs(G[..., 0] - G[..., 0].T).max())
        if not sym_res <= METRIC_SYMMETRY_TOL:
            raise DegenerateMetricError(
                f"metric of {spec.name!r} is asymmetric at {self.point!r} "
                f"(residual {sym_res:.3e})"
            )
        if sym_res > 0.0:
            G = 0.5 * (G + G.transpose(1, 0, 2))
        self.g_jets = G
        self.g = G[..., 0].copy()
        try:
            np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            raise DegenerateMetricError(
                f"metric of {spec.name!r} is not positive definite at {self.point!r}"
            ) from None

        # inverse metric as order-2 jets, the highest order anything reads:
        # Newton iteration X <- X(2I - GX) doubles the correct order each
        # step, so two steps suffice from the exact value-level inverse.
        G2 = jets.truncate_coeffs(G, ctx3, 2)
        X = np.zeros_like(G2)
        X[..., 0] = np.linalg.inv(self.g)
        twoI = np.zeros_like(G2)
        twoI[..., 0] = 2.0 * np.eye(d)
        for _ in range(2):
            K = twoI - jets.jet_einsum("ab,bc->ac", G2, X, ctx2)
            X = jets.jet_einsum("ab,bc->ac", X, K, ctx2)
        del G2, K
        self.g_inv_jets = X
        self.g_inv = X[..., 0].copy()

        # Christoffel symbols Γᵏ_ij = ½ gᵏˡ (∂_i g_jl + ∂_j g_il − ∂_l g_ij)
        # dG[m,i,j] = ∂_m g_ij; lower[i,j,l] = ∂_i g_jl + ∂_j g_il − ∂_l g_ij
        # (each stage's jet temporaries are released before the next one:
        # they set the peak memory of a session holding every sampled point)
        dG = np.stack([jets.partial_coeffs(G, m, ctx3) for m in range(d)])
        lower = dG + dG.transpose(1, 0, 2, 3) - dG.transpose(1, 2, 0, 3)
        del dG
        gamma_jets = 0.5 * jets.jet_einsum("kl,ijl->kij", X, lower, ctx2)
        self.gamma = gamma_jets[..., 0].copy()
        del lower

        # curvature: R(∂_a,∂_b)∂_c = (∂_a Γᵉ_bc − ∂_b Γᵉ_ac + Γᵉ_af Γᶠ_bc − Γᵉ_bf Γᶠ_ac) ∂_e
        dGamma = np.stack(
            [jets.partial_coeffs(gamma_jets, m, ctx2) for m in range(d)]
        )
        gamma1 = jets.truncate_coeffs(gamma_jets, ctx2, 1)
        P = dGamma.transpose(0, 2, 3, 1, 4)  # [a,b,c,e] = ∂_a Γᵉ_bc
        Q = jets.jet_einsum("eaf,fbc->abce", gamma1, gamma1, ctx1)
        upper = P - P.transpose(1, 0, 2, 3, 4) + Q - Q.transpose(1, 0, 2, 3, 4)
        del gamma_jets, dGamma, P, Q
        g1 = jets.truncate_coeffs(G, ctx3, 1)
        self.riemann_jets = jets.jet_einsum("abce,ed->abcd", upper, g1, ctx1)
        self.riemann = self.riemann_jets[..., 0].copy()
        del upper

        ginv1 = jets.truncate_coeffs(X, ctx2, 1)
        self.ricci_jets = jets.jet_einsum("apqb,pq->ab", self.riemann_jets, ginv1, ctx1)
        self.ricci = self.ricci_jets[..., 0].copy()
        tau_coeffs = jets.jet_einsum("ab,ab->", self.ricci_jets, ginv1, ctx1)
        self.scalar_curvature_jet = jets.Jet(d, 1, tau_coeffs)
        self.scalar_curvature = self.scalar_curvature_jet.value

        # covariant derivatives (plain values): ∂ − Γ corrections
        grad = ctx1.grad_pos
        dR = np.moveaxis(self.riemann_jets[..., grad], -1, 0)
        R0, S0, gam = self.riemann, self.ricci, self.gamma
        self.nabla_riemann = (
            dR
            - np.einsum("pma,pbce->mabce", gam, R0)
            - np.einsum("pmb,apce->mabce", gam, R0)
            - np.einsum("pmc,abpe->mabce", gam, R0)
            - np.einsum("pme,abcp->mabce", gam, R0)
        )
        dS = np.moveaxis(self.ricci_jets[..., grad], -1, 0)
        self.nabla_ricci = (
            dS
            - np.einsum("pma,pb->mab", gam, S0)
            - np.einsum("pmb,ap->mab", gam, S0)
        )

    # -- scalar helpers -----------------------------------------------------

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.g @ y)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def curvature(self, x, y, z, u) -> float:
        """R(x,y,z,u) on chart-component vectors."""
        return float(np.einsum("abcd,a,b,c,d->", self.riemann, x, y, z, u))

    def nabla_curvature(self, w, x, y, z, u) -> float:
        """(∇_w R)(x,y,z,u)."""
        return float(
            np.einsum("mabcd,m,a,b,c,d->", self.nabla_riemann, w, x, y, z, u)
        )

    def nabla_ricci_at(self, w, x, y) -> float:
        """(∇_w S)(x,y)."""
        return float(np.einsum("mab,m,a,b->", self.nabla_ricci, w, x, y))


def contract(tensor: np.ndarray, *vectors: np.ndarray) -> np.ndarray:
    """T(v₁, …, v_k) for every row of the ``(count, d)`` arrays ``vectors``.

    Slots are contracted two at a time, first to last, against the outer
    product of their vectors, a chunk of rows at a time, so that no
    intermediate holds more than ``_CONTRACT_CHUNK`` entries.
    """
    d = tensor.shape[0]
    pairs = [vectors[i:i + 2] for i in range(0, len(vectors), 2)]

    def outer(pair, rows):
        if len(pair) == 1:
            return pair[0][rows]
        return (pair[0][rows, :, None] * pair[1][rows, None, :]).reshape(-1, d * d)

    first = tensor.reshape(d ** len(pairs[0]), -1)
    count = vectors[0].shape[0]
    step = max(1, _CONTRACT_CHUNK // first.shape[1])
    out = np.empty(count)
    for lo in range(0, count, step):
        rows = slice(lo, lo + step)
        t = outer(pairs[0], rows) @ first
        for pair in pairs[1:]:
            w = outer(pair, rows)
            t = np.vecmat(w, t.reshape(t.shape[0], w.shape[1], -1))
        out[rows] = t[:, 0]
    return out


# ---------------------------------------------------------------------------
# validation residuals (measured, not asserted — callers pick tolerances)


def metric_symmetry_residual(spec: ManifoldSpec, point: Sequence[float]) -> float:
    g = spec.metric.evaluate(point, 0)[..., 0]
    return float(np.abs(g - g.T).max())


def metric_positive_definite(spec: ManifoldSpec, point: Sequence[float]) -> bool:
    g = spec.metric.evaluate(point, 0)[..., 0]
    g = 0.5 * (g + g.T)
    try:
        np.linalg.cholesky(g)
        return True
    except np.linalg.LinAlgError:
        return False
