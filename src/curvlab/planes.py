"""Frames, tangent 2-planes, sectional curvature, and the antiholomorphic
sectional-curvature statistic.

A 2-plane is holomorphic when it is J-invariant (y = ±Jx for orthonormal
spanning vectors) and antiholomorphic when it is J-orthogonal to its own
image; for a g-orthonormal pair (x, y) the latter reduces to the single
scalar condition g(Jx, y) = 0, since g(Jx, x) = 0 holds automatically by
antisymmetry of the lowered J.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DimensionError, FrameConstructionError

_ORTHO_TOL = 1e-10


def _g_norm(v: np.ndarray, g: np.ndarray) -> float:
    return float(np.sqrt(max(v @ g @ v, 0.0)))


def _least_g_norm(g: np.ndarray) -> float:
    """sqrt(λ_min(g)), the least g-norm of a chart vector of Euclidean
    length 1.  A vector whose projection off a span keeps a g-norm of at
    most ``tol`` times this times its Euclidean length lies within relative
    Euclidean distance ``tol`` of that span, in any units of g.  Where
    rounding puts λ_min(g) at or below 0 only a zero norm is degenerate."""
    return float(np.sqrt(max(np.linalg.eigvalsh(g)[0], 0.0)))


def gram_schmidt(vectors: np.ndarray, g: np.ndarray, drop_tol: float = 1e-8) -> np.ndarray:
    """g-orthonormalize rows of ``vectors`` (modified Gram-Schmidt).

    Raises :class:`FrameConstructionError` when a row is (numerically) in
    the span of the previous ones: within relative Euclidean distance
    ``drop_tol`` of it (see :func:`_least_g_norm`).
    """
    out = np.array(vectors, dtype=float)
    floor = drop_tol * _least_g_norm(g)
    for k in range(out.shape[0]):
        v = out[k]
        length = float(np.linalg.norm(v))
        for j in range(k):
            v = v - (out[j] @ g @ v) * out[j]
        nrm = _g_norm(v, g)
        if nrm <= floor * length:
            raise FrameConstructionError(
                f"vector {k} degenerated during orthonormalization (norm {nrm:.2e})"
            )
        out[k] = v / nrm
    return out


def orthonormal_frame(g: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Rows form a g-orthonormal basis; random when ``rng`` is given,
    otherwise deterministic from the coordinate basis."""
    d = g.shape[0]
    start = np.eye(d) if rng is None else rng.normal(size=(d, d))
    return gram_schmidt(start, g)


def _unit_rows(g: np.ndarray, v: np.ndarray, redraw) -> np.ndarray:
    """Rows of ``v`` scaled to g-unit length.  Rows too short to scale (a
    g-norm at most 1e-8 of the least one their Euclidean length allows) are
    replaced by ``redraw(mask)`` for the rows in ``mask``, up to 16 times."""
    floor = 1e-8 * _least_g_norm(g)
    for _ in range(16):
        nrm = np.sqrt(np.maximum(np.vecdot(np.vecmat(v, g), v), 0.0))
        short = nrm <= floor * np.linalg.norm(v, axis=-1)
        if not short.any():
            v /= nrm[:, None]
            return v
        v[short] = redraw(short)
    raise FrameConstructionError("random draw degenerated")  # pragma: no cover


def random_unit_vector(
    g: np.ndarray, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """A g-unit vector of Gaussian direction, or ``count`` of them as the
    rows of a ``(count, d)`` array."""
    d = g.shape[0]
    v = rng.normal(size=(1 if count is None else count, d))
    v = _unit_rows(g, v, lambda short: rng.normal(size=(short.sum(), d)))
    return v[0] if count is None else v


def antiholomorphic_pairs(
    g: np.ndarray,
    J: np.ndarray,
    rng: np.random.Generator,
    count: int,
    x: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` g-orthonormal pairs (x, y) with g(Jx, y) = 0, each spanning
    an antiholomorphic plane, as two ``(count, d)`` arrays.  Each y is a
    Gaussian draw projected off span{x, Jx}; x is drawn alongside it unless
    given as g-unit rows.  Needs dim >= 4."""
    d = g.shape[0]
    if d < 4:
        raise DimensionError(
            f"antiholomorphic planes need dim >= 4 (got {d}): the complement "
            "of span{x, Jx} must contain a unit vector"
        )
    if x is None:
        raw = rng.normal(size=(count, 2, d))  # x then y, plane by plane
        x = _unit_rows(g, raw[:, 0], lambda short: rng.normal(size=(short.sum(), d)))
        v = raw[:, 1]
    else:
        v = rng.normal(size=(count, d))
    jx = np.matvec(J, x)

    def project(v, rows):
        xr, jr = x[rows], jx[rows]
        gjx = np.vecmat(jr, g)
        return (
            v
            - np.vecdot(np.vecmat(xr, g), v)[:, None] * xr
            - (np.vecdot(gjx, v) / np.vecdot(gjx, jr))[:, None] * jr
        )

    y = _unit_rows(
        g, project(v, slice(None)),
        lambda short: project(rng.normal(size=(short.sum(), d)), short),
    )
    return x, y


@dataclass(frozen=True)
class AdaptedFrame:
    """g-orthonormal basis of the form (u_1..u_n, Ju_1..Ju_n).

    ``vectors`` holds the 2n basis vectors as rows; row n+k is the J-image
    of row k.
    """

    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0] // 2

    def gram_residual(self, g: np.ndarray) -> float:
        gram = self.vectors @ g @ self.vectors.T
        return float(np.abs(gram - np.eye(self.vectors.shape[0])).max())

    def closure_residual(self, J: np.ndarray) -> float:
        n = self.n
        imaged = (J @ self.vectors[:n].T).T
        return float(np.abs(imaged - self.vectors[n:]).max())


def adapted_frame(g: np.ndarray, J: np.ndarray, rng: np.random.Generator) -> AdaptedFrame:
    """Greedy J-adapted frame: random u_1, normalize, append Ju_1, project
    the next random seed off the accumulated span, and so on."""
    d = g.shape[0]
    n = d // 2
    floor = 1e-8 * _least_g_norm(g)
    us: list[np.ndarray] = []
    jus: list[np.ndarray] = []
    for _ in range(n):
        for attempt in range(16):
            v = rng.normal(size=d)
            length = float(np.linalg.norm(v))
            for w in (*us, *jus):
                v = v - (w @ g @ v) * w
            nrm = _g_norm(v, g)
            if not nrm <= floor * length:
                break
        else:
            raise FrameConstructionError(
                "adapted frame: 16 random draws degenerated under projection"
            )
        u = v / nrm
        ju = J @ u
        # for a compatible J this is already unit and orthogonal to u; a tiny
        # re-orthogonalization keeps the Gram matrix at working precision
        ju = ju - (u @ g @ ju) * u
        ju = ju / float(np.sqrt(max(ju @ g @ ju, 0.0)))
        us.append(u)
        jus.append(ju)
    return AdaptedFrame(np.vstack([*us, *jus]))


@dataclass(frozen=True)
class Plane:
    """g-orthonormal spanning pair plus its holomorphy angle |g(Jx,y)|."""

    x: np.ndarray
    y: np.ndarray
    hol_angle: float

    def is_antiholomorphic(self) -> bool:
        return self.hol_angle <= _ORTHO_TOL

    def is_holomorphic(self) -> bool:
        return self.hol_angle >= 1.0 - _ORTHO_TOL


def _plane(g: np.ndarray, J: np.ndarray | None, x: np.ndarray, y: np.ndarray) -> Plane:
    angle = 0.0 if J is None else abs((J @ x) @ g @ y)
    return Plane(x, y, angle)


def sample_planes(
    g: np.ndarray,
    J: np.ndarray | None,
    kind: str,
    count: int,
    rng: np.random.Generator,
) -> list[Plane]:
    """Draw ``count`` g-orthonormal planes of the requested kind.

    kind 'holomorphic': y = Jx.  kind 'antiholomorphic': y unit in the
    g-orthogonal complement of span{x, Jx} (needs dim >= 4).  kind
    'random': unconstrained orthonormal pair.
    """
    if kind in ("holomorphic", "antiholomorphic") and J is None:
        raise DimensionError(f"{kind} planes need an almost-complex structure")
    if kind == "holomorphic":
        xs = random_unit_vector(g, rng, count)
        pairs = zip(xs, xs @ J.T)
    elif kind == "antiholomorphic":
        pairs = zip(*antiholomorphic_pairs(g, J, rng, count))
    elif kind == "random":
        pairs = (gram_schmidt(rng.normal(size=(2, g.shape[0])), g) for _ in range(count))
    else:
        raise ValueError(f"unknown plane kind {kind!r}")
    return [_plane(g, J, x, y) for x, y in pairs]


def sectional_curvature(riemann: np.ndarray, g: np.ndarray, plane: Plane) -> float:
    """K = R(x,y,y,x) for the plane's orthonormal pair.

    Raises ValueError when the pair fails orthonormality at 1e-10 (the
    formula has no denominator, so it silently scales otherwise).
    """
    x, y = plane.x, plane.y
    res = max(
        abs(x @ g @ x - 1.0),
        abs(y @ g @ y - 1.0),
        abs(x @ g @ y),
    )
    if res > _ORTHO_TOL:
        raise ValueError(
            f"plane is not g-orthonormal (residual {res:.3e}); "
            "build planes through sample_planes or gram_schmidt"
        )
    return float(_sectional(riemann, x, y))


def _sectional(riemann: np.ndarray, x: np.ndarray, y: np.ndarray):
    """R(x,y,y,x), rowwise on ``(count, d)`` arrays.  einsum sums each row
    in the same order as a single pair, so a plane's value does not depend
    on the batch it is evaluated in."""
    return np.einsum("abcd,...a,...b,...c,...d->...", riemann, x, y, y, x)


@dataclass(frozen=True)
class NuEstimate:
    """Sampled antiholomorphic sectional curvature at one point."""

    mean: float
    min: float
    max: float

    @property
    def spread(self) -> float:
        return self.max - self.min


def estimate_nu(
    riemann: np.ndarray,
    g: np.ndarray,
    J: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> NuEstimate:
    """Antiholomorphic sectional curvature over a random plane batch."""
    ks = _sectional(riemann, *antiholomorphic_pairs(g, J, rng, count))
    return NuEstimate(float(np.mean(ks)), float(np.min(ks)), float(np.max(ks)))


def nu_from_formula(tau: jets.Jet, tau_prime: jets.Jet, n: int) -> jets.Jet:
    """ν = ((2n+1)τ − 3τ′) / (8n(n²−1)) as a jet (so x(ν) is readable).

    Defined for n >= 2; the denominator vanishes at n = 1.
    """
    if n < 2:
        raise DimensionError(f"antiholomorphic curvature formula needs n >= 2, got n={n}")
    return ((2 * n + 1) * tau - 3 * tau_prime) * (1.0 / (8 * n * (n * n - 1)))
