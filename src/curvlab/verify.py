"""Identity suite: curvature identities, constancy checks, report assembly.

Every check compares two independently computed sides of an identity with
the package-wide relative residual |L−R|/(1+|L|+|R|) and aggregates the
max over sampled points and randomized argument tuples.  Arguments are
drawn from a J-adapted frame *and* random unit vectors, so frame-aligned
cancellations cannot mask a failure.

The checks, by tag:

    EQ1    R(x,y,z,u) = R(x,y,Jz,Ju) + R(x,Jy,z,Ju) + R(Jx,y,z,Ju)
    EQ2    R(x,y,z,u) = R(Jx,Jy,Jz,Ju)
    PROP3  R = ψ/6 + ν·R₁ − ((2n−1)/3)·ν·R₂   (forms as in hermitian.py)
    PROP4  (n+1)S − 3S* = ((n+1)τ − 3τ*)/(2n) · g
    PROP5  antiholomorphic K ≡ ν = ((2n+1)τ − 3τ*)/(8n(n²−1))
    EQ6    second Bianchi identity (cyclic sum of ∇R)
    EQ7    (∇_x S)(y,z) − (∇_y S)(x,z) = Σ_i (∇_{e_i} R)(x,y,z,e_i)
    EQ8    Σ_i (∇_{e_i} S)(x,e_i) = ½·x(τ)
    EQ9    Σ_i (∇_{e_i} S*)(x,e_i) = ½·x(τ*)
    EQ10   4(n−1)x(ν) = directional Ricci combination with defect terms (B)
    EQ11   the δF variant for the pair (x, Jx)
    EQ12   EQ10 with the defect terms dropped (quasi-Kähler hypotheses)
    EQ13   EQ11 reduced likewise
    LEMMA  (n+1)τ − 3τ* agrees across sampled points
    SCHUR  ν, τ, τ* agree across sampled points

Each tag is one row of :data:`IDENTITIES`, which holds its hypotheses
(required class, pointwise constant ν, minimum n), its hypothesis note, how
many argument vectors one sample takes, and a function that evaluates both
sides for a whole batch of samples.  On manifolds outside a row's
hypotheses the tag is reported as skipped with the first unmet one, never
as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import hermitian, planes
from .errors import HypothesisNotMetError
from .geometry import (
    METRIC_SYMMETRY_TOL,
    ManifoldSpec,
    PointGeometry,
    contract,
    metric_symmetry_residual,
    metric_positive_definite,
    sample_points,
)
from .hermitian import (
    ClassificationReport,
    HermitianData,
    classify_point,
    kaehler_curvature_form,
    merge_classifications,
    metric_curvature_form,
    relative_residual,
    ricci_curvature_form,
    worst_residual,
)
from .jets import Jet
from .planes import AdaptedFrame, NuEstimate, adapted_frame, nu_from_formula

# structural residual beyond which J is not accepted as an almost-complex
# structure compatible with g (true structures sit at rounding level)
VALIDATION_TOL = 1e-8

# a manifold counts as having pointwise constant antiholomorphic curvature
# when every sampled plane batch has spread within this factor of the check
# tolerance
NU_GATE_FACTOR = 100.0


@dataclass(frozen=True)
class CheckConfig:
    points: int = 8
    planes: int = 32
    vectors: int = 32
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self):
        if min(self.points, self.planes, self.vectors) < 1:
            raise ValueError("points, planes and vectors must all be >= 1")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "planes": self.planes,
            "vectors": self.vectors,
            "seed": self.seed,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class IdentityResult:
    tag: str
    max_residual: float
    samples: int
    tolerance: float
    hypothesis_note: str

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "max_residual": self.max_residual,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "hypothesis_note": self.hypothesis_note,
        }


@dataclass(frozen=True)
class SchurStatistics:
    """Per-point scalar statistics and their spreads (max − min)."""

    nu_formula: list[float]
    nu_sampled: list[float]
    tau: list[float]
    tau_star: list[float]
    lemma_combination: list[float]  # (n+1)τ − 3τ*
    tolerance: float
    warnings: list[str] = field(default_factory=list)

    @staticmethod
    def _spread(values: list[float]) -> float:
        return float(np.ptp(values)) if values else 0.0

    @property
    def spreads(self) -> dict:
        return {
            "nu_formula": self._spread(self.nu_formula),
            "nu_sampled": self._spread(self.nu_sampled),
            "tau": self._spread(self.tau),
            "tau_star": self._spread(self.tau_star),
            "lemma_combination": self._spread(self.lemma_combination),
        }

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.spreads.values())

    def to_dict(self) -> dict:
        return {
            "nu_formula": list(self.nu_formula),
            "nu_sampled": list(self.nu_sampled),
            "tau": list(self.tau),
            "tau_star": list(self.tau_star),
            "lemma_combination": list(self.lemma_combination),
            "spreads": self.spreads,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# per-point bundle


@dataclass
class PointData:
    pg: PointGeometry
    frame: AdaptedFrame | None  # J-adapted when J present, else orthonormal rows
    frame_rows: np.ndarray
    nu_est: NuEstimate | None
    nu_jet: Jet | None  # formula route, needs J and n >= 2

    @property
    def hd(self) -> HermitianData | None:
        return self.pg.hermitian

    @property
    def lemma_value(self) -> float:
        n = self.pg.spec.n
        return (n + 1) * self.pg.scalar_curvature - 3.0 * self.hd.star_scalar


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


_PURPOSE_POINTS = 100
_PURPOSE_FRAME = 0
_PURPOSE_NU = 1
_PURPOSE_CLASSIFY = 2
_PURPOSE_TAG = 10  # + tag index


def _point_data(spec: ManifoldSpec, point: np.ndarray, idx: int, config: CheckConfig) -> PointData:
    pg = PointGeometry(spec, point)
    hd = pg.hermitian
    frame = None
    nu_est = None
    nu_jet = None
    if hd is not None:
        structural = worst_residual([
            hd.j_squared_residual,
            hd.compatibility_residual,
            hd.j_low_antisymmetry_residual,
        ])
        if structural <= VALIDATION_TOL:
            frame = adapted_frame(pg.g, hd.J, _rng(config.seed, _PURPOSE_FRAME, idx))
            if spec.dim >= 4:
                nu_est = planes.estimate_nu(
                    pg.riemann, pg.g, hd.J, config.planes,
                    _rng(config.seed, _PURPOSE_NU, idx),
                )
            if spec.n >= 2:
                nu_jet = nu_from_formula(
                    pg.scalar_curvature_jet, hd.star_scalar_jet, spec.n
                )
    if frame is not None:
        frame_rows = frame.vectors
    else:
        frame_rows = planes.orthonormal_frame(pg.g, _rng(config.seed, _PURPOSE_FRAME, idx))
    return PointData(pg, frame, frame_rows, nu_est, nu_jet)


# ---------------------------------------------------------------------------
# the identity table


def _draw(pd: PointData, row: Identity, count: int, rng: np.random.Generator) -> np.ndarray:
    """``(count, row.args, d)`` arguments.  Each vector is an adapted-frame
    row or a random unit vector, with equal odds; for an antiholomorphic
    row the first vector is instead drawn g-orthogonal to the second and
    to its J-image."""
    g, frame = pd.pg.g, pd.frame_rows
    k = row.args - row.antiholomorphic
    picks = rng.integers(0, frame.shape[0], size=(count, k))
    args = planes.random_unit_vector(g, rng, count * k).reshape(count, k, -1)
    take = rng.random((count, k)) < 0.5
    args[take] = frame[picks[take]]
    if row.antiholomorphic:
        y, x = planes.antiholomorphic_pairs(g, pd.hd.J, rng, count, args[:, 0])
        args = np.stack([x, y], axis=1)
    return args


def _prop3(pd: PointData, args: np.ndarray):
    pg, J, n, nu = pd.pg, pd.hd.J, pd.pg.spec.n, pd.nu_jet.value
    x, y, z, u = args.transpose(1, 0, 2)
    rhs = (
        ricci_curvature_form(pg.g, J, pg.ricci, x, y, z, u) / 6.0
        + nu * metric_curvature_form(pg.g, x, y, z, u)
        - ((2 * n - 1) / 3.0) * nu * kaehler_curvature_form(pg.g, J, x, y, z, u)
    )
    return contract(pg.riemann, x, y, z, u), rhs


def _prop4(pd: PointData, args: np.ndarray):
    pg, hd, n = pd.pg, pd.hd, pd.pg.spec.n
    x, y = args.transpose(1, 0, 2)
    lhs = (n + 1) * contract(pg.ricci, x, y) - 3.0 * contract(hd.ricci_star, x, y)
    return lhs, pd.lemma_value / (2.0 * n) * contract(pg.g, x, y)


def _prop5(pd: PointData, args: np.ndarray):
    x, y = args.transpose(1, 0, 2)
    return contract(pd.pg.riemann, x, y, y, x), pd.nu_jet.value


def _eq6(pd: PointData, args: np.ndarray):
    nR = pd.pg.nabla_riemann
    w, x, y, z, u = args.transpose(1, 0, 2)
    lhs = contract(nR, w, x, y, z, u) + contract(nR, x, y, w, z, u) + contract(nR, y, w, x, z, u)
    return lhs, 0.0


def _eq7(pd: PointData, args: np.ndarray):
    pg = pd.pg
    x, y, z = args.transpose(1, 0, 2)
    trace = np.einsum("mabcd,md->abc", pg.nabla_riemann, pg.g_inv)
    lhs = contract(pg.nabla_ricci, x, y, z) - contract(pg.nabla_ricci, y, x, z)
    return lhs, contract(trace, x, y, z)


def _divergence_sides(nabla_T: np.ndarray, trace: Jet, pd: PointData, args: np.ndarray):
    """(div T)(x) and x(tr T)/2 for a symmetric 2-tensor T."""
    x = args[:, 0]
    div = np.einsum("mab,mb->a", nabla_T, pd.pg.g_inv)
    return x @ div, 0.5 * (x @ trace.gradient)


def _eq8(pd: PointData, args: np.ndarray):
    return _divergence_sides(pd.pg.nabla_ricci, pd.pg.scalar_curvature_jet, pd, args)


def _eq9(pd: PointData, args: np.ndarray):
    return _divergence_sides(pd.hd.nabla_ricci_star, pd.hd.star_scalar_jet, pd, args)


def _x_nu_sides(pd: PointData, x: np.ndarray, y: np.ndarray):
    """4(n−1)x(ν) and D(x,y) = (∇_x S)(y,y) + (∇_x S)(Jy,Jy) − (∇_y S)(x,y)
    − (∇_{Jy} S)(x,Jy), the two sides of EQ12."""
    nS = pd.pg.nabla_ricci
    jy = y @ pd.hd.J.T
    combination = (
        contract(nS, x, y, y) + contract(nS, x, jy, jy)
        - contract(nS, y, x, y) - contract(nS, jy, x, jy)
    )
    return 4.0 * (pd.pg.spec.n - 1) * (x @ pd.nu_jet.gradient), combination


def _eq10(pd: PointData, args: np.ndarray):
    pg, hd, n, nu = pd.pg, pd.hd, pd.pg.spec.n, pd.nu_jet.value
    x, y = args.transpose(1, 0, 2)
    jby = hd.nk_defect(y) @ hd.J.T
    g_jby_x = contract(pg.g, jby, x)
    lhs, combination = _x_nu_sides(pd, x, y)
    rhs = (
        combination
        - contract(pg.ricci, jby, x)
        - g_jby_x * contract(pg.ricci, y, y)
        + 2.0 * (2 * n - 1) * nu * g_jby_x
    )
    return lhs, rhs


def _eq11(pd: PointData, args: np.ndarray):
    pg, hd, n, nu = pd.pg, pd.hd, pd.pg.spec.n, pd.nu_jet.value
    S, nS = pg.ricci, pg.nabla_ricci
    x = args[:, 0]
    jx = x @ hd.J.T
    # Σ_i S((∇_{e_i} J) Jx, e_i), frame-free
    frame_trace = jx @ np.einsum("ab,maj,mb->j", S, hd.nabla_J, pg.g_inv)
    g_df_jx = jx @ (pg.g @ hd.delta_F)
    lhs = contract(nS, x, jx, jx) - contract(nS, jx, x, jx)
    x_nu = x @ pd.nu_jet.gradient
    rhs = (
        0.5
        * (
            0.5 * (x @ pg.scalar_curvature_jet.gradient)
            - frame_trace
            + g_df_jx * contract(S, x, x)
            + contract(nS, x, jx, jx)
            + contract(S, hd.nabla_J_apply(x, x), jx)
        )
        - 2.0 * (n - 1) * x_nu
        - (2 * n - 1) * nu * g_df_jx
    )
    return lhs, rhs


def _eq12(pd: PointData, args: np.ndarray):
    return _x_nu_sides(pd, args[:, 0], args[:, 1])


def _eq13(pd: PointData, args: np.ndarray):
    pg, nS = pd.pg, pd.pg.nabla_ricci
    x = args[:, 0]
    jx = x @ pd.hd.J.T
    rhs = (
        0.5 * (x @ pg.scalar_curvature_jet.gradient)
        - contract(nS, x, jx, jx)
        + contract(nS, jx, x, jx)
    )
    return 4.0 * (pg.spec.n - 1) * (x @ pd.nu_jet.gradient), rhs


@dataclass(frozen=True)
class Identity:
    """One row of the identity table.

    ``requires`` is None for the purely Riemannian tags; otherwise it pairs
    the classification classes of which one must pass with the skip reason
    when none does.  ``min_n`` likewise pairs a least n with its reason.
    ``note`` is the hypothesis note (``{spread}`` is the worst ν-batch
    spread), and ``small_n_note`` is appended to it when n < 3.  One sample
    takes ``args`` vectors, and ``sides(point_data, args)`` returns both
    sides of the identity for a ``(count, args, d)`` batch.  LEMMA and
    SCHUR compare values across points, so they draw nothing.
    """

    requires: tuple[tuple[str, ...], str] | None
    const_nu: bool
    min_n: tuple[int, str] | None
    note: str
    args: int
    sides: Callable | None
    antiholomorphic: bool = False
    small_n_note: str = ""


_QK = (
    ("quasi_kaehler", "nearly_kaehler"),
    "requires the quasi-Kähler class (or nearly Kähler); classification residual above tolerance",
)
_QK2 = (("qk2",), "requires the quasi-Kähler class with the three-term identity")
_AH3 = (("ah3",), "requires the J-invariant-curvature class")
_X_NU = (2, "x(ν) needs n >= 2 (formula denominator)")
_BIANCHI = "purely Riemannian (Bianchi family); no hypothesis"
_CONST_NU = (
    "J-invariant curvature + pointwise constant antiholomorphic curvature "
    "(max plane-batch spread {spread:.3e})"
)
_DIRECTIONAL = "directional-derivative identity under the {} + constant-ν hypotheses"
_DEFECTS = (
    _DIRECTIONAL.format("J-invariant-curvature class")
    + "; defect-term grouping ambiguous in general — B and δF vanish on every shipped model"
)
_NO_DEFECTS = _DIRECTIONAL.format("quasi-Kähler class with the three-term identity")
_OUTSIDE = "; n < 3: outside the constancy theorem's range, checked anyway"

IDENTITIES: dict[str, Identity] = {
    # tag: Identity(requires, const_nu, min_n, note, args, sides, ...)
    "EQ1": Identity(_QK, False, None, "holds on the quasi-Kähler curvature class by definition",
                    4, lambda pd, args: hermitian.three_term_sides(pd.hd, args)),
    "EQ2": Identity(_QK, False, None, "J-invariance of R; implied by the three-term identity",
                    4, lambda pd, args: hermitian.j_invariance_sides(pd.hd, args)),
    "PROP3": Identity(_AH3, True, None, _CONST_NU, 4, _prop3),
    "PROP4": Identity(_AH3, True, None, _CONST_NU, 2, _prop4),
    "PROP5": Identity(_AH3, True, None, _CONST_NU, 2, _prop5, antiholomorphic=True),
    "EQ6": Identity(None, False, None, _BIANCHI, 5, _eq6),
    "EQ7": Identity(None, False, None, _BIANCHI, 3, _eq7),
    "EQ8": Identity(None, False, None, _BIANCHI, 1, _eq8),
    "EQ9": Identity(_QK2, False, None, "star-scalar analogue of the contracted Bianchi identity",
                    1, _eq9),
    "EQ10": Identity(_AH3, True, _X_NU, _DEFECTS, 2, _eq10, antiholomorphic=True),
    "EQ11": Identity(_AH3, True, _X_NU, _DEFECTS, 1, _eq11),
    "EQ12": Identity(_QK2, True, _X_NU, _NO_DEFECTS, 2, _eq12, antiholomorphic=True,
                     small_n_note=_OUTSIDE),
    "EQ13": Identity(_QK2, True, _X_NU, _NO_DEFECTS, 1, _eq13, small_n_note=_OUTSIDE),
    "LEMMA": Identity(_QK2, True, (2, "stated for n >= 2"),
                      "(n+1)τ − 3τ* constant across points", 0, None),
    "SCHUR": Identity(_QK2, True, None, "global constancy of ν, τ, τ*", 0, None,
                      small_n_note="; n < 3: below the constancy theorem's range, checked anyway"),
}

IDENTITY_TAGS = tuple(IDENTITIES)


# ---------------------------------------------------------------------------
# session


class Session:
    """Shared state for a batch of checks on one manifold: sampled points,
    per-point geometry, classification, and applicability gates."""

    def __init__(self, spec: ManifoldSpec, config: CheckConfig):
        self.spec = spec
        self.config = config
        self.points = sample_points(
            spec, config.points, _rng(config.seed, _PURPOSE_POINTS)
        )

        sym = worst_residual([metric_symmetry_residual(spec, p) for p in self.points])
        pos = all(metric_positive_definite(spec, p) for p in self.points)
        self.metric_ok = sym <= METRIC_SYMMETRY_TOL and pos
        self.validation = {
            "metric_symmetry": sym,
            "positive_definite": pos,
            "j_squared": None,
            "compatibility": None,
            "j_low_antisymmetry": None,
        }

        self.data: list[PointData] = []
        if self.metric_ok:
            self.data = [_point_data(spec, p, i, config) for i, p in enumerate(self.points)]
        if self.data and self.data[0].hd is not None:
            for key, attr in (
                ("j_squared", "j_squared_residual"),
                ("compatibility", "compatibility_residual"),
                ("j_low_antisymmetry", "j_low_antisymmetry_residual"),
            ):
                self.validation[key] = worst_residual([getattr(pd.hd, attr) for pd in self.data])
        self.validation["ok"] = self.metric_ok and all(
            self.validation[k] is None or self.validation[k] <= VALIDATION_TOL
            for k in ("j_squared", "compatibility", "j_low_antisymmetry")
        )

        self.classification: ClassificationReport | None = None
        if self.j_valid:
            per_point = [
                classify_point(
                    pd.hd,
                    config.vectors,
                    _rng(config.seed, _PURPOSE_CLASSIFY, i),
                    config.tol,
                )
                for i, pd in enumerate(self.data)
            ]
            self.classification = merge_classifications(per_point, config.tol)

        self.nu_spread = (
            worst_residual([pd.nu_est.spread for pd in self.data])
            if self.j_valid and all(pd.nu_est is not None for pd in self.data)
            else None
        )

    # -- validation / gates

    @property
    def has_j(self) -> bool:
        return self.spec.complex_structure is not None

    @property
    def j_valid(self) -> bool:
        return (
            self.has_j
            and self.validation["ok"]
            and self.validation["j_squared"] is not None
        )

    @property
    def pointwise_constant_nu(self) -> bool | None:
        if self.nu_spread is None:
            return None
        return self.nu_spread <= NU_GATE_FACTOR * self.config.tol

    def _unmet(self, row: Identity) -> str | None:
        """The first hypothesis of ``row`` that fails here, or None."""
        if not self.metric_ok:
            return (
                "metric failed validation (asymmetric or not positive definite "
                "at a sampled point)"
            )
        if row.requires is None:
            return None
        if not self.has_j:
            return "no almost-complex structure on this manifold"
        if not self.j_valid:
            return (
                "almost-complex structure failed validation "
                f"(worst structural residual {self._worst_structural():.3e})"
            )
        classes, reason = row.requires
        if not any(self.classification[name].passed for name in classes):
            return reason
        if row.const_nu:
            base = "requires pointwise constant antiholomorphic curvature"
            if self.spec.dim < 4:
                return f"{base}: needs dim >= 4 (antiholomorphic planes)"
            if self.pointwise_constant_nu is None:
                return f"{base}: antiholomorphic curvature unavailable"
            if not self.pointwise_constant_nu:
                return (
                    f"{base}: antiholomorphic curvature is not pointwise constant "
                    f"(max plane-batch spread {self.nu_spread:.3e} exceeds "
                    f"{NU_GATE_FACTOR:g} x tol)"
                )
        if row.min_n is not None and self.spec.n < row.min_n[0]:
            return row.min_n[1]
        return None

    def _note(self, tag: str) -> str:
        """``tag``'s hypothesis note; raises HypothesisNotMetError naming the
        first unmet hypothesis when the tag does not apply."""
        row = IDENTITIES[tag]
        reason = self._unmet(row)
        if reason is not None:
            raise HypothesisNotMetError(f"{tag} not applicable: {reason}", missing=reason)
        note = row.note.format(spread=self.nu_spread)
        return note + row.small_n_note if self.spec.n < 3 else note

    def _worst_structural(self) -> float:
        vals = [
            self.validation[k]
            for k in ("j_squared", "compatibility", "j_low_antisymmetry")
            if self.validation[k] is not None
        ]
        return worst_residual(vals) if vals else float("nan")

    # -- checks

    def identity(self, tag: str) -> IdentityResult:
        if tag not in IDENTITIES:
            raise ValueError(f"unknown identity tag {tag!r}; known: {', '.join(IDENTITY_TAGS)}")
        note = self._note(tag)
        cfg = self.config
        if tag == "LEMMA":
            values = np.array([pd.lemma_value for pd in self.data])
            res = worst_residual(relative_residual(values[:, None], values[None, :]))
            return IdentityResult(tag, res, len(values), cfg.tol, note)
        if tag == "SCHUR":
            stats = self.schur()
            res = worst_residual([
                stats.spreads[key] / (1.0 + abs(np.mean(getattr(stats, key))))
                for key in ("nu_formula", "tau", "tau_star")
            ])
            return IdentityResult(tag, res, len(stats.tau), cfg.tol, note)
        row = IDENTITIES[tag]
        key = _PURPOSE_TAG + IDENTITY_TAGS.index(tag)
        residuals = np.concatenate([
            relative_residual(*row.sides(pd, _draw(pd, row, cfg.vectors, _rng(cfg.seed, key, i))))
            for i, pd in enumerate(self.data)
        ])
        return IdentityResult(tag, worst_residual(residuals), residuals.size, cfg.tol, note)

    def schur(self) -> SchurStatistics:
        self._note("SCHUR")
        warnings = []
        if self.spec.n < 3:
            warnings.append(
                "n < 3: the ν-constancy statement is outside its stated range"
            )
        if self.spec.n < 2:
            warnings.append("n < 2: the (n+1)τ−3τ* statement is outside its stated range")
        return SchurStatistics(
            nu_formula=[pd.nu_jet.value for pd in self.data],
            nu_sampled=[pd.nu_est.mean for pd in self.data],
            tau=[pd.pg.scalar_curvature for pd in self.data],
            tau_star=[pd.hd.star_scalar for pd in self.data],
            lemma_combination=[pd.lemma_value for pd in self.data],
            tolerance=self.config.tol,
            warnings=warnings,
        )


# ---------------------------------------------------------------------------
# public entry points


def check_identity(
    spec: ManifoldSpec,
    tag: str,
    points: int = 8,
    vectors_per_point: int = 32,
    seed: int = 0,
    tol: float = 1e-6,
) -> IdentityResult:
    """Run one identity check; raises HypothesisNotMetError when the
    manifold is outside the identity's hypothesis class."""
    config = CheckConfig(points=points, vectors=vectors_per_point, seed=seed, tol=tol)
    return Session(spec, config).identity(tag)


def schur_check(
    spec: ManifoldSpec, points: int = 8, seed: int = 0, tol: float = 1e-6
) -> SchurStatistics:
    config = CheckConfig(points=points, seed=seed, tol=tol)
    return Session(spec, config).schur()


@dataclass(frozen=True)
class Report:
    manifold: dict
    config: dict
    validation: dict
    classification: dict
    identities: list[IdentityResult]
    schur: SchurStatistics | None
    skipped: list[dict]

    @property
    def passed(self) -> bool:
        return (
            bool(self.validation["ok"])
            and all(r.passed for r in self.identities)
            and (self.schur is None or self.schur.passed)
        )

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "config": self.config,
            "validation": self.validation,
            "classification": self.classification,
            "identities": [r.to_dict() for r in self.identities],
            "schur": self.schur.to_dict() if self.schur is not None else None,
            "skipped": self.skipped,
            "pass": self.passed,
        }


def full_report(spec: ManifoldSpec, config: CheckConfig, suite: str = "all") -> Report:
    """Classification + applicable identities + constancy statistics.

    ``suite`` selects a subset: 'class', 'identities', 'schur', 'all', or a
    single identity tag.  Inapplicable tags land in ``skipped`` with the
    unmet hypothesis; a failed applicable check is reported, not raised.
    """
    session = Session(spec, config)
    want_class = suite in ("class", "all")
    if suite in ("identities", "all"):
        tags = [t for t in IDENTITY_TAGS if t != "SCHUR"]
    elif suite in ("class", "schur"):
        tags = []
    else:
        tags = [suite] if suite in IDENTITY_TAGS else None
        if tags is None:
            raise ValueError(
                f"unknown suite {suite!r}: expected class, identities, schur, "
                "all, or an identity tag"
            )
    want_schur = suite in ("schur", "all", "SCHUR")
    if suite == "SCHUR":
        tags = []

    identities: list[IdentityResult] = []
    skipped: list[dict] = []
    for tag in tags:
        try:
            identities.append(session.identity(tag))
        except HypothesisNotMetError as err:
            skipped.append({"tag": tag, "reason": err.missing})

    schur_stats = None
    if want_schur:
        try:
            schur_stats = session.schur()
        except HypothesisNotMetError as err:
            skipped.append({"tag": "SCHUR", "reason": err.missing})

    classification = {}
    if want_class:
        if session.classification is not None:
            classification = {
                name: {"residual": res.residual, "pass": res.passed, "status": res.status}
                for name, res in session.classification.items()
            }
        else:
            reason = (
                "no almost-complex structure on this manifold"
                if not session.has_j
                else "almost-complex structure failed validation"
            )
            skipped.append({"tag": "CLASSIFICATION", "reason": reason})

    manifold = {
        "name": spec.name,
        "dim": spec.dim,
        "params": {k: spec.params[k] for k in sorted(spec.params)},
    }
    config_dict = dict(config.to_dict(), suite=suite)
    return Report(
        manifold=manifold,
        config=config_dict,
        validation=session.validation,
        classification=classification,
        identities=identities,
        schur=schur_stats,
        skipped=skipped,
    )
