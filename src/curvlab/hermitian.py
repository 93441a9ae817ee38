"""Everything involving the almost-complex structure J.

This module computes ∇J, the five class residuals (Kähler, nearly Kähler,
quasi Kähler, and the two curvature-identity classes), the star-Ricci form
S* and star scalar curvature τ* (traces of the curvature against J), the
codifferential vector δF, the defect vector B, and the three algebraic
curvature forms used to reconstruct R from Ricci data.

Class definitions, as residuals of identities in ∇J and R:

    kaehler         (∇_x J) y = 0
    nearly_kaehler  (∇_x J) x = 0
    quasi_kaehler   (∇_{Jx} J) y + J (∇_x J) y = 0
    qk2             quasi_kaehler and the three-term curvature identity
                    R(x,y,z,u) = R(x,y,Jz,Ju) + R(x,Jy,z,Ju) + R(Jx,y,z,Ju)
    ah3             the J-invariance identity R(x,y,z,u) = R(Jx,Jy,Jz,Ju)

Each class contains the previous ones; the report keeps all five residuals
so inclusion failures are visible rather than inferred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, planes
from .errors import MissingComplexStructureError
from .geometry import ManifoldSpec, PointGeometry, contract

# a class residual is labelled fail only when it exceeds tolerance by this
# factor; the band in between is reported as indeterminate
INDETERMINATE_BAND = 1e3


def relative_residual(lhs, rhs):
    """|lhs − rhs| / (1 + |lhs| + |rhs|): the package-wide residual metric,
    elementwise on arrays."""
    return np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))


def worst_residual(residuals) -> float:
    """The largest residual, or NaN when any is NaN: a non-finite residual
    must fail its check, never vanish from the maximum."""
    return float(np.max(residuals))


class HermitianData:
    """J-dependent tensors at one point, on top of a :class:`PointGeometry`.

    Arrays follow the conventions of :class:`PointGeometry`; ``J[i, j]``
    holds Jⁱ_j, ``nabla_J[m, k, j]`` holds (∇_m J)ᵏ_j.
    """

    def __init__(self, pg: PointGeometry):
        spec = pg.spec
        if spec.complex_structure is None:
            raise MissingComplexStructureError(
                f"manifold {spec.name!r} carries no almost-complex structure"
            )
        self.pg = pg
        d = spec.dim
        ctx1 = jets.get_context(d, 1)

        self.J_jets = spec.complex_structure.evaluate(pg.point, 1)
        self.J = self.J_jets[..., 0].copy()
        self.J_low = pg.g @ self.J

        # measured structural residuals (callers decide what is acceptable)
        self.j_squared_residual = float(np.abs(self.J @ self.J + np.eye(d)).max())
        self.compatibility_residual = float(
            np.abs(self.J.T @ pg.g @ self.J - pg.g).max()
        )
        self.j_low_antisymmetry_residual = float(
            np.abs(self.J_low + self.J_low.T).max()
        )

        # (∇_m J)ᵏ_j = ∂_m Jᵏ_j + Γᵏ_mp Jᵖ_j − Γᵖ_mj Jᵏ_p
        dJ = np.moveaxis(self.J_jets[..., ctx1.grad_pos], -1, 0)
        gam = pg.gamma
        self.nabla_J = (
            dJ
            + np.einsum("kmp,pj->mkj", gam, self.J)
            - np.einsum("pmj,kp->mkj", gam, self.J)
        )

        # star-Ricci: S*(x,y) = trace of v -> R(x, v, Jv, Jy), computed
        # frame-free as S*_ab = R_apqs g^pr Jq_r Js_b, kept as order-1 jets
        # so its covariant derivative and x(τ*) are available.
        ginv1 = jets.truncate_coeffs(pg.g_inv_jets, jets.get_context(d, 2), 1)
        t = jets.jet_einsum("apqs,pr->arqs", pg.riemann_jets, ginv1, ctx1)
        t = jets.jet_einsum("arqs,qr->as", t, self.J_jets, ctx1)
        self.ricci_star_jets = jets.jet_einsum("as,sb->ab", t, self.J_jets, ctx1)
        self.ricci_star = self.ricci_star_jets[..., 0].copy()
        star_coeffs = jets.jet_einsum("ab,ab->", self.ricci_star_jets, ginv1, ctx1)
        self.star_scalar_jet = jets.Jet(d, 1, star_coeffs)
        self.star_scalar = self.star_scalar_jet.value
        self.ricci_star_symmetry_residual = float(
            np.abs(self.ricci_star - self.ricci_star.T).max()
        )

        dSs = np.moveaxis(self.ricci_star_jets[..., ctx1.grad_pos], -1, 0)
        Ss = self.ricci_star
        self.nabla_ricci_star = (
            dSs
            - np.einsum("pma,pb->mab", gam, Ss)
            - np.einsum("pmb,ap->mab", gam, Ss)
        )

        # δF = Σ_i (∇_{e_i} J) e_i, frame-free: δFᵏ = g^pj (∇_p J)ᵏ_j
        self.delta_F = np.einsum("pj,pkj->k", pg.g_inv, self.nabla_J)

    def nabla_J_apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(∇_x J) y in chart components; rowwise on ``(count, d)`` arrays."""
        return np.einsum("mkj,...m,...j->...k", self.nabla_J, x, y)

    def nk_defect(self, y: np.ndarray) -> np.ndarray:
        """B y = (∇_y J) y + (∇_{Jy} J) Jy; vanishes on quasi-Kähler points."""
        jy = y @ self.J.T
        return self.nabla_J_apply(y, y) + self.nabla_J_apply(jy, jy)

    def nabla_ricci_star_at(self, w, x, y) -> float:
        """(∇_w S*)(x, y)."""
        return float(np.einsum("mab,m,a,b->", self.nabla_ricci_star, w, x, y))


def hermitian_data(spec: ManifoldSpec, point) -> HermitianData:
    return HermitianData(PointGeometry(spec, point))


# ---------------------------------------------------------------------------
# algebraic curvature forms and the curvature-class identities
#
# Arguments are chart-component vectors, or ``(count, d)`` arrays of them
# evaluated row by row.


def _form(A: np.ndarray, x, y):
    return np.einsum("...a,ab,...b->...", x, A, y)


def metric_curvature_form(g: np.ndarray, x, y, z, u):
    """g(y,z)g(x,u) − g(x,z)g(y,u): the curvature tensor of a unit-curvature
    space evaluated on (x,y,z,u)."""
    return _form(g, y, z) * _form(g, x, u) - _form(g, x, z) * _form(g, y, u)


def kaehler_curvature_form(g: np.ndarray, J: np.ndarray, x, y, z, u):
    """g(Jy,z)g(Jx,u) − g(Jx,z)g(Jy,u) − 2g(Jx,y)g(Jz,u): the J-built
    companion form; together with the metric form it spans the curvature
    of constant-holomorphic-curvature Kähler models."""
    jx, jy, jz = x @ J.T, y @ J.T, z @ J.T
    return (
        _form(g, jy, z) * _form(g, jx, u)
        - _form(g, jx, z) * _form(g, jy, u)
        - 2.0 * _form(g, jx, y) * _form(g, jz, u)
    )


def ricci_curvature_form(g: np.ndarray, J: np.ndarray, S: np.ndarray, x, y, z, u):
    """The Ricci-weighted companion form (bilinear in S and g∘J):

        g(Jy,z)S(Jx,u) − g(Jx,z)S(Jy,u) − 2g(Jx,y)S(Jz,u)
      + g(Jx,u)S(Jy,z) − g(Jy,u)S(Jx,z) − 2g(Jz,u)S(Jx,y)
    """
    jx, jy, jz = x @ J.T, y @ J.T, z @ J.T
    return (
        _form(g, jy, z) * _form(S, jx, u)
        - _form(g, jx, z) * _form(S, jy, u)
        - 2.0 * _form(g, jx, y) * _form(S, jz, u)
        + _form(g, jx, u) * _form(S, jy, z)
        - _form(g, jy, u) * _form(S, jx, z)
        - 2.0 * _form(g, jz, u) * _form(S, jx, y)
    )


def three_term_sides(data: HermitianData, args: np.ndarray):
    """Both sides of R(x,y,z,u) = R(x,y,Jz,Ju) + R(x,Jy,z,Ju) + R(Jx,y,z,Ju)
    for each ``(x, y, z, u)`` in a ``(count, 4, d)`` argument array."""
    R, vectors = data.pg.riemann, args.transpose(1, 0, 2)
    x, y, z, u = vectors
    jx, jy, jz, ju = vectors @ data.J.T
    rhs = contract(R, x, y, jz, ju) + contract(R, x, jy, z, ju) + contract(R, jx, y, z, ju)
    return contract(R, x, y, z, u), rhs


def j_invariance_sides(data: HermitianData, args: np.ndarray):
    """Both sides of R(x,y,z,u) = R(Jx,Jy,Jz,Ju), as :func:`three_term_sides`."""
    R, vectors = data.pg.riemann, args.transpose(1, 0, 2)
    return contract(R, *vectors), contract(R, *vectors @ data.J.T)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassResult:
    residual: float
    tolerance: float

    @property
    def status(self) -> str:
        if self.residual <= self.tolerance:
            return "pass"
        if self.residual <= INDETERMINATE_BAND * self.tolerance:
            return "indeterminate"
        return "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


CLASS_NAMES = ("kaehler", "nearly_kaehler", "quasi_kaehler", "qk2", "ah3")


@dataclass(frozen=True)
class ClassificationReport:
    kaehler: ClassResult
    nearly_kaehler: ClassResult
    quasi_kaehler: ClassResult
    qk2: ClassResult
    ah3: ClassResult

    def __getitem__(self, name: str) -> ClassResult:
        if name not in CLASS_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def items(self):
        return [(name, getattr(self, name)) for name in CLASS_NAMES]


def _vec_residual(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    nrm = np.sqrt(np.maximum(_form(g, v, v), 0.0))
    return nrm / (1.0 + nrm)


def classify_point(
    data: HermitianData,
    samples: int,
    rng: np.random.Generator,
    tol: float,
) -> ClassificationReport:
    """Max class residuals over ``samples`` draws of four random unit vectors."""
    g, J = data.pg.g, data.J
    args = planes.random_unit_vector(g, rng, 4 * samples).reshape(samples, 4, -1)
    x, y = args[:, 0], args[:, 1]
    nabla_x_y = data.nabla_J_apply(x, y)
    res_k = worst_residual(_vec_residual(nabla_x_y, g))
    res_nk = worst_residual(_vec_residual(data.nabla_J_apply(x, x), g))
    res_qk = worst_residual(_vec_residual(data.nabla_J_apply(x @ J.T, y) + nabla_x_y @ J.T, g))
    res_eq1 = worst_residual(relative_residual(*three_term_sides(data, args)))
    res_eq2 = worst_residual(relative_residual(*j_invariance_sides(data, args)))
    return ClassificationReport(
        kaehler=ClassResult(res_k, tol),
        nearly_kaehler=ClassResult(res_nk, tol),
        quasi_kaehler=ClassResult(res_qk, tol),
        qk2=ClassResult(worst_residual([res_qk, res_eq1]), tol),
        ah3=ClassResult(res_eq2, tol),
    )


def classify(
    spec: ManifoldSpec,
    point,
    samples: int = 32,
    seed: int = 0,
    tol: float = 1e-6,
) -> ClassificationReport:
    """Classify at a single point; see :func:`classify_point`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return classify_point(hermitian_data(spec, point), samples, rng, tol)


def merge_classifications(reports: list[ClassificationReport], tol: float) -> ClassificationReport:
    """Aggregate per-point reports by max residual."""
    merged = {
        name: ClassResult(worst_residual([r[name].residual for r in reports]), tol)
        for name in CLASS_NAMES
    }
    return ClassificationReport(**merged)
