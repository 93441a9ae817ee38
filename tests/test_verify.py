"""Checks for the identity-suite layer: applicability gates, report shape,
determinism, and agreement of the vectorised evaluators with explicit
frame-loop oracles."""

from pathlib import Path

import numpy as np
import pytest

from curvlab import verify
from curvlab.cli import load_manifold_file
from curvlab.errors import HypothesisNotMetError
from curvlab.geometry import ExprMatrixField, ManifoldSpec
from curvlab.hermitian import relative_residual
from curvlab.modelspaces import make_flat
from curvlab.verify import (
    IDENTITIES,
    IDENTITY_TAGS,
    CheckConfig,
    Session,
    check_identity,
    full_report,
    schur_check,
)
from helpers import rel_err, scalar_sides

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# small but non-degenerate sampling budget; the full-size runs live in the
# acceptance tests
QUICK = dict(points=3, planes=12, vectors=10, seed=7)

RIEMANNIAN_TAGS = {"EQ6", "EQ7", "EQ8"}
CONSTANT_NU_TAGS = {"PROP3", "PROP4", "PROP5", "EQ10", "EQ11", "EQ12", "EQ13", "LEMMA", "SCHUR"}


@pytest.fixture(scope="module")
def s6_session(s6):
    return Session(s6, CheckConfig(**QUICK))


@pytest.fixture(scope="module")
def cp2_session(cp2):
    return Session(cp2, CheckConfig(**QUICK))


def test_check_config_rejects_bad_values():
    with pytest.raises(ValueError):
        CheckConfig(points=0)
    with pytest.raises(ValueError):
        CheckConfig(vectors=-3)
    with pytest.raises(ValueError):
        CheckConfig(tol=0.0)
    assert CheckConfig(seed=5).to_dict()["seed"] == 5


@pytest.mark.parametrize("model", ["flat2", "cp2", "cd2", "s6"])
def test_every_identity_applies_and_passes(model, request):
    spec = request.getfixturevalue(model)
    report = full_report(spec, CheckConfig(**QUICK), "all")
    assert report.passed
    assert report.skipped == []
    # every tag except SCHUR shows up as an identity row; SCHUR has its own block
    assert [r.tag for r in report.identities] == [t for t in IDENTITY_TAGS if t != "SCHUR"]
    assert all(r.max_residual <= r.tolerance for r in report.identities)
    assert report.schur is not None and report.schur.passed


def test_no_complex_structure_runs_only_riemannian_tags(perturbed_flat):
    report = full_report(perturbed_flat, CheckConfig(**QUICK), "all")
    assert {r.tag for r in report.identities} == RIEMANNIAN_TAGS
    assert report.passed  # the Bianchi family holds on any metric
    skipped = {entry["tag"]: entry["reason"] for entry in report.skipped}
    assert set(skipped) == (set(IDENTITY_TAGS) - RIEMANNIAN_TAGS) | {"CLASSIFICATION"}
    assert "no almost-complex structure" in skipped["EQ1"]


def test_varying_nu_skips_constancy_family(kahler_bump):
    report = full_report(kahler_bump, CheckConfig(**QUICK), "all")
    ran = {r.tag for r in report.identities}
    assert ran == {"EQ1", "EQ2", "EQ6", "EQ7", "EQ8", "EQ9"}
    assert report.passed
    skipped = {entry["tag"]: entry["reason"] for entry in report.skipped}
    assert set(skipped) == CONSTANT_NU_TAGS
    for reason in skipped.values():
        assert "not pointwise constant" in reason


def test_low_dimension_blocks_plane_dependent_tags():
    # n = 1 gives a 2-dimensional space: no antiholomorphic planes exist
    with pytest.raises(HypothesisNotMetError) as err:
        check_identity(make_flat(1), "PROP3", points=2, vectors_per_point=4)
    assert "dim >= 4" in err.value.missing


def test_hypothesis_error_carries_missing_condition(perturbed_flat):
    with pytest.raises(HypothesisNotMetError) as err:
        check_identity(perturbed_flat, "EQ1", points=2, vectors_per_point=4)
    assert "almost-complex" in err.value.missing


def test_unknown_tag_and_suite_rejected(s6_session, s6):
    with pytest.raises(ValueError):
        s6_session.identity("EQ99")
    with pytest.raises(ValueError):
        full_report(s6, CheckConfig(**QUICK), "everything")


def test_implication_chain_on_nearly_kaehler(s6_session):
    # the three-term identity follows from the stronger symmetric-part
    # statement, and J-invariance of R follows from the three-term identity;
    # the observed residuals respect both implications
    prop3 = s6_session.identity("PROP3")
    eq1 = s6_session.identity("EQ1")
    eq2 = s6_session.identity("EQ2")
    assert prop3.passed and eq1.passed and eq2.passed
    tol = s6_session.config.tol
    assert eq1.max_residual <= 10 * tol
    assert eq2.max_residual <= 10 * tol


def test_contracted_bianchi_nontrivial_when_scalar_varies(kahler_bump):
    # on a metric with non-constant scalar curvature both sides of the
    # divergence identity are nonzero, so a pass is not vacuous
    session = Session(kahler_bump, CheckConfig(**QUICK))
    grads = [
        float(np.linalg.norm(pd.pg.scalar_curvature_jet.gradient))
        for pd in session.data
    ]
    assert max(grads) > 1e-3
    result = session.identity("EQ8")
    assert result.passed and result.samples == QUICK["points"] * QUICK["vectors"]


def test_eq11_trace_term_matches_frame_loop(s6_session):
    # the einsum contraction  S_ab (∇_m J)^a_j (Jx)^j g^{mb}  must agree with
    # summing S((∇_e J) Jx, e) over any g-orthonormal frame
    pd = s6_session.data[0]
    rng = np.random.default_rng(99)
    x = rng.standard_normal(pd.pg.spec.dim)
    x /= np.sqrt(pd.pg.inner(x, x))
    jx = pd.hd.J @ x
    S = pd.pg.ricci
    contracted = float(np.einsum("ab,maj,j,mb->", S, pd.hd.nabla_J, jx, pd.pg.g_inv))
    looped = sum(float(pd.hd.nabla_J_apply(e, jx) @ S @ e) for e in pd.frame_rows)
    assert contracted == pytest.approx(looped, abs=1e-10)


def test_schur_statistics_on_s6(s6):
    stats = schur_check(s6, points=3, seed=1)
    assert stats.warnings == []
    assert stats.passed
    np.testing.assert_allclose(stats.tau, 30.0, atol=1e-8)
    np.testing.assert_allclose(stats.tau_star, 6.0, atol=1e-8)
    # (n+1)τ − 3τ* with n = 3
    np.testing.assert_allclose(stats.lemma_combination, 102.0, atol=1e-7)
    assert max(stats.spreads.values()) < 1e-7


def test_schur_statistics_on_cp2(cp2):
    stats = schur_check(cp2, points=3, seed=1)
    np.testing.assert_allclose(stats.nu_formula, 1.0, atol=1e-8)
    np.testing.assert_allclose(stats.nu_sampled, 1.0, atol=1e-6)
    assert len(stats.warnings) == 1 and "n < 3" in stats.warnings[0]


def test_lemma_and_schur_sample_counts(s6_session):
    assert s6_session.identity("LEMMA").samples == QUICK["points"]
    assert s6_session.identity("SCHUR").samples == QUICK["points"]


def test_invalid_j_fails_report_without_raising():
    spec = load_manifold_file(FIXTURES / "broken_j.json")
    report = full_report(spec, CheckConfig(**QUICK), "all")
    assert not report.passed
    assert not report.validation["ok"]
    assert report.validation["j_squared"] > 1.0
    # the Riemannian tags still run on fallback frames; everything J-dependent skips
    assert {r.tag for r in report.identities} == RIEMANNIAN_TAGS
    skipped = {entry["tag"]: entry["reason"] for entry in report.skipped}
    assert "failed validation" in skipped["CLASSIFICATION"]


def test_suite_selectors(cd2):
    cfg = CheckConfig(**QUICK)
    single = full_report(cd2, cfg, "EQ6")
    assert [r.tag for r in single.identities] == ["EQ6"]
    assert single.schur is None and single.to_dict()["classification"] == {}

    class_only = full_report(cd2, cfg, "class")
    assert class_only.identities == [] and class_only.schur is None
    kaehler_row = class_only.to_dict()["classification"]["kaehler"]
    assert kaehler_row["pass"] is True and kaehler_row["residual"] < 1e-8

    schur_only = full_report(cd2, cfg, "schur")
    assert schur_only.identities == [] and schur_only.schur is not None


def test_reports_are_deterministic(cp2):
    cfg = CheckConfig(**QUICK)
    base = full_report(cp2, cfg, "all").to_dict()
    assert full_report(cp2, cfg, "all").to_dict() == base


@pytest.fixture(scope="module")
def twisted():
    """Conformally flat metric with a J that rotates along x2: J is
    g-orthogonal with J² = −1 but far from Kähler, so ∇J, B and δF (which
    vanish on the builtins) are all nonzero."""
    c, s = "cos(x2/2)", "sin(x2/2)"
    J = [
        ["0", f"-{c}", "0", s],
        [c, "0", s, "0"],
        ["0", f"-{s}", "0", f"-{c}"],
        [f"-{s}", "0", c, "0"],
    ]
    phi = "(1 + 0.1*x1^2 + 0.05*x3*x4)"
    g = [[phi if i == j else "0" for j in range(4)] for i in range(4)]
    return ManifoldSpec("twisted", 4, ExprMatrixField(g, 4), ExprMatrixField(J, 4))


@pytest.mark.parametrize("model", ["cp2", "s6", "kahler_bump", "twisted"])
def test_batched_evaluators_match_scalar_formulas(model, request):
    # every table row, on one point, against the scalar formula applied
    # sample by sample to the same argument array
    spec = request.getfixturevalue(model)
    session = Session(spec, CheckConfig(points=1, planes=8, vectors=12, seed=5))
    pd = session.data[0]
    rng = np.random.default_rng(11)
    for tag, row in IDENTITIES.items():
        if row.sides is None:
            continue
        args = verify._draw(pd, row, 12, rng)
        assert args.shape == (12, row.args, pd.pg.spec.dim)
        if row.antiholomorphic:
            x, y = args[:, 0], args[:, 1]
            gram = np.einsum("nia,ab,njb->nij", args, pd.pg.g, args)
            np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-12)
            g_jy_x = np.einsum("na,ab,nb->n", y @ pd.hd.J.T, pd.pg.g, x)
            np.testing.assert_allclose(g_jy_x, 0.0, atol=1e-12)
        lhs, rhs = np.broadcast_arrays(*row.sides(pd, args))
        residuals = relative_residual(lhs, rhs)
        for i, sample in enumerate(args):
            want_lhs, want_rhs = scalar_sides(tag, pd, sample)
            assert rel_err(lhs[i], want_lhs) <= 1e-12, (tag, i)
            assert rel_err(rhs[i], want_rhs) <= 1e-12, (tag, i)
            want = relative_residual(want_lhs, want_rhs)
            assert residuals[i] == pytest.approx(want, rel=1e-12, abs=1e-12), (tag, i)
