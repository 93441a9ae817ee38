import numpy as np
import pytest

from curvlab import jets, planes
from curvlab.errors import SchemaError
from curvlab.geometry import PointGeometry, sample_points
from curvlab.hermitian import classify
from curvlab.modelspaces import (
    BUILTIN_MODELS,
    build_builtin,
    cross,
    make_cdn,
    make_cpn,
    make_flat,
    make_s6,
    s6_chart_transition,
    s6_embedding,
)


# ---------------------------------------------------------------------------
# the seven-dimensional cross product


def test_cross_product_identities(rng):
    for _ in range(25):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        ab = cross(a, b)
        np.testing.assert_allclose(cross(b, a), -ab, atol=1e-12)
        assert abs(a @ ab) < 1e-12
        assert abs(b @ ab) < 1e-12
        # norm identity |a x b|^2 = |a|^2 |b|^2 - (a.b)^2
        assert ab @ ab == pytest.approx((a @ a) * (b @ b) - (a @ b) ** 2, rel=1e-12)
        # double cross back onto the pair: a x (a x b) = (a.b) a - |a|^2 b
        np.testing.assert_allclose(
            cross(a, ab), (a @ b) * a - (a @ a) * b, atol=1e-10
        )


# ---------------------------------------------------------------------------
# the 6-sphere chart


def test_s6_embedding_stays_on_sphere():
    pts = [np.zeros(6), np.array([0.4, -0.2, 0.1, 0.3, -0.5, 0.2])]
    for pt in pts:
        X = s6_embedding(pt, order=2)
        # |X|^2 = 1 as a jet: constant coefficient 1, the rest zero
        sq = np.zeros(X.shape[1])
        for k in range(7):
            ctx = jets.get_context(6, 2)
            sq = sq + jets.jet_mul(X[k], X[k], ctx)
        assert sq[0] == pytest.approx(1.0, abs=1e-14)
        assert np.abs(sq[1:]).max() < 1e-14


def test_s6_metric_is_pullback_gram():
    spec = make_s6()
    pt = np.array([0.3, -0.1, 0.2, 0.4, -0.3, 0.1])
    g = spec.metric.evaluate(pt, 0)[..., 0]
    ctx = jets.get_context(6, 1)
    X = s6_embedding(pt, order=1)
    dX = np.stack([X[:, ctx.grad_pos[m]] for m in range(6)])  # dX[m, k]
    np.testing.assert_allclose(g, dX @ dX.T, atol=1e-13)


def test_s6_charts_agree_on_scalars():
    north = make_s6(pole="north")
    south = make_s6(pole="south")
    u = np.array([0.35, -0.2, 0.15, 0.4, 0.1, -0.25])
    v = s6_chart_transition(u)
    # transition maps between the charts: embeddings must coincide
    np.testing.assert_allclose(
        s6_embedding(u, 0, pole="north")[:, 0],
        s6_embedding(v, 0, pole="south")[:, 0],
        atol=1e-13,
    )
    pg_n = PointGeometry(north, u)
    pg_s = PointGeometry(south, v)
    assert pg_n.scalar_curvature == pytest.approx(pg_s.scalar_curvature, rel=1e-11)
    hd_n = pg_n.hermitian
    hd_s = pg_s.hermitian
    assert hd_n.star_scalar == pytest.approx(hd_s.star_scalar, rel=1e-10)


def test_s6_constants(rng, s6):
    pts = sample_points(s6, 3, rng)
    for pt in pts:
        pg = PointGeometry(s6, pt)
        hd = pg.hermitian
        assert pg.scalar_curvature == pytest.approx(30.0, abs=1e-9)
        assert hd.star_scalar == pytest.approx(6.0, abs=1e-9)
        assert hd.j_squared_residual < 1e-12
        assert hd.compatibility_residual < 1e-12
        # sectional curvature is identically 1 (round metric)
        frame = planes.orthonormal_frame(pg.g, rng)
        assert pg.curvature(frame[0], frame[3], frame[3], frame[0]) == pytest.approx(
            1.0, abs=1e-10
        )
        # strictly nearly Kahler: (nabla_x J) x = 0 but nabla J != 0
        x = frame[1]
        assert np.abs(hd.nabla_J_apply(x, x)).max() < 1e-12
        assert np.abs(hd.nabla_J).max() > 0.1


def test_s6_classification(s6):
    report = classify(s6, [0.2, 0.1, -0.3, 0.2, 0.4, -0.1], samples=24, seed=1)
    assert report["nearly_kaehler"].passed
    assert report["quasi_kaehler"].passed
    assert report["qk2"].passed
    assert report["ah3"].passed
    assert not report["kaehler"].passed
    assert report["kaehler"].residual > 0.1


# ---------------------------------------------------------------------------
# projective and hyperbolic model values


def test_cp2_constants(rng, cp2):
    pts = sample_points(cp2, 3, rng)
    for pt in pts:
        pg = PointGeometry(cp2, pt)
        hd = pg.hermitian
        assert pg.scalar_curvature == pytest.approx(24.0, abs=1e-9)
        assert hd.star_scalar == pytest.approx(24.0, abs=1e-9)
        # holomorphic sectional curvature c, antiholomorphic c/4
        for pl in planes.sample_planes(pg.g, hd.J, "holomorphic", 6, rng):
            k = planes.sectional_curvature(pg.riemann, pg.g, pl)
            assert k == pytest.approx(4.0, abs=1e-9)
        est = planes.estimate_nu(pg.riemann, pg.g, hd.J, 12, rng)
        assert est.mean == pytest.approx(1.0, abs=1e-9)
        assert est.spread < 1e-9


def test_cpn_scaling_with_c(rng):
    spec = make_cpn(2, c=2.5)
    pg = PointGeometry(spec, [0.1, 0.3, -0.2, 0.2])
    hd = pg.hermitian
    for pl in planes.sample_planes(pg.g, hd.J, "holomorphic", 4, rng):
        assert planes.sectional_curvature(pg.riemann, pg.g, pl) == pytest.approx(
            2.5, abs=1e-9
        )
    est = planes.estimate_nu(pg.riemann, pg.g, hd.J, 8, rng)
    assert est.mean == pytest.approx(2.5 / 4, abs=1e-9)


def test_cd2_constants(rng, cd2):
    pts = sample_points(cd2, 3, rng)
    for pt in pts:
        pg = PointGeometry(cd2, pt)
        hd = pg.hermitian
        assert pg.scalar_curvature == pytest.approx(-24.0, abs=1e-9)
        assert hd.star_scalar == pytest.approx(-24.0, abs=1e-9)
        est = planes.estimate_nu(pg.riemann, pg.g, hd.J, 12, rng)
        assert est.mean == pytest.approx(-1.0, abs=1e-9)


def test_cdn_samples_stay_in_unit_ball(cd2, rng):
    pts = sample_points(cd2, 200, rng)
    assert np.all(np.sum(pts**2, axis=1) < 1.0)
    for pt in pts[:10]:
        assert cd2.contains(pt)


def test_flat_classifies_kaehler(flat2):
    report = classify(flat2, [0.7, -0.9, 0.3, 0.5], samples=16, seed=0)
    assert all(result.passed for _, result in report.items())


def test_kahler_bump_is_kahler_but_not_einstein(kahler_bump, rng):
    pt = sample_points(kahler_bump, 1, rng)[0]
    pg = PointGeometry(kahler_bump, pt)
    hd = pg.hermitian
    assert np.abs(hd.nabla_J).max() < 1e-9
    # Ricci is not proportional to the metric: deviation after removing
    # the trace part is visible
    lam = pg.scalar_curvature / 4.0
    dev = np.abs(pg.ricci - lam * pg.g).max()
    assert dev > 1e-3
    assert np.abs(pg.nabla_ricci).max() > 1e-3


def test_perturbed_flat_is_curved_riemannian(perturbed_flat, rng):
    assert perturbed_flat.complex_structure is None
    pt = sample_points(perturbed_flat, 1, rng)[0]
    pg = PointGeometry(perturbed_flat, pt)
    assert np.abs(pg.riemann).max() > 1e-4
    assert np.abs(pg.nabla_riemann).max() > 1e-4


# ---------------------------------------------------------------------------
# registry and parameter validation


def test_builtin_registry_catalogue():
    assert set(BUILTIN_MODELS) == {
        "flat", "cpn", "cdn", "s6", "perturbed-flat", "kahler-bump",
    }
    for entry in BUILTIN_MODELS.values():
        assert entry["description"]


def test_build_builtin_parameter_checks():
    with pytest.raises(SchemaError):
        build_builtin("nope")
    with pytest.raises(SchemaError):
        build_builtin("s6", n=3)
    with pytest.raises(SchemaError):
        build_builtin("flat", c=1.0)
    with pytest.raises(SchemaError):
        make_cpn(2, c=-1.0)
    with pytest.raises(SchemaError):
        make_cdn(2, c=1.0)
    spec = build_builtin("cpn", n=3, c=2.0)
    assert spec.dim == 6
    assert spec.params["c"] == 2.0


def test_model_params_recorded(cp2, s6):
    assert cp2.params == {"n": 2, "c": 4.0}
    assert s6.params == {"pole": "north"}
