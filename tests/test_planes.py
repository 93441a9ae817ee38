import numpy as np
import pytest

from curvlab.errors import DimensionError, FrameConstructionError
from curvlab.geometry import PointGeometry
from curvlab.jets import seed as jet_seed
from curvlab.modelspaces import make_cpn, make_flat, make_s6
from curvlab.planes import (
    Plane,
    adapted_frame,
    gram_schmidt,
    nu_from_formula,
    orthonormal_frame,
    random_unit_vector,
    sample_planes,
    sectional_curvature,
)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


@pytest.fixture(scope="module")
def cp2_point():
    spec = make_cpn(2, 4.0)
    pg = PointGeometry(spec, [0.17, -0.23, 0.05, 0.31])
    return pg, pg.hermitian


def test_gram_schmidt_produces_orthonormal_set(rng):
    g = random_spd(rng, 5)
    vs = rng.standard_normal((4, 5))
    out = gram_schmidt(vs, g)
    gram = out @ g @ out.T
    np.testing.assert_allclose(gram, np.eye(out.shape[0]), atol=1e-10)


def test_gram_schmidt_rejects_dependent_vectors():
    g = np.eye(3)
    vs = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(FrameConstructionError):
        gram_schmidt(vs, g)


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_frame_floors_scale_with_the_metric(rng, scale):
    # the degeneracy floors are relative to g: a homothety of a
    # well-conditioned metric builds every frame, at the same frame
    g = scale * random_spd(rng, 4)
    J = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    g = 0.5 * (g + J.T @ g @ J)  # J-compatible
    for frame in (
        orthonormal_frame(g, np.random.default_rng(1)),
        random_unit_vector(g, np.random.default_rng(1), 8),
        adapted_frame(g, J, np.random.default_rng(1)).vectors,
    ):
        np.testing.assert_allclose(np.vecdot(frame @ g, frame), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        orthonormal_frame(g, np.random.default_rng(1)) * np.sqrt(scale),
        orthonormal_frame(g / scale, np.random.default_rng(1)),
        rtol=1e-10,
    )


def test_orthonormal_frame_full_rank(rng):
    g = random_spd(rng, 6)
    frame = orthonormal_frame(g, rng)
    np.testing.assert_allclose(frame @ g @ frame.T, np.eye(6), atol=1e-10)


def test_random_unit_vector_normalized(rng):
    g = random_spd(rng, 4)
    for _ in range(10):
        v = random_unit_vector(g, rng)
        assert float(v @ g @ v) == pytest.approx(1.0, abs=1e-12)


def test_adapted_frame_structure(cp2_point, rng):
    pg, hd = cp2_point
    frame = adapted_frame(pg.g, hd.J, rng)
    assert frame.gram_residual(pg.g) < 1e-10
    assert frame.closure_residual(hd.J) < 1e-10
    n = frame.n
    for k in range(n):
        np.testing.assert_allclose(
            hd.J @ frame.vectors[k], frame.vectors[n + k], atol=1e-10
        )


def test_adapted_frame_on_s6(rng):
    spec = make_s6()
    pg = PointGeometry(spec, [0.3, -0.1, 0.2, 0.1, -0.2, 0.4])
    hd = pg.hermitian
    frame = adapted_frame(pg.g, hd.J, rng)
    assert frame.gram_residual(pg.g) < 1e-9
    assert frame.closure_residual(hd.J) < 1e-9


def test_plane_kinds(cp2_point, rng):
    pg, hd = cp2_point
    g, J = pg.g, hd.J
    for pl in sample_planes(g, J, "holomorphic", 8, rng):
        assert abs(abs(float(pl.x @ g @ (J @ pl.y))) - 1.0) < 1e-9
        assert pl.is_holomorphic
    for pl in sample_planes(g, J, "antiholomorphic", 8, rng):
        assert abs(float(pl.x @ g @ (J @ pl.y))) < 1e-9
        assert abs(float(pl.x @ g @ pl.y)) < 1e-12
        assert pl.is_antiholomorphic
    for pl in sample_planes(g, J, "random", 8, rng):
        assert float(pl.x @ g @ pl.x) == pytest.approx(1.0, abs=1e-10)
        assert float(pl.y @ g @ pl.y) == pytest.approx(1.0, abs=1e-10)
        assert abs(float(pl.x @ g @ pl.y)) < 1e-10


def test_sample_planes_rejects_unknown_kind(cp2_point, rng):
    pg, hd = cp2_point
    with pytest.raises(ValueError):
        sample_planes(pg.g, hd.J, "diagonal", 2, rng)


def test_sectional_curvature_rotation_invariant(cp2_point, rng):
    pg, hd = cp2_point
    (pl,) = sample_planes(pg.g, hd.J, "random", 1, rng)
    k0 = sectional_curvature(pg.riemann, pg.g, pl)
    for theta in (0.3, 1.2, 2.6):
        x = np.cos(theta) * pl.x + np.sin(theta) * pl.y
        y = -np.sin(theta) * pl.x + np.cos(theta) * pl.y
        rotated = Plane(x=x, y=y, hol_angle=pl.hol_angle)
        assert sectional_curvature(pg.riemann, pg.g, rotated) == pytest.approx(
            k0, rel=1e-10
        )


def test_sectional_curvature_requires_orthonormal(cp2_point):
    pg, _ = cp2_point
    bad = Plane(
        x=np.array([1.0, 0.0, 0.0, 0.0]),
        y=np.array([1.0, 1.0, 0.0, 0.0]),
        hol_angle=0.0,
    )
    with pytest.raises(ValueError):
        sectional_curvature(pg.riemann, pg.g, bad)


def test_holomorphic_pinching_on_cp2(cp2_point, rng):
    # on CP^2(c=4) every sectional curvature lies in [1, 4]
    pg, hd = cp2_point
    for pl in sample_planes(pg.g, hd.J, "random", 40, rng):
        k = sectional_curvature(pg.riemann, pg.g, pl)
        assert 1.0 - 1e-9 <= k <= 4.0 + 1e-9


def test_nu_from_formula_matches_sampled_estimate(cp2_point, rng):
    pg, hd = cp2_point
    est_nu = nu_from_formula(pg.scalar_curvature_jet, hd.star_scalar_jet, 2)
    assert est_nu.value == pytest.approx(1.0, abs=1e-10)
    # derivative of a constant is zero
    assert np.abs(est_nu.gradient).max() < 1e-8


def test_nu_from_formula_dimension_guard():
    (tau,) = jet_seed([24.0], 1)
    with pytest.raises(DimensionError):
        nu_from_formula(tau, tau, 1)


def test_antiholomorphic_needs_four_dimensions(rng):
    # in 2 real dimensions every J-invariant complement is trivial, so an
    # antiholomorphic pair cannot be assembled
    spec = make_flat(1)
    pg = PointGeometry(spec, [0.1, 0.2])
    hd = pg.hermitian
    with pytest.raises(DimensionError):
        sample_planes(pg.g, hd.J, "antiholomorphic", 1, rng)
