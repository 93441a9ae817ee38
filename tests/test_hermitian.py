import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import planes
from curvlab.errors import MissingComplexStructureError
from curvlab.geometry import PointGeometry, sample_points
from curvlab.hermitian import (
    CLASS_NAMES,
    classify,
    hermitian_data,
    kaehler_curvature_form,
    merge_classifications,
    metric_curvature_form,
    relative_residual,
    ricci_curvature_form,
)
from helpers import (
    delta_f_by_frame,
    ricci_by_frame,
    ricci_star_by_frame,
    star_scalar_by_frame,
)


def std_j(n):
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return J


# ---------------------------------------------------------------------------
# relative residual


def test_relative_residual_basics():
    assert relative_residual(3.0, 3.0) == 0.0
    assert relative_residual(0.0, 0.0) == 0.0
    assert relative_residual(1.0, 2.0) == pytest.approx(0.25)


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_relative_residual_symmetric_and_bounded(a, b):
    r = relative_residual(a, b)
    assert r == relative_residual(b, a)
    assert 0.0 <= r < 1.0


# ---------------------------------------------------------------------------
# curvature-form building blocks


def test_metric_form_matches_definition(rng):
    g = np.eye(4) * 2.0
    for _ in range(5):
        x, y, z, u = rng.standard_normal((4, 4))
        expect = (y @ g @ z) * (x @ g @ u) - (x @ g @ z) * (y @ g @ u)
        assert metric_curvature_form(g, x, y, z, u) == pytest.approx(expect)


def test_kaehler_form_antiholomorphic_planes_vanish(rng):
    # R2 vanishes on antiholomorphic data: J-terms pair off orthogonally
    g = np.eye(4)
    J = std_j(2)
    for pl in planes.sample_planes(g, J, "antiholomorphic", 6, rng):
        val = kaehler_curvature_form(g, J, pl.x, pl.y, pl.y, pl.x)
        assert abs(val) < 1e-12


def test_kaehler_form_holomorphic_plane_value():
    g = np.eye(4)
    J = std_j(2)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = J @ x
    # R2(x, Jx, Jx, x) = 3 for unit x: this is what makes K_hol come out
    # as c from R = (c/4)(R1 + R2), since R1 contributes 1
    assert kaehler_curvature_form(g, J, x, y, y, x) == pytest.approx(3.0)
    assert metric_curvature_form(g, x, y, y, x) == pytest.approx(1.0)


def test_einstein_ricci_form_is_twice_lambda_kaehler_form(rng):
    # with S = lambda g the six-term Ricci form collapses onto the Kahler
    # form with factor 2 lambda: the J-conjugated triple duplicates the
    # plain triple term by term
    g = np.eye(6)
    J = std_j(3)
    lam = 1.7
    S = lam * g
    for _ in range(10):
        x, y, z, u = rng.standard_normal((4, 6))
        got = ricci_curvature_form(g, J, S, x, y, z, u)
        expect = 2.0 * lam * kaehler_curvature_form(g, J, x, y, z, u)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# star Ricci and friends against frame-sum oracles


@pytest.fixture(scope="module")
def cp2_data():
    from curvlab.modelspaces import make_cpn

    spec = make_cpn(2, 4.0)
    pg = PointGeometry(spec, [0.23, -0.11, 0.31, 0.08])
    return pg, pg.hermitian


@pytest.fixture(scope="module")
def s6_data():
    from curvlab.modelspaces import make_s6

    spec = make_s6()
    pg = PointGeometry(spec, [0.21, 0.14, -0.33, 0.12, 0.4, -0.18])
    return pg, pg.hermitian


def test_ricci_star_matches_frame_sum(cp2_data, s6_data, rng):
    for pg, hd in (cp2_data, s6_data):
        for _ in range(2):
            frame = planes.orthonormal_frame(pg.g, rng)
            oracle = ricci_star_by_frame(pg, hd.J, frame)
            np.testing.assert_allclose(hd.ricci_star, oracle, atol=1e-10)


def test_ricci_matches_frame_sum(cp2_data, rng):
    pg, _ = cp2_data
    frame = planes.orthonormal_frame(pg.g, rng)
    np.testing.assert_allclose(pg.ricci, ricci_by_frame(pg, frame), atol=1e-10)


def test_star_scalar_frame_independent(s6_data, rng):
    pg, hd = s6_data
    values = [
        star_scalar_by_frame(pg, hd.J, planes.orthonormal_frame(pg.g, rng))
        for _ in range(3)
    ]
    for v in values:
        assert v == pytest.approx(hd.star_scalar, rel=1e-10)


def test_delta_f_matches_frame_sum(s6_data, cp2_data, rng):
    for pg, hd in (s6_data, cp2_data):
        frame = planes.orthonormal_frame(pg.g, rng)
        np.testing.assert_allclose(
            hd.delta_F, delta_f_by_frame(hd.nabla_J, frame), atol=1e-10
        )


def test_ricci_star_symmetric_when_curvature_j_invariant(cp2_data):
    _, hd = cp2_data
    assert hd.ricci_star_symmetry_residual < 1e-12


def test_nk_defect_consistency(s6_data):
    pg, hd = s6_data
    y = np.array([0.3, -0.2, 0.5, 0.1, 0.2, -0.4])
    jy = hd.J @ y
    expect = hd.nabla_J_apply(y, y) + hd.nabla_J_apply(jy, jy)
    np.testing.assert_allclose(hd.nk_defect(y), expect, atol=1e-14)
    # nearly Kahler: both pieces vanish separately
    assert np.abs(hd.nk_defect(y)).max() < 1e-12


# ---------------------------------------------------------------------------
# classification behavior


def test_classify_requires_complex_structure(perturbed_flat):
    with pytest.raises(MissingComplexStructureError):
        hermitian_data(perturbed_flat, np.zeros(4))
    with pytest.raises(MissingComplexStructureError):
        classify(perturbed_flat, np.zeros(4))


def test_class_names_are_ordered_weakening():
    assert CLASS_NAMES == ("kaehler", "nearly_kaehler", "quasi_kaehler", "qk2", "ah3")


def test_kaehler_implies_weaker_classes(cp2, rng):
    pt = sample_points(cp2, 1, rng)[0]
    report = classify(cp2, pt, samples=24, seed=3)
    k = report["kaehler"].residual
    assert report["kaehler"].passed
    # defining residuals of the weaker classes cannot blow up on a
    # Kahler manifold: they are built from the same vanishing nabla J
    for name in ("nearly_kaehler", "quasi_kaehler"):
        assert report[name].residual <= max(10 * k, 1e-12)
    assert report["qk2"].passed
    assert report["ah3"].passed


def test_status_bands():
    pt = [0.2, 0.1, -0.3, 0.2, 0.4, -0.1]
    from curvlab.modelspaces import make_s6

    report = classify(make_s6(), pt, samples=16, seed=0, tol=1e-6)
    assert report["kaehler"].status == "fail"  # ~0.5 >> 1e-3
    assert report["nearly_kaehler"].status == "pass"
    strict = classify(make_s6(), pt, samples=16, seed=0, tol=1e-3)
    # with tol=1e-3 the Kahler residual ~0.5 still fails, but a residual
    # within 1e3 x tol would be flagged indeterminate rather than fail
    assert strict["kaehler"].status in ("fail", "indeterminate")


def test_merge_takes_worst_point(cp2):
    r1 = classify(cp2, [0.1, 0.0, 0.0, 0.0], samples=8, seed=0)
    r2 = classify(cp2, [0.0, 0.2, 0.1, 0.0], samples=8, seed=1)
    merged = merge_classifications([r1, r2], tol=1e-6)
    for name in CLASS_NAMES:
        assert merged[name].residual == max(r1[name].residual, r2[name].residual)
