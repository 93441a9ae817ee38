import numpy as np
import pytest

from curvlab import geometry, jets, planes
from curvlab.errors import DegenerateMetricError, EvaluationDomainError, SchemaError
from curvlab.geometry import (
    ExprMatrixField,
    ManifoldSpec,
    PointGeometry,
    SampleBox,
    metric_positive_definite,
    metric_symmetry_residual,
    sample_points,
)
from helpers import fd_christoffel, richardson_derivative


def diag_metric(entries, dim):
    rows = [[entries[i] if i == j else "0" for j in range(dim)] for i in range(dim)]
    return ExprMatrixField(rows, dim)


def sphere_spec(dim, radius):
    """Round sphere of the given radius in stereographic coordinates."""
    rho = " + ".join(f"x{i}^2" for i in range(1, dim + 1))
    entry = f"4 / (1 + ({rho}) / {radius**2})^2"
    return ManifoldSpec(
        name=f"s{dim}-r{radius}",
        dim=dim,
        metric=diag_metric([entry] * dim, dim),
        sample_box=SampleBox(np.zeros(dim), 0.8 * np.ones(dim)),
    )


def curvature_operator_r1(g, x, y, z, u):
    """R1(x,y,z,u) = g(y,z) g(x,u) - g(x,z) g(y,u)."""
    return (y @ g @ z) * (x @ g @ u) - (x @ g @ z) * (y @ g @ u)


# ---------------------------------------------------------------------------
# exact model values


def test_flat_space_everything_vanishes():
    spec = ManifoldSpec("flat4", 4, diag_metric(["1"] * 4, 4))
    pg = PointGeometry(spec, [0.3, -0.4, 0.8, 0.1])
    assert np.abs(pg.gamma).max() == 0.0
    assert np.abs(pg.riemann).max() == 0.0
    assert np.abs(pg.ricci).max() == 0.0
    assert pg.scalar_curvature == 0.0
    assert np.abs(pg.nabla_riemann).max() == 0.0
    assert np.abs(pg.nabla_ricci).max() == 0.0


def test_unit_sphere_pins_sign_convention(rng):
    # K = +1 and tau = +2 on the round unit 2-sphere; a flipped curvature
    # sign convention would make both come out negative
    spec = sphere_spec(2, 1)
    for _ in range(4):
        pt = rng.uniform(-0.8, 0.8, size=2)
        pg = PointGeometry(spec, pt)
        frame = planes.orthonormal_frame(pg.g, rng)
        k = pg.curvature(frame[0], frame[1], frame[1], frame[0])
        assert k == pytest.approx(1.0, abs=1e-12)
        assert pg.scalar_curvature == pytest.approx(2.0, abs=1e-12)


def test_radius_two_sphere_constant_curvature_form(rng):
    # R = (1/r^2) R1 for the round sphere of radius r
    spec = sphere_spec(4, 2)
    pg = PointGeometry(spec, [0.2, -0.1, 0.4, 0.3])
    for _ in range(10):
        x, y, z, u = rng.standard_normal((4, 4))
        lhs = pg.curvature(x, y, z, u)
        rhs = 0.25 * curvature_operator_r1(pg.g, x, y, z, u)
        assert lhs == pytest.approx(rhs, abs=1e-10)
    assert pg.scalar_curvature == pytest.approx(4 * 3 * 0.25, abs=1e-10)
    assert np.abs(pg.nabla_riemann).max() < 1e-10  # locally symmetric


def random_analytic_spec():
    # non-diagonal analytic metric: identity plus a small smooth bump;
    # coefficients fixed so the test is deterministic
    entries = [
        ["2 + 0.3*sin(x1)*cos(x2)", "0.2*x1*x2", "0.1*sin(x2)", "0"],
        ["0.2*x1*x2", "2 + 0.25*exp((x1 - x2)/4)", "0", "0.15*x1^2"],
        ["0.1*sin(x2)", "0", "1.5 + 0.2*cos(x3)", "0.1*x3*x4"],
        ["0", "0.15*x1^2", "0.1*x3*x4", "1.8 + 0.3*sqrt(1.5 + x4^2)"],
    ]
    return ManifoldSpec(
        "analytic4",
        4,
        ExprMatrixField(entries, 4),
        sample_box=SampleBox(np.zeros(4), 0.6 * np.ones(4)),
    )


def test_christoffel_against_finite_differences():
    spec = random_analytic_spec()
    pt = np.array([0.21, -0.34, 0.12, 0.45])
    gamma = PointGeometry(spec, pt).gamma
    oracle = fd_christoffel(spec, pt)
    np.testing.assert_allclose(gamma, oracle, atol=5e-9)


def _array_richardson(f, pt, m, h=0.02):
    e = np.zeros_like(pt)
    e[m] = 1.0

    def diff(hh):
        return (f(pt + hh * e) - f(pt - hh * e)) / (2 * hh)

    d1, d2, d3 = diff(h), diff(h / 2), diff(h / 4)
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    return (16 * r2 - r1) / 15


def test_nabla_riemann_against_finite_differences():
    spec = random_analytic_spec()
    pt = np.array([0.11, 0.27, -0.19, 0.08])
    pg = PointGeometry(spec, pt)
    gam = pg.gamma
    for m in range(4):
        dR = _array_richardson(lambda x: PointGeometry(spec, x).riemann, pt, m)
        # (nabla_m R)_abcd = d_m R_abcd - sum of four Gamma corrections
        corr = (
            np.einsum("ea,ebcd->abcd", gam[:, m, :], pg.riemann)
            + np.einsum("eb,aecd->abcd", gam[:, m, :], pg.riemann)
            + np.einsum("ec,abed->abcd", gam[:, m, :], pg.riemann)
            + np.einsum("ed,abce->abcd", gam[:, m, :], pg.riemann)
        )
        oracle = dR - corr
        np.testing.assert_allclose(pg.nabla_riemann[m], oracle, atol=5e-7)


def test_nabla_ricci_against_finite_differences():
    spec = random_analytic_spec()
    pt = np.array([-0.05, 0.33, 0.21, -0.14])
    pg = PointGeometry(spec, pt)
    gam = pg.gamma
    for m in range(4):
        dS = _array_richardson(lambda x: PointGeometry(spec, x).ricci, pt, m)
        corr = np.einsum("ea,eb->ab", gam[:, m, :], pg.ricci) + np.einsum(
            "eb,ae->ab", gam[:, m, :], pg.ricci
        )
        np.testing.assert_allclose(pg.nabla_ricci[m], dS - corr, atol=5e-8)


def test_scalar_derivative_against_finite_differences():
    spec = random_analytic_spec()
    pt = np.array([0.17, -0.28, 0.05, 0.31])
    pg = PointGeometry(spec, pt)
    for m in range(4):
        alpha = tuple(int(k == m) for k in range(4))
        fd = richardson_derivative(lambda x: PointGeometry(spec, x).scalar_curvature, pt, alpha)
        assert pg.scalar_curvature_jet.gradient[m] == pytest.approx(fd, abs=1e-7)


# ---------------------------------------------------------------------------
# structural invariants on a generic metric


@pytest.fixture(scope="module")
def generic_pg():
    return PointGeometry(random_analytic_spec(), [0.31, -0.22, 0.14, 0.27])


def test_riemann_symmetries(generic_pg):
    R = generic_pg.riemann
    scale = np.abs(R).max()
    assert np.abs(R + R.transpose(1, 0, 2, 3)).max() < 1e-12 * (1 + scale)
    assert np.abs(R + R.transpose(0, 1, 3, 2)).max() < 1e-12 * (1 + scale)
    assert np.abs(R - R.transpose(2, 3, 0, 1)).max() < 1e-12 * (1 + scale)


def test_first_bianchi(generic_pg):
    R = generic_pg.riemann
    cyc = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
    assert np.abs(cyc).max() < 1e-12 * (1 + np.abs(R).max())


def test_second_bianchi(generic_pg):
    NR = generic_pg.nabla_riemann
    cyc = NR + NR.transpose(1, 2, 0, 3, 4) + NR.transpose(2, 0, 1, 3, 4)
    assert np.abs(cyc).max() < 1e-11 * (1 + np.abs(NR).max())


def test_ricci_symmetric_and_trace(generic_pg):
    S = generic_pg.ricci
    assert np.abs(S - S.T).max() < 1e-12 * (1 + np.abs(S).max())
    tau = float(np.einsum("ab,ab->", generic_pg.g_inv, S))
    assert generic_pg.scalar_curvature == pytest.approx(tau, rel=1e-12)


def test_metric_compatibility(generic_pg):
    # nabla_m g_ab = d_m g_ab - Gamma^e_ma g_eb - Gamma^e_mb g_ae = 0
    pg = generic_pg
    from curvlab import jets as jetmod

    ctx = jetmod.get_context(4, 1)
    G = pg.spec.metric.evaluate(pg.point, 1)
    gam = pg.gamma
    nabla_g = np.empty((4, 4, 4))
    for m in range(4):
        dG_m = G[:, :, ctx.grad_pos[m]]  # d_m g_ab
        for a in range(4):
            for b in range(4):
                nabla_g[m, a, b] = (
                    dG_m[a, b]
                    - sum(gam[e, m, a] * pg.g[e, b] for e in range(4))
                    - sum(gam[e, m, b] * pg.g[a, e] for e in range(4))
                )
    assert np.abs(nabla_g).max() < 1e-12


def test_inner_and_norm(generic_pg):
    x = np.array([1.0, 2.0, -1.0, 0.5])
    y = np.array([0.5, -1.0, 2.0, 1.0])
    assert generic_pg.inner(x, y) == pytest.approx(float(x @ generic_pg.g @ y))
    assert generic_pg.norm(x) == pytest.approx(np.sqrt(float(x @ generic_pg.g @ x)))


# ---------------------------------------------------------------------------
# validation and sampling


def test_degenerate_metric_raises():
    spec = ManifoldSpec(
        "bad", 2, ExprMatrixField([["x1", "0"], ["0", "1"]], 2),
        sample_box=SampleBox(np.array([2.0, 0.0]), np.array([0.5, 0.5])),
    )
    with pytest.raises(DegenerateMetricError):
        PointGeometry(spec, [-1.0, 0.0])
    assert metric_positive_definite(spec, [3.0, 0.0])
    assert not metric_positive_definite(spec, [-1.0, 0.0])


def test_symmetry_residual():
    spec = ManifoldSpec(
        "asym", 2, ExprMatrixField([["1", "x1"], ["0", "1"]], 2)
    )
    assert metric_symmetry_residual(spec, [0.5, 0.0]) == pytest.approx(0.5)
    assert metric_symmetry_residual(spec, [0.0, 0.7]) == 0.0


def test_odd_dimension_rejected():
    with pytest.raises(SchemaError):
        ManifoldSpec("odd", 3, diag_metric(["1"] * 3, 3))


def test_sample_points_deterministic_and_in_domain():
    rho = "x1^2 + x2^2"
    spec = ManifoldSpec(
        "disc",
        2,
        diag_metric(["1", "1"], 2),
        domain=geometry.exprlang.parse(f"0.81 - ({rho})", 2),
        sample_box=SampleBox(np.zeros(2), np.ones(2)),
    )
    pts1 = sample_points(spec, 50, np.random.default_rng(11))
    pts2 = sample_points(spec, 50, np.random.default_rng(11))
    np.testing.assert_array_equal(pts1, pts2)
    assert np.all(np.sum(pts1**2, axis=1) < 0.81)
    assert np.all(np.abs(pts1) <= 1.0)


def test_matrix_field_shape_check():
    with pytest.raises(SchemaError):
        ExprMatrixField([["1", "0"], ["0"]], 2)
    with pytest.raises(SchemaError):
        ExprMatrixField([["1"]], 2)


def test_matrix_field_rejects_non_finite_jets():
    # exp(700) is finite, but its second Taylor coefficient 700²/2·e⁷⁰⁰ is not
    field = ExprMatrixField([["1", "0"], ["0", "exp(700*x1)"]], 2)
    assert np.isfinite(field.evaluate([1.0, 0.0], 1)).all()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EvaluationDomainError) as exc:
        field.evaluate([1.0, 0.0], 3)
    assert "entry (2, 2) = 'exp(700*x1)' is not finite at [1.0, 0.0]" in str(exc.value)


@pytest.mark.parametrize("model", ["cp2", "kahler_bump", "s6"])
def test_inverse_metric_jets_are_order_two(model, request, rng):
    # Γ is the highest-order product g⁻¹ enters, so it is built at order 2
    spec = request.getfixturevalue(model)
    point = sample_points(spec, 1, rng)[0]
    d = spec.dim
    ctx3, ctx2 = jets.get_context(d, 3), jets.get_context(d, 2)
    G = spec.metric.evaluate(point, 3)
    X = geometry.inverse_metric_jets(G, ctx3)
    assert X.shape == (d, d, ctx2.ncoef)
    np.testing.assert_array_equal(PointGeometry(spec, point).g_inv, X[..., 0])
    G2 = jets.truncate_coeffs(G, ctx3, 2)
    product = jets.jet_einsum("ab,bc->ac", G2, X, ctx2)
    identity = np.zeros_like(product)
    identity[..., 0] = np.eye(d)
    np.testing.assert_allclose(product, identity, rtol=0, atol=1e-13)
