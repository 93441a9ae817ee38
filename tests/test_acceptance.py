"""Shipping gate: the eight acceptance criteria, one test per criterion.

Each test records exactly one PASS/FAIL line in the terminal summary (see
conftest.pytest_terminal_summary).  The tolerances and sampling budgets
here are contractual; loosening them is a release decision, not a test fix.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import sympy

from conftest import ACCEPTANCE_LINES
from curvlab import exprlang, jets
from curvlab.cli import main
from curvlab.geometry import PointGeometry, sample_points
from curvlab.modelspaces import BUILTIN_MODELS, build_builtin
from curvlab.planes import nu_from_formula, sample_planes, sectional_curvature
from curvlab.verify import CheckConfig, Session, check_identity, schur_check
from curvlab.errors import HypothesisNotMetError
from helpers import random_expr, rel_err, richardson_derivative

EQ_TAGS = (
    "EQ1", "EQ2", "PROP3", "PROP4", "PROP5",
    "EQ6", "EQ7", "EQ8", "EQ9", "EQ10", "EQ11", "EQ12", "EQ13",
)


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number}: FAIL — {text}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {number}: PASS — {text}")


def test_criterion_1_flat_baseline():
    with criterion(1, "flat C^3: all tensors <= 1e-12, all identity residuals 0, < 5 s"):
        start = time.perf_counter()
        spec = build_builtin("flat", n=3)
        session = Session(spec, CheckConfig(points=8, planes=32, vectors=32, seed=0))
        rng = np.random.default_rng(17)
        for pd in session.data:
            pg, hd = pd.pg, pd.hd
            for tensor in (
                pg.gamma, pg.riemann, pg.ricci, hd.ricci_star,
                pg.nabla_riemann, pg.nabla_ricci, hd.delta_F,
            ):
                assert np.abs(tensor).max() <= 1e-12
            for _ in range(4):
                y = rng.standard_normal(spec.dim)
                assert np.abs(hd.nk_defect(y)).max() <= 1e-12
        for tag in EQ_TAGS:
            assert session.identity(tag).max_residual == 0.0
        assert time.perf_counter() - start < 5.0


def test_criterion_2_cp2_curvatures():
    with criterion(2, "CP^2 (c=4): K_hol = 4, nu = 1, tau = tau* = 24, formula nu = 1"):
        start = time.perf_counter()
        spec = build_builtin("cpn", n=2, c=4.0)
        rng = np.random.default_rng(2)
        pts = sample_points(spec, 8, rng)
        for p in pts:
            pg = PointGeometry(spec, p)
            hd = pg.hermitian
            for plane in sample_planes(pg.g, hd.J, "holomorphic", 32, rng):
                k = sectional_curvature(pg.riemann, pg.g, plane)
                assert k == pytest.approx(4.0, abs=1e-6)
            for plane in sample_planes(pg.g, hd.J, "antiholomorphic", 32, rng):
                nu = sectional_curvature(pg.riemann, pg.g, plane)
                assert nu == pytest.approx(1.0, abs=1e-6)
            assert pg.scalar_curvature == pytest.approx(24.0, abs=1e-6)
            assert hd.star_scalar == pytest.approx(24.0, abs=1e-6)
            formula = nu_from_formula(pg.scalar_curvature_jet, hd.star_scalar_jet, 2)
            assert formula.value == pytest.approx(1.0, abs=1e-8)
        assert time.perf_counter() - start < 60.0


def test_criterion_3_s6_constants_and_identities():
    with criterion(3, "S^6: NK pass / Kaehler fail; tau=30, tau*=6, nu=1, combo=102; EQ1/EQ2/EQ9/PROP3-5"):
        spec = build_builtin("s6")
        session = Session(spec, CheckConfig(points=8, planes=32, vectors=32, seed=0))
        assert session.classification["nearly_kaehler"].passed
        assert not session.classification["kaehler"].passed
        stats = session.schur()
        for values, expected in (
            (stats.tau, 30.0),
            (stats.tau_star, 6.0),
            (stats.nu_formula, 1.0),
            (stats.lemma_combination, 102.0),  # (n+1)τ − 3τ* with n = 3
        ):
            np.testing.assert_allclose(values, expected, atol=1e-6)
            assert max(values) - min(values) <= 1e-6
        for tag in ("EQ1", "EQ2", "EQ9", "PROP3", "PROP4", "PROP5"):
            assert session.identity(tag).max_residual <= 1e-6


def test_criterion_4_cd2_negative_model():
    with criterion(4, "CD^2 (c=-4): nu = -1, tau = tau* = -24, samples inside the unit ball"):
        spec = build_builtin("cdn", n=2, c=-4.0)
        pts = sample_points(spec, 8, np.random.default_rng(4))
        assert all(float(np.linalg.norm(p)) < 1.0 for p in pts)
        stats = schur_check(spec, points=8, seed=0)
        np.testing.assert_allclose(stats.nu_formula, -1.0, atol=1e-6)
        np.testing.assert_allclose(stats.nu_sampled, -1.0, atol=1e-6)
        np.testing.assert_allclose(stats.tau, -24.0, atol=1e-6)
        np.testing.assert_allclose(stats.tau_star, -24.0, atol=1e-6)


def test_criterion_5_universal_identities_everywhere():
    with criterion(5, "EQ6/EQ7/EQ8 <= 1e-7 on every builtin (incl. the non-Einstein perturbation)"):
        assert "perturbed-flat" in BUILTIN_MODELS
        for name in BUILTIN_MODELS:
            spec = build_builtin(name)
            for tag in ("EQ6", "EQ7", "EQ8"):
                result = check_identity(
                    spec, tag, points=8, vectors_per_point=32, seed=0, tol=1e-7
                )
                assert result.passed, f"{name} {tag}: {result.max_residual:.3e}"


def test_criterion_6_derivative_engine_oracle():
    with criterion(6, "jet partials (orders 1-3) vs Richardson FD on 100 expressions; polynomial exactness"):
        rng = np.random.default_rng(6)
        dim = 3
        checked = 0
        for _ in range(100):
            source = random_expr(rng, dim)
            expr = exprlang.parse(source, dim)
            point = rng.uniform(-0.8, 0.8, size=dim)
            jet = exprlang.evaluate(expr, jets.seed(point, 3))

            def f(x):
                return exprlang.evaluate_values(expr, x)

            alphas = [
                tuple(int(i == k) for k in range(dim)) for i in range(dim)
            ] + [(2, 0, 0), (1, 1, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0)]
            for alpha in alphas:
                fd = richardson_derivative(f, point, alpha, h=0.05)
                assert rel_err(jet.derivative(alpha), fd) <= 1e-5
                checked += 1
        assert checked == 800

        # exactness: jets carry polynomial derivatives to rounding error
        xs = sympy.symbols("x1 x2 x3")
        for _ in range(20):
            coeffs = {
                alpha: round(float(rng.uniform(-3, 3)), 3)
                for alpha in jets.multi_indices(dim, 3)
            }
            poly = sum(
                c * xs[0] ** a[0] * xs[1] ** a[1] * xs[2] ** a[2]
                for a, c in coeffs.items()
            )
            source = " + ".join(
                f"{c} * x1^{a[0]} * x2^{a[1]} * x3^{a[2]}" for a, c in coeffs.items()
            )
            point = rng.uniform(-1.5, 1.5, size=dim)
            jet = exprlang.evaluate(exprlang.parse(source, dim), jets.seed(point, 3))
            subs = dict(zip(xs, point))
            for alpha in jets.multi_indices(dim, 3):
                vars_ = [s for s, a in zip(xs, alpha) for _ in range(a)]
                exact = float((sympy.diff(poly, *vars_) if vars_ else poly).subs(subs))
                assert rel_err(jet.derivative(alpha), exact) <= 1e-13


def test_criterion_7_implication_properties():
    with criterion(7, "EQ1 pass implies EQ2 pass; PROP3 pass implies EQ1 pass, on all applicable models"):
        cfg = dict(points=4, vectors_per_point=16, seed=0, tol=1e-6)
        eq_pairs = 0
        prop_pairs = 0
        for name in BUILTIN_MODELS:
            spec = build_builtin(name)
            try:
                eq1 = check_identity(spec, "EQ1", **cfg)
            except HypothesisNotMetError:
                eq1 = None
            if eq1 is not None and eq1.passed:
                assert check_identity(spec, "EQ2", **cfg).passed, name
                eq_pairs += 1
            try:
                prop3 = check_identity(spec, "PROP3", **cfg)
            except HypothesisNotMetError:
                prop3 = None
            if prop3 is not None and prop3.passed:
                assert check_identity(spec, "EQ1", **cfg).passed, name
                prop_pairs += 1
        # the implications must actually be observed, not vacuously true
        assert eq_pairs >= 5 and prop_pairs >= 4


def test_criterion_8_byte_identical_reports(tmp_path):
    with criterion(8, "identical configurations produce byte-identical JSON reports"):
        args = [
            "report", "--manifold", "s6",
            "--points", "4", "--planes", "12", "--vectors", "12", "--seed", "1",
        ]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main([*args, "--json", str(first)]) == 0
        assert main([*args, "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0
