"""Witness charts on which the paper's identities hold with nonzero sides.

Witness A is a Bochner-flat Kähler surface (Calabi ansatz over a flat
base), witness B a conformally flat Hermitian surface.  On both, EQ10–EQ13
compare nonzero quantities, unlike on every builtin model.  The closed
forms of τ, τ* and ν are checked at a few chart points.
"""

from pathlib import Path

import numpy as np
import pytest

from curvlab.cli import load_manifold_file, main
from curvlab.geometry import PointGeometry
from curvlab.hermitian import hermitian_data
from curvlab.planes import nu_from_formula
from curvlab.verify import CheckConfig, full_report

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
WITNESS_A = FIXTURES / "witness_a_bochner_flat.json"
WITNESS_B = FIXTURES / "witness_b_conformally_flat.json"

# every run row of both witnesses sits at rounding level (largest seen
# 1.4e-14); this bound leaves room for another BLAS, not for a wrong formula
ROUNDING = 1e-12


def _report(path):
    return full_report(load_manifold_file(str(path)), CheckConfig())


def _scalars(path, point):
    pg = PointGeometry(load_manifold_file(str(path)), point)
    hd = pg.hermitian
    nu = nu_from_formula(pg.scalar_curvature_jet, hd.star_scalar_jet, 2).value
    return pg.scalar_curvature, hd.star_scalar, nu


POINTS_A = [(1.0, 0.0, 0.3, 0.0), (1.2, 0.4, 0.1, -0.3), (0.8, -0.2, 0.5, 0.4)]
POINTS_B = [(0.3, -0.2, 0.1, 0.4), (0.6, 0.1, -0.2, 0.7), (-0.1, -0.5, 0.4, 0.1)]


@pytest.mark.parametrize("point", POINTS_A)
def test_witness_a_closed_forms(point):
    tau, tau_star, nu = _scalars(WITNESS_A, point)
    expected = -(6.0 + 6.0 * point[0])
    assert tau == pytest.approx(expected, rel=1e-12)
    assert tau_star == pytest.approx(tau, rel=1e-12)  # Kähler: S* = S
    assert nu == pytest.approx(tau / 24.0, rel=1e-12)


@pytest.mark.parametrize("point", POINTS_B)
def test_witness_b_closed_forms(point):
    x1, x2, x3, x4 = point
    u = 1.0 + x1**2 + x2**2 + 2.0 * (x3**2 + x4**2)
    # g = δ/u²: τ = 6uΔu − 12|∇u|² with Δu = 12
    expected = 72.0 * u - 48.0 * (x1**2 + x2**2) - 192.0 * (x3**2 + x4**2)
    tau, tau_star, nu = _scalars(WITNESS_B, point)
    assert tau == pytest.approx(expected, rel=1e-12)
    assert tau_star == pytest.approx(tau / 3.0, rel=1e-12)
    assert nu == pytest.approx(tau / 12.0, rel=1e-12)


def test_witness_a_verdict(tmp_path):
    report = _report(WITNESS_A)
    assert report.validation["ok"] is True
    assert all(entry["pass"] for entry in report.classification.values())
    tags = [row.tag for row in report.identities]
    assert tags == [
        "EQ1", "EQ2", "PROP3", "PROP4", "PROP5", "EQ6", "EQ7", "EQ8", "EQ9",
        "EQ10", "EQ11", "EQ12", "EQ13", "LEMMA",
    ]
    for row in report.identities:
        assert row.max_residual <= ROUNDING, row.tag
    # today's behaviour: SCHUR's own statistics fail at n = 2, below the
    # constancy theorem's range, and that alone makes the exit code 1
    assert report.skipped == []
    assert report.schur.passed is False
    assert any("n < 3" in w for w in report.schur.warnings)
    assert report.passed is False
    assert main(["report", "--file", str(WITNESS_A), "--json", str(tmp_path / "a.json")]) == 1


def test_witness_b_verdict(capsys):
    report = _report(WITNESS_B)
    classes = {name: entry["pass"] for name, entry in report.classification.items()}
    assert classes["ah3"] is True
    assert classes["quasi_kaehler"] is False
    rows = {row.tag: row for row in report.identities}
    assert sorted(rows) == sorted(
        ["PROP3", "PROP4", "PROP5", "EQ6", "EQ7", "EQ8", "EQ10", "EQ11"]
    )
    for row in rows.values():
        assert row.max_residual <= ROUNDING, row.tag
    assert report.passed is True
    assert main(["report", "--file", str(WITNESS_B)]) == 0
    capsys.readouterr()


def test_witness_sides_are_nonzero():
    # the point of the witnesses: x(ν), B and δF do not vanish, so EQ10 and
    # EQ11 compare nonzero sides
    pg_a = PointGeometry(load_manifold_file(str(WITNESS_A)), POINTS_A[0])
    hd_b = hermitian_data(load_manifold_file(str(WITNESS_B)), POINTS_B[0])
    nu_a = nu_from_formula(pg_a.scalar_curvature_jet, pg_a.hermitian.star_scalar_jet, 2)
    assert np.linalg.norm(nu_a.gradient) > 0.1
    assert np.linalg.norm(hd_b.delta_F) > 1.0
