"""Tests of the benchmark harness itself (not of curvlab).

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys

import pytest

import checker
import workloads
from tracer import COUNT_TARGETS, SPAN_TARGETS, VERDICT_SPAN, Tracer

workloads.import_curvlab()

from curvlab import cli, modelspaces, verify  # noqa: E402
from curvlab.verify import CheckConfig  # noqa: E402

EXPECTED = checker.load_expected()


def _case(workload, case_id):
    return next(c for c in workloads.WORKLOADS[workload] if c.id == case_id)


def _run(workload, case_id, tmp_path, seed=0):
    case = _case(workload, case_id)
    spec = workloads.build_specs(workload)[case_id]
    return workloads.run_case(case, spec, seed, tmp_path)


def _bindings():
    """Every attribute of every curvlab module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "curvlab" or name.startswith("curvlab."):
            for attr, value in vars(module).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for member, item in vars(value).items():
                        out[(name, attr, member)] = id(item)
    return out


def test_self_time_subtracts_direct_children_only():
    # verdict [0,200] > outer [10,190] > mid [20,120] > leaf [30,90];
    # outer also calls leaf [130,150] directly
    ticks = iter([0, 10, 20, 30, 90, 120, 130, 150, 190, 200])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: leaf(), "mid")

    def body():
        mid()
        leaf()

    outer = tracer.wrap(body, "outer")
    tracer.as_verdict(outer)()

    rows = tracer.summary()
    assert rows["leaf"] == {"calls": 2, "raised": 0, "total_ns": 80, "self_ns": 80, "size": 0}
    assert rows["mid"]["self_ns"] == 100 - 60
    assert rows["outer"]["self_ns"] == 180 - 100 - 20
    assert rows[VERDICT_SPAN]["self_ns"] == 200 - 180
    assert sum(r["self_ns"] for r in rows.values()) == rows[VERDICT_SPAN]["total_ns"]


def test_span_records_raise_and_spans_outside_verdicts_are_excluded():
    ticks = iter(range(0, 100, 5))
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    failing = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        failing()  # no verdict open: recorded but not summarized

    def verdict():
        with pytest.raises(ValueError):
            failing()

    tracer.as_verdict(verdict)()
    assert tracer.summary()["boom"]["calls"] == 1
    assert tracer.summary()["boom"]["raised"] == 1
    assert len(tracer.spans) == 3


def test_traced_run_attributes_aliases_and_restores_every_original(tmp_path):
    before = _bindings()
    originals = {
        "verify.classify_point": verify.classify_point,
        "cli.full_report": cli.full_report,
    }
    tracer = Tracer()
    with tracer.installed():
        # names bound with from-import are patched too
        assert verify.classify_point is not originals["verify.classify_point"]
        assert cli.full_report is not originals["cli.full_report"]
        spec = modelspaces.build_builtin("cpn", n=2, c=4.0)
        tracer.as_verdict(cli.full_report)(spec, CheckConfig(points=2, planes=2, vectors=2))
    assert _bindings() == before
    rows = tracer.summary()
    for name in (
        "verify.full_report", "verify.Session", "geometry.sample_points",
        "geometry.metric_symmetry_residual", "geometry.PointGeometry",
        "hermitian.classify_point", "planes.adapted_frame", "verify.identity.EQ6",
        "geometry.ExprMatrixField.evaluate:metric", "exprlang.evaluate", "jets.jet_mul",
    ):
        assert rows[name]["calls"] > 0, name
    assert rows["verify.Session"]["calls"] == 1
    # each point: PointGeometry plus the two validation helpers
    assert rows["geometry.ExprMatrixField.evaluate:metric"]["calls"] == 3 * 2
    assert tracer.counts["planes.random_unit_vector"] > 0
    assert tracer.child_calls("geometry.ManifoldSpec.contains", "geometry.sample_points") == 2


def test_targets_missing_from_the_tree_are_skipped(monkeypatch):
    monkeypatch.delattr(verify, "classify_point")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert not hasattr(verify, "classify_point")
    assert len(SPAN_TARGETS) + len(COUNT_TARGETS) > 20


def test_checker_accepts_the_recorded_verdict_and_catches_flips(tmp_path):
    case_id = "report --manifold cpn"
    verdict = _run("catalog-cli", case_id, tmp_path)
    good = EXPECTED["catalog-cli"][case_id]
    assert checker.problems(good, verdict) == []

    flips = []
    flipped = copy.deepcopy(good)
    flipped["exit"] = 1
    flips.append(flipped)
    flipped = copy.deepcopy(good)
    flipped["report"]["passed"].remove("EQ6")
    flipped["report"]["skipped"].append("EQ6")
    flips.append(flipped)
    flipped = copy.deepcopy(good)
    flipped["report"]["samples"]["EQ6"] //= 2
    flips.append(flipped)
    flipped = copy.deepcopy(good)
    flipped["closed_form"]["nu"] = -1.0
    flips.append(flipped)
    for expected in flips:
        assert checker.problems(expected, verdict), expected

    crashed = workloads.Verdict(case_id, None, None, 0.1, "RuntimeError()")
    assert checker.problems(good, crashed)


@pytest.mark.parametrize(
    "case_id, code",
    [
        ("report --file fixtures/broken_j.json", 1),
        ("report --file perfbench/data/sqrt_window.json", 3),
    ],
)
def test_catalog_error_exits_are_expected_outcomes(tmp_path, case_id, code):
    verdict = _run("catalog-cli", case_id, tmp_path, seed=5)
    assert verdict.exit == code
    expected = EXPECTED["catalog-cli"][case_id]
    assert checker.problems(expected, verdict) == []
    assert checker.problems(dict(expected, exit=0), verdict)


def test_checks_count_identity_classification_and_nu_samples(tmp_path):
    verdict = _run("catalog-cli", "classify --manifold s6", tmp_path)
    # no identities ran; 8 points x 32 vectors draws and 8 x 32 nu planes
    assert workloads.checks(verdict.report) == 8 * 32 + 8 * 32
