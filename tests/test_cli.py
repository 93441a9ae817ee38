"""End-to-end tests of the command-line layer: file ingestion with
JSON-pointer diagnostics, the exit-code contract, and byte-stable reports."""

import json
from pathlib import Path

import pytest

from curvlab.cli import RunConfig, dumps, load_manifold_file, main
from curvlab.errors import ExprSyntaxError, SchemaError

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

FLAT_METRIC = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
STD_J = [
    ["0", "-1", "0", "0"],
    ["1", "0", "0", "0"],
    ["0", "0", "0", "-1"],
    ["0", "0", "1", "0"],
]


def write_doc(tmp_path, **overrides):
    doc = {
        "name": "probe",
        "dimension": 4,
        "metric": FLAT_METRIC,
        "sample_box": {"center": [0.0] * 4, "half_width": [1.0] * 4},
    }
    doc.update(overrides)
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# manifold file loading


def test_load_fixture_file():
    spec = load_manifold_file(FIXTURES / "flat_c2.json")
    assert spec.name == "flat-c2-file"
    assert spec.dim == 4
    assert spec.complex_structure is not None
    assert list(spec.sample_box.center) == [0.0] * 4


def test_dimension_must_be_even(tmp_path):
    path = write_doc(tmp_path, dimension=3, metric=[["1", "0", "0"]] * 3,
                     sample_box={"center": [0.0] * 3, "half_width": [1.0] * 3})
    with pytest.raises(SchemaError, match="/dimension"):
        load_manifold_file(path)


def test_missing_required_key(tmp_path):
    path = write_doc(tmp_path, metric=None)
    with pytest.raises(SchemaError, match="/metric: required key missing"):
        load_manifold_file(path)


def test_unknown_top_level_key(tmp_path):
    path = write_doc(tmp_path, curvature="flat")
    with pytest.raises(SchemaError, match="/curvature: unknown key"):
        load_manifold_file(path)


def test_metric_row_count(tmp_path):
    path = write_doc(tmp_path, metric=FLAT_METRIC[:3])
    with pytest.raises(SchemaError, match="/metric: expected 4 rows, got 3"):
        load_manifold_file(path)


def test_metric_entry_must_be_string(tmp_path):
    bad = [row[:] for row in FLAT_METRIC]
    bad[0][0] = 1
    path = write_doc(tmp_path, metric=bad)
    with pytest.raises(SchemaError, match="/metric/0/0"):
        load_manifold_file(path)


def test_bad_expression_reports_pointer_and_offset(tmp_path):
    bad = [row[:] for row in FLAT_METRIC]
    bad[0][1] = "1 + cos("
    bad[1][0] = "1 + cos("
    path = write_doc(tmp_path, metric=bad)
    with pytest.raises(ExprSyntaxError, match=r"/metric/0/1") as err:
        load_manifold_file(path)
    assert err.value.offset == 8


def test_asymmetric_metric_rejected(tmp_path):
    bad = [row[:] for row in FLAT_METRIC]
    bad[0][1] = "1/2"
    path = write_doc(tmp_path, metric=bad)
    with pytest.raises(SchemaError, match="not symmetric"):
        load_manifold_file(path)


def test_indefinite_metric_rejected(tmp_path):
    bad = [row[:] for row in FLAT_METRIC]
    bad[2][2] = "-1"
    path = write_doc(tmp_path, metric=bad)
    with pytest.raises(SchemaError, match="not positive definite"):
        load_manifold_file(path)


def test_sample_box_length_mismatch(tmp_path):
    path = write_doc(tmp_path, sample_box={"center": [0.0] * 3, "half_width": [1.0] * 4})
    with pytest.raises(SchemaError, match="/sample_box/center"):
        load_manifold_file(path)


def test_sample_box_unknown_key(tmp_path):
    path = write_doc(
        tmp_path,
        sample_box={"center": [0.0] * 4, "half_width": [1.0] * 4, "margin": 0.1},
    )
    with pytest.raises(SchemaError, match="/sample_box/margin"):
        load_manifold_file(path)


def test_center_outside_domain(tmp_path):
    path = write_doc(tmp_path, domain="x1 - 2")
    with pytest.raises(SchemaError, match="violates the domain predicate"):
        load_manifold_file(path)


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_manifold_file(str(path))


def test_missing_file():
    with pytest.raises(SchemaError, match="cannot read"):
        load_manifold_file("/no/such/file.json")


# ---------------------------------------------------------------------------
# exit-code contract


QUICK_ARGS = ["--points", "2", "--planes", "6", "--vectors", "6"]


def test_exit_zero_on_pass(capsys):
    rc = main(["identities", "--manifold", "flat", "--n", "1", *QUICK_ARGS])
    assert rc == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["pass"] is True
    assert "overall: PASS" in out.err


def test_exit_one_on_failed_validation(capsys):
    rc = main(["report", "--file", str(FIXTURES / "broken_j.json"), *QUICK_ARGS])
    assert rc == 1
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert doc["pass"] is False
    assert doc["validation"]["ok"] is False
    assert "overall: FAIL" in out.err


def test_exit_two_on_unknown_builtin(capsys):
    assert main(["classify", "--manifold", "torus"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_two_on_bad_file(tmp_path, capsys):
    bad = [row[:] for row in FLAT_METRIC]
    bad[0][0] = "1 +"
    path = write_doc(tmp_path, metric=bad)
    assert main(["identities", "--file", path]) == 2
    assert "/metric/0/0" in capsys.readouterr().err


def test_exit_two_on_bad_counts(capsys):
    rc = main(["identities", "--manifold", "flat", "--points", "0"])
    assert rc == 2
    assert "points" in capsys.readouterr().err


def test_exit_two_when_params_passed_with_file(capsys):
    rc = main(["identities", "--file", str(FIXTURES / "flat_c2.json"), "--n", "2"])
    assert rc == 2
    assert "builtin" in capsys.readouterr().err


def test_manifold_selector_is_required():
    with pytest.raises(SystemExit) as err:
        main(["classify"])
    assert err.value.code == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_non_finite_curvature_fails(tmp_path, capsys):
    # g11 near the top of the float range: ∇R overflows to inf/nan at every
    # sampled point, which must fail the Bianchi tags rather than vanish
    # from their maxima
    metric = [row[:] for row in FLAT_METRIC]
    metric[0][0] = "1e300*(1 + x2^2 + x3^2*x4)"
    metric[1][1] = "1 + x1^2"
    path = write_doc(
        tmp_path, metric=metric,
        sample_box={"center": [0.5] * 4, "half_width": [0.4] * 4},
    )
    rc = main(["report", "--file", path])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    rows = {row["tag"]: row for row in doc["identities"]}
    for tag in ("EQ6", "EQ7"):
        assert rows[tag]["pass"] is False
        assert rows[tag]["max_residual"] is None  # NaN, written as null
    assert doc["pass"] is False


def test_metric_asymmetry_below_threshold_still_reports(tmp_path, capsys):
    # an asymmetry the validation accepts must be accepted everywhere: the
    # chart then works on the symmetric part of g.  The first entry is 0 at
    # the box centre; the second is not, so it reaches the loader's check.
    for entry in ("5e-9*x1^2", "1e-10*(1 + x1^2)"):
        metric = [row[:] for row in FLAT_METRIC]
        metric[1][0] = entry
        path = write_doc(tmp_path, metric=metric, complex_structure=STD_J)
        rc = main(["report", "--file", path])
        assert rc in (0, 1), entry
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["validation"]["metric_symmetry"] <= 1e-8
        assert doc["validation"]["ok"] is True


def test_exit_three_on_domain_escape(tmp_path, capsys):
    # log leaves its domain inside the sample box: an evaluation error, not
    # a usage error and not a failed check
    metric = [row[:] for row in FLAT_METRIC]
    metric[0][0] = "2 + log(x1 + 1/2)"
    path = write_doc(tmp_path, metric=metric)
    assert main(["identities", "--file", path, *QUICK_ARGS]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, center",
    [
        ("exp(1000*x1)", 1.0),  # math.exp overflows
        ("1 + (log(1e-200*(2 + x1)))^2", 0.0),  # v**k of log's series underflows
    ],
)
def test_float_range_escape_exits_three(tmp_path, capsys, entry, center):
    metric = [row[:] for row in FLAT_METRIC]
    metric[0][0] = entry
    path = write_doc(
        tmp_path, metric=metric,
        sample_box={"center": [center] * 4, "half_width": [0.1] * 4},
    )
    assert main(["report", "--file", path, *QUICK_ARGS]) == 3
    assert "float range" in capsys.readouterr().err


def test_cpn_at_large_c_gives_a_report(tmp_path):
    # cpn at c = 4e16 has g ~ 1e-16: absolute norm floors of 1e-8 rejected
    # every random draw and FrameConstructionError escaped main
    out = tmp_path / "report.json"
    rc = main(["report", "--manifold", "cpn", "--n", "2", "--c", "4e16",
               "--json", str(out)])
    assert rc in (0, 1)
    assert json.loads(out.read_text())["manifold"]["params"]["c"] == 4e16


def test_domain_predicate_restores_exit_zero(tmp_path, capsys):
    metric = [row[:] for row in FLAT_METRIC]
    metric[0][0] = "2 + log(x1 + 1/2)"
    path = write_doc(tmp_path, metric=metric, domain="x1 + 2/5")
    assert main(["identities", "--file", path, *QUICK_ARGS]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# report output


def test_reports_are_byte_identical(tmp_path):
    args = ["report", "--manifold", "cpn", "--n", "2", "--c", "4", *QUICK_ARGS]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--json", str(a)]) == 0
    assert main([*args, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_document_shape(capsys):
    rc = main(["report", "--manifold", "s6", *QUICK_ARGS, "--seed", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "manifold", "config", "validation", "classification",
        "identities", "schur", "skipped", "pass",
    ]
    assert doc["manifold"]["name"] == "s6"
    assert doc["config"]["points"] == 2 and doc["config"]["suite"] == "all"
    for row in doc["identities"]:
        assert set(row) == {
            "tag", "max_residual", "samples", "tolerance", "pass", "hypothesis_note",
        }
    assert doc["classification"]["nearly_kaehler"]["pass"] is True
    assert doc["classification"]["kaehler"]["pass"] is False
    assert doc["schur"]["pass"] is True


def test_single_tag_suite(capsys):
    rc = main(["identities", "--manifold", "cdn", "--suite", "EQ6", *QUICK_ARGS])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["tag"] for row in doc["identities"]] == ["EQ6"]
    assert doc["schur"] is None


def test_list_manifolds(capsys):
    assert main(["list-manifolds"]) == 0
    out = capsys.readouterr().out
    for name in ("flat", "cpn", "cdn", "s6", "perturbed-flat", "kahler-bump"):
        assert name in out


def test_run_config_requires_one_selector():
    with pytest.raises(SchemaError):
        RunConfig().resolve_manifold()
    with pytest.raises(SchemaError):
        RunConfig(builtin="flat", file="x.json").resolve_manifold()


# ---------------------------------------------------------------------------
# deterministic JSON emission


def test_dumps_formats_floats_at_full_precision():
    assert dumps({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}'
    # strict JSON: non-finite numbers are written as null
    assert dumps([float("nan"), float("-inf")]) == "[\n  null,\n  null\n]"
    assert dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'
    assert dumps({"n": 3, "t": True, "z": None}) == (
        '{\n  "n": 3,\n  "t": true,\n  "z": null\n}'
    )


def test_dumps_rejects_unserializable():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_dumps_matches_stdlib_semantics():
    doc = {"a": [1.5, -2.25], "b": {"c": "text", "d": False}}
    assert json.loads(dumps(doc)) == doc
