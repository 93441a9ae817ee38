"""Golden-report corpus: committed reports that prove byte identity.

Each case is one in-process ``cli.main`` call at a small configuration.
``tests/golden/index.json`` holds, per case, the exit code (or the
exception that escaped ``main``) and the stderr text; ``tests/golden/
<case>.json`` holds the report exactly as written.  ``test_golden.py``
always compares the verdict fields (exit code, pass, validation ok, skip
reasons, samples, notes and class passes).  It compares the full bytes,
stderr included, only when numpy is the version the corpus was recorded
with, since float digits may move under another numpy or BLAS.

Refresh the corpus, and print what moved, with

    python tests/golden.py

and list the moved fields of every refreshed case in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
INDEX = GOLDEN / "index.json"
SIZES = ["--points", "2", "--planes", "8", "--vectors", "8", "--seed", "0"]

_FLAT = [["1" if i == j else "0" for j in range(4)] for i in range(4)]


def _flat_with(g11: str) -> dict:
    """A flat 4-d chart, box centre 1, whose g11 is ``g11``."""
    metric = [row[:] for row in _FLAT]
    metric[0][0] = g11
    return {
        "name": "non-finite-probe",
        "dimension": 4,
        "metric": metric,
        "sample_box": {"center": [1.0] * 4, "half_width": [0.1] * 4},
    }


# generated input files, written to a temporary directory per run
GENERATED = {
    "nonfinite_sin": _flat_with("2 + sin(1e200*x1*1e200)"),
    "nonfinite_square": _flat_with("1 + (1e200*x1)^2"),
    "nonfinite_cube": _flat_with("1 + (1e150*x4)^3"),
    "nonfinite_nan": _flat_with("1 + (1e200*x1)^2 - (1e200*x1)^2"),
}


def _cases() -> dict[str, list[str]]:
    """Case name -> argv; ``@name`` stands for a generated file."""
    cases = {}
    for name in ("flat", "cpn", "cdn", "s6", "perturbed-flat", "kahler-bump"):
        cases[name] = ["report", "--manifold", name]
        if name != "s6":
            cases[f"{name}-n3"] = ["report", "--manifold", name, "--n", "3"]
    cases["cpn-n2-c4e8"] = ["report", "--manifold", "cpn", "--n", "2", "--c", "4e8"]
    for rel in (
        "fixtures/flat_c2.json",
        "fixtures/broken_j.json",
        "perfbench/data/sqrt_window.json",
        "fixtures/witness_a_bochner_flat.json",
        "fixtures/witness_b_conformally_flat.json",
    ):
        cases["file-" + Path(rel).stem] = ["report", "--file", str(ROOT / rel)]
    for name in GENERATED:
        cases[name] = ["report", "--file", "@" + name]
    return cases


CASES = _cases()


def run_case(name: str, workdir: Path) -> dict:
    """Run one case: its exit code (or escaped exception), stderr and
    report text (None when no report was written)."""
    from curvlab.cli import main

    argv = []
    for arg in CASES[name]:
        if arg.startswith("@"):
            path = workdir / f"{arg[1:]}.json"
            path.write_text(json.dumps(GENERATED[arg[1:]]), encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    out = workdir / f"{name}.report.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    exit_code, raised = None, None
    # numpy's RuntimeWarnings name source lines, which move with any edit
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            exit_code = main(argv + SIZES + ["--json", str(out)])
        except Exception as exc:  # recorded: an escape is part of the behaviour
            raised = type(exc).__name__
    report = out.read_text(encoding="utf-8") if out.exists() else None
    return {"exit": exit_code, "raised": raised, "stderr": err.getvalue(), "report": report}


def verdict_fields(result: dict) -> dict:
    """The fields compared under any numpy: everything a verdict is."""
    fields = {"exit": result["exit"], "raised": result["raised"]}
    if result["exit"] in (2, 3):
        fields["stderr"] = result["stderr"]
    if result["report"] is None:
        return fields
    doc = json.loads(result["report"])
    schur = doc["schur"]
    fields.update({
        "pass": doc["pass"],
        "validation_ok": doc["validation"]["ok"],
        "classes": {name: entry["pass"] for name, entry in doc["classification"].items()},
        "identities": [
            [row["tag"], row["samples"], row["pass"], row["hypothesis_note"]]
            for row in doc["identities"]
        ],
        "schur": None if schur is None else [schur["pass"], schur["warnings"]],
        "skipped": [[entry["tag"], entry["reason"]] for entry in doc["skipped"]],
    })
    return fields


def load(name: str) -> dict:
    """The recorded result of one case, in :func:`run_case`'s shape."""
    entry = json.loads(INDEX.read_text(encoding="utf-8"))["cases"][name]
    path = GOLDEN / f"{name}.json"
    return dict(entry, report=path.read_text(encoding="utf-8") if path.exists() else None)


def recorded_numpy() -> str:
    return json.loads(INDEX.read_text(encoding="utf-8"))["numpy"]


def refresh() -> None:
    """Re-record every case and print what moved against the old corpus."""
    old = json.loads(INDEX.read_text(encoding="utf-8"))["cases"] if INDEX.exists() else {}
    GOLDEN.mkdir(exist_ok=True)
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            new = run_case(name, Path(tmp))
            if name in old:
                before = load(name)
                moved = [
                    key for key in verdict_fields(new)
                    if verdict_fields(before).get(key) != verdict_fields(new)[key]
                ]
                if moved:
                    print(f"{name}: verdict fields moved: {', '.join(moved)}")
                elif before["report"] != new["report"] or before["stderr"] != new["stderr"]:
                    print(f"{name}: bytes moved, verdict fields did not")
            else:
                print(f"{name}: new case")
            path = GOLDEN / f"{name}.json"
            if new["report"] is None:
                path.unlink(missing_ok=True)
            else:
                path.write_text(new["report"], encoding="utf-8")
            digest = hashlib.sha256((new["report"] or "").encode()).hexdigest()
            cases[name] = {
                "exit": new["exit"],
                "raised": new["raised"],
                "stderr": new["stderr"],
                "report_sha256": digest if new["report"] is not None else None,
            }
    for name in sorted(set(old) - set(cases)):
        print(f"{name}: case removed")
        (GOLDEN / f"{name}.json").unlink(missing_ok=True)
    doc = {"numpy": np.__version__, "sizes": SIZES, "cases": cases}
    INDEX.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    listing = "".join(
        f"{name} {entry['exit']} {entry['report_sha256']}\n" for name, entry in cases.items()
    )
    print("corpus sha256:", hashlib.sha256(listing.encode()).hexdigest())


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    refresh()
