"""Verdict checker: compares each verdict with the expected table.

The table (``expected.json``) holds, per workload and case id, the exit
code, the identity tags that passed and were skipped, the ``samples`` of
every identity (so a change cannot look faster by doing less work) and,
where the README states one, the closed-form curvature the ``schur``
section must reproduce within the report's own tolerance.  Report bytes
are deliberately not compared: RNG streams may change between versions.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# closed-form key -> the schur lists that must equal it at every point
_CLOSED_FORM_FIELDS = {
    "nu": ("nu_formula", "nu_sampled"),
    "tau": ("tau",),
    "tau_star": ("tau_star",),
}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def outcome(report: dict) -> dict:
    """The parts of a report the table pins down."""
    passed = sorted(r["tag"] for r in report["identities"] if r["pass"])
    if report["schur"] is not None and report["schur"]["pass"]:
        passed.append("SCHUR")
    return {
        "pass": report["pass"],
        "passed": passed,
        "skipped": sorted(s["tag"] for s in report["skipped"]),
        "samples": {r["tag"]: r["samples"] for r in report["identities"]},
    }


def _residual(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(a) + abs(b))


def problems(expected: dict, verdict) -> list[str]:
    """Every way ``verdict`` differs from ``expected``; empty when right."""
    if verdict.error is not None:
        return [f"raised {verdict.error}"]
    out = []
    if verdict.exit != expected["exit"]:
        out.append(f"exit {verdict.exit}, expected {expected['exit']}")
    report = verdict.report
    if "report" not in expected:
        if report is not None:
            out.append("wrote a report, expected none")
        return out
    if report is None:
        return out + ["wrote no report"]
    got = outcome(report)
    if got["pass"] != (verdict.exit == 0):
        out.append(f"report pass={got['pass']} disagrees with exit {verdict.exit}")
    for key, want in expected["report"].items():
        if got[key] != want:
            out.append(f"{key}: {got[key]}, expected {want}")
    schur = report["schur"]
    for key, value in expected.get("closed_form", {}).items():
        if schur is None:
            out.append(f"closed form {key}: no schur section")
            continue
        for field in _CLOSED_FORM_FIELDS[key]:
            worst = max((_residual(v, value) for v in schur[field]), default=math.inf)
            if not worst <= schur["tolerance"]:
                out.append(f"{field}: residual {worst:.3e} from {value} exceeds {schur['tolerance']}")
    return out
