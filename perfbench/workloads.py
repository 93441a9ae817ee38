"""The three benchmark workloads.

Each workload is a fixed list of verdicts.  One verdict is one call into
curvlab's public API; a round runs the list once, closed-loop (the next
call starts when the previous one returns), in this process and thread.
curvlab is imported lazily so that ``setup_probe.py`` can time the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one call: exit code (0 pass, 1 fail, 2/3 CLI errors),
    the parsed JSON report when one was written, and the wall time."""

    id: str
    exit: int | None
    report: dict | None
    seconds: float
    error: str | None = None


@dataclass(frozen=True)
class ReportCase:
    """``full_report`` on a builtin, rendered with ``cli.dumps``."""

    id: str
    builtin: str
    params: dict
    sizes: dict  # CheckConfig points/planes/vectors


@dataclass(frozen=True)
class CliCase:
    """In-process ``cli.main(argv)``; ``file`` is relative to the repo root."""

    argv: tuple[str, ...]
    builtin: str | None = None
    params: tuple = ()
    file: str | None = None

    @property
    def id(self) -> str:
        return " ".join(self.argv)


def _cli_cases() -> tuple[CliCase, ...]:
    cases = []
    for name in ("flat", "cpn", "cdn", "perturbed-flat", "kahler-bump"):
        cases.append(CliCase(("report", "--manifold", name), name))
        cases.append(CliCase(("report", "--manifold", name, "--n", "3"), name, (("n", 3),)))
    cases += [
        CliCase(("report", "--manifold", "s6"), "s6"),
        CliCase(("classify", "--manifold", "s6"), "s6"),
        CliCase(("identities", "--manifold", "cdn", "--suite", "EQ6"), "cdn"),
        CliCase(("schur", "--manifold", "cpn", "--n", "2", "--c", "4"), "cpn", (("n", 2), ("c", 4.0))),
    ]
    for rel in ("fixtures/flat_c2.json", "fixtures/broken_j.json", "perfbench/data/sqrt_window.json"):
        cases.append(CliCase(("report", "--file", rel), file=rel))
    return tuple(cases)


WORKLOADS: dict[str, tuple] = {
    # chart pipeline: d = 10, expression-to-jet evaluation is the hot path
    "chart-cpn5": (
        ReportCase("report cpn n=5 c=4", "cpn", {"n": 5, "c": 4.0},
                   {"points": 8, "planes": 32, "vectors": 32}),
    ),
    # sampling: few points, many planes and vectors; identity, classification
    # and nu loops dominate, J comes through CallableMatrixField
    "sampling-s6": (
        ReportCase("report s6 points=4 planes=512 vectors=512", "s6", {},
                   {"points": 4, "planes": 512, "vectors": 512}),
    ),
    # many small charts through the CLI, with skip gates and error exits
    "catalog-cli": _cli_cases(),
}


def import_curvlab():
    """Import curvlab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "curvlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no curvlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import curvlab

    if Path(curvlab.__file__).resolve().parent != SRC / "curvlab":
        raise ImportError(f"curvlab imported from {curvlab.__file__}, not from {SRC}")
    return curvlab


def build_specs(workload: str) -> dict:
    """Every spec the workload uses, by case id (the set-up cost)."""
    from curvlab import cli, modelspaces

    specs = {}
    for case in WORKLOADS[workload]:
        file = getattr(case, "file", None)
        specs[case.id] = (
            cli.load_manifold_file(str(ROOT / file)) if file
            else modelspaces.build_builtin(case.builtin, **dict(case.params))
        )
    return specs


def _timed(case_id: str, call, as_verdict) -> Verdict:
    if as_verdict is not None:
        call = as_verdict(call)
    t0 = time.perf_counter()
    try:
        exit_code, text = call()
    except Exception as err:  # a crash is a wrong verdict, not a dead run
        return Verdict(case_id, None, None, time.perf_counter() - t0, repr(err))
    seconds = time.perf_counter() - t0
    return Verdict(case_id, exit_code, json.loads(text) if text is not None else None, seconds)


def run_case(case, spec, seed: int, scratch: Path, as_verdict=None) -> Verdict:
    """One verdict: the timed call, then its report read back.
    ``as_verdict``, when given, wraps the call alone (the tracer's
    verdict span)."""
    from curvlab import cli
    from curvlab.verify import CheckConfig

    if isinstance(case, ReportCase):
        config = CheckConfig(seed=seed, **case.sizes)

        def call():
            report = cli.full_report(spec, config)
            return (0 if report.passed else 1), cli.dumps(report.to_dict())

        return _timed(case.id, call, as_verdict)

    path = scratch / "report.json"
    argv = [str(ROOT / case.file) if a == case.file else a for a in case.argv]
    argv += ["--seed", str(seed), "--json", str(path)]
    path.unlink(missing_ok=True)

    def call():
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv), None

    verdict = _timed(case.id, call, as_verdict)
    if path.exists():
        verdict = replace(verdict, report=json.loads(path.read_text(encoding="utf-8")))
    return verdict


def run_round(workload: str, specs: dict, seed: int, scratch: Path, as_verdict=None) -> list[Verdict]:
    """One pass over the workload's cases, in order."""
    return [
        run_case(case, specs[case.id], seed, scratch, as_verdict)
        for case in WORKLOADS[workload]
    ]


def checks(report: dict | None) -> int:
    """Residual samples a report accounts for: identity samples, plus
    points x vectors classification draws and points x planes nu planes
    when the almost-complex structure passed validation (classification
    and nu estimation run exactly then; nu needs dim >= 4)."""
    if report is None:
        return 0
    total = sum(r["samples"] for r in report["identities"])
    v, cfg = report["validation"], report["config"]
    if v["ok"] and v["j_squared"] is not None:
        total += cfg["points"] * cfg["vectors"]
        if report["manifold"]["dim"] >= 4:
            total += cfg["points"] * cfg["planes"]
    return total
