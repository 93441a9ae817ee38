"""Command-line front end: manifold ingestion, report emission, exit codes.

Subcommands:

    list-manifolds          catalog of builtin manifolds
    classify                almost-Hermitian class residuals only
    identities              curvature identity suite (or one tag via --suite)
    schur                   constancy statistics for ν, τ, τ*
    report                  everything (classification + identities + schur)

A manifold is selected either with ``--manifold NAME`` (builtin, optionally
parametrized by ``--n``/``--c``) or ``--file PATH`` pointing to a JSON
description::

    {
      "name": "flat-c2",
      "dimension": 4,
      "metric": [["1", "0", ...], ...],            # expression strings
      "complex_structure": [["0", "-1", ...], ...],  # optional, J^i_j
      "domain": "1 - (x1^2 + x2^2)",               # optional, chart where > 0
      "sample_box": {"center": [0,0,0,0], "half_width": [0.5,0.5,0.5,0.5]}
    }

Exit codes: 0 all checks passed, 1 some check failed its tolerance (or
validation failed), 2 usage/schema error, 3 evaluation-domain error.
Reports are byte-identical for identical configurations: fixed key order,
floats at 17 significant digits (non-finite ones as ``null``),
deterministic seeding.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import (
    DegenerateMetricError,
    DomainError,
    EvaluationDomainError,
    ExprError,
    SchemaError,
)
from .geometry import METRIC_SYMMETRY_TOL, ExprMatrixField, ManifoldSpec, SampleBox
from .modelspaces import BUILTIN_MODELS, build_builtin
from .verify import IDENTITY_TAGS, CheckConfig, Report, full_report


# ---------------------------------------------------------------------------
# manifold file loading


def _type_name(value) -> str:
    return type(value).__name__


def _expect(value, types, pointer: str, what: str):
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{pointer}: expected {what}, got {_type_name(value)}")
    return value


def _expr_rows(value, dim: int, pointer: str) -> list[list[str]]:
    rows = _expect(value, list, pointer, f"a {dim}x{dim} array of expression strings")
    if len(rows) != dim:
        raise SchemaError(f"{pointer}: expected {dim} rows, got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        row = _expect(row, list, f"{pointer}/{i}", f"an array of {dim} expression strings")
        if len(row) != dim:
            raise SchemaError(f"{pointer}/{i}: expected {dim} entries, got {len(row)}")
        entries = []
        for j, src in enumerate(row):
            if not isinstance(src, str):
                raise SchemaError(
                    f"{pointer}/{i}/{j}: expected an expression string, got {_type_name(src)}"
                )
            try:
                exprlang.parse(src, dim)
            except ExprError as err:
                raise type(err)(f"{pointer}/{i}/{j}: {err.args[0]}", err.offset) from None
            entries.append(src)
        out.append(entries)
    return out


def _float_vector(value, length: int, pointer: str) -> list[float]:
    arr = _expect(value, list, pointer, f"an array of {length} numbers")
    if len(arr) != length:
        raise SchemaError(f"{pointer}: expected {length} entries, got {len(arr)}")
    out = []
    for i, v in enumerate(arr):
        out.append(float(_expect(v, (int, float), f"{pointer}/{i}", "a number")))
    return out


_TOP_KEYS = {
    "name",
    "dimension",
    "metric",
    "complex_structure",
    "domain",
    "sample_box",
    "description",
}


def load_manifold_file(path: str) -> ManifoldSpec:
    """Parse and validate a manifold description file.

    Schema problems raise SchemaError with a JSON-pointer-style location;
    bad expressions raise the parser's error annotated with the pointer and
    character offset.  The metric must be symmetric and positive definite
    at the sample-box center; a complex_structure is *not* validated here
    (structural residuals are part of every report, so a non-compatible J
    is reported, not rejected).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as err:
        raise SchemaError(f"cannot read manifold file {path!r}: {err}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise SchemaError(f"/: not valid JSON: {err}") from None

    _expect(doc, dict, "/", "an object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise SchemaError(
            f"/{unknown[0]}: unknown key (known: {', '.join(sorted(_TOP_KEYS))})"
        )
    for key in ("name", "dimension", "metric"):
        if key not in doc:
            raise SchemaError(f"/{key}: required key missing")

    name = _expect(doc["name"], str, "/name", "a string")
    dim = _expect(doc["dimension"], int, "/dimension", "an integer")
    if dim < 2 or dim % 2 != 0:
        raise SchemaError(f"/dimension: must be even and >= 2, got {dim}")

    metric = ExprMatrixField(_expr_rows(doc["metric"], dim, "/metric"), dim)
    complex_structure = None
    if "complex_structure" in doc:
        complex_structure = ExprMatrixField(
            _expr_rows(doc["complex_structure"], dim, "/complex_structure"), dim
        )

    domain = None
    if "domain" in doc:
        src = _expect(doc["domain"], str, "/domain", "an expression string")
        try:
            domain = exprlang.parse(src, dim)
        except ExprError as err:
            raise type(err)(f"/domain: {err.args[0]}", err.offset) from None

    sample_box = None
    if "sample_box" in doc:
        box = _expect(doc["sample_box"], dict, "/sample_box", "an object")
        extra = sorted(set(box) - {"center", "half_width"})
        if extra:
            raise SchemaError(f"/sample_box/{extra[0]}: unknown key")
        for key in ("center", "half_width"):
            if key not in box:
                raise SchemaError(f"/sample_box/{key}: required key missing")
        sample_box = SampleBox(
            _float_vector(box["center"], dim, "/sample_box/center"),
            _float_vector(box["half_width"], dim, "/sample_box/half_width"),
        )

    description = ""
    if "description" in doc:
        description = _expect(doc["description"], str, "/description", "a string")

    try:
        spec = ManifoldSpec(
            name=name,
            dim=dim,
            metric=metric,
            complex_structure=complex_structure,
            domain=domain,
            sample_box=sample_box,
            description=description,
        )
    except SchemaError as err:
        raise SchemaError(f"/: {err}") from None

    center = spec.sample_box.center
    if not spec.contains(center):
        raise SchemaError("/sample_box/center: violates the domain predicate")
    g = spec.metric.evaluate(center, 0)[..., 0]
    sym = float(np.abs(g - g.T).max())
    if sym > METRIC_SYMMETRY_TOL:
        raise SchemaError(
            f"/metric: not symmetric at the sample-box center "
            f"(residual {sym:.3e} exceeds {METRIC_SYMMETRY_TOL:g})"
        )
    eigmin = float(np.linalg.eigvalsh(0.5 * (g + g.T)).min())
    if eigmin <= 0.0:
        raise SchemaError(
            f"/metric: not positive definite at the sample-box center "
            f"(smallest eigenvalue {eigmin:.3e})"
        )
    return spec


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs: manifold selector + counts + output."""

    builtin: str | None = None
    file: str | None = None
    n: int | None = None
    c: float | None = None
    points: int = 8
    planes: int = 32
    vectors: int = 32
    seed: int = 0
    tol: float = 1e-6
    json_path: str | None = None
    suite: str = "all"

    def resolve_manifold(self) -> ManifoldSpec:
        if (self.builtin is None) == (self.file is None):
            raise SchemaError("select a manifold with exactly one of --manifold/--file")
        if self.file is not None:
            if self.n is not None or self.c is not None:
                raise SchemaError("--n/--c apply only to builtin manifolds")
            return load_manifold_file(self.file)
        return build_builtin(self.builtin, n=self.n, c=self.c)

    def check_config(self) -> CheckConfig:
        try:
            return CheckConfig(
                points=self.points,
                planes=self.planes,
                vectors=self.vectors,
                seed=self.seed,
                tol=self.tol,
            )
        except ValueError as err:
            raise SchemaError(str(err)) from None


def run(config: RunConfig) -> int:
    """Execute one configuration: write the JSON report, summarize on
    stderr, and translate the outcome into the exit-code contract."""
    spec = config.resolve_manifold()
    report = full_report(spec, config.check_config(), suite=config.suite)
    text = dumps(report.to_dict()) + "\n"
    if config.json_path:
        with open(config.json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _summarize(report, sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# deterministic JSON emission


def _fmt_float(x: float) -> str:
    # strict JSON has no NaN/Infinity; a non-finite residual never passes,
    # so its row says so through "pass": false
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(obj) -> str:
    """Deterministic JSON: fixed key order (insertion), 2-space indent,
    floats formatted with 17 significant digits."""
    return _render(obj, 0)


# ---------------------------------------------------------------------------
# stderr summary


def _summarize(report: Report, stream) -> None:
    m = report.manifold
    cfg = report.config
    params = ", ".join(f"{k}={v}" for k, v in m["params"].items())
    head = f"{m['name']} (dim {m['dim']}{', ' + params if params else ''})"
    print(
        f"curvlab: {head}  suite={cfg['suite']} points={cfg['points']} "
        f"planes={cfg['planes']} vectors={cfg['vectors']} seed={cfg['seed']} "
        f"tol={cfg['tol']:g}",
        file=stream,
    )
    v = report.validation
    bits = [f"metric symmetry {v['metric_symmetry']:.2e}"]
    if v["j_squared"] is not None:
        bits.append(f"J^2+Id {v['j_squared']:.2e}")
        bits.append(f"compatibility {v['compatibility']:.2e}")
    print(
        f"  validation: {'ok' if v['ok'] else 'FAILED'} ({'; '.join(bits)})",
        file=stream,
    )
    if report.classification:
        parts = [
            f"{name} {entry['status']} ({entry['residual']:.2e})"
            for name, entry in report.classification.items()
        ]
        print(f"  classes: {'; '.join(parts)}", file=stream)
    for r in report.identities:
        flag = "pass" if r.passed else "FAIL"
        print(
            f"  {r.tag:<6} {flag}  max residual {r.max_residual:.3e} "
            f"over {r.samples} samples",
            file=stream,
        )
    if report.schur is not None:
        s = report.schur
        worst = max(s.spreads.values())
        flag = "pass" if s.passed else "FAIL"
        print(f"  schur: {flag}  worst spread {worst:.3e}", file=stream)
        for w in s.warnings:
            print(f"    note: {w}", file=stream)
    for entry in report.skipped:
        print(f"  skipped {entry['tag']}: {entry['reason']}", file=stream)
    print(f"  overall: {'PASS' if report.passed else 'FAIL'}", file=stream)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser) -> None:
    sel = sp.add_mutually_exclusive_group(required=True)
    sel.add_argument("--manifold", metavar="NAME", help="builtin manifold name")
    sel.add_argument("--file", metavar="PATH", help="manifold description JSON file")
    sp.add_argument("--n", type=int, default=None, help="complex dimension for builtins")
    sp.add_argument("--c", type=float, default=None, help="curvature parameter for builtins")
    sp.add_argument("--points", type=int, default=8, help="sample points (default 8)")
    sp.add_argument("--planes", type=int, default=32, help="planes per point (default 32)")
    sp.add_argument("--vectors", type=int, default=32, help="argument tuples per point (default 32)")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.add_argument("--tol", type=float, default=1e-6, help="residual tolerance (default 1e-6)")
    sp.add_argument("--json", dest="json_path", metavar="PATH", default=None,
                    help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Curvature identity checks for almost-Hermitian manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-manifolds", help="print the builtin manifold catalog")

    sp = sub.add_parser("classify", help="almost-Hermitian class residuals")
    _add_common(sp)

    sp = sub.add_parser("identities", help="curvature identity suite")
    _add_common(sp)
    sp.add_argument(
        "--suite",
        default="identities",
        choices=("identities",) + IDENTITY_TAGS,
        help="run all identities (default) or a single tag",
    )

    sp = sub.add_parser("schur", help="constancy statistics for nu, tau, tau*")
    _add_common(sp)

    sp = sub.add_parser("report", help="classification + identities + schur")
    _add_common(sp)
    return parser


def _list_manifolds() -> int:
    width = max(len(name) for name in BUILTIN_MODELS)
    for name in BUILTIN_MODELS:
        print(f"{name:<{width}}  {BUILTIN_MODELS[name]['description']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-manifolds":
        return _list_manifolds()
    suite = {
        "classify": "class",
        "schur": "schur",
        "report": "all",
    }.get(args.command, getattr(args, "suite", "identities"))
    config = RunConfig(
        builtin=args.manifold,
        file=args.file,
        n=args.n,
        c=args.c,
        points=args.points,
        planes=args.planes,
        vectors=args.vectors,
        seed=args.seed,
        tol=args.tol,
        json_path=args.json_path,
        suite=suite,
    )
    try:
        return run(config)
    except (SchemaError, ExprError) as err:
        print(f"curvlab: error: {err}", file=sys.stderr)
        return 2
    except (EvaluationDomainError, DomainError, DegenerateMetricError) as err:
        print(f"curvlab: error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
