"""curvlab benchmark: run one workload untimed (end-to-end metrics) or
traced (per-layer metrics).

    python3 perfbench/run.py --workload chart-cpn5 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # the three workloads in turn

Workloads are defined in ``workloads.py`` and documented in README.md.
Every verdict is checked against ``expected.json``.  The lines printed
before the last are a readable summary; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with the environment it was measured in, goes to
``perfbench/_out/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans to ``perfbench/_out/<workload>-seed<seed>.spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads
from tracer import METRIC_SUFFIX, VERDICT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"

# one thread everywhere: curvlab's point pool and the BLAS/OpenMP pools
PINNED_ENV = {
    "CURVLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

IDENTITY_TAGS = (
    "EQ1", "EQ2", "PROP3", "PROP4", "PROP5", "EQ6", "EQ7", "EQ8", "EQ9",
    "EQ10", "EQ11", "EQ12", "EQ13", "LEMMA",
)


def environment(args) -> dict:
    import numpy

    sha = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "threads_env": PINNED_ENV,
    }


def setup_seconds(workload: str) -> float:
    """One fresh-interpreter set-up time, measured in a child process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def context_hits() -> int:
    from curvlab import jets

    info = getattr(jets.get_context, "cache_info", None)
    return info().hits if info else 0


def layer_metrics(tracer: Tracer, verdicts: int, hits: int, overhead: float) -> dict:
    """Per-verdict counts and seconds from the traced spans."""
    rows = tracer.summary()

    def get(name, field):
        return rows.get(name, {}).get(field, 0)

    def calls(*names):
        return sum(get(n, "calls") for n in names) / verdicts

    def self_s(*names):
        return sum(get(n, "self_ns") for n in names) / verdicts / 1e9

    def total_s(*names):
        return sum(get(n, "total_ns") for n in names) / verdicts / 1e9

    expr, func = "geometry.ExprMatrixField.evaluate", "geometry.CallableMatrixField.evaluate"
    identity = [f"verify.identity.{t}" for t in IDENTITY_TAGS] + ["verify.identity.SCHUR"]
    pg_calls = calls("geometry.PointGeometry")
    metric_evals = calls(expr + METRIC_SUFFIX, func + METRIC_SUFFIX)
    contains = tracer.child_calls("geometry.ManifoldSpec.contains", "geometry.sample_points")
    m = {
        "exprlang.evaluate.calls": (calls("exprlang.evaluate"), "count"),
        "exprlang.evaluate.self_s": (self_s("exprlang.evaluate"), "s"),
        "jets.jet_mul.calls": (calls("jets.jet_mul"), "count"),
        "jets.jet_mul.self_s": (self_s("jets.jet_mul"), "s"),
        "jets.apply_series.self_s": (self_s("jets.apply_series"), "s"),
        "jets.get_context.hits": (hits / verdicts, "count"),
        "geometry.ExprMatrixField.evaluate.calls": (calls(expr, expr + METRIC_SUFFIX), "count"),
        "geometry.ExprMatrixField.evaluate.total_s": (total_s(expr, expr + METRIC_SUFFIX), "s"),
        "geometry.metric_validation.total_s": (
            total_s("geometry.metric_symmetry_residual", "geometry.metric_positive_definite"), "s"),
        "geometry.metric_evals_per_point": (metric_evals / pg_calls if pg_calls else 0.0, "ratio"),
        "geometry.PointGeometry.calls": (pg_calls, "count"),
        "geometry.PointGeometry.self_s": (self_s("geometry.PointGeometry"), "s"),
        "geometry.CallableMatrixField.evaluate.total_s": (total_s(func, func + METRIC_SUFFIX), "s"),
        "jets.jet_einsum.calls": (calls("jets.jet_einsum"), "count"),
        "jets.jet_einsum.self_s": (self_s("jets.jet_einsum"), "s"),
        "hermitian.HermitianData.self_s": (self_s("hermitian.HermitianData"), "s"),
    }
    for tag in IDENTITY_TAGS:
        m[f"verify.identity.{tag}.self_s"] = (self_s(f"verify.identity.{tag}"), "s")
    skipped = sum(get(n, "raised") for n in identity) / verdicts
    m.update({
        "verify.Session.schur.total_s": (total_s("verify.Session.schur"), "s"),
        "verify.Session.self_s": (self_s("verify.Session"), "s"),
        "hermitian.classify_point.calls": (calls("hermitian.classify_point"), "count"),
        "hermitian.classify_point.self_s": (self_s("hermitian.classify_point"), "s"),
        "planes.estimate_nu.self_s": (self_s("planes.estimate_nu"), "s"),
        "planes.adapted_frame.self_s": (self_s("planes.adapted_frame"), "s"),
        "planes.random_unit_vector.calls": (
            tracer.counts["planes.random_unit_vector"] / verdicts, "count"),
        "verify.identity.run": (calls(*identity) - skipped, "count"),
        "verify.identity.skipped": (skipped, "count"),
        "geometry.sample_points.accept_ratio": (
            get("geometry.sample_points", "size") / contains if contains else 0.0, "ratio"),
        "exprlang.parse.calls": (calls("exprlang.parse"), "count"),
        "exprlang.parse.self_s": (self_s("exprlang.parse"), "s"),
        "exprlang.evaluate_values.calls": (calls("exprlang.evaluate_values"), "count"),
        "modelspaces.build_builtin.total_s": (total_s("modelspaces.build_builtin"), "s"),
        "cli.load_manifold_file.total_s": (total_s("cli.load_manifold_file"), "s"),
        "cli.dumps.total_s": (total_s("cli.dumps"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return m


# pipeline stages as groups of span names; a name ending in "." is a prefix
STAGES = (
    ("expression-to-jet evaluation", (
        "exprlang.evaluate", "jets.jet_mul", "jets.apply_series",
        "geometry.ExprMatrixField.evaluate", "geometry.CallableMatrixField.evaluate")),
    ("tensor pipeline (Newton, Γ, R, ∇R, Hermitian data)", (
        "geometry.PointGeometry", "hermitian.HermitianData", "jets.jet_einsum")),
    ("identity checks", ("verify.identity.",)),
    ("classification", ("hermitian.classify_point",)),
    ("nu estimation and frames", ("planes.",)),
    ("session, sampling and validation", (
        "verify.Session", "verify.Session.schur", "geometry.sample_points",
        "geometry.ManifoldSpec.contains", "exprlang.evaluate_values",
        "geometry.metric_symmetry_residual", "geometry.metric_positive_definite")),
    ("spec parsing, CLI and rendering", ("exprlang.parse", "modelspaces.", "cli.")),
)


def _stage(name: str) -> str:
    base = name.split(":")[0]
    for stage, members in STAGES:
        if any(base == m or (m.endswith(".") and base.startswith(m)) for m in members):
            return stage
    return "other code inside the verdict"


def stage_shares(tracer: Tracer) -> list[tuple[str, float]]:
    """Self time per pipeline stage, as a share of traced verdict wall time."""
    rows = tracer.summary()
    wall = rows.get(VERDICT_SPAN, {}).get("total_ns", 0) or 1
    shares: dict[str, float] = {}
    for name, row in rows.items():
        stage = _stage(name)
        shares[stage] = shares.get(stage, 0.0) + row["self_ns"] / wall
    return sorted(shares.items(), key=lambda item: -item[1])


def timed_run(args) -> tuple[list, list, dict, dict]:
    """Whole rounds until ``--seconds`` of them have passed.  A set-up
    probe runs after each round (and at least SETUP_REPEATS times),
    so that set-up is sampled across the run like the verdicts are; the
    first probe, which may compile bytecode, is discarded."""
    setup_seconds(args.workload)
    specs = workloads.build_specs(args.workload)
    warm = workloads.run_round(args.workload, specs, args.seed, OUT)
    timed, setup, elapsed = [], [], 0.0
    while elapsed < args.seconds:
        t0 = time.perf_counter()
        timed += workloads.run_round(args.workload, specs, args.seed, OUT)
        elapsed += time.perf_counter() - t0
        setup.append(setup_seconds(args.workload))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(args.workload))
    times = [v.seconds for v in timed]
    samples = sum(workloads.checks(v.report) for v in timed)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "checks_per_s": (samples / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "verdict_s.p50": f"median of {len(times)} verdicts",
        "checks_per_s": f"{samples} samples in {sum(times):.3f} s",
    }
    return warm + timed, timed, metrics, notes


def traced_run(args) -> tuple[list, list, dict, dict]:
    """Untimed and traced rounds alternate, so host speed drifts hit both
    alike; together they take ``--seconds``."""
    specs = workloads.build_specs(args.workload)
    warm = workloads.run_round(args.workload, specs, args.seed, OUT)
    tracer = Tracer()
    with tracer.installed():
        # rebuilt under the tracer, which registers each spec's metric field
        traced_specs = workloads.build_specs(args.workload)
    untimed, traced, hits = [], [], 0
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        untimed += workloads.run_round(args.workload, specs, args.seed, OUT)
        with tracer.installed():
            hits0 = context_hits()
            traced += workloads.run_round(
                args.workload, traced_specs, args.seed, OUT, tracer.as_verdict
            )
            hits += context_hits() - hits0
    p50_plain = statistics.median(v.seconds for v in untimed)
    p50_traced = statistics.median(v.seconds for v in traced)
    metrics = layer_metrics(tracer, len(traced), hits, p50_traced / p50_plain - 1.0)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    notes = {
        "trace.overhead_frac": f"traced p50 {p50_traced:.4f} s vs untimed {p50_plain:.4f} s",
        "stage_self_time_shares": dict(stage_shares(tracer)),
    }
    return warm + untimed + traced, traced, metrics, notes


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another, so that
    each gets its own ``peak_rss_mb``."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    os.environ.update(PINNED_ENV)  # before numpy is first imported
    try:
        workloads.import_curvlab()
    except (FileNotFoundError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    expected = checker.load_expected()[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args)

    run = traced_run if args.trace else timed_run
    verdicts, measured, metrics, notes = run(args)
    first_measured = len(verdicts) - len(measured)
    wrong = {}
    for i, v in enumerate(verdicts):
        found = checker.problems(expected[v.id], v)
        if found:
            wrong[i] = found
            print(f"perfbench: wrong verdict {v.id!r}: {'; '.join(found)}", file=sys.stderr)
    wrong_frac = len(wrong) / len(verdicts)

    print(" ".join(f"{k}={v}" for k, v in env.items() if k != "threads_env"))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:<44} {value:>14.6g} {unit:<6}{'  (' + note + ')' if note else ''}")
    print(f"  {'wrong_verdict_frac':<44} {wrong_frac:>14.6g} ratio   ({len(wrong)} of {len(verdicts)} verdicts)")
    for stage, share in notes.get("stage_self_time_shares", {}).items():
        print(f"    {share:6.1%} of verdict time in {stage}")

    result = {
        "correct": not wrong,
        "attempted": len(verdicts),
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "environment": env,
        "sizes": {v.id: v.report["config"] for v in verdicts if v.report is not None},
        "wrong_verdict_frac": wrong_frac,
        "notes": notes,
        "verdicts": [
            {"id": v.id, "exit": v.exit, "seconds": v.seconds, "measured": i >= first_measured,
             "checks": workloads.checks(v.report), "problems": wrong.get(i, [])}
            for i, v in enumerate(verdicts)
        ],
        "result": result,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
