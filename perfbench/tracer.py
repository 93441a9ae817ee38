"""Outside-in span tracer for curvlab.

The tracer never edits curvlab's source.  It replaces chosen functions and
methods with wrappers that record one span per call, and puts every
original back on :meth:`Tracer.uninstall`.  A name bound elsewhere with
``from ... import`` (``verify.classify_point``, ``cli.full_report``, the
package namespace) is a second reference to the same object, so
:meth:`Tracer.install` patches every curvlab module attribute that *is*
the original, not only the defining one; otherwise those calls would go
unattributed.

A span is ``[name_id, start_ns, end_ns, parent, verdict, raised, size]``:
``parent`` is the index of the enclosing span (-1 at top level),
``verdict`` the id shared by all spans of one verdict (-1 outside any
verdict), ``raised`` whether the call ended in an exception and ``size``
an optional work count taken from the result.  Spans stay in memory and
are written out by :meth:`Tracer.write` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` may be ``"Class.method"``."""

    span: str  # span name; for "verify.identity" the tag is appended
    module: str
    attr: str
    size: Callable | None = None  # result -> work count stored on the span


# Span targets, named after the layer (module) that owns them.  A target
# missing from the tree being measured is skipped, and its metrics read 0.
SPAN_TARGETS = (
    Target("exprlang.parse", "curvlab.exprlang", "parse"),
    Target("exprlang.evaluate", "curvlab.exprlang", "evaluate"),
    Target("exprlang.evaluate_values", "curvlab.exprlang", "evaluate_values"),
    Target("jets.jet_mul", "curvlab.jets", "jet_mul"),
    Target("jets.jet_einsum", "curvlab.jets", "jet_einsum"),
    Target("jets.apply_series", "curvlab.jets", "apply_series"),
    Target("geometry.ExprMatrixField.evaluate", "curvlab.geometry", "ExprMatrixField.evaluate"),
    Target("geometry.CallableMatrixField.evaluate", "curvlab.geometry", "CallableMatrixField.evaluate"),
    Target("geometry.ManifoldSpec.contains", "curvlab.geometry", "ManifoldSpec.contains"),
    Target("geometry.sample_points", "curvlab.geometry", "sample_points", size=len),
    Target("geometry.metric_symmetry_residual", "curvlab.geometry", "metric_symmetry_residual"),
    Target("geometry.metric_positive_definite", "curvlab.geometry", "metric_positive_definite"),
    Target("geometry.PointGeometry", "curvlab.geometry", "PointGeometry.__init__"),
    Target("hermitian.HermitianData", "curvlab.hermitian", "HermitianData.__init__"),
    Target("hermitian.classify_point", "curvlab.hermitian", "classify_point"),
    Target("planes.estimate_nu", "curvlab.planes", "estimate_nu"),
    Target("planes.adapted_frame", "curvlab.planes", "adapted_frame"),
    Target("verify.Session", "curvlab.verify", "Session.__init__"),
    Target("verify.identity", "curvlab.verify", "Session.identity"),
    Target("verify.Session.schur", "curvlab.verify", "Session.schur"),
    Target("verify.full_report", "curvlab.verify", "full_report"),
    Target("modelspaces.build_builtin", "curvlab.modelspaces", "build_builtin"),
    Target("cli.load_manifold_file", "curvlab.cli", "load_manifold_file"),
    Target("cli.dumps", "curvlab.cli", "dumps"),
    Target("cli.main", "curvlab.cli", "main"),
)

# Called too often and too briefly for a span each; counted only.
COUNT_TARGETS = (Target("planes.random_unit_vector", "curvlab.planes", "random_unit_vector"),)

# Registers each spec's metric field so field evaluations can be split
# into metric and complex-structure ones (span suffix ":metric").
_SPEC_HOOK = Target("geometry.ManifoldSpec.__post_init__", "curvlab.geometry", "ManifoldSpec.__post_init__")
METRIC_SUFFIX = ":metric"
VERDICT_SPAN = "bench.verdict"  # the benchmark's own span around each verdict

NAME, START, END, PARENT, VERDICT, RAISED, SIZE = range(7)


def _resolve(target: Target):
    """(owner, attribute name, original) or None when absent."""
    owner = sys.modules.get(target.module)
    if owner is None:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if original is None:
        return None
    return owner, leaf, original


class Tracer:
    """Collects spans and counts; see the module docstring for the layout."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self.verdict = -1
        self._verdict_ids = itertools.count()
        self.metric_fields: weakref.WeakSet = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str | Callable, size: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``name`` may be a function of
        the call's ``(args, kwargs)``."""
        spans, stack, clock = self.spans, self._stack, self.clock
        fixed = None if callable(name) else self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.intern(name(args, kwargs))
            rec = [nid, 0, 0, stack[-1], self.verdict, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(result)
            return result

        return traced

    def wrap_count(self, fn: Callable, name: str) -> Callable:
        """``fn`` counting its calls made inside a verdict."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.verdict >= 0:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def as_verdict(self, fn: Callable) -> Callable:
        """``fn`` recorded as the root span of a new verdict; every span
        opened inside it carries that verdict's id."""
        traced = self.wrap(fn, VERDICT_SPAN)

        def verdict(*args, **kwargs):
            self.verdict = next(self._verdict_ids)
            try:
                return traced(*args, **kwargs)
            finally:
                self.verdict = -1

        return verdict

    # -- patching ------------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Point every curvlab binding of ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "curvlab" or modname.startswith("curvlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch(self, target: Target, make: Callable) -> None:
        found = _resolve(target)
        if found is None:
            return
        owner, leaf, original = found
        replacement = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, replacement)
        else:
            self._replace(original, replacement)

    def install(self) -> None:
        """Wrap every target; curvlab must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        metric_fields = self.metric_fields

        def spec_hook(original):
            @functools.wraps(original)
            def post_init(spec):
                original(spec)
                metric_fields.add(spec.metric)
            return post_init

        self._patch(_SPEC_HOOK, spec_hook)
        for target in SPAN_TARGETS:
            self._patch(target, lambda fn, t=target: self.wrap(fn, self._namer(t), t.size))
        for target in COUNT_TARGETS:
            self._patch(target, lambda fn, t=target: self.wrap_count(fn, t.span))

    def _namer(self, target: Target):
        if target.span == "verify.identity":
            return lambda args, kwargs: "verify.identity." + (
                args[1] if len(args) > 1 else kwargs["tag"]
            )
        if target.attr.endswith("MatrixField.evaluate"):
            plain, metric = target.span, target.span + METRIC_SUFFIX
            return lambda args, kwargs: metric if args[0] in self.metric_fields else plain
        return target.span

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name, over spans that belong to a verdict: calls,
        raised calls, total and self nanoseconds, summed ``size``."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s[VERDICT] < 0:
                continue
            row = out.setdefault(
                self.names[s[NAME]],
                {"calls": 0, "raised": 0, "total_ns": 0, "self_ns": 0, "size": 0},
            )
            row["calls"] += 1
            row["raised"] += s[RAISED]
            row["total_ns"] += s[END] - s[START]
            row["self_ns"] += own[i]
            row["size"] += s[SIZE] or 0
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Verdict spans named ``child`` whose direct parent is ``parent``."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        return sum(
            1
            for s in self.spans
            if s[NAME] == cid and s[VERDICT] >= 0 and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == pid
        )

    def write(self, path) -> None:
        """Spans as gzipped TSV, one line per span, times relative to the
        first span's start."""
        own = self.self_times()
        t0 = self.spans[0][START] if self.spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tverdict\tname\tstart_ns\tend_ns\tself_ns\traised\tsize\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i}\t{s[PARENT]}\t{s[VERDICT]}\t{self.names[s[NAME]]}\t"
                    f"{s[START] - t0}\t{s[END] - t0}\t{own[i]}\t{int(s[RAISED])}\t"
                    f"{'' if s[SIZE] is None else s[SIZE]}\n"
                )
