"""What a session keeps per point, and the sliced jet contractions.

A :class:`Session` holds every sampled point until its verdict is written,
so each point keeps only the tensors the rows read: no jet array of g, g⁻¹
or R outlives ``PointGeometry``'s constructor.  Large ``jet_einsum``
contractions run in slices along a free axis, which must not change a bit
of their result or the number of calls the tracer counts.
"""

import tracemalloc

import numpy as np
import pytest

from curvlab import jets
from curvlab.geometry import PointGeometry
from curvlab.modelspaces import build_builtin
from curvlab.verify import CheckConfig, Session

# every jet_einsum signature PointGeometry and HermitianData use, with the
# jet order it runs at
SIGNATURES = [
    ("ab,bc->ac", 2),  # g⁻¹ Newton steps
    ("kl,ijl->kij", 2),  # Γ
    ("eaf,fbc->abce", 1),  # ΓΓ term of R
    ("abce,ed->abcd", 1),  # lowering R
    ("apqb,pq->ab", 1),  # S
    ("ab,ab->", 1),  # τ and τ*
    ("apqs,pr->arqs", 1),  # S*, first factor
    ("arqs,qr->as", 1),
    ("as,sb->ab", 1),
]


def test_session_retains_only_the_tensors_rows_read():
    spec = build_builtin("cpn", n=3)
    config = CheckConfig(points=2, planes=8, vectors=8)
    Session(spec, config)  # jet contexts are cached on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session = Session(spec, config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    pg = session.data[0].pg
    # the parent layout kept 2.87x this (the order-1 jets of R, the order-3
    # jets of g); what is left is R, ∇R and small d² and d³ tensors
    assert retained / config.points <= 2.0 * (pg.riemann.nbytes + pg.nabla_riemann.nbytes)
    d = spec.dim
    for holder in (pg, pg.hermitian):
        for name, value in vars(holder).items():
            if isinstance(value, np.ndarray):
                # tensor slots only: a jet array would end in ncoef > d
                assert value.shape[-1:] in ((), (d,)), name


@pytest.mark.parametrize("subscripts, order", SIGNATURES)
def test_sliced_jet_einsum_is_bitwise_equal(subscripts, order, monkeypatch):
    d = 10
    ctx = jets.get_context(d, order)
    rng = np.random.default_rng(sum(map(ord, subscripts)))
    s1, s2 = subscripts.split("->")[0].split(",")
    a = rng.standard_normal((d,) * len(s1) + (ctx.ncoef,))
    b = rng.standard_normal((d,) * len(s2) + (ctx.ncoef,))
    monkeypatch.setattr(jets, "_EINSUM_CHUNK", 1 << 60)
    whole = jets.jet_einsum(subscripts, a, b, ctx)
    for chunk in (1, 30_000, 1 << 16):  # one row per slice, a few, the default
        monkeypatch.setattr(jets, "_EINSUM_CHUNK", chunk)
        assert np.array_equal(jets.jet_einsum(subscripts, a, b, ctx), whole)


def _build_counting(spec, point, monkeypatch):
    """PointGeometry at ``point``, with its jet_einsum calls and sliced
    contractions counted."""
    counts = {"calls": 0, "windows": 0}
    einsum, window = jets.jet_einsum, jets._window

    def counted_einsum(*args):
        counts["calls"] += 1
        return einsum(*args)

    def counted_window(*args):
        counts["windows"] += 1
        return window(*args)

    monkeypatch.setattr(jets, "jet_einsum", counted_einsum)
    monkeypatch.setattr(jets, "_window", counted_window)
    pg = PointGeometry(spec, point)
    monkeypatch.undo()
    return pg, counts


def test_slicing_keeps_call_counts_and_tensors(monkeypatch):
    spec = build_builtin("cpn", n=5)
    point = np.linspace(-0.1, 0.15, spec.dim)
    sliced, counts = _build_counting(spec, point, monkeypatch)
    assert counts["windows"] > 0  # d = 10 slices at the default chunk
    monkeypatch.setattr(jets, "_EINSUM_CHUNK", 1 << 60)
    whole, whole_counts = _build_counting(spec, point, monkeypatch)
    assert whole_counts == {"calls": counts["calls"], "windows": 0}
    assert counts["calls"] == 13  # 104 per 8-point chart-cpn5 verdict
    for name in ("gamma", "riemann", "ricci", "nabla_riemann", "nabla_ricci"):
        assert np.array_equal(getattr(sliced, name), getattr(whole, name)), name
    for name in ("ricci_star", "nabla_ricci_star", "nabla_J"):
        assert np.array_equal(getattr(sliced.hermitian, name), getattr(whole.hermitian, name))
    assert sliced.scalar_curvature_jet.coeffs.tobytes() == whole.scalar_curvature_jet.coeffs.tobytes()


def test_no_slicing_up_to_dimension_six(monkeypatch):
    spec = build_builtin("cpn", n=3)
    _, counts = _build_counting(spec, np.full(spec.dim, 0.1), monkeypatch)
    assert counts["windows"] == 0
