"""Shared test oracles.

The derivative oracle is deliberately independent of the jet engine:
nested central differences in a single step parameter h, extrapolated
twice (Richardson), so truncation error falls from O(h^2) to O(h^6).
Tensor oracles recompute frame-summed quantities by explicit loops over
an orthonormal frame, never by the einsum contractions under test.
"""

from __future__ import annotations

import numpy as np

from curvlab import exprlang
from curvlab.geometry import PointGeometry


# ---------------------------------------------------------------------------
# finite-difference derivative oracle


def _nested_central(f, x: np.ndarray, alpha: tuple[int, ...], h: float) -> float:
    for i, a in enumerate(alpha):
        if a > 0:
            rest = alpha[:i] + (a - 1,) + alpha[i + 1:]
            step = np.zeros_like(x)
            step[i] = h
            return (
                _nested_central(f, x + step, rest, h)
                - _nested_central(f, x - step, rest, h)
            ) / (2.0 * h)
    return float(f(x))


def richardson_derivative(f, x, alpha, h: float = 0.05) -> float:
    """Partial derivative d^alpha f(x) via central differences at steps
    h, h/2, h/4 with two levels of Richardson extrapolation."""
    x = np.asarray(x, dtype=float)
    alpha = tuple(int(a) for a in alpha)
    d1 = _nested_central(f, x, alpha, h)
    d2 = _nested_central(f, x, alpha, h / 2)
    d3 = _nested_central(f, x, alpha, h / 4)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + abs(a) + abs(b))


# ---------------------------------------------------------------------------
# random expression sources (domain-safe for all real inputs)


def random_expr(rng: np.random.Generator, dim: int, depth: int = 3) -> str:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return f"x{rng.integers(1, dim + 1)}"
        return f"{rng.uniform(-2, 2):.2f}"
    u = random_expr(rng, dim, depth - 1)
    kind = rng.integers(0, 9)
    if kind == 0:
        return f"sin({u})"
    if kind == 1:
        return f"cos({u})"
    if kind == 2:
        return f"exp(({u}) / 8)"
    if kind == 3:
        return f"log(2.5 + ({u})^2)"
    if kind == 4:
        return f"sqrt(1.5 + ({u})^2)"
    v = random_expr(rng, dim, depth - 1)
    if kind == 5:
        return f"({u}) + ({v})"
    if kind == 6:
        return f"({u}) - ({v})"
    if kind == 7:
        return f"({u}) * ({v})"
    return f"({u}) / (2.5 + ({v})^2)"


def expr_callable(source: str, dim: int):
    expr = exprlang.parse(source, dim)
    return lambda x: exprlang.evaluate_values(expr, x)


# ---------------------------------------------------------------------------
# frame-summed tensor oracles (explicit loops, no einsum)


def ricci_by_frame(pg: PointGeometry, frame: np.ndarray) -> np.ndarray:
    """S(x,y) = sum_i R(x, e_i, e_i, y) over an orthonormal frame."""
    d = frame.shape[1]
    out = np.zeros((d, d))
    basis = np.eye(d)
    for a in range(d):
        for b in range(d):
            out[a, b] = sum(
                pg.curvature(basis[a], e, e, basis[b]) for e in frame
            )
    return out


def ricci_star_by_frame(pg: PointGeometry, J: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """S*(x,y) = sum_i R(x, e_i, J e_i, J y)."""
    d = frame.shape[1]
    out = np.zeros((d, d))
    basis = np.eye(d)
    for a in range(d):
        for b in range(d):
            out[a, b] = sum(
                pg.curvature(basis[a], e, J @ e, J @ basis[b]) for e in frame
            )
    return out


def star_scalar_by_frame(pg: PointGeometry, J: np.ndarray, frame: np.ndarray) -> float:
    return float(
        sum(
            pg.curvature(f, e, J @ e, J @ f)
            for e in frame
            for f in frame
        )
    )


def delta_f_by_frame(nabla_J: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """delta F = sum_i (nabla_{e_i} J) e_i."""
    return sum(np.einsum("mkj,m,j->k", nabla_J, e, e) for e in frame)


def fd_christoffel(spec, point: np.ndarray, h: float = 0.02) -> np.ndarray:
    """Christoffel symbols from Richardson differences of the metric."""
    d = spec.dim

    def g_at(x):
        return spec.metric.evaluate(x, 0)[..., 0]

    dg = np.zeros((d, d, d))  # dg[m, i, j] = d_m g_ij
    for m in range(d):
        alpha = tuple(int(k == m) for k in range(d))
        for i in range(d):
            for j in range(d):
                dg[m, i, j] = richardson_derivative(
                    lambda x, i=i, j=j: g_at(x)[i, j], point, alpha, h
                )
    g_inv = np.linalg.inv(g_at(np.asarray(point, dtype=float)))
    # assemble index by index to keep the oracle independent of the
    # transpose gymnastics used by the implementation
    lower = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            for l in range(d):
                lower[i, j, l] = dg[i, j, l] + dg[j, i, l] - dg[l, i, j]
    return 0.5 * np.einsum("kl,ijl->kij", g_inv, lower)


# ---------------------------------------------------------------------------
# scalar identity formulas: one sample at a time, from the per-point
# reference evaluations (PointGeometry.curvature, nabla_curvature,
# nabla_ricci_at) and sums over a g-orthonormal frame


def _forms(g, J, S, x, y, z, u):
    """(metric form, Kähler form, Ricci form) at (x, y, z, u)."""
    G = lambda a, b: float(a @ g @ b)  # noqa: E731
    Sf = lambda a, b: float(a @ S @ b)  # noqa: E731
    jx, jy, jz = J @ x, J @ y, J @ z
    metric = G(y, z) * G(x, u) - G(x, z) * G(y, u)
    kaehler = G(jy, z) * G(jx, u) - G(jx, z) * G(jy, u) - 2.0 * G(jx, y) * G(jz, u)
    ricci = (
        G(jy, z) * Sf(jx, u) - G(jx, z) * Sf(jy, u) - 2.0 * G(jx, y) * Sf(jz, u)
        + G(jx, u) * Sf(jy, z) - G(jy, u) * Sf(jx, z) - 2.0 * G(jz, u) * Sf(jx, y)
    )
    return metric, kaehler, ricci


def scalar_sides(tag: str, pd, args: np.ndarray) -> tuple[float, float]:
    """Both sides of identity ``tag`` for one sample ``args`` (k x d) at the
    point bundle ``pd`` (a ``verify.PointData``)."""
    pg, hd = pd.pg, pd.hd
    g, S, frame, n = pg.g, pg.ricci, pd.frame_rows, pg.spec.n
    R, nR, nS = pg.curvature, pg.nabla_curvature, pg.nabla_ricci_at
    J = hd.J if hd is not None else None
    tau = pg.scalar_curvature_jet
    if tag == "EQ1":
        x, y, z, u = args
        rhs = R(x, y, J @ z, J @ u) + R(x, J @ y, z, J @ u) + R(J @ x, y, z, J @ u)
        return R(x, y, z, u), rhs
    if tag == "EQ2":
        x, y, z, u = args
        return R(x, y, z, u), R(J @ x, J @ y, J @ z, J @ u)
    nu = pd.nu_jet.value if pd.nu_jet is not None else None
    if tag == "PROP3":
        x, y, z, u = args
        metric, kaehler, ricci = _forms(g, J, S, x, y, z, u)
        return R(x, y, z, u), ricci / 6.0 + nu * metric - ((2 * n - 1) / 3.0) * nu * kaehler
    if tag == "PROP4":
        x, y = args
        coeff = ((n + 1) * pg.scalar_curvature - 3.0 * hd.star_scalar) / (2.0 * n)
        lhs = (n + 1) * float(x @ S @ y) - 3.0 * float(x @ hd.ricci_star @ y)
        return lhs, coeff * float(x @ g @ y)
    if tag == "PROP5":
        x, y = args
        return R(x, y, y, x), nu
    if tag == "EQ6":
        w, x, y, z, u = args
        return nR(w, x, y, z, u) + nR(x, y, w, z, u) + nR(y, w, x, z, u), 0.0
    if tag == "EQ7":
        x, y, z = args
        return nS(x, y, z) - nS(y, x, z), sum(nR(e, x, y, z, e) for e in frame)
    if tag == "EQ8":
        (x,) = args
        return sum(nS(e, x, e) for e in frame), 0.5 * tau.directional(x)
    if tag == "EQ9":
        (x,) = args
        return (
            sum(hd.nabla_ricci_star_at(e, x, e) for e in frame),
            0.5 * hd.star_scalar_jet.directional(x),
        )
    x_nu = 4.0 * (n - 1) * pd.nu_jet.directional(args[0])
    if tag in ("EQ10", "EQ12"):
        x, y = args
        jy = J @ y
        combination = nS(x, y, y) + nS(x, jy, jy) - nS(y, x, y) - nS(jy, x, jy)
        if tag == "EQ12":
            return x_nu, combination
        jby = J @ (hd.nabla_J_apply(y, y) + hd.nabla_J_apply(jy, jy))
        g_jby_x = float(jby @ g @ x)
        return x_nu, (
            combination - float(jby @ S @ x) - g_jby_x * float(y @ S @ y)
            + 2.0 * (2 * n - 1) * nu * g_jby_x
        )
    (x,) = args
    jx = J @ x
    if tag == "EQ13":
        return x_nu, 0.5 * tau.directional(x) - nS(x, jx, jx) + nS(jx, x, jx)
    assert tag == "EQ11", tag
    frame_trace = sum(float(hd.nabla_J_apply(e, jx) @ S @ e) for e in frame)
    g_df_jx = float(delta_f_by_frame(hd.nabla_J, frame) @ g @ jx)
    rhs = (
        0.5 * (
            0.5 * tau.directional(x)
            - frame_trace
            + g_df_jx * float(x @ S @ x)
            + nS(x, jx, jx)
            + float(hd.nabla_J_apply(x, x) @ S @ jx)
        )
        - 0.5 * x_nu
        - (2 * n - 1) * nu * g_df_jx
    )
    return nS(x, jx, jx) - nS(jx, x, jx), rhs
