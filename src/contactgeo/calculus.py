"""Lie brackets and derivatives, Levi-Civita connection, and curvature.

All differential operators act on expression-backed tensor fields, so the
results are exact at every sampled point.  The connection and curvature are
built here once per metric, which keeps what it evaluates from them as memos
that die with it.  The Ricci tensor follows the convention

    R_ab = d_c Gamma^c_ab - d_a Gamma^c_cb
           + Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb,

which gives ``Ric = diag(1, sin^2 theta)`` for the unit round sphere.

Darboux components are mostly zero, so no sum here builds a product with a
structurally zero factor (one that ``is expr.ZERO``), and a derivative is
taken only for a variable free in the node.  The zeros would fold away
(``add(acc, ZERO) is acc``, ``mul(x, ZERO) is ZERO``), so every component is
the node the dense sum builds.  The connection and curvature read the metric,
its inverse and the connection as nested lists and call ``expr.add``, ``sub``
and ``mul`` directly, in the dense sum's order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .expr import Expr
from .phase_space import PhaseSpace, TensorField, _obj, contact_form

__all__ = [
    "SingularMetricError",
    "CurvatureReport",
    "lie_bracket",
    "lie_derivative",
    "directional_derivative",
    "christoffel_symbolic",
    "require_nonsingular",
    "ricci",
    "ricci_symbolic",
]


class SingularMetricError(ValueError):
    """The metric is singular (or undefined) at the requested point."""


def _d(e: Expr, name: str) -> Expr:
    """``d e / d name``, differentiated only where ``name`` is free in ``e``."""
    return expr.differentiate(e, name) if name in expr.free_variables(e) else expr.ZERO


def lie_bracket(space: PhaseSpace, X: TensorField, Y: TensorField) -> TensorField:
    """``[X, Y]^c = X^a d_a Y^c - Y^a d_a X^c``, the Lie derivative of ``Y`` along ``X``."""
    if X.valence != (1, 0) or Y.valence != (1, 0):
        raise ValueError("lie_bracket expects vector fields")
    return lie_derivative(space, Y, X)


def directional_derivative(space: PhaseSpace, X: TensorField, f: Expr) -> Expr:
    """The scalar derivative ``X(f) = X^c d_c f``; no derivative is built where
    ``X^c`` is ZERO, and no product where the derivative is."""
    acc = expr.ZERO
    for c, name in enumerate(space.coord_names()):
        if X.comps[c] is not expr.ZERO:
            df = _d(f, name)
            if df is not expr.ZERO:
                acc = expr.add(acc, expr.mul(X.comps[c], df))
    return acc


def lie_derivative(space: PhaseSpace, T: TensorField, X: TensorField) -> TensorField:
    """Lie derivative of ``T`` along the vector field ``X`` (same valence out).

    Each component sums over ``c`` the term ``X^c d_c T``, then slot by slot
    ``- T[..c..] d_c X^i`` for an upper slot holding ``i``, ``+ T[..c..] d_i X^c``
    for a lower one.  The components are read as flat lists, ``T[..c..]`` at
    its flat offset, and a term with a structurally zero factor is skipped
    before any call.  Only the ``c`` that can give a term are visited, in
    increasing order: those of the component's free variables where ``X^c`` is
    not ZERO, those of the free variables of ``X^i`` for an upper slot holding
    ``i``, and those whose ``X^c`` has coordinate ``i`` free for a lower one.
    Every other ``c`` adds nothing, so each component is the node the full sum
    over ``c`` builds."""
    if X.valence != (1, 0):
        raise ValueError("the direction X must be a vector field")
    names = space.coord_names()
    ZERO, add, sub, mul = expr.ZERO, expr.add, expr.sub, expr.mul
    differentiate = expr.differentiate
    shape = T.comps.shape
    t = T.comps.reshape(-1).tolist()
    x = X.comps.tolist()
    t_free = list(map(expr.free_variables, t))
    x_free = list(map(expr.free_variables, x))
    # per slot: the flat distance between indices one apart there, and whether it is upper
    slots = [(math.prod(shape[s + 1:]), s < T.valence[0]) for s in range(len(shape))]
    # the c that can give a term: by a free variable of the component where X^c is
    # not ZERO, and per slot by the index i it holds
    moving = {name: c for c, name in enumerate(names) if x[c] is not ZERO}
    position = {name: c for c, name in enumerate(names)}
    of_upper = [{position[v] for v in free if v in position} for free in x_free]
    of_lower = [{c for c, free in enumerate(x_free) if name in free} for name in names]
    by_slot = [of_upper if up else of_lower for _, up in slots]
    comps = _obj(shape)
    flat = comps.reshape(-1)
    for off, idx in enumerate(itertools.product(*map(range, shape))):
        e, e_free = t[off], t_free[off]
        candidates = {moving[v] for v in e_free if v in moving}
        for i, sets in zip(idx, by_slot):
            candidates |= sets[i]
        acc = ZERO
        for c in sorted(candidates):
            name, f = names[c], x[c]
            if f is not ZERO and name in e_free:
                de = differentiate(e, name)
                if de is not ZERO:
                    acc = add(acc, mul(f, de))
            for i, (stride, upper) in zip(idx, slots):
                moved = t[off + (c - i) * stride]
                if moved is ZERO:
                    continue
                if upper:
                    if name in x_free[i]:
                        de = differentiate(x[i], name)
                        if de is not ZERO:
                            acc = sub(acc, mul(moved, de))
                elif names[i] in x_free[c]:
                    de = differentiate(x[c], names[i])
                    if de is not ZERO:
                        acc = add(acc, mul(moved, de))
        flat[off] = acc
    return TensorField(T.valence, comps)


# ---------------------------------------------------------------------------
# Levi-Civita connection and curvature

def christoffel_symbolic(metric) -> np.ndarray:
    """Build ``Gamma^c_ab`` for a metric with expression-backed inverse (``Metric.gamma``)."""
    if metric.inverse is None:
        kind = getattr(metric.kind, "value", metric.kind)  # as --metric spells it
        raise SingularMetricError(f"{kind} is not a metric; no connection")
    ZERO, add, sub, mul = expr.ZERO, expr.add, expr.sub, expr.mul
    names = metric.space.coord_names()
    dim = len(names)
    g = metric.tensor.comps.tolist()
    ginv = metric.inverse.tolist()
    dg = [[[_d(g_ab, name) for g_ab in g_a] for g_a in g] for name in names]  # dg[d][a][b]

    gamma = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    half = expr.const(0.5)
    for a in range(dim):
        for b in range(a, dim):
            # the bracket d_a g_db + d_b g_da - d_d g_ab of each live d, in increasing d
            live = []
            for d_i in range(dim):
                s = sub(add(dg[a][d_i][b], dg[b][d_i][a]), dg[d_i][a][b])
                if s is not ZERO:
                    live.append((d_i, s))
            for c in range(dim):
                ginv_c = ginv[c]
                acc = ZERO
                for d_i, s in live:
                    f = ginv_c[d_i]
                    if f is not ZERO:
                        acc = add(acc, mul(f, s))
                val = ZERO if acc is ZERO else mul(half, acc)
                gamma[c][a][b] = gamma[c][b][a] = val
    return np.array(gamma, dtype=object)


def require_nonsingular(metric, point) -> np.ndarray:
    """The metric's components at ``point``; raises :class:`SingularMetricError`
    where they are undefined, where they or their determinant are not finite,
    and where the determinant is below 1e-12 in size and either exactly zero or
    the condition number is above 1e12.  The determinant alone scales with the
    dimension: ``0.01 I`` in 17 dimensions has determinant 1e-34, and is far
    from singular; ``cond`` is computed only for such a small determinant."""
    try:
        g_mat = metric.tensor.evaluate(point)
    except expr.EvalError as err:
        raise SingularMetricError(f"metric undefined at point: {err}") from None
    if not np.isfinite(g_mat).all():
        raise SingularMetricError("metric is not finite at the point")
    det = np.linalg.det(g_mat)
    if not math.isfinite(det):
        raise SingularMetricError("metric determinant is not finite at the point")
    if abs(det) < 1e-12 and (det == 0.0 or np.linalg.cond(g_mat) > 1e12):
        raise SingularMetricError("metric is singular at the point")
    return g_mat


def ricci_symbolic(metric) -> np.ndarray:
    """Build the symbolic Ricci tensor from the metric's symbolic connection."""
    ZERO, add, sub, mul = expr.ZERO, expr.add, expr.sub, expr.mul
    names = metric.space.coord_names()
    dim = len(names)
    gamma = metric.gamma.tolist()  # gamma[c][a][b] = Gamma^c_ab

    # contracted symbol Gamma^c_cb, reused by two of the four terms
    contracted = []
    for b in range(dim):
        acc = ZERO
        for c in range(dim):
            x = gamma[c][c][b]
            if x is not ZERO:
                acc = add(acc, x)
        contracted.append(acc)

    ric = [[ZERO] * dim for _ in range(dim)]
    for a in range(dim):
        # live[d] holds (c, Gamma^c_ad) for the non-zero symbols, in increasing c
        live = [[(c, gamma[c][a][d_i]) for c in range(dim) if gamma[c][a][d_i] is not ZERO]
                for d_i in range(dim)]
        for b in range(a, dim):
            acc = ZERO
            for c in range(dim):
                de = _d(gamma[c][a][b], names[c])
                if de is not ZERO:
                    acc = add(acc, de)
            de = _d(contracted[b], names[a])
            if de is not ZERO:
                acc = sub(acc, de)
            for d_i in range(dim):
                gamma_d = gamma[d_i]
                x, y = contracted[d_i], gamma_d[a][b]
                if x is not ZERO and y is not ZERO:
                    acc = add(acc, mul(x, y))
                for c, x in live[d_i]:
                    y = gamma_d[c][b]
                    if y is not ZERO:
                        acc = sub(acc, mul(x, y))
            ric[a][b] = ric[b][a] = acc
    return np.array(ric, dtype=object)


@dataclass
class CurvatureReport:
    """Ricci tensor at a point plus the eta-Einstein residual bookkeeping."""

    ricci: np.ndarray
    lam: float
    nu: float
    fitted: bool
    eta_einstein_residual: float
    symmetry_residual: float


def ricci(metric, point, fit: bool = False) -> CurvatureReport:
    """Ricci tensor at ``point`` and the residual of ``Ric = lam eta (x) eta + nu g``.

    The canonical almost-contact metric asserts ``lam = 2n + 2`` and
    ``nu = -2``; other metrics (or ``fit=True``) fit the constants by least
    squares over the components.
    """
    from .metrics import MetricKind

    g_mat = require_nonsingular(metric, point)
    space = metric.space
    ric = np.array(metric.ricci_tape.run(point), dtype=float).reshape(g_mat.shape)

    eta_vals = contact_form(space).evaluate(point)
    ee = np.outer(eta_vals, eta_vals)
    fitted = fit or metric.kind != MetricKind.ACS
    if fitted:
        design = np.stack([ee.reshape(-1), g_mat.reshape(-1)], axis=1)
        sol, *_ = np.linalg.lstsq(design, ric.reshape(-1), rcond=None)
        lam, nu = float(sol[0]), float(sol[1])
    else:
        lam, nu = float(2 * space.n + 2), -2.0
    residual = float(np.max(np.abs(ric - lam * ee - nu * g_mat)))
    sym_residual = float(np.max(np.abs(ric - ric.T)))
    return CurvatureReport(ric, lam, nu, fitted, residual, sym_residual)
