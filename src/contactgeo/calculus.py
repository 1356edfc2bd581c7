"""Lie brackets and derivatives, Levi-Civita connection, and curvature.

All differential operators act on expression-backed tensor fields, so the
results are exact at every sampled point.  The connection and curvature are
built here once per metric, which keeps what it evaluates from them as memos
that die with it.  The Ricci tensor follows the convention

    R_ab = d_c Gamma^c_ab - d_a Gamma^c_cb
           + Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb,

which gives ``Ric = diag(1, sin^2 theta)`` for the unit round sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .expr import Expr
from .phase_space import PhasePoint, PhaseSpace, TensorField, _obj

__all__ = [
    "SingularMetricError",
    "CurvatureReport",
    "lie_bracket",
    "lie_derivative",
    "directional_derivative",
    "christoffel",
    "christoffel_symbolic",
    "ricci",
    "ricci_symbolic",
    "nabla_reeb",
]


class SingularMetricError(ValueError):
    """The metric is singular (or undefined) at the requested point."""


def _d(e: Expr, name: str) -> Expr:
    return expr.differentiate(e, name)


def lie_bracket(space: PhaseSpace, X: TensorField, Y: TensorField) -> TensorField:
    """``[X, Y]^c = X^a d_a Y^c - Y^a d_a X^c``, the Lie derivative of ``Y`` along ``X``."""
    if X.valence != (1, 0) or Y.valence != (1, 0):
        raise ValueError("lie_bracket expects vector fields")
    return lie_derivative(space, Y, X)


def directional_derivative(space: PhaseSpace, X: TensorField, f: Expr) -> Expr:
    """The scalar derivative ``X(f) = X^c d_c f``."""
    acc = expr.ZERO
    for c, name in enumerate(space.coord_names()):
        acc = acc + X.comps[c] * _d(f, name)
    return acc


def lie_derivative(space: PhaseSpace, T: TensorField, X: TensorField) -> TensorField:
    """Lie derivative of ``T`` along the vector field ``X`` (same valence out).

    Each component sums over ``c`` the term ``X^c d_c T``, then slot by slot
    ``- T[..c..] d_c X^i`` for an upper slot holding ``i``, ``+ T[..c..] d_i X^c``
    for a lower one."""
    if X.valence != (1, 0):
        raise ValueError("the direction X must be a vector field")
    names = space.coord_names()
    comps = _obj(T.comps.shape)
    for idx in np.ndindex(T.comps.shape):
        acc = expr.ZERO
        for c, name in enumerate(names):
            acc = acc + X.comps[c] * _d(T.comps[idx], name)
            for slot, i in enumerate(idx):
                moved = T.comps[idx[:slot] + (c,) + idx[slot + 1:]]
                if slot < T.valence[0]:
                    acc = acc - moved * _d(X.comps[i], name)
                else:
                    acc = acc + moved * _d(X.comps[c], names[i])
        comps[idx] = acc
    return TensorField(T.valence, comps)


# ---------------------------------------------------------------------------
# Levi-Civita connection and curvature

def christoffel_symbolic(metric) -> np.ndarray:
    """Build ``Gamma^c_ab`` for a metric with expression-backed inverse (``Metric.gamma``)."""
    if metric.inverse is None:
        raise SingularMetricError(f"{metric.kind} is not a metric; no connection")
    space = metric.space
    names = space.coord_names()
    dim = space.dim
    g = metric.tensor.comps
    ginv = metric.inverse

    dg = np.empty((dim, dim, dim), dtype=object)  # dg[d][a][b] = d_d g_ab
    for d_i, name in enumerate(names):
        for a in range(dim):
            for b in range(dim):
                dg[d_i, a, b] = _d(g[a, b], name)

    gamma = np.empty((dim, dim, dim), dtype=object)
    half = expr.const(0.5)
    for a in range(dim):
        for b in range(a, dim):
            brackets = [dg[a, d_i, b] + dg[b, d_i, a] - dg[d_i, a, b] for d_i in range(dim)]
            for c in range(dim):
                acc = expr.ZERO
                for d_i in range(dim):
                    acc = acc + ginv[c, d_i] * brackets[d_i]
                val = half * acc
                gamma[c, a, b] = val
                gamma[c, b, a] = val
    return gamma


def _check_not_singular(metric, point: PhasePoint):
    try:
        g_mat = metric.tensor.evaluate(point)
    except expr.EvalError as err:
        raise SingularMetricError(f"metric undefined at point: {err}") from None
    if abs(np.linalg.det(g_mat)) < 1e-12:
        raise SingularMetricError("metric is singular at the point")
    return g_mat


def christoffel(metric, point: PhasePoint) -> np.ndarray:
    """Evaluate ``Gamma^c_ab`` at a point; raises for singular metrics."""
    _check_not_singular(metric, point)
    return np.array(metric.gamma_tape.run(point.values), dtype=float).reshape(metric.gamma.shape)


def ricci_symbolic(metric) -> np.ndarray:
    """Build the symbolic Ricci tensor from the metric's symbolic connection."""
    space = metric.space
    names = space.coord_names()
    dim = space.dim
    gamma = metric.gamma

    # contracted symbol Gamma^c_cb, reused by two of the four terms
    contracted = np.empty(dim, dtype=object)
    for b in range(dim):
        acc = expr.ZERO
        for c in range(dim):
            acc = acc + gamma[c, c, b]
        contracted[b] = acc

    ric = np.empty((dim, dim), dtype=object)
    for a in range(dim):
        for b in range(a, dim):
            acc = expr.ZERO
            for c in range(dim):
                acc = acc + _d(gamma[c, a, b], names[c])
            acc = acc - _d(contracted[b], names[a])
            for d_i in range(dim):
                acc = acc + contracted[d_i] * gamma[d_i, a, b]
                for c in range(dim):
                    acc = acc - gamma[c, a, d_i] * gamma[d_i, c, b]
            ric[a, b] = acc
            ric[b, a] = acc
    return ric


@dataclass
class CurvatureReport:
    """Ricci tensor at a point plus the eta-Einstein residual bookkeeping."""

    ricci: np.ndarray
    lam: float
    nu: float
    fitted: bool
    eta_einstein_residual: float
    symmetry_residual: float


def ricci(metric, point: PhasePoint, lam: float | None = None, nu: float | None = None,
          fit: bool = False) -> CurvatureReport:
    """Ricci tensor at ``point`` and the residual of ``Ric = lam eta (x) eta + nu g``.

    With no constants supplied, the canonical almost-contact metric asserts
    ``lam = 2n + 2`` and ``nu = -2``; other metrics (or ``fit=True``) fit the
    constants by least squares over the components.
    """
    from .metrics import MetricKind
    from .phase_space import contact_form

    g_mat = _check_not_singular(metric, point)
    space = metric.space
    ric = np.array(metric.ricci_tape.run(point.values), dtype=float).reshape(g_mat.shape)

    eta_vals = contact_form(space).evaluate(point)
    ee = np.outer(eta_vals, eta_vals)
    fitted = fit
    if lam is None or nu is None:
        if not fit and metric.kind == MetricKind.ACS:
            lam, nu = float(2 * space.n + 2), -2.0
        else:
            design = np.stack([ee.reshape(-1), g_mat.reshape(-1)], axis=1)
            sol, *_ = np.linalg.lstsq(design, ric.reshape(-1), rcond=None)
            lam, nu = float(sol[0]), float(sol[1])
            fitted = True
    residual = float(np.max(np.abs(ric - lam * ee - nu * g_mat)))
    sym_residual = float(np.max(np.abs(ric - ric.T)))
    return CurvatureReport(ric, lam, nu, fitted, residual, sym_residual)


def nabla_reeb(metric, point: PhasePoint) -> np.ndarray:
    """Covariant derivative of the Reeb field: ``(nabla xi)^c_b = Gamma^c_{w b}``."""
    gamma = christoffel(metric, point)
    return gamma[:, 0, :]
