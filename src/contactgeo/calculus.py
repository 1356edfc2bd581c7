"""Lie brackets and derivatives, Levi-Civita connection, and curvature.

All differential operators act on expression-backed tensor fields, so the
results are exact at every sampled point.  Christoffel symbols and their
derivatives are built symbolically once per metric and cached; the Ricci
tensor follows the convention

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
    """``[X, Y]^c = X^a d_a Y^c - Y^a d_a X^c``."""
    if X.valence != (1, 0) or Y.valence != (1, 0):
        raise ValueError("lie_bracket expects vector fields")
    names = space.coord_names()
    comps = _obj(space.dim)
    for c in range(space.dim):
        acc = expr.ZERO
        for a, name in enumerate(names):
            acc = acc + X.comps[a] * _d(Y.comps[c], name)
            acc = acc - Y.comps[a] * _d(X.comps[c], name)
        comps[c] = acc
    return TensorField((1, 0), comps)


def directional_derivative(space: PhaseSpace, X: TensorField, f: Expr) -> Expr:
    """The scalar derivative ``X(f) = X^c d_c f``."""
    acc = expr.ZERO
    for c, name in enumerate(space.coord_names()):
        acc = acc + X.comps[c] * _d(f, name)
    return acc


def lie_derivative(space: PhaseSpace, T: TensorField, X: TensorField) -> TensorField:
    """Lie derivative of ``T`` along the vector field ``X`` (same valence out)."""
    if X.valence != (1, 0):
        raise ValueError("the direction X must be a vector field")
    names = space.coord_names()
    dim = space.dim

    if T.valence == (1, 0):
        return lie_bracket(space, X, T)

    if T.valence == (0, 1):
        comps = _obj(dim)
        for a in range(dim):
            acc = expr.ZERO
            for c, name in enumerate(names):
                acc = acc + X.comps[c] * _d(T.comps[a], name)
                acc = acc + T.comps[c] * _d(X.comps[c], names[a])
            comps[a] = acc
        return TensorField((0, 1), comps)

    if T.valence == (1, 1):
        comps = _obj((dim, dim))
        for a in range(dim):
            for b in range(dim):
                acc = expr.ZERO
                for c, name in enumerate(names):
                    acc = acc + X.comps[c] * _d(T.comps[a, b], name)
                    acc = acc - T.comps[c, b] * _d(X.comps[a], name)
                    acc = acc + T.comps[a, c] * _d(X.comps[c], names[b])
                comps[a, b] = acc
        return TensorField((1, 1), comps)

    if T.valence == (0, 2):
        comps = _obj((dim, dim))
        for a in range(dim):
            for b in range(dim):
                acc = expr.ZERO
                for c, name in enumerate(names):
                    acc = acc + X.comps[c] * _d(T.comps[a, b], name)
                    acc = acc + T.comps[c, b] * _d(X.comps[c], names[a])
                    acc = acc + T.comps[a, c] * _d(X.comps[c], names[b])
                comps[a, b] = acc
        return TensorField((0, 2), comps)

    raise ValueError(f"unsupported valence {T.valence}")


# ---------------------------------------------------------------------------
# Levi-Civita connection and curvature

def christoffel_symbolic(metric) -> np.ndarray:
    """Symbolic ``Gamma^c_ab`` for a metric with expression-backed inverse."""
    cached = getattr(metric, "_gamma_sym", None)
    if cached is not None:
        return cached
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
    metric._gamma_sym = gamma
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
    dim = metric.space.dim
    upper = np.triu_indices(dim)
    tape = getattr(metric, "_gamma_tape", None)
    if tape is None:
        gamma = christoffel_symbolic(metric)
        tape = metric._gamma_tape = expr.compile(gamma[:, upper[0], upper[1]].reshape(-1),
                                                 metric.space.coord_names())
    vals = np.array(tape.run(point.values), dtype=float).reshape(dim, -1)
    out = np.empty((dim, dim, dim), dtype=float)
    out[:, upper[0], upper[1]] = vals
    out[:, upper[1], upper[0]] = vals
    return out


def ricci_symbolic(metric) -> np.ndarray:
    """Symbolic Ricci tensor components built from the symbolic connection."""
    cached = getattr(metric, "_ricci_sym", None)
    if cached is not None:
        return cached
    space = metric.space
    names = space.coord_names()
    dim = space.dim
    gamma = christoffel_symbolic(metric)

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
    metric._ricci_sym = ric
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
    upper = np.triu_indices(space.dim)
    tape = getattr(metric, "_ricci_tape", None)
    if tape is None:
        tape = metric._ricci_tape = expr.compile(ricci_symbolic(metric)[upper],
                                                 space.coord_names())
    vals = np.array(tape.run(point.values), dtype=float)
    ric = np.empty((space.dim, space.dim), dtype=float)
    ric[upper] = vals
    ric[upper[1], upper[0]] = vals

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
