"""(0,2) tensors built from the structures, their defining identities, and pullbacks.

Every tensor here is ``eta (x) eta + s * d_eta o (phi (x) 1)`` with ``s = +1``
for the quarter-turn structure and the half turn, and ``s = -1`` for the
reflection-type structures.  In coordinates the horizontal parts are

    g      :  (1/2) sum (dq (x) dq + dp (x) dp)         Riemannian
    a_pi   :  (1/2) sum (dp (x) dq - dq (x) dp)         antisymmetric, not a metric
    g_r    : -(1/2) sum (dp (x) dq + dq (x) dp)         neutral signature
    g_s    :  (1/2) sum (dq (x) dq - dp (x) dp)         neutral signature
    g_L    : -(1/2) sum L_a (dp_a (x) dq^a + dq^a (x) dp_a)
    g_Lbar :  same with 1/L_a

The inverse of each metric is assembled symbolically from the frame Gram
blocks (the frame is g-orthogonal in pairs), so the Levi-Civita pipeline in
:mod:`contactgeo.calculus` stays fully symbolic.  As there, a product with a
factor that ``is expr.ZERO`` is never built: a column of ``d_eta`` has at most
one non-zero, so the sum over ``c`` keeps at most one of its ``2n + 1`` terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import calculus, expr
from .phase_space import (CoordinateMap, PhasePoint, PhaseSpace, TensorField,
                          _obj, contact_form, d_eta, frame)
from .structures import LambdaFamily, StructureKind, build_structure

__all__ = [
    "MetricKind",
    "Metric",
    "metric_from_structure",
    "compatibility_residual",
    "associated_residual",
    "pullback",
]


class MetricKind(Enum):
    ACS = "acs"
    ALPHA_PI = "alpha_pi"
    R = "r"
    S = "s"
    LAMBDA = "lambda"
    LAMBDA_BAR = "lambdabar"


_STRUCTURE_OF = {
    MetricKind.ACS: StructureKind.ALMOST_CONTACT,
    MetricKind.ALPHA_PI: StructureKind.PI_ROTATION,
    MetricKind.R: StructureKind.REFLECTION,
    MetricKind.S: StructureKind.COMPOSITE,
    MetricKind.LAMBDA: StructureKind.LAMBDA,
    MetricKind.LAMBDA_BAR: StructureKind.LAMBDA_BAR,
}

# sign s in  eta (x) eta + s * d_eta o (phi (x) 1)
_SIGN_OF = {
    MetricKind.ACS: 1.0,
    MetricKind.ALPHA_PI: 1.0,
    MetricKind.R: -1.0,
    MetricKind.S: -1.0,
    MetricKind.LAMBDA: -1.0,
    MetricKind.LAMBDA_BAR: -1.0,
}


@dataclass(eq=False)
class Metric:
    """A (0,2) tensor with, for metrics, its symbolic inverse."""

    kind: MetricKind | str
    space: PhaseSpace
    tensor: TensorField
    inverse: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_metric(self) -> bool:
        """False only for the half-turn tensor, whose horizontal part is antisymmetric."""
        return self.kind != MetricKind.ALPHA_PI

    @cached_property
    def gamma(self) -> np.ndarray:
        """The symbolic Levi-Civita connection ``Gamma^c_ab``, built on first use."""
        return calculus.christoffel_symbolic(self)

    @cached_property
    def gamma_tape(self) -> expr.Tape:
        """All of ``gamma`` in C order, compiled on first use; ``Gamma^c_ba`` shares a slot."""
        return expr.compile(self.gamma.reshape(-1), self.space.coord_names())

    @cached_property
    def ricci_tape(self) -> expr.Tape:
        """The symbolic Ricci tensor ``R_ab`` in C order, built and compiled on first
        use; ``R_ba`` shares a slot."""
        return expr.compile(calculus.ricci_symbolic(self).reshape(-1), self.space.coord_names())


def _frame_block_inverse(space: PhaseSpace, qq, pp, qp) -> np.ndarray:
    """``xi (x) xi + sum_a [qq_a Q (x) Q + pp_a P (x) P + qp_a (Q (x) P + P (x) Q)]``."""
    fields = frame(space)
    xi = fields[0]
    dim = space.dim
    out = _obj((dim, dim))

    def acc_outer(coef, A, B):
        if coef is None:
            return
        for i in range(dim):
            ai = A.comps[i]
            if ai is expr.ZERO:
                continue
            for j in range(dim):
                term = expr.mul(coef, expr.mul(ai, B.comps[j]))
                out[i, j] = expr.add(out[i, j], term)

    acc_outer(expr.ONE, xi, xi)
    for a in range(1, space.n + 1):
        Q, P = fields[a], fields[space.n + a]
        acc_outer(qq[a - 1] if qq else None, Q, Q)
        acc_outer(pp[a - 1] if pp else None, P, P)
        if qp:
            acc_outer(qp[a - 1], Q, P)
            acc_outer(qp[a - 1], P, Q)
    return out


def _inverse_components(space: PhaseSpace, kind: MetricKind,
                        lam: LambdaFamily | None) -> np.ndarray | None:
    two = expr.const(2.0)
    minus_two = expr.const(-2.0)
    n = space.n
    if kind == MetricKind.ACS:
        return _frame_block_inverse(space, (two,) * n, (two,) * n, None)
    if kind == MetricKind.R:
        return _frame_block_inverse(space, None, None, (minus_two,) * n)
    if kind == MetricKind.S:
        return _frame_block_inverse(space, (two,) * n, (minus_two,) * n, None)
    if kind == MetricKind.LAMBDA:
        qp = tuple(expr.div(minus_two, la) for la in lam.exprs)
        return _frame_block_inverse(space, None, None, qp)
    if kind == MetricKind.LAMBDA_BAR:
        qp = tuple(expr.mul(minus_two, la) for la in lam.exprs)
        return _frame_block_inverse(space, None, None, qp)
    return None


def metric_from_structure(space: PhaseSpace, kind: MetricKind,
                          lam: LambdaFamily | None = None) -> Metric:
    """Construct ``eta (x) eta + s * d_eta o (phi (x) 1)``.

    The half-turn tensor has an antisymmetric horizontal part, so it is no
    metric and has no inverse; it is retained for its invariance checks but
    excluded from the metric-only operations.
    """
    kind = MetricKind(kind)
    phi = build_structure(space, _STRUCTURE_OF[kind], lam)
    eta = contact_form(space)
    deta = d_eta(space)
    sign = expr.const(_SIGN_OF[kind])
    dim = space.dim

    comps = _obj((dim, dim))
    for a in range(dim):
        for b in range(dim):
            acc = expr.mul(eta.comps[a], eta.comps[b])
            for c in range(dim):
                if phi.comps[c, a] is expr.ZERO or deta.comps[c, b] is expr.ZERO:
                    continue
                term = expr.mul(phi.comps[c, a], deta.comps[c, b])
                acc = expr.add(acc, expr.mul(sign, term))
            comps[a, b] = acc
    return Metric(kind, space, TensorField((0, 2), comps), _inverse_components(space, kind, lam))


def compatibility_residual(metric: Metric, phi: TensorField, X, Y,
                           point: PhasePoint) -> float:
    """``|g(phi X, phi Y) - s (g(X, Y) - eta(X) eta(Y))|``.

    ``s`` is +1 for the almost-contact metric and -1 for the reflection-type
    tensors, matching the compatibility conventions of the two families.
    """
    space = metric.space
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    g = metric.tensor.evaluate(point)
    m = phi.evaluate(point)
    eta_vals = contact_form(space).evaluate(point)
    s = 1.0 if metric.kind == MetricKind.ACS else -1.0
    lhs = (m @ X) @ g @ (m @ Y)
    rhs = s * (X @ g @ Y - (eta_vals @ X) * (eta_vals @ Y))
    return float(abs(lhs - rhs))


def associated_residual(metric: Metric, phi: TensorField, X, Y,
                        point: PhasePoint) -> float:
    """``|g(X, phi Y) - d_eta(X, Y)|``."""
    space = metric.space
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    g = metric.tensor.evaluate(point)
    m = phi.evaluate(point)
    deta = d_eta(space).evaluate(point)
    return float(abs(X @ g @ (m @ Y) - X @ deta @ Y))


def pullback(mapping: CoordinateMap, T: TensorField | Metric,
             point: PhasePoint) -> np.ndarray:
    """Pullback components ``J^T T(map(x)) J`` with the map's exact Jacobian."""
    tensor = T.tensor if isinstance(T, Metric) else T
    if tensor.valence != (0, 2):
        raise ValueError("pullback expects a (0,2) tensor")
    image = mapping.apply(point)
    J = mapping.jacobian(point)
    return J.T @ tensor.evaluate(image) @ J
