"""(0,2) tensors built from the structures and their defining identities.

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
from .phase_space import TensorField, _obj, contact_form, coord_names, d_eta, frame, matmul
from .structures import StructureKind, build_structure

__all__ = [
    "MetricKind",
    "Metric",
    "metric_from_structure",
    "compatibility_pairs",
    "associated_pairs",
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
    tensor: TensorField
    inverse: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def gamma(self) -> np.ndarray:
        """The symbolic Levi-Civita connection ``Gamma^c_ab``, built on first use."""
        return calculus.christoffel_symbolic(self)

    @cached_property
    def ricci(self) -> np.ndarray:
        """The symbolic Ricci tensor ``R_ab``, built on first use."""
        return calculus.ricci_symbolic(self)

    @cached_property
    def ricci_tape(self) -> expr.Tape:
        """All of ``ricci`` in C order, compiled on first use; ``R_ba`` shares a slot."""
        return expr.compile(self.ricci.reshape(-1), coord_names(self.tensor.n))


def _frame_block_inverse(n: int, qq, pp, qp) -> np.ndarray:
    """``xi (x) xi + sum_a [qq_a Q (x) Q + pp_a P (x) P + qp_a (Q (x) P + P (x) Q)]``."""
    fields = frame(n)
    xi = fields[0]
    dim = xi.dim
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
    for a in range(1, n + 1):
        Q, P = fields[a], fields[n + a]
        acc_outer(qq[a - 1] if qq else None, Q, Q)
        acc_outer(pp[a - 1] if pp else None, P, P)
        if qp:
            acc_outer(qp[a - 1], Q, P)
            acc_outer(qp[a - 1], P, Q)
    return out


def _inverse_components(n: int, kind: MetricKind,
                        lam: tuple[expr.Expr, ...] | None) -> np.ndarray | None:
    two = expr.const(2.0)
    minus_two = expr.const(-2.0)
    if kind == MetricKind.ACS:
        return _frame_block_inverse(n, (two,) * n, (two,) * n, None)
    if kind == MetricKind.R:
        return _frame_block_inverse(n, None, None, (minus_two,) * n)
    if kind == MetricKind.S:
        return _frame_block_inverse(n, (two,) * n, (minus_two,) * n, None)
    if kind == MetricKind.LAMBDA:
        qp = tuple(expr.div(minus_two, la) for la in lam)
        return _frame_block_inverse(n, None, None, qp)
    if kind == MetricKind.LAMBDA_BAR:
        qp = tuple(expr.mul(minus_two, la) for la in lam)
        return _frame_block_inverse(n, None, None, qp)
    return None


def metric_from_structure(n: int, kind: MetricKind,
                          lam: tuple[expr.Expr, ...] | None = None) -> Metric:
    """Construct ``eta (x) eta + s * d_eta o (phi (x) 1)`` on ``n`` pairs.

    The half-turn tensor has an antisymmetric horizontal part, so it is no
    metric and has no inverse; it is retained for its invariance checks but
    excluded from the metric-only operations.
    """
    kind = MetricKind(kind)
    phi = build_structure(n, _STRUCTURE_OF[kind], lam)
    eta = contact_form(n)
    deta = d_eta(n)
    sign = expr.const(_SIGN_OF[kind])
    dim = phi.dim

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
    return Metric(kind, TensorField((0, 2), comps), _inverse_components(n, kind, lam))


def compatibility_pairs(metric: Metric, phi: TensorField) -> list[tuple]:
    """``g(phi X, phi Y) = s (g(X, Y) - eta(X) eta(Y))`` for all ``X, Y`` as one
    ``(lhs, rhs)`` pair of symbolic component arrays, ``phi^T g phi`` against
    ``(g - eta (x) eta) s``.

    ``s`` is +1 for the almost-contact metric and -1 for the reflection-type
    tensors, matching the compatibility conventions of the two families.
    """
    g, eta = metric.tensor.comps, contact_form(metric.tensor.n).comps
    sign = expr.const(1.0 if metric.kind == MetricKind.ACS else -1.0)
    return [(matmul(matmul(phi.comps.T, g), phi.comps), (g - np.outer(eta, eta)) * sign)]


def associated_pairs(metric: Metric, phi: TensorField) -> list[tuple]:
    """``g(X, phi Y) = d_eta(X, Y)`` for all ``X, Y``: ``g phi`` against ``d_eta``."""
    return [(matmul(metric.tensor.comps, phi.comps), d_eta(metric.tensor.n).comps)]
