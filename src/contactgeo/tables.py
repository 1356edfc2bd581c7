"""Closed-form Lie derivatives of the six (0,2) tensors along the generators.

These are the expected right-hand sides that the generic coordinate Lie
derivative must reproduce, with the rotation generator acting on the first
``m`` conjugate pairs and the scaling generator on all of them:

    tensor   along rotation generator                     along scaling generator
    ------   -------------------------------------------  -----------------------
    g        0                                            sum_a (dp (x) dp - dq (x) dq)
    a_pi     0                                            0
    g_r      -sum_i (dq (x) dq - dp (x) dp)               0
    g_s      -sum_i (dq (x) dp + dp (x) dq)               -sum_a (dp (x) dp + dq (x) dq)
    g_L      sum_a -(1/2) X(L_a) (dp (x) dq + dq (x) dp)  sum_a -(1/2) X(L_a) (dp (x) dq + dq (x) dp)
               - sum_i L_i (dq (x) dq - dp (x) dp)
    g_Lbar   same as g_L with L -> 1/L

where ``X(L_a)`` is the scalar derivative of the scaling function along the
generator; it vanishes along the scaling generator exactly when the family
satisfies the scaling-invariance condition.
"""

from __future__ import annotations

from . import expr
from .calculus import directional_derivative
from .hamiltonian import (hamiltonian_vector_field, rotation_generator,
                          scaling_generator)
from .metrics import MetricKind
from .phase_space import TensorField, _dim, _obj
from .structures import _lambda_coeffs

__all__ = ["lie_derivative_closed_form"]


def lie_derivative_closed_form(n: int, kind: MetricKind, generator: str,
                               m: int | None = None,
                               lam: tuple[expr.Expr, ...] | None = None) -> TensorField:
    """Expected ``L_X g`` on ``n`` pairs for the tensor of ``kind`` along one generator.

    ``generator`` is ``"rotation"`` (needs ``m``) or ``"scaling"``.  The ``lambda``
    kinds need ``lam``, a family of ``n`` expressions.
    """
    dim = _dim(n)
    kind = MetricKind(kind)
    if generator not in ("rotation", "scaling"):
        raise ValueError("generator must be 'rotation' or 'scaling'")
    rotation = generator == "rotation"
    if rotation:
        if m is None:
            raise ValueError("the rotation generator needs m")
        if not 1 <= m <= n:
            raise ValueError(f"m must satisfy 1 <= m <= {n}")
    zero, one, minus = expr.ZERO, expr.ONE, expr.const(-1.0)
    pairs = range(m) if rotation else range(n)
    # pair a -> the coefficients of (dq (x) dq, dp (x) dp, dq (x) dp + dp (x) dq)
    rows = {}
    if (kind == MetricKind.ACS and not rotation) or (kind == MetricKind.R and rotation):
        rows = {a: (minus, one, zero) for a in pairs}
    elif kind == MetricKind.S:
        rows = {a: (zero, zero, minus) if rotation else (minus, minus, zero) for a in pairs}
    elif kind in (MetricKind.LAMBDA, MetricKind.LAMBDA_BAR):
        coeffs = _lambda_coeffs(n, kind, lam)
        gen = rotation_generator(m) if rotation else scaling_generator(n)
        X = hamiltonian_vector_field(n, gen)
        for a in range(n):
            rate = directional_derivative(X, coeffs[a])
            rows[a] = (zero, zero, expr.mul(expr.const(-0.5), rate))
        if rotation:
            for i in range(m):
                c = expr.neg(coeffs[i])
                rows[i] = (c, expr.mul(c, minus), rows[i][2])
    comps = _obj((dim, dim))
    for a, (qq, pp, sym) in rows.items():
        q, p = a + 1, n + a + 1
        comps[q, q], comps[p, p], comps[q, p], comps[p, q] = qq, pp, sym, sym
    return TensorField((0, 2), comps)
