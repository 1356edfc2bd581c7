"""Almost contact / para-contact structures and their scaled deformations.

Each structure is a (1,1) field that kills the Reeb direction and acts on the
horizontal frame per pair:

    phi      : Q_a -> -P^a,            P^a -> Q_a      (quarter turn)
    phi_pi   : Q_a -> -Q_a,            P^a -> -P^a     (half turn)
    phi_r    : Q_a ->  Q_a,            P^a -> -P^a     (polarization reflection)
    phi_s    : Q_a ->  P^a,            P^a -> Q_a      (reflection o quarter turn)
    phi_L    : Q_a ->  L_a Q_a,        P^a -> -L_a P^a (index-wise scaled reflection)
    phi_Lbar : Q_a ->  Q_a / L_a,      P^a -> -P^a / L_a

The quarter turn satisfies ``phi^2 = -1 + eta (x) xi``; the half turn, the
reflection and their composition satisfy ``phi^2 = 1 - eta (x) xi``.  The
scaled families satisfy the generalized identity with the index-wise scaled
horizontal identity, and the pair is mutually inverse on the horizontal
distribution: ``phi_L o phi_Lbar = 1 - eta (x) xi``.

A scaling family is the tuple of its ``n`` expressions ``L_a(w, q, p)``.  What
a family satisfies is not declared but checked: :func:`scaling_residuals`
states the residual of its invariance under the polarization scalings and
:func:`lambda_legendre_residual` that under the partial Legendre maps.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import expr
from .expr import Expr
from .hamiltonian import legendre_rows
from .phase_space import TensorField, _dim, _obj, contact_form, frame, matmul, outer_11

__all__ = [
    "StructureKind",
    "product_lambda",
    "scaling_residuals",
    "build_structure",
    "structure_identities",
    "scaled_horizontal_identity",
    "lambda_legendre_residual",
]


class StructureKind(Enum):
    ALMOST_CONTACT = "phi"
    PI_ROTATION = "pi"
    REFLECTION = "r"
    COMPOSITE = "s"
    LAMBDA = "lambda"
    LAMBDA_BAR = "lambdabar"


def product_lambda(n: int, power: int = 1) -> tuple[Expr, ...]:
    """The product family ``L_a = (q^a p_a)^power``; odd powers are invariant."""
    return tuple(expr.power(expr.var(f"q{a}") * expr.var(f"p{a}"), power)
                 for a in range(1, n + 1))


def scaling_residuals(lam: tuple[Expr, ...]) -> list[Expr]:
    """``sum_b (p_b dL_a/dp_b - q^b dL_a/dq^b)`` for each ``a``: the residual of the
    family's invariance under the polarization scalings."""
    residuals = []
    for la in lam:
        acc = expr.ZERO
        for b in range(1, len(lam) + 1):
            acc = acc + expr.var(f"p{b}") * expr.differentiate(la, f"p{b}")
            acc = acc - expr.var(f"q{b}") * expr.differentiate(la, f"q{b}")
        residuals.append(acc)
    return residuals


def _lambda_coeffs(n: int, kind, lam: tuple[Expr, ...] | None) -> tuple[Expr, ...]:
    """The family ``L_a`` on ``n`` pairs for the ``lambda`` kind of a structure or
    metric, its reciprocals ``1 / L_a`` for the ``lambdabar`` kind."""
    if lam is None:
        raise ValueError(f"{kind.value} needs a lambda family")
    if len(lam) != n:
        raise ValueError(f"lambda family has {len(lam)} entries, need {n}")
    return lam if kind.value == "lambda" else tuple(expr.div(expr.ONE, e) for e in lam)


def _pair_action(n: int, kind: StructureKind, lam: tuple[Expr, ...] | None):
    """Per-index frame action (alpha, beta, gamma, delta) on ``n`` pairs:
    phi(Q_a) = alpha_a Q_a + beta_a P^a, phi(P^a) = gamma_a Q_a + delta_a P^a."""
    one, zero = expr.ONE, expr.ZERO
    none = (zero,) * n

    if kind in (StructureKind.LAMBDA, StructureKind.LAMBDA_BAR):
        coeffs = _lambda_coeffs(n, kind, lam)
        return coeffs, none, none, tuple(expr.neg(c) for c in coeffs)

    ones = (one,) * n
    neg_ones = (expr.const(-1.0),) * n
    if kind == StructureKind.ALMOST_CONTACT:
        return none, neg_ones, ones, none
    if kind == StructureKind.PI_ROTATION:
        return neg_ones, none, none, neg_ones
    if kind == StructureKind.REFLECTION:
        return ones, none, none, neg_ones
    if kind == StructureKind.COMPOSITE:
        return none, ones, ones, none
    raise ValueError(f"unknown structure kind {kind}")


def build_structure(n: int, kind: StructureKind,
                    lam: tuple[Expr, ...] | None = None) -> TensorField:
    """The (1,1) automorphism field for ``kind`` on ``n`` pairs in coordinate components."""
    dim = _dim(n)
    alpha, beta, gamma, delta = _pair_action(n, kind, lam)
    comps = _obj((dim, dim))
    for a in range(1, n + 1):
        qi, pi = a, n + a
        pa = expr.var(f"p{a}")
        al, be, ga, de = alpha[a - 1], beta[a - 1], gamma[a - 1], delta[a - 1]
        # phi(d/dq^a) = phi(Q_a) since phi kills xi and d/dq^a = Q_a - p_a xi
        comps[0, qi] = al * pa
        comps[qi, qi] = al
        comps[pi, qi] = be
        comps[0, pi] = ga * pa
        comps[qi, pi] = ga
        comps[pi, pi] = de
    return TensorField((1, 1), comps)


def scaled_horizontal_identity(n: int, coeffs: tuple[Expr, ...]) -> TensorField:
    """``eta (x) xi + sum_a c_a (dq^a (x) Q_a + dp_a (x) P^a)`` on ``n`` pairs for given
    coefficients."""
    dim = _dim(n)
    comps = _obj((dim, dim))
    comps[0, 0] = expr.ONE
    for a in range(1, n + 1):
        qi, pi = a, n + a
        pa = expr.var(f"p{a}")
        c = coeffs[a - 1]
        # eta (x) xi contributes -p_a on the (w, q^a) slot; dq^a (x) Q_a adds c_a p_a
        comps[0, qi] = pa * (c - expr.ONE)
        comps[qi, qi] = c
        comps[pi, pi] = c
    return TensorField((1, 1), comps)


def structure_identities(n: int, kind: StructureKind,
                         lam: tuple[Expr, ...] | None) -> list[tuple]:
    """The defining identities of the ``kind`` structure on ``n`` pairs as ``(lhs, rhs)`` pairs
    of symbolic component arrays: ``phi o phi`` against the horizontal identity
    ``1 - eta (x) xi`` scaled index-wise by -1, 1 or ``c_a^2``, where ``phi(Q_a) =
    c_a Q_a``; ``eta o phi`` and ``phi(xi)`` against zero; and for the scaled
    families ``phi_L o phi_Lbar`` against ``1 - eta (x) xi``.  ``matmul`` sums
    the contracted index in increasing order."""
    phi = build_structure(n, kind, lam).comps
    eta, xi = contact_form(n), frame(n)[0]
    eta_xi = outer_11(eta, xi).comps
    ones = (expr.ONE,) * n
    square = (expr.const(-1.0),) * n if kind == StructureKind.ALMOST_CONTACT else ones
    if kind in (StructureKind.LAMBDA, StructureKind.LAMBDA_BAR):
        square = tuple(expr.mul(c, c) for c in _pair_action(n, kind, lam)[0])
    pairs = [(matmul(phi, phi), scaled_horizontal_identity(n, square).comps - eta_xi),
             (matmul(eta.comps, phi), expr.ZERO), (matmul(phi, xi.comps), expr.ZERO)]
    if kind in (StructureKind.LAMBDA, StructureKind.LAMBDA_BAR):
        other = StructureKind.LAMBDA_BAR if kind == StructureKind.LAMBDA else StructureKind.LAMBDA
        dual = build_structure(n, other, lam).comps
        pairs.append((matmul(phi, dual), scaled_horizontal_identity(n, ones).comps - eta_xi))
    return pairs


def lambda_legendre_residual(tape: expr.Tape, mask, rows, here) -> np.ndarray:
    """Per-index residuals of the finite Legendre-invariance conditions, one row
    per point.

    Row ``j`` of the ``(k, 2n+1)`` array ``rows`` is a point ``x`` and row ``j``
    of the ``(k, n)`` boolean ``mask`` the index set ``I`` of the partial
    Legendre map ``Phi`` (see :func:`legendre_rows`).  The family must flip
    sign on the transformed indices and be unchanged on the rest:
    ``L_i(Phi x) = -L_i(x)`` for ``i in I`` and ``L_a(Phi x) = L_a(x)``
    otherwise.  ``tape`` is the family compiled against ``coord_names(n)`` and
    ``here`` is ``L(x)`` as ``tape.run_batch(rows)`` gives it.  Returns a
    ``(k, n)`` array.
    """
    there = tape.run_batch(legendre_rows(mask, rows))
    with np.errstate(all="ignore"):  # as in run_batch, an overflow is a value
        return np.where(mask, (there + here).T, (there - here).T)
