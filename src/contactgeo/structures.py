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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import expr
from .expr import Expr
from .hamiltonian import legendre_rows
from .phase_space import (PhaseSpace, TensorField, _obj, contact_form, frame, matmul,
                          outer_11)

__all__ = [
    "StructureKind",
    "LambdaFamily",
    "product_lambda",
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


@dataclass(frozen=True)
class LambdaFamily:
    """Index-wise scaling functions ``L_a(w, q, p)``.

    What a family satisfies is not declared but checked: :attr:`scaling_residuals`
    states the residual of invariance under the polarization scalings and
    :func:`lambda_legendre_residual` that under the partial Legendre maps.
    """

    exprs: tuple[Expr, ...]

    @property
    def n(self) -> int:
        return len(self.exprs)

    @cached_property
    def tape(self) -> expr.Tape:
        """The scaling functions, compiled on first use against the coordinate order."""
        return expr.compile(self.exprs, PhaseSpace(self.n).coord_names())

    @property
    def scaling_residuals(self) -> list[Expr]:
        """``sum_b (p_b dL_a/dp_b - q^b dL_a/dq^b)`` for each ``a``, built on each read."""
        residuals = []
        for la in self.exprs:
            acc = expr.ZERO
            for b in range(1, self.n + 1):
                acc = acc + expr.var(f"p{b}") * expr.differentiate(la, f"p{b}")
                acc = acc - expr.var(f"q{b}") * expr.differentiate(la, f"q{b}")
            residuals.append(acc)
        return residuals

    @classmethod
    def of(cls, items) -> "LambdaFamily":
        return cls(tuple(e if isinstance(e, Expr) else expr.parse(e) for e in items))


def product_lambda(n: int, power: int = 1) -> LambdaFamily:
    """The product family ``L_a = (q^a p_a)^power``; odd powers are invariant."""
    return LambdaFamily(tuple(expr.power(expr.var(f"q{a}") * expr.var(f"p{a}"), power)
                              for a in range(1, n + 1)))


def _reciprocal(lam: LambdaFamily) -> tuple[Expr, ...]:
    return tuple(expr.div(expr.ONE, e) for e in lam.exprs)


def _pair_action(space: PhaseSpace, kind: StructureKind, lam: LambdaFamily | None):
    """Per-index frame action (alpha, beta, gamma, delta):
    phi(Q_a) = alpha_a Q_a + beta_a P^a, phi(P^a) = gamma_a Q_a + delta_a P^a."""
    one, zero = expr.ONE, expr.ZERO
    none = (zero,) * space.n

    if kind in (StructureKind.LAMBDA, StructureKind.LAMBDA_BAR):
        if lam is None:
            raise ValueError(f"{kind.value} structure requires a LambdaFamily")
        if lam.n != space.n:
            raise ValueError(f"LambdaFamily has {lam.n} entries, space needs {space.n}")
        coeffs = lam.exprs if kind == StructureKind.LAMBDA else _reciprocal(lam)
        return coeffs, none, none, tuple(expr.neg(c) for c in coeffs)

    ones = (one,) * space.n
    neg_ones = (expr.const(-1.0),) * space.n
    if kind == StructureKind.ALMOST_CONTACT:
        return none, neg_ones, ones, none
    if kind == StructureKind.PI_ROTATION:
        return neg_ones, none, none, neg_ones
    if kind == StructureKind.REFLECTION:
        return ones, none, none, neg_ones
    if kind == StructureKind.COMPOSITE:
        return none, ones, ones, none
    raise ValueError(f"unknown structure kind {kind}")


def build_structure(space: PhaseSpace, kind: StructureKind,
                    lam: LambdaFamily | None = None) -> TensorField:
    """The (1,1) automorphism field for ``kind`` in coordinate components."""
    alpha, beta, gamma, delta = _pair_action(space, kind, lam)
    comps = _obj((space.dim, space.dim))
    for a in range(1, space.n + 1):
        qi, pi = space.q_index(a), space.p_index(a)
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


def scaled_horizontal_identity(space: PhaseSpace, coeffs: tuple[Expr, ...]) -> TensorField:
    """``eta (x) xi + sum_a c_a (dq^a (x) Q_a + dp_a (x) P^a)`` for given coefficients."""
    comps = _obj((space.dim, space.dim))
    comps[0, 0] = expr.ONE
    for a in range(1, space.n + 1):
        qi, pi = space.q_index(a), space.p_index(a)
        pa = expr.var(f"p{a}")
        c = coeffs[a - 1]
        # eta (x) xi contributes -p_a on the (w, q^a) slot; dq^a (x) Q_a adds c_a p_a
        comps[0, qi] = pa * (c - expr.ONE)
        comps[qi, qi] = c
        comps[pi, pi] = c
    return TensorField((1, 1), comps)


def structure_identities(space: PhaseSpace, kind: StructureKind,
                         lam: LambdaFamily | None) -> list[tuple]:
    """The defining identities of the ``kind`` structure as ``(lhs, rhs)`` pairs
    of symbolic component arrays: ``phi o phi`` against the horizontal identity
    ``1 - eta (x) xi`` scaled index-wise by -1, 1 or ``c_a^2``, where ``phi(Q_a) =
    c_a Q_a``; ``eta o phi`` and ``phi(xi)`` against zero; and for the scaled
    families ``phi_L o phi_Lbar`` against ``1 - eta (x) xi``.  ``matmul`` sums
    the contracted index in increasing order."""
    phi = build_structure(space, kind, lam).comps
    eta, xi = contact_form(space), frame(space)[0]
    eta_xi = outer_11(eta, xi).comps
    ones = (expr.ONE,) * space.n
    square = (expr.const(-1.0),) * space.n if kind == StructureKind.ALMOST_CONTACT else ones
    if kind in (StructureKind.LAMBDA, StructureKind.LAMBDA_BAR):
        square = tuple(expr.mul(c, c) for c in _pair_action(space, kind, lam)[0])
    pairs = [(matmul(phi, phi), scaled_horizontal_identity(space, square).comps - eta_xi),
             (matmul(eta.comps, phi), expr.ZERO), (matmul(phi, xi.comps), expr.ZERO)]
    if kind in (StructureKind.LAMBDA, StructureKind.LAMBDA_BAR):
        other = StructureKind.LAMBDA_BAR if kind == StructureKind.LAMBDA else StructureKind.LAMBDA
        dual = build_structure(space, other, lam).comps
        pairs.append((matmul(phi, dual), scaled_horizontal_identity(space, ones).comps - eta_xi))
    return pairs


def lambda_legendre_residual(lam: LambdaFamily, mask, rows, here) -> np.ndarray:
    """Per-index residuals of the finite Legendre-invariance conditions, one row
    per point.

    Row ``j`` of the ``(k, 2n+1)`` array ``rows`` is a point ``x`` and row ``j``
    of the ``(k, n)`` boolean ``mask`` the index set ``I`` of the partial
    Legendre map ``Phi`` (see :func:`legendre_rows`).  The family must flip
    sign on the transformed indices and be unchanged on the rest:
    ``L_i(Phi x) = -L_i(x)`` for ``i in I`` and ``L_a(Phi x) = L_a(x)``
    otherwise.  ``here`` is ``L(x)`` as ``lam.tape.run_batch(rows)`` gives it.
    Returns a ``(k, n)`` array.
    """
    there = lam.tape.run_batch(legendre_rows(mask, rows))
    with np.errstate(all="ignore"):  # as in run_batch, an overflow is a value
        return np.where(mask, (there + here).T, (there - here).T)
