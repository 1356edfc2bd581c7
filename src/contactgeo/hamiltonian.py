"""Contact Hamiltonian vector fields, symmetry generators and their flows.

Hamilton's equations are used in the convention

    qdot^a = -dh/dp_a,
    pdot_a =  dh/dq^a + p_a dh/dw,
    wdot   =  h - sum_b p_b dh/dp_b,

for which the defining relation ``eta(X_h) = h`` and the contact-transformation
property ``L_{X_h} eta = (dh/dw) eta`` hold exactly.

Two horizontal generators get closed-form flows: the per-plane rotation
generator ``(1/2) sum_i (q_i^2 + p_i^2)`` whose quarter turn is the partial
Legendre transformation, and the scaling generator ``sum_a q^a p_a`` whose
flow is the finite map ``scaling_map``: ``q -> q e^-t, p -> p e^t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import expr
from .expr import Expr
from .phase_space import CoordinateMap, PhaseSpace, TensorField, _obj, frame

__all__ = [
    "IndexSubset",
    "rotation_generator",
    "scaling_generator",
    "hamiltonian_vector_field",
    "rotation_flow",
    "legendre_rows",
    "integrate_flow",
    "generator_commutator",
    "closed_form_commutator",
    "legendre_map",
    "scaling_map",
    "random_polynomial_hamiltonian",
]


@dataclass(frozen=True)
class IndexSubset:
    """A sorted set of distinct conjugate-pair indices (1-based)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(self.indices)))
        if idx != self.indices:
            object.__setattr__(self, "indices", idx)
        if any(i < 1 for i in self.indices):
            raise ValueError("indices are 1-based")

    @classmethod
    def of(cls, indices: Iterable[int] | int) -> "IndexSubset":
        if isinstance(indices, int):
            indices = (indices,)
        return cls(tuple(int(i) for i in indices))

    def validate(self, n: int):
        if not self.indices:
            raise ValueError("index subset must be non-empty")
        if any(i > n for i in self.indices):
            raise ValueError(f"index out of range for n={n}")

    def mask(self, n: int) -> np.ndarray:
        """Membership of the indices 1..n, as the boolean row :func:`legendre_rows` takes."""
        self.validate(n)
        mask = np.zeros(n, dtype=bool)
        mask[[i - 1 for i in self.indices]] = True
        return mask

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)


def rotation_generator(m: int) -> Expr:
    """``(1/2) sum_{i<=m} (q_i^2 + p_i^2)``: rotates the first m contact planes."""
    if m < 1:
        raise ValueError("m must be >= 1")
    h = expr.ZERO
    for i in range(1, m + 1):
        h = h + (expr.var(f"q{i}") ** 2 + expr.var(f"p{i}") ** 2)
    return expr.const(0.5) * h


def scaling_generator(n: int) -> Expr:
    """``sum_{a<=n} q^a p_a``: generates the anisotropic polarization scalings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = expr.ZERO
    for a in range(1, n + 1):
        h = h + expr.var(f"q{a}") * expr.var(f"p{a}")
    return h


def hamiltonian_vector_field(space: PhaseSpace, h: Expr) -> TensorField:
    """The unique field with ``eta(X_h) = h``, via Hamilton's equations."""
    comps = _obj(space.dim)
    dh_dw = expr.differentiate(h, "w")
    wdot = h
    for a in range(1, space.n + 1):
        dh_dpa = expr.differentiate(h, f"p{a}")
        comps[space.q_index(a)] = expr.neg(dh_dpa)
        comps[space.p_index(a)] = expr.differentiate(h, f"q{a}") + expr.var(f"p{a}") * dh_dw
        wdot = wdot - expr.var(f"p{a}") * dh_dpa
    comps[0] = wdot
    return TensorField((1, 0), comps)


def rotation_flow(t: float, I: IndexSubset, x) -> list:
    """Closed-form rotation flow on the selected conjugate pairs of the point
    ``x``, returned as a list of its coordinate values.

    On each selected plane ``(q^i, p_i)`` rotates by angle ``t`` and shifts
    ``w`` accordingly; the remaining coordinates are untouched.
    """
    n = (len(x) - 1) // 2
    I.validate(n)
    ct, st = math.cos(t), math.sin(t)
    y = list(x)
    for i in I:
        q0, p0 = x[i], x[n + i]
        y[0] -= 0.5 * st * ((p0 * p0 - q0 * q0) * ct + 2.0 * st * q0 * p0)
        y[i] = q0 * ct - p0 * st
        y[n + i] = q0 * st + p0 * ct
    return y


def legendre_rows(mask, rows) -> np.ndarray:
    """The partial Legendre map of each row of ``rows``, on the indices its row
    of ``mask`` selects.

    ``rows`` is a ``(k, 2n+1)`` array of points ``(w, q1..qn, p1..pn)`` and
    ``mask`` a ``(k, n)`` boolean array.  Each row's ``w`` takes ``- q^i p_i``
    for its selected ``i`` in increasing ``i``, from the original ``q`` and
    ``p``; an unselected ``i`` is skipped, as ``w - 0.0`` is ``w`` for every
    float, so a row is bit for bit the scalar map of that point.  Each step
    writes into the result through a mask, so no temporary is larger than one
    column.  The result keeps the layout of ``rows``: on a block laid out
    column by column, as the ``verify`` sweeps build theirs, the masked steps
    run several times faster than across rows.
    """
    mask = np.asarray(mask, dtype=bool)
    rows = np.asarray(rows, dtype=float)
    k, n = mask.shape
    if rows.shape != (k, 2 * n + 1):
        raise ValueError(f"expected {k} rows of {2 * n + 1} coordinates, got shape {rows.shape}")
    q, p = rows[:, 1:n + 1], rows[:, n + 1:]
    out = rows.copy(order="K")
    w = out[:, 0]
    with np.errstate(all="ignore"):  # an overflow is a value of the row, not a warning
        for i in range(n):
            np.subtract(w, q[:, i] * p[:, i], out=w, where=mask[:, i])
    np.negative(p, out=out[:, 1:n + 1], where=mask)
    np.copyto(out[:, n + 1:], q, where=mask)
    return out


def integrate_flow(X: TensorField, x, t: float, steps: int) -> list:
    """Classical fixed-step RK4 integration of ``xdot = X(x)`` over time ``t``
    from the point ``x``; the endpoint is a list of Python floats.

    All the steps run in the stepper of the field's tape (:meth:`expr.Tape.rk4`),
    on Python floats in numpy's association order, so the endpoint is that
    of stepping numpy vectors, bit for bit.  A ``math`` call that overflows
    in step ``k`` (a range error, or ``sin`` or ``cos`` of an infinity), or a
    state that is not finite after it, raises
    ``FloatingPointError("non-finite state at step k")``.  A domain test that
    fails (a zero divisor, the log of a value that is not positive, a negative
    base under an even root, zero to a negative power) raises ``Tape.run``'s
    :class:`expr.EvalError`.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if X.valence != (1, 0):
        raise ValueError("integrate_flow expects a vector field")
    return X.tape.rk4(list(x), t / steps, steps)


def generator_commutator(space: PhaseSpace, m: int) -> TensorField:
    """``[X_hS, X_hL]`` computed with the generic Lie bracket."""
    if not 1 <= m <= space.n:
        raise ValueError(f"m must satisfy 1 <= m <= {space.n}")
    from .calculus import lie_bracket

    XS = hamiltonian_vector_field(space, scaling_generator(space.n))
    XL = hamiltonian_vector_field(space, rotation_generator(m))
    return lie_bracket(space, XS, XL)


def closed_form_commutator(space: PhaseSpace, m: int) -> TensorField:
    """``sum_{i<=m} [(p_i^2 - q_i^2) xi - 2 (p_i Q_i + q^i P^i)]`` built from the frame."""
    if not 1 <= m <= space.n:
        raise ValueError(f"m must satisfy 1 <= m <= {space.n}")
    fields = frame(space)
    xi = fields[0]
    comps = _obj(space.dim)
    for i in range(1, m + 1):
        qi, pi = expr.var(f"q{i}"), expr.var(f"p{i}")
        Qi = fields[i]
        Pi = fields[space.n + i]
        coef_xi = pi * pi - qi * qi
        for c in range(space.dim):
            term = coef_xi * xi.comps[c] - expr.const(2.0) * (pi * Qi.comps[c] + qi * Pi.comps[c])
            comps[c] = comps[c] + term
    return TensorField((1, 0), comps)


def _identity_exprs(space: PhaseSpace) -> np.ndarray:
    return np.array([expr.var(name) for name in space.coord_names()], dtype=object)


def legendre_map(space: PhaseSpace, I: IndexSubset) -> CoordinateMap:
    """The partial Legendre transformation as a symbolic coordinate map."""
    I.validate(space.n)
    exprs = _identity_exprs(space)
    w = exprs[0]
    for i in I:
        qi, pi = expr.var(f"q{i}"), expr.var(f"p{i}")
        w = w - qi * pi
        exprs[space.q_index(i)] = expr.neg(pi)
        exprs[space.p_index(i)] = qi
    exprs[0] = w
    return CoordinateMap(exprs, space.coord_names(), label=f"legendre{I.indices}")


def scaling_map(space: PhaseSpace, t: float) -> CoordinateMap:
    """The finite scaling ``delta_t`` as a symbolic coordinate map."""
    exprs = _identity_exprs(space)
    em, ep = math.exp(-t), math.exp(t)
    for a in range(1, space.n + 1):
        exprs[space.q_index(a)] = expr.const(em) * expr.var(f"q{a}")
        exprs[space.p_index(a)] = expr.const(ep) * expr.var(f"p{a}")
    return CoordinateMap(exprs, space.coord_names(), label=f"scaling(t={t})")


def random_polynomial_hamiltonian(space: PhaseSpace, rng: np.random.Generator) -> Expr:
    """A random polynomial in ``(w, q, p)`` of four terms with small integer
    coefficients, each coordinate to a power from 0 to 2."""
    names = space.coord_names()
    k = len(names)
    # row i: the coefficient of term i, then each coordinate's power; one draw gives
    # the stream of drawing them one at a time, in this order
    draws = rng.integers([-3] + [0] * k, [4] + [3] * k, size=(4, k + 1)).tolist()
    h = expr.ZERO
    for coeff, *powers in draws:
        term = expr.const(float(coeff) or 1.0)
        for name, d in zip(names, powers):
            if d:
                term = expr.mul(term, expr.power(expr.var(name), d))
        h = expr.add(h, term)
    return h
