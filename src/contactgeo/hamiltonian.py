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
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import expr
from .expr import Expr
from .calculus import lie_bracket
from .phase_space import CoordinateMap, TensorField, _dim, _obj, coord_names, frame

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
    """A sorted set of distinct conjugate-pair indices (1-based).  An index is what
    ``operator.index`` takes, a numpy integer included (kept as ``int``), but not a
    ``bool``; a string, a float or a ``bool`` raises a ``TypeError`` that names it."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(map(_index, self.indices)))))
        if any(i < 1 for i in self.indices):
            raise ValueError("indices are 1-based")

    @classmethod
    def of(cls, indices: Iterable[int] | int) -> "IndexSubset":
        """The set of one index or of an iterable of them; an ``IndexSubset`` is itself."""
        if isinstance(indices, cls):
            return indices
        if isinstance(indices, (str, bytes)) or not hasattr(indices, "__iter__"):
            indices = (indices,)
        return cls(tuple(indices))

    def validate(self, n: int):
        if not self.indices:
            raise ValueError("index subset must be non-empty")
        if any(i > n for i in self.indices):
            raise ValueError(f"index out of range for n={n}")

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)


def _index(i) -> int:
    if not isinstance(i, bool):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise TypeError(f"an index must be an integer, not {i!r}")


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


def hamiltonian_vector_field(n: int, h: Expr) -> TensorField:
    """The unique field on ``n`` pairs with ``eta(X_h) = h``, via Hamilton's equations."""
    comps = _obj(_dim(n))
    dh_dw = expr.differentiate(h, "w")
    wdot = h
    for a in range(1, n + 1):
        dh_dpa = expr.differentiate(h, f"p{a}")
        comps[a] = expr.neg(dh_dpa)
        comps[n + a] = expr.differentiate(h, f"q{a}") + expr.var(f"p{a}") * dh_dw
        wdot = wdot - expr.var(f"p{a}") * dh_dpa
    comps[0] = wdot
    return TensorField((1, 0), comps)


def rotation_flow(t: float, I: IndexSubset, x) -> list:
    """Closed-form rotation flow on the selected conjugate pairs of the point
    ``x``, returned as a list of its coordinate values.

    On each selected plane ``(q^i, p_i)`` rotates by angle ``t`` and shifts
    ``w`` accordingly; the remaining coordinates are untouched.
    """
    if len(x) < 3 or len(x) % 2 == 0:
        raise ValueError(f"a phase point has an odd number >= 3 of coordinates, got {len(x)}")
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


def generator_commutator(n: int, m: int) -> TensorField:
    """``[X_hS, X_hL]`` on ``n`` pairs computed with the generic Lie bracket."""
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= {n}")
    XS = hamiltonian_vector_field(n, scaling_generator(n))
    XL = hamiltonian_vector_field(n, rotation_generator(m))
    return lie_bracket(XS, XL)


def closed_form_commutator(n: int, m: int) -> TensorField:
    """``sum_{i<=m} [(p_i^2 - q_i^2) xi - 2 (p_i Q_i + q^i P^i)]`` built from the frame."""
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= {n}")
    fields = frame(n)
    xi = fields[0]
    dim = xi.dim
    comps = _obj(dim)
    for i in range(1, m + 1):
        qi, pi = expr.var(f"q{i}"), expr.var(f"p{i}")
        Qi = fields[i]
        Pi = fields[n + i]
        coef_xi = pi * pi - qi * qi
        for c in range(dim):
            term = coef_xi * xi.comps[c] - expr.const(2.0) * (pi * Qi.comps[c] + qi * Pi.comps[c])
            comps[c] = comps[c] + term
    return TensorField((1, 0), comps)


def legendre_map(n: int, I: IndexSubset) -> CoordinateMap:
    """The partial Legendre transformation on ``n`` pairs as a symbolic coordinate map."""
    names = coord_names(n)
    I.validate(n)
    exprs = np.array([expr.var(name) for name in names], dtype=object)
    w = exprs[0]
    for i in I:
        qi, pi = expr.var(f"q{i}"), expr.var(f"p{i}")
        w = w - qi * pi
        exprs[i] = expr.neg(pi)
        exprs[n + i] = qi
    exprs[0] = w
    return CoordinateMap(exprs, names, label=f"legendre{I.indices}")


def scaling_map(n: int, t: float) -> CoordinateMap:
    """The finite scaling ``delta_t`` on ``n`` pairs as a symbolic coordinate map."""
    names = coord_names(n)
    exprs = np.array([expr.var(name) for name in names], dtype=object)
    em, ep = math.exp(-t), math.exp(t)
    for a in range(1, n + 1):
        exprs[a] = expr.const(em) * expr.var(f"q{a}")
        exprs[n + a] = expr.const(ep) * expr.var(f"p{a}")
    return CoordinateMap(exprs, names, label=f"scaling(t={t})")


def random_polynomial_hamiltonian(n: int, rng: np.random.Generator) -> Expr:
    """A random polynomial in ``(w, q, p)`` on ``n`` pairs of four terms with small
    integer coefficients, each coordinate to a power from 0 to 2."""
    names = coord_names(n)
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
