"""The (2n+1)-dimensional phase space in Darboux coordinates.

Coordinates are ordered ``(w, q1..qn, p1..pn)`` everywhere, including
serialized output, and a point is the sequence of its coordinate values in
that order.  The contact form is ``eta = dw - sum_a p_a dq^a``, the
Reeb field is ``xi = d/dw`` and the horizontal frame is

    Q_a = d/dq^a + p_a d/dw,      P^a = d/dp_a,

which satisfies the Heisenberg commutation relations ``[P^a, Q_b] = delta^a_b xi``.

Exterior-derivative convention: the antisymmetrization carries a factor 1/2,
so ``d_eta = -(1/2) sum_a (dp_a (x) dq^a - dq^a (x) dp_a)`` componentwise and
``d_eta(Q_a, P^a) = 1/2``.  Consequently the duals of the frame under the
flat map ``X -> eta(X) eta + i_X d_eta`` carry a factor 1/2 as well
(``i_{Q_a} d_eta = dp_a / 2``).

A :class:`CoordinateMap` pulls (0,1) and (0,2) fields back symbolically.
:func:`matmul` is ``@`` for arrays of expressions: it reads each row and
column once, skips their structurally zero entries (those that ``is
expr.ZERO``) and builds the very nodes numpy's object ``@`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr

__all__ = [
    "PhaseSpace",
    "TensorField",
    "CoordinateMap",
    "contact_form",
    "frame",
    "d_eta",
    "outer_11",
    "matmul",
    "sample_points",
]


@dataclass(frozen=True)
class PhaseSpace:
    """Phase space with ``n`` conjugate coordinate pairs (dimension ``2n+1``)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("phase space needs n >= 1 conjugate pairs")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def coord_names(self) -> tuple[str, ...]:
        n = self.n
        return ("w",) + tuple(f"q{a}" for a in range(1, n + 1)) + tuple(f"p{a}" for a in range(1, n + 1))

    def q_index(self, a: int) -> int:
        """Position of q^a (1-based a) in the coordinate ordering."""
        if not 1 <= a <= self.n:
            raise ValueError(f"index {a} out of range 1..{self.n}")
        return a

    def p_index(self, a: int) -> int:
        if not 1 <= a <= self.n:
            raise ValueError(f"index {a} out of range 1..{self.n}")
        return self.n + a


@dataclass(frozen=True, eq=False)
class TensorField:
    """Coordinate-component tensor field of valence (1,0), (0,1), (1,1) or (0,2).

    Components are :class:`Expr` values in an object array indexed over the
    coordinate ordering ``(w, q1..qn, p1..pn)``.  For valence (1,1) the first
    axis is the output (upper) index and the second the input (lower) index.
    """

    valence: tuple[int, int]
    comps: np.ndarray

    def __post_init__(self):
        if self.valence not in ((1, 0), (0, 1), (1, 1), (0, 2)):
            raise ValueError(f"unsupported valence {self.valence}")
        rank = sum(self.valence)
        if self.comps.ndim != rank:
            raise ValueError("component array rank does not match valence")
        if rank == 2 and self.comps.shape[0] != self.comps.shape[1]:
            raise ValueError("component array must be square")

    @property
    def dim(self) -> int:
        return self.comps.shape[0]

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2

    @cached_property
    def tape(self) -> expr.Tape:
        """The components, flattened in C order, compiled on first use against
        the coordinate order."""
        return expr.compile(self.comps.reshape(-1), PhaseSpace(self.n).coord_names())

    def evaluate(self, point) -> np.ndarray:
        """The components at ``point``, the sequence of its coordinate values
        ``(w, q1..qn, p1..pn)``, best as Python floats."""
        return np.array(self.tape.run(point), dtype=float).reshape(self.comps.shape)


def _obj(shape) -> np.ndarray:
    a = np.empty(shape, dtype=object)
    a.reshape(-1)[:] = expr.ZERO
    return a


def contact_form(space: PhaseSpace) -> TensorField:
    """The Darboux contact form ``eta = dw - sum_a p_a dq^a`` as a covector field."""
    comps = _obj(space.dim)
    comps[0] = expr.ONE
    for a in range(1, space.n + 1):
        comps[space.q_index(a)] = expr.neg(expr.var(f"p{a}"))
    return TensorField((0, 1), comps)


def frame(space: PhaseSpace) -> tuple[TensorField, ...]:
    """The Reeb field and horizontal frame ``(xi, Q_1..Q_n, P^1..P^n)``."""
    fields = []
    xi = _obj(space.dim)
    xi[0] = expr.ONE
    fields.append(TensorField((1, 0), xi))
    for a in range(1, space.n + 1):
        comps = _obj(space.dim)
        comps[space.q_index(a)] = expr.ONE
        comps[0] = expr.var(f"p{a}")
        fields.append(TensorField((1, 0), comps))
    for a in range(1, space.n + 1):
        comps = _obj(space.dim)
        comps[space.p_index(a)] = expr.ONE
        fields.append(TensorField((1, 0), comps))
    return tuple(fields)


def d_eta(space: PhaseSpace) -> TensorField:
    """Exterior derivative of the contact form under the 1/2 convention.

    The only nonzero components are ``[q^a, p_a] = +1/2`` and
    ``[p_a, q^a] = -1/2``; on the horizontal distribution this is the
    symplectic form of each contact plane.
    """
    comps = _obj((space.dim, space.dim))
    half = expr.const(0.5)
    for a in range(1, space.n + 1):
        comps[space.q_index(a), space.p_index(a)] = half
        comps[space.p_index(a), space.q_index(a)] = expr.const(-0.5)
    return TensorField((0, 2), comps)


def outer_11(alpha: TensorField, X: TensorField) -> TensorField:
    """The endomorphism ``alpha (x) X : Y -> alpha(Y) X`` as a (1,1) field."""
    if alpha.valence != (0, 1) or X.valence != (1, 0):
        raise ValueError("outer_11 expects a covector and a vector field")
    dim = alpha.dim
    comps = _obj((dim, dim))
    for c in range(dim):
        for b in range(dim):
            comps[c, b] = expr.mul(X.comps[c], alpha.comps[b])
    return TensorField((1, 1), comps)


def matmul(A, B):
    """``A @ B`` for 1-D or 2-D object arrays of :class:`Expr`, with numpy's
    shapes (two 1-D operands give the bare ``Expr``).

    Each entry folds ``acc = add(acc, mul(x, y))`` from ``ZERO`` over the
    contracted index in increasing order, only where neither factor is ZERO.
    Since ``mul(x, ZERO) is ZERO``, ``add(acc, ZERO) is acc`` and ``add(ZERO, p)
    is p``, that is numpy's ``(a0*b0 + a1*b1) + ...``, node for node."""
    ZERO, add, mul = expr.ZERO, expr.add, expr.mul
    A, B = np.asarray(A), np.asarray(B)
    if A.shape[-1] != B.shape[0]:
        raise ValueError(f"matmul: shapes {A.shape} and {B.shape} do not contract")
    rows = A.tolist() if A.ndim == 2 else [A.tolist()]
    cols = B.T.tolist() if B.ndim == 2 else [B.tolist()]
    rows = [[(j, x) for j, x in enumerate(row) if x is not ZERO] for row in rows]
    cols = [{j: y for j, y in enumerate(col) if y is not ZERO} for col in cols]
    out = []
    for row in rows:
        line = []
        for col in cols:
            acc = ZERO
            for j, x in row:
                y = col.get(j)
                if y is not None:
                    acc = add(acc, mul(x, y))
            line.append(acc)
        out.append(line)
    result = np.empty((len(rows), len(cols)), dtype=object)
    result[...] = out
    if B.ndim == 1:
        result = result[:, 0]
    return result[0] if A.ndim == 1 else result


@dataclass(frozen=True, eq=False)
class CoordinateMap:
    """A map into the phase space: ``exprs[i]``, an exact expression of the source
    coordinates ``coords``, is the image's i-th phase coordinate, and
    ``jacobian[i, j]`` its symbolic derivative by ``coords[j]``, so pullbacks are exact."""

    exprs: np.ndarray
    coords: tuple[str, ...]
    label: str = ""
    jacobian: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "jacobian", np.array(
            [[expr.differentiate(e, c) for c in self.coords] for e in self.exprs], dtype=object))

    @cached_property
    def tape(self) -> expr.Tape:
        """The image coordinates, compiled on first use."""
        return expr.compile(self.exprs, self.coords)

    def apply(self, point) -> list:
        """The image of ``point``, as a list of Python floats."""
        return self.tape.run(point)

    def pullback(self, T: TensorField) -> np.ndarray:
        """The symbolic components of ``T`` pulled back to ``coords``: ``J^T (T o phi)``
        for a (0,1) field and ``J^T (T o phi) J`` for a (0,2) field."""
        if T.valence not in ((0, 1), (0, 2)):
            raise ValueError(f"pullback expects a (0,1) or (0,2) tensor, got {T.valence}")
        env = dict(zip(PhaseSpace((len(self.exprs) - 1) // 2).coord_names(), self.exprs))
        moved = matmul(self.jacobian.T,
                       np.reshape(expr.substitute(T.comps.flat, env), T.comps.shape))
        return moved if T.valence == (0, 1) else matmul(moved, self.jacobian)


_SIGNS = np.array((-1.0, 1.0))


def sample_points(space: PhaseSpace, rng: np.random.Generator, count: int) -> list[list]:
    """Draw points with ``|q|, |p|`` in ``[0.5, 2]`` (random sign) and ``w`` in ``[-1, 1]``,
    each the list of its Python-float coordinates ``(w, q1..qn, p1..pn)``.

    Keeping the coordinates away from zero keeps sampled points off the
    ``Lambda = 0`` loci of the reciprocal structures.

    The points, and the state ``rng`` is left in, are those of drawing each
    point as ``rng.uniform(-1, 1)``, ``rng.uniform(0.5, 2, size=2n)`` and the
    signs ``(-1, 1)[rng.integers(0, 2, size=2n)]``, the draw ``rng.choice``
    makes.  They are decoded from one ``random_raw`` read of ``3n + 1`` words
    a point, which requires ``rng`` to run on ``np.random.PCG64``: a double
    is ``(word >> 11) * 2**-53``, and a sign is the top bit of a 32-bit half,
    low half first, after any half the generator holds, since numpy's
    bounded draw of ``integers(0, 2)`` is Lemire's ``(half * 2) >> 32``.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"sample_points decodes the PCG64 stream, not {type(bitgen).__name__}")
    if count <= 0:
        return []
    n = space.n
    words = bitgen.random_raw(count * (3 * n + 1)).reshape(count, 3 * n + 1)
    doubles = (words[:, :2 * n + 1] >> 11) * 2.0 ** -53
    ws = -1.0 + 2.0 * doubles[:, 0]
    mags = 0.5 + 1.5 * doubles[:, 1:]
    sign_words = words[:, 2 * n + 1:]
    bits = np.stack((sign_words >> 31 & 1, sign_words >> 63), axis=-1).ravel()
    state = bitgen.state  # random_raw leaves the held half alone
    if state["has_uint32"]:
        bits = np.append(np.uint64(state["uinteger"] >> 31), bits[:-1])
    state["uinteger"] = int(words[-1, -1] >> 32)
    bitgen.state = state
    return np.column_stack((ws, mags * _SIGNS[bits.reshape(count, 2 * n)])).tolist()
