"""Legendre submanifolds from fundamental relations.

A fundamental relation ``wbar(q^1..q^n)`` embeds its state space into the
phase space by the map ``embedding``, ``q -> (w = wbar(q), q, p = grad wbar(q))``,
which kills the pulled-back contact form identically.  The pullback of the
reflection metric onto the embedded submanifold is minus the Hessian of the
potential -- the classical Hessian metric of the equilibrium state space.

Potential transforms: ``legendre_potential`` replaces the coordinates of an
index set ``I`` (one coordinate is ``|I| = 1``) by their conjugates in one
transform: it solves ``p_I = grad_I wbar(q)`` for ``q_I`` numerically (damped,
box-safeguarded Newton on the I x I Hessian block) and returns a relation that
evaluates ``wbar - sum_{i in I} q^i p_i``.  Sign bookkeeping linking these numeric
transforms to the phase-space quarter-turn map: with the Darboux
identification ``q = (S, V), p = (T, -P)`` for ``eta = dU - T dS + P dV``,
the transformed patch coordinates relate to the quarter-turn image by
``T = -q'`` and ``S = p'``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
from .expr import Expr
from .hamiltonian import IndexSubset
from .phase_space import CoordinateMap

__all__ = [
    "FundamentalRelation",
    "TransformedRelation",
    "SystemCatalogEntry",
    "RootFindError",
    "embed",
    "legendre_potential",
    "involution_check",
    "catalog",
]


class RootFindError(RuntimeError):
    """Conjugate-variable inversion failed to converge or to bracket a root."""


def _guard_samples(domain, n) -> np.ndarray:
    """32 seeded points of the ``n``-coordinate box ``domain``, at which a transform
    checks that its block of the base Hessian is definite."""
    box = np.array(domain, dtype=float)
    rng = np.random.default_rng(170)
    return box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((32, n))


@dataclass(frozen=True)
class FundamentalRelation:
    """A potential ``wbar`` over named independent coordinates with a domain box.

    It keeps the transforms ``legendre_potential`` builds of it in ``_transforms``; they
    evaluate ``_numeric``, a copy of it with its tapes and guard Hessians but no
    transforms, so that no reference cycle keeps it from dying by reference counting."""

    potential: str
    coords: tuple[str, ...]
    wbar: Expr
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"duplicate coordinate names in {list(self.coords)}")
        if len(self.coords) != len(self.domain):
            raise ValueError("domain box must match the coordinate count")
        # the box also bounds the conjugate solves, so it must be a real box
        for c, (lo, hi) in zip(self.coords, self.domain):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"domain of '{c}' must be finite with lo < hi, got [{lo}, {hi}]")
        unknown = expr.free_variables(self.wbar) - set(self.coords)
        if unknown:
            raise ValueError(f"wbar uses unknown variables {sorted(unknown)}")

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def embedding(self) -> CoordinateMap:
        """The symbolic map ``q -> (wbar, q, grad wbar)`` from ``coords``, built on first use."""
        grad = [expr.differentiate(self.wbar, c) for c in self.coords]
        images = [self.wbar, *map(expr.var, self.coords), *grad]
        return CoordinateMap(np.array(images, dtype=object), self.coords, self.potential)

    # compiled against ``coords`` on first use and kept for the relation's
    # lifetime: the conjugate solves call gradient and hessian hundreds of
    # times (perfbench's conjugate_n4, 39 involution checks, makes 420 tape
    # runs, at most 70 on one tape, and one batched run per relation).  Each
    # reads ``qvals`` as Python floats in that order.
    @cached_property
    def _value_tape(self) -> expr.Tape:
        return expr.compile((self.wbar,), self.coords)

    @cached_property
    def _gradient_tape(self) -> expr.Tape:
        return expr.compile(self.embedding.exprs[self.n + 1:], self.coords)

    @cached_property
    def _hessian_tape(self) -> expr.Tape:
        return expr.compile(self.embedding.jacobian[self.n + 1:].reshape(-1), self.coords)

    def value(self, qvals) -> float:
        return self._value_tape.run(np.asarray(qvals, dtype=float).tolist())[0]

    def gradient(self, qvals) -> np.ndarray:
        return np.array(self._gradient_tape.run(np.asarray(qvals, dtype=float).tolist()))

    def hessian(self, qvals) -> np.ndarray:
        out = np.array(self._hessian_tape.run(np.asarray(qvals, dtype=float).tolist()),
                       dtype=float)
        return out.reshape(self.n, self.n)

    def contains(self, qvals) -> bool:
        return all(lo - 1e-9 <= v <= hi + 1e-9
                   for v, (lo, hi) in zip(qvals, self.domain))

    @cached_property
    def _guard_hessians(self) -> np.ndarray:
        """The Hessians at the guard samples, ``(32, n, n)``, in one batched tape run
        kept for every transform of this relation; each is ``hessian`` bit for bit,
        and a failing sample raises the first one's error, as ``hessian`` does."""
        rows = _guard_samples(self.domain, self.n)
        return self._hessian_tape.run_batch(rows).T.reshape(len(rows), self.n, self.n)

    @cached_property
    def _transforms(self) -> dict:
        return {}

    @cached_property
    def _numeric(self) -> FundamentalRelation:
        for name in ("_value_tape", "_gradient_tape", "_guard_hessians"):
            getattr(self, name)  # computed first, so that the copy shares them
        twin = copy.copy(self)
        twin.__dict__.pop("_transforms", None)
        return twin


class TransformedRelation:
    """Numeric relation: a fundamental relation with the coordinates of an index set
    replaced by their conjugates.  It is a leaf: ``legendre_potential`` refuses it.

    With ``I`` the transformed slots and ``R`` the rest, the base coordinates
    ``x*`` keep ``x*_R = u_R`` and solve ``grad_I wbar(x*) = u_I``.  Value and
    gradient come from the envelope identities ``F(u) = wbar(x*) - x*_I . u_I``,
    ``dF/du_I = -x*_I`` and ``dF/du_R = d wbar / dx_R``; the Hessian is one block
    Schur complement of the base Hessian.  This is the convex conjugate
    restricted to a block (Rockafellar, Convex Analysis, section 26).
    """

    def __init__(self, base, indices):
        I = IndexSubset.of(indices)
        I.validate(base.n)
        self.base, self.indices = base._numeric, I.indices
        self._I = np.array(I.indices) - 1
        self._II = np.ix_(self._I, self._I)
        self.potential = f"L{','.join(map(str, I))}[{base.potential}]"
        self.coords = tuple(f"{c}_dual" if k + 1 in I else c for k, c in enumerate(base.coords))
        self._lo, self._hi = np.array(base.domain, dtype=float)[self._I].T
        self._last = (None, None)
        # a non-finite block counts as indefinite (and would make eigvalsh raise); a
        # 1 x 1 block is its own eigenvalue, as LAPACK returns it
        blocks = self.base._guard_hessians[:, self._I[:, None], self._I]
        if not np.isfinite(blocks).all():
            eig = np.array([np.nan])
        else:
            eig = blocks if len(self._I) == 1 else np.linalg.eigvalsh(blocks)
        if not ((eig > 0.0).all() or (eig < 0.0).all()):
            names = ", ".join(repr(self.base.coords[k]) for k in self._I)
            raise ValueError(f"conjugate map of {names} is not monotone on the domain")

    @property
    def n(self) -> int:
        return self.base.n

    def _mismatch(self, q, target):
        """``grad_I wbar(q) - u_I``, or None where the base cannot be evaluated."""
        try:
            g = self.base.gradient(q)[self._I] - target
        except (expr.EvalError, OverflowError):
            return None
        return g if all(map(math.isfinite, g.tolist())) else None

    def _solve(self, u) -> np.ndarray:
        """Base coordinates ``x*`` at ``u``: damped Newton on ``phi(x_I) = s (wbar(x_I,
        u_R) - u_I . x_I)``, ``s`` the sign of the I-block, from the middle of the box.
        Steps are clipped to the box, which grows by its span (at most 60 times) only
        where the iterate is on its edge and the step points out; a step is halved
        while its end cannot be evaluated or does not reduce ``|grad phi|``; one that
        passes the size test ``|dx| <= 1e-12 (1 + |x|)`` is taken in full, within 100
        steps.  The last solve is kept, for ``embed`` asks for value and gradient at
        one point."""
        u = np.asarray(u, dtype=float)
        key = u.tobytes()
        if self._last[0] == key:
            return self._last[1]
        I, target, lo, hi = self._I, u[self._I], self._lo, self._hi
        q = u.copy()
        q[I] = x = 0.5 * (lo + hi)
        g = self._mismatch(q, target)
        if g is None:
            raise RootFindError(f"conjugate map not evaluable at {q.tolist()}")
        expansions = 0
        for _ in range(100):
            try:
                A = self.base.hessian(q)[self._II]
                if A.shape != (1, 1):
                    dx = -np.linalg.solve(A, g)
                elif A[0, 0] != 0.0:  # g / a is LAPACK's answer bit for bit, without numpy's calls
                    dx = -g / A[0, 0]
                else:
                    raise np.linalg.LinAlgError("Singular matrix")
            except (np.linalg.LinAlgError, expr.EvalError, OverflowError) as err:
                raise RootFindError(f"no Newton step at {q.tolist()}: {err}") from None
            steps = dx.tolist()
            if not all(map(math.isfinite, steps)):
                raise RootFindError(f"non-finite conjugate block at {q.tolist()}")
            new = x + dx
            ends = new.tolist()
            if all(abs(d) <= 1e-12 * (1.0 + abs(v)) for v, d in zip(ends, steps)):
                q[I] = new
                self._last = (key, q)
                return q
            if not all(a <= v <= b for a, v, b in zip(lo.tolist(), ends, hi.tolist())):
                down, up = (x <= lo) & (dx < 0.0), (x >= hi) & (dx > 0.0)
                if (down | up).any():
                    expansions += 1
                    if expansions > 60:
                        raise RootFindError("could not bracket the conjugate-variable root")
                    lo, hi = lo - down * (hi - lo), hi + up * (hi - lo)
                new = np.clip(new, lo, hi)
            size = g @ g
            for _ in range(60):
                q[I] = new
                g_new = self._mismatch(q, target)
                if g_new is not None and g_new @ g_new < size:
                    break
                new = 0.5 * (x + new)
            else:
                raise RootFindError(f"damped Newton step made no progress at {q.tolist()}")
            x, g = new, g_new
        raise RootFindError("inversion did not converge within 100 iterations")

    def value(self, qvals) -> float:
        qstar = self._solve(qvals)
        u = np.asarray(qvals, dtype=float)
        return self.base.value(qstar) - float(qstar[self._I] @ u[self._I])

    def gradient(self, qvals) -> np.ndarray:
        qstar = self._solve(qvals)
        grad = self.base.gradient(qstar)
        grad[self._I] = -qstar[self._I]
        return grad

    def hessian(self, qvals) -> np.ndarray:
        """Block Schur complement: ``-A^-1`` on I x I, ``A^-1 B`` across and
        ``C - B^T A^-1 B`` on the rest, for the base Hessian ``[[A, B], [B^T, C]]``."""
        H = self.base.hessian(self._solve(qvals))
        try:
            A_inv = np.linalg.inv(H[self._II])
        except np.linalg.LinAlgError:
            A_inv = None
        if A_inv is None or not np.isfinite(A_inv).all():
            raise RootFindError(f"singular or non-finite conjugate block at {qvals}")
        M = H[:, self._I] @ A_inv  # (A^-1 H_I.)^T: identity on I, B^T A^-1 on R
        out = H - M @ H[self._I, :]
        out[self._I, :] = M.T
        out[:, self._I] = M
        out[self._II] = -A_inv
        return 0.5 * (out + out.T)  # exactly symmetric, as the Hessian of a relation is


def embed(rel, qvals) -> list:
    """Embedding point ``(w = wbar(q), q, p = grad wbar(q))`` of the relation, the
    list of its Python-float coordinates."""
    qvals = np.asarray(qvals, dtype=float)
    if qvals.shape != (rel.n,):
        raise ValueError(f"expected {rel.n} coordinates")
    if isinstance(rel, FundamentalRelation) and not rel.contains(qvals):
        raise ValueError(f"point {qvals.tolist()} outside the domain of '{rel.potential}'")
    w = rel.value(qvals)
    p = rel.gradient(qvals)
    if not (np.isfinite(w) and np.all(np.isfinite(p))):
        raise ValueError("non-finite potential value or gradient")
    return [float(w), *qvals.tolist(), *p.tolist()]


def legendre_potential(rel: FundamentalRelation, indices) -> TransformedRelation:
    """Replace the coordinates of ``indices`` of the fundamental relation ``rel`` by
    their conjugates, in one transform; any other ``rel`` raises ``TypeError``.

    ``indices`` is one coordinate -- a 1-based position or a name -- or an index
    set of them (an ``IndexSubset`` or any iterable).  The returned relation
    evaluates ``wbar - sum_{i in I} q^i p_i`` numerically; its own gradient
    carries the quarter-turn sign rules (the new conjugate of a transformed
    slot is minus the old coordinate).

    ``rel`` keeps the transform it returns, one for each index set however it
    is spelled; a transform whose monotonicity guard fails is not kept, so
    every call for it raises.
    """
    if not isinstance(rel, FundamentalRelation):
        raise TypeError(f"only a FundamentalRelation is transformed, not a {type(rel).__name__}")
    if isinstance(indices, (int, np.integer, str)):
        indices = (indices,)
    positions = []
    for i in indices:
        if isinstance(i, str):
            if i not in rel.coords:
                raise ValueError(f"no coordinate named {i!r}")
            i = rel.coords.index(i) + 1
        positions.append(int(i))
    key = IndexSubset.of(positions).indices
    found = rel._transforms.get(key)
    if found is None:
        found = rel._transforms[key] = TransformedRelation(rel, key)
    return found


def _legendre_point(I: IndexSubset, x) -> list:
    """The partial Legendre map of ``I`` at the point ``x``, a list of Python floats
    equal bit for bit to its row of :func:`hamiltonian.legendre_rows`: ``w`` takes
    ``- q^i p_i`` for each ``i`` of ``I`` in increasing ``i``, from the original ``q``
    and ``p``; then ``q_i`` becomes ``-p_i`` and ``p_i`` becomes ``q_i``.  One case
    is only NaN on both sides: a ``w`` that takes the product of a NaN ``q^i`` and a
    NaN ``p_i``, since IEEE 754 leaves open which operand's NaN that product returns."""
    n = (len(x) - 1) // 2
    y = list(x)
    for i in I:
        y[0] -= x[i] * x[n + i]
        y[i] = -x[n + i]
        y[n + i] = x[i]
    return y


def involution_check(rel, I: IndexSubset, qvals) -> float:
    """Residual of: quarter-turn image of the submanifold lies on the transformed one.

    The embedding image under the partial Legendre map of ``I``
    (:func:`_legendre_point`) is compared against the embedding of the
    numerically transformed relation through the sign dictionary
    ``q'_i = -u_i, p'_i = -v_i`` on transformed slots (identity on the rest),
    where ``(u, v)`` are the transformed relation's coordinates and conjugates.
    """
    I = I if isinstance(I, IndexSubset) else IndexSubset.of(I)
    n = rel.n
    I.validate(n)
    y = _legendre_point(I, embed(rel, qvals))
    signs = [-1.0 if i in I else 1.0 for i in range(1, n + 1)]
    z = embed(legendre_potential(rel, I), [s * v for s, v in zip(signs, y[1:n + 1])])
    dp = max(abs(a - s * b) for a, s, b in zip(y[n + 1:], signs, z[n + 1:]))
    return max(abs(y[0] - z[0]), dp)


@dataclass(frozen=True)
class SystemCatalogEntry:
    """A named fundamental relation with its validity box."""

    id: str
    relation: FundamentalRelation


def catalog() -> tuple[SystemCatalogEntry, ...]:
    """Built-in relations: an exact quadratic, an ideal gas, and a van der Waals form.

    Units are suppressed and material constants normalized to 1; the latter
    two are modeling choices for smoke tests, not measured values.
    """
    quadratic = FundamentalRelation(
        "quadratic", ("x1", "x2"),
        expr.parse("0.5*(x1^2 + x2^2)"),
        ((-2.0, 2.0), (-2.0, 2.0)),
    )
    ideal_gas = FundamentalRelation(
        "U", ("S", "V"),
        expr.parse("exp(S)*V^(-2/3)"),
        ((0.5, 2.0), (0.5, 2.0)),
    )
    van_der_waals = FundamentalRelation(
        "F", ("T", "V"),
        expr.parse("1.5*T - 1/V - T*log(V - 1) - 1.5*T*log(T)"),
        ((0.5, 2.0), (1.5, 3.0)),
    )
    return (
        SystemCatalogEntry("quadratic", quadratic),
        SystemCatalogEntry("ideal_gas", ideal_gas),
        SystemCatalogEntry("van_der_waals", van_der_waals),
    )


def load_catalog(path) -> tuple[SystemCatalogEntry, ...]:
    """Load relations from a block-format file.

    Each block carries ``potential = "<name>"``, ``coords = ["S","V"]``,
    ``wbar = "<expr>"``, ``domain = [[lo,hi],...]`` and an optional ``id``;
    any other key is an error.
    """
    from ._config import parse_blocks, typed

    with open(path, encoding="utf-8") as fh:
        blocks = parse_blocks(fh.read())
    entries = []
    for block in blocks:
        for key in block:
            if key not in ("potential", "coords", "wbar", "domain", "id"):
                raise ValueError(f"unknown catalog key '{key}'")
        missing = {"potential", "coords", "wbar", "domain"} - set(block)
        if missing:
            raise ValueError(f"catalog block is missing {sorted(missing)}")
        rel = FundamentalRelation(
            typed(block, "potential", "a string"),
            tuple(typed(block, "coords", "a list of strings")),
            expr.parse(typed(block, "wbar", "a string")),
            tuple((float(lo), float(hi))
                  for lo, hi in typed(block, "domain", "a list of [lo, hi] number pairs")),
        )
        entry_id = typed(block, "id", "a string") if "id" in block else rel.potential
        entries.append(SystemCatalogEntry(entry_id, rel))
    return tuple(entries)
