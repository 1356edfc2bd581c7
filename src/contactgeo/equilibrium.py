"""Legendre submanifolds from fundamental relations.

A fundamental relation ``wbar(q^1..q^n)`` embeds its state space into the
phase space as ``q -> (w = wbar(q), q, p = grad wbar(q))``, which kills the
pulled-back contact form identically.  The pullback of the reflection metric
onto the embedded submanifold is minus the Hessian of the potential -- the
classical Hessian metric of the equilibrium state space.

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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr
from .expr import Expr
from .hamiltonian import IndexSubset, partial_legendre
from .metrics import Metric
from .phase_space import PhasePoint

__all__ = [
    "FundamentalRelation",
    "TransformedRelation",
    "SystemCatalogEntry",
    "RootFindError",
    "embed",
    "embedding_jacobian",
    "pullback_metric_on_E",
    "legendre_potential",
    "involution_check",
    "catalog",
]


class RootFindError(RuntimeError):
    """Conjugate-variable inversion failed to converge or to bracket a root."""


@dataclass(frozen=True)
class FundamentalRelation:
    """A potential ``wbar`` over named independent coordinates with a domain box."""

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

    # compiled against ``coords`` on first use and kept for the relation's
    # lifetime: the conjugate solves call gradient and hessian tens of
    # thousands of times.  Each reads ``qvals`` as Python floats in that order.
    @cached_property
    def _value_tape(self) -> expr.Tape:
        return expr.compile((self.wbar,), self.coords)

    @cached_property
    def _gradient_tape(self) -> expr.Tape:
        return expr.compile([expr.differentiate(self.wbar, c) for c in self.coords], self.coords)

    @cached_property
    def _hessian_tape(self) -> expr.Tape:
        firsts = [expr.differentiate(self.wbar, c) for c in self.coords]
        return expr.compile([expr.differentiate(di, cj) for di in firsts for cj in self.coords],
                            self.coords)

    def value(self, qvals) -> float:
        return self._value_tape.run(np.asarray(qvals, dtype=float).tolist())[0]

    def gradient(self, qvals) -> np.ndarray:
        return np.array(self._gradient_tape.run(np.asarray(qvals, dtype=float).tolist()))

    def hessian(self, qvals) -> np.ndarray:
        out = np.array(self._hessian_tape.run(np.asarray(qvals, dtype=float).tolist()),
                       dtype=float)
        return out.reshape(self.n, self.n)

    def contains(self, qvals, tol: float = 1e-9) -> bool:
        return all(lo - tol <= v <= hi + tol
                   for v, (lo, hi) in zip(qvals, self.domain))


class TransformedRelation:
    """Numeric relation with the coordinates of an index set replaced by their conjugates.

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
        self.base, self.indices = base, I.indices
        self._I = np.array(I.indices) - 1
        self._II = np.ix_(self._I, self._I)
        self.potential = f"L{','.join(map(str, I))}[{base.potential}]"
        self.coords = tuple(f"{c}_dual" if k + 1 in I else c for k, c in enumerate(base.coords))
        self._lo, self._hi = np.array(base.domain, dtype=float)[self._I].T
        self._last = (None, None)
        self.domain = self._probe()

    @property
    def n(self) -> int:
        return self.base.n

    def _probe(self, samples: int = 32):
        """Check at seeded samples that the I-block of the base Hessian is definite,
        and return the domain whose transformed slots are the ranges of their
        conjugates over those samples and the corners of the box."""
        box = np.array(self.base.domain, dtype=float)
        rng = np.random.default_rng(170)
        pts = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((samples, self.n))
        blocks = np.array([self.base.hessian(p)[self._II] for p in pts])
        # a non-finite block counts as indefinite (and would make eigvalsh raise)
        eig = np.linalg.eigvalsh(blocks) if np.isfinite(blocks).all() else np.array([np.nan])
        if not ((eig > 0.0).all() or (eig < 0.0).all()):
            names = ", ".join(repr(self.base.coords[k]) for k in self._I)
            raise ValueError(f"conjugate map of {names} is not monotone on the domain")
        pts = np.vstack([pts, list(itertools.product(*self.base.domain))])
        vals = np.array([self.base.gradient(p)[self._I] for p in pts])
        domain = list(self.base.domain)
        for k, lo, hi in zip(self._I, vals.min(axis=0), vals.max(axis=0)):
            domain[k] = (float(lo), float(hi))
        return tuple(domain)

    def _mismatch(self, q, target):
        """``grad_I wbar(q) - u_I``, or None where the base cannot be evaluated."""
        try:
            g = self.base.gradient(q)[self._I] - target
        except (expr.EvalError, OverflowError, RootFindError):
            return None
        return g if all(map(math.isfinite, g)) else None

    def _solve(self, u, tol: float = 1e-12, max_iter: int = 100) -> np.ndarray:
        """Base coordinates ``x*`` at ``u``: damped Newton on ``phi(x_I) = s (wbar(x_I,
        u_R) - u_I . x_I)``, ``s`` the sign of the I-block, from the middle of the box.
        Steps are clipped to the box, which grows by its span (at most 60 times) only
        where the iterate is on its edge and the step points out; a step is halved
        while its end cannot be evaluated or does not reduce ``|grad phi|``; one that
        passes the size test is taken in full.  The last solve is kept, for ``embed``
        asks for value and gradient at one point."""
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
        for _ in range(max_iter):
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
            if not all(map(math.isfinite, dx)):
                raise RootFindError(f"non-finite conjugate block at {q.tolist()}")
            new = x + dx
            if all(abs(d) <= tol * (1.0 + abs(v)) for v, d in zip(new, dx)):
                q[I] = new
                self._last = (key, q)
                return q
            if not all(a <= v <= b for a, v, b in zip(lo, new, hi)):
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
        raise RootFindError(f"inversion did not converge within {max_iter} iterations")

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
        A = H[self._II]
        if A.shape == (1, 1):  # 1 / a is LAPACK's inverse bit for bit
            A_inv = 1.0 / A if A[0, 0] != 0.0 else None
        else:
            try:
                A_inv = np.linalg.inv(A)
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


def embed(rel, qvals) -> PhasePoint:
    """Embedding point ``(w = wbar(q), q, p = grad wbar(q))`` of the relation."""
    qvals = np.asarray(qvals, dtype=float)
    if qvals.shape != (rel.n,):
        raise ValueError(f"expected {rel.n} coordinates")
    if isinstance(rel, FundamentalRelation) and not rel.contains(qvals):
        raise ValueError(f"point {qvals.tolist()} outside the domain of '{rel.potential}'")
    w = rel.value(qvals)
    p = rel.gradient(qvals)
    if not (np.isfinite(w) and np.all(np.isfinite(p))):
        raise ValueError("non-finite potential value or gradient")
    return PhasePoint(float(w), tuple(qvals.tolist()), tuple(p.tolist()))


def embedding_jacobian(rel, qvals) -> np.ndarray:
    """d(embedding)/dq: rows are (dw, dq^1..dq^n, dp_1..dp_n) against the q's."""
    qvals = np.asarray(qvals, dtype=float)
    J = np.zeros((2 * rel.n + 1, rel.n))
    J[0, :] = rel.gradient(qvals)
    J[1:rel.n + 1, :] = np.eye(rel.n)
    J[rel.n + 1:, :] = rel.hessian(qvals)
    return J


def pullback_metric_on_E(rel, metric: Metric, qvals) -> np.ndarray:
    """``J^T g(psi(q)) J`` of a phase-space metric onto the equilibrium space.

    For the reflection metric this equals minus the Hessian of ``wbar``.
    """
    if not metric.is_metric:
        raise ValueError(f"{metric.kind} is not a metric")
    x = embed(rel, qvals)
    J = embedding_jacobian(rel, qvals)
    return J.T @ metric.tensor.evaluate(x) @ J


def legendre_potential(rel, indices) -> TransformedRelation:
    """Replace the coordinates of ``indices`` by their conjugates, in one transform.

    ``indices`` is one coordinate -- a 1-based position or a name -- or an index
    set of them (an ``IndexSubset`` or any iterable).  The returned relation
    evaluates ``wbar - sum_{i in I} q^i p_i`` numerically; its own gradient
    carries the quarter-turn sign rules (the new conjugate of a transformed
    slot is minus the old coordinate).
    """
    if isinstance(indices, (int, np.integer, str)):
        indices = (indices,)
    positions = []
    for i in indices:
        if isinstance(i, str):
            if i not in rel.coords:
                raise ValueError(f"no coordinate named {i!r}")
            i = rel.coords.index(i) + 1
        positions.append(int(i))
    return TransformedRelation(rel, positions)


def involution_check(rel, I: IndexSubset, qvals) -> float:
    """Residual of: quarter-turn image of the submanifold lies on the transformed one.

    The embedding image under ``partial_legendre(I)`` is compared against the
    embedding of the numerically transformed relation through the sign
    dictionary ``q'_i = -u_i, p'_i = -v_i`` on transformed slots (identity on
    the rest), where ``(u, v)`` are the transformed relation's coordinates and
    conjugates.
    """
    I = I if isinstance(I, IndexSubset) else IndexSubset.of(I)
    I.validate(rel.n)
    y = partial_legendre(I, embed(rel, qvals))
    signs = np.array([-1.0 if i in I else 1.0 for i in range(1, rel.n + 1)])
    z = embed(legendre_potential(rel, I), signs * np.array(y.q))
    return float(max(abs(y.w - z.w), np.max(np.abs(np.array(y.p) - signs * np.array(z.p)))))


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
