"""Legendre submanifolds from fundamental relations.

A fundamental relation ``wbar(q^1..q^n)`` embeds its state space into the
phase space as ``q -> (w = wbar(q), q, p = grad wbar(q))``, which kills the
pulled-back contact form identically.  The pullback of the reflection metric
onto the embedded submanifold is minus the Hessian of the potential -- the
classical Hessian metric of the equilibrium state space.

Potential transforms: ``legendre_potential`` replaces one independent
coordinate by its conjugate, inverting ``p_i = d wbar / d q^i`` numerically
(safeguarded Newton with bisection fallback) and returning a relation that
evaluates ``wbar - q^i p_i``.  Sign bookkeeping linking these numeric
transforms to the phase-space quarter-turn map: with the Darboux
identification ``q = (S, V), p = (T, -P)`` for ``eta = dU - T dS + P dV``,
the transformed patch coordinates relate to the quarter-turn image by
``T = -q'`` and ``S = p'``.
"""

from __future__ import annotations

import itertools
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
    "hessian",
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
        if len(self.coords) != len(self.domain):
            raise ValueError("domain box must match the coordinate count")
        unknown = expr.free_variables(self.wbar) - set(self.coords)
        if unknown:
            raise ValueError(f"wbar uses unknown variables {sorted(unknown)}")

    @property
    def n(self) -> int:
        return len(self.coords)

    def _bindings(self, qvals) -> dict[str, float]:
        return dict(zip(self.coords, map(float, qvals)))

    # compiled on first use and kept for the relation's lifetime: the conjugate
    # solves call gradient and hessian tens of thousands of times
    @cached_property
    def _value_tape(self) -> expr.Tape:
        return expr.compile((self.wbar,))

    @cached_property
    def _gradient_tape(self) -> expr.Tape:
        return expr.compile([expr.differentiate(self.wbar, c) for c in self.coords])

    @cached_property
    def _hessian_tape(self) -> expr.Tape:
        firsts = [expr.differentiate(self.wbar, c) for c in self.coords]
        return expr.compile([expr.differentiate(di, cj) for di in firsts for cj in self.coords])

    def value(self, qvals) -> float:
        return self._value_tape.run(self._bindings(qvals))[0]

    def gradient(self, qvals) -> np.ndarray:
        return np.array(self._gradient_tape.run(self._bindings(qvals)))

    def hessian(self, qvals) -> np.ndarray:
        out = np.array(self._hessian_tape.run(self._bindings(qvals)), dtype=float)
        return out.reshape(self.n, self.n)

    def contains(self, qvals, tol: float = 1e-9) -> bool:
        return all(lo - tol <= v <= hi + tol
                   for v, (lo, hi) in zip(qvals, self.domain))


def _invert_monotone(fun, dfun, target: float, lo: float, hi: float,
                     tol: float = 1e-12, max_iter: int = 100) -> float:
    """Solve ``fun(x) = target`` for a monotone ``fun`` on an expandable bracket."""

    def shifted(x):
        try:
            v = fun(x) - target
        except (expr.EvalError, OverflowError) as err:
            raise RootFindError(f"conjugate map not evaluable at {x}: {err}") from None
        if not np.isfinite(v):
            raise RootFindError(f"conjugate map not finite at {x}")
        return v

    flo, fhi = shifted(lo), shifted(hi)
    span = hi - lo
    expansions = 0
    while flo * fhi > 0.0:
        if expansions >= 60:
            raise RootFindError("could not bracket the conjugate-variable root")
        lo -= span
        hi += span
        span = hi - lo
        flo, fhi = shifted(lo), shifted(hi)
        expansions += 1
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f = shifted(x)
        if f == 0.0:
            return x
        if f * flo < 0.0:
            hi = x
        else:
            lo, flo = x, f
        d = dfun(x)
        step_ok = d != 0.0
        if step_ok:
            x_new = x - f / d
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tol * (1.0 + abs(x_new)):
            return x_new
        x = x_new
    raise RootFindError(f"inversion did not converge within {max_iter} iterations")


class TransformedRelation:
    """Numeric relation with one coordinate replaced by its conjugate.

    Value and gradient come from the envelope identities
    ``F(u) = wbar(q*) - q*_i u_i`` and ``dF/du_i = -q*_i``; the Hessian is the
    Schur-complement update of the base Hessian, so repeated transforms nest.
    """

    def __init__(self, base, index: int):
        if not 1 <= index <= base.n:
            raise ValueError(f"index {index} out of range 1..{base.n}")
        self.base = base
        self.index = index
        self._i = index - 1
        self.potential = f"L{index}[{base.potential}]"
        self.coords = tuple(f"{c}_dual" if k == self._i else c
                            for k, c in enumerate(base.coords))
        self._check_monotone()
        self.domain = self._estimate_domain()

    @property
    def n(self) -> int:
        return self.base.n

    def _check_monotone(self, samples: int = 32):
        rng = np.random.default_rng(170)
        lo = np.array([d[0] for d in self.base.domain])
        hi = np.array([d[1] for d in self.base.domain])
        pts = lo + (hi - lo) * rng.random((samples, self.n))
        signs = set()
        for row in pts:
            signs.add(np.sign(self.base.hessian(row)[self._i, self._i]))
        if len(signs) != 1 or 0.0 in signs:
            raise ValueError(
                f"conjugate map of '{self.base.coords[self._i]}' is not monotone on the domain")

    def _estimate_domain(self):
        # corner grid plus random interior samples; the i-slot becomes the
        # observed range of the conjugate variable
        lo = np.array([d[0] for d in self.base.domain])
        hi = np.array([d[1] for d in self.base.domain])
        rng = np.random.default_rng(171)
        pts = [lo + (hi - lo) * rng.random(self.n) for _ in range(32)]
        pts.extend(np.array(c) for c in itertools.product(*self.base.domain))
        vals = [self.base.gradient(p)[self._i] for p in pts]
        new = list(self.base.domain)
        new[self._i] = (float(min(vals)), float(max(vals)))
        return tuple(new)

    def _solve(self, qvals) -> np.ndarray:
        """Recover base coordinates: invert the conjugate map in slot ``i``."""
        qvals = np.asarray(qvals, dtype=float)
        target = qvals[self._i]
        lo, hi = self.base.domain[self._i]
        rest = qvals.copy()

        def fun(x):
            rest[self._i] = x
            return self.base.gradient(rest)[self._i]

        def dfun(x):
            rest[self._i] = x
            return self.base.hessian(rest)[self._i, self._i]

        root = _invert_monotone(fun, dfun, target, lo, hi)
        rest[self._i] = root
        return rest

    def value(self, qvals) -> float:
        qstar = self._solve(qvals)
        return self.base.value(qstar) - qstar[self._i] * float(np.asarray(qvals)[self._i])

    def gradient(self, qvals) -> np.ndarray:
        qstar = self._solve(qvals)
        grad = self.base.gradient(qstar)
        grad[self._i] = -qstar[self._i]
        return grad

    def hessian(self, qvals) -> np.ndarray:
        qstar = self._solve(qvals)
        H = self.base.hessian(qstar)
        i = self._i
        hii = H[i, i]
        out = H - np.outer(H[:, i], H[i, :]) / hii
        out[i, :] = H[i, :] / hii
        out[:, i] = H[:, i] / hii
        out[i, i] = -1.0 / hii
        return out

    def contains(self, qvals, tol: float = 1e-9) -> bool:
        return all(lo - tol <= v <= hi + tol
                   for v, (lo, hi) in zip(qvals, self.domain))


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
    return PhasePoint(float(w), tuple(qvals), tuple(p))


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


def hessian(rel, qvals) -> np.ndarray:
    """Second derivatives of the potential at ``qvals`` (exact for symbolic relations)."""
    qvals = np.asarray(qvals, dtype=float)
    return rel.hessian(qvals)


def legendre_potential(rel, index) -> TransformedRelation:
    """Replace coordinate ``index`` (1-based position or name) by its conjugate.

    The returned relation evaluates ``wbar - q^i p_i`` numerically; its own
    gradient carries the quarter-turn sign rules (the new conjugate of the
    transformed slot is minus the old coordinate).
    """
    if isinstance(index, str):
        try:
            index = rel.coords.index(index) + 1
        except ValueError:
            raise ValueError(f"no coordinate named {index!r}") from None
    return TransformedRelation(rel, int(index))


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

    transformed = rel
    for i in I:
        transformed = legendre_potential(transformed, i)
    u = np.array([-y.q[i - 1] if i in I else y.q[i - 1] for i in range(1, rel.n + 1)])
    z = embed(transformed, u)

    residual = abs(y.w - z.w)
    for i in range(1, rel.n + 1):
        expected_p = -z.p[i - 1] if i in I else z.p[i - 1]
        residual = max(residual, abs(y.p[i - 1] - expected_p))
    return float(residual)


@dataclass(frozen=True)
class SystemCatalogEntry:
    """A named fundamental relation with its validity box."""

    id: str
    relation: FundamentalRelation

    @property
    def domain(self):
        return self.relation.domain


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
    ``wbar = "<expr>"``, ``domain = [[lo,hi],...]`` and an optional ``id``.
    """
    from ._config import parse_blocks

    with open(path, encoding="utf-8") as fh:
        blocks = parse_blocks(fh.read())
    entries = []
    for block in blocks:
        missing = {"potential", "coords", "wbar", "domain"} - set(block)
        if missing:
            raise ValueError(f"catalog block is missing {sorted(missing)}")
        rel = FundamentalRelation(
            str(block["potential"]),
            tuple(block["coords"]),
            expr.parse(block["wbar"]),
            tuple((float(lo), float(hi)) for lo, hi in block["domain"]),
        )
        entries.append(SystemCatalogEntry(str(block.get("id", rel.potential)), rel))
    return tuple(entries)
