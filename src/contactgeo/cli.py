"""Batch front-end: verification suites, curvature, flows, pullbacks.

Reports are JSON lines, one record per check plus a summary record, printed
with 17 significant digits.  Given the same configuration and seed the
serialized report is byte-identical across runs (timing goes to stderr, never
into the records).  Exit codes: 0 all checks passed, 1 at least one failed,
2 configuration, parse or evaluation error (one ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import sys
import time
import zlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import calculus, equilibrium, expr, tables
from ._config import parse_flat, typed
from .calculus import lie_bracket, lie_derivative
from .hamiltonian import (IndexSubset, closed_form_commutator, generator_commutator,
                          hamiltonian_vector_field, integrate_flow,
                          legendre_map, legendre_rows,
                          random_polynomial_hamiltonian, rotation_flow,
                          rotation_generator, scaling_generator, scaling_map)
from .metrics import Metric, metric_from_structure
from .phase_space import (TensorField, contact_form, coord_names, d_eta, frame, matmul,
                          outer_11, sample_points)
from .structures import (MetricKind, build_structure, lambda_legendre_residual,
                         product_lambda, scaling_residuals, structure_identities)

__all__ = ["main", "run_suite", "RunConfig", "CheckRecord", "Report"]


# ---------------------------------------------------------------------------
# report plumbing

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError(f"cannot write the non-finite value {float(v)} as JSON")
        return f"{float(v):.17g}"
    if isinstance(v, str):
        import json
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(x) for x in v) + "]"
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dump_record(record: dict) -> str:
    return "{" + ",".join(f"{_fmt(k)}:{_fmt(v)}" for k, v in record.items()) + "}"


@dataclass
class CheckRecord:
    """One verification check: identity anchor, residual, tolerance, verdict."""

    check: str
    anchor: str
    max_residual: float
    tolerance: float
    points: int
    mode: str = "max"  # "max": pass if residual <= tol; "min": pass if residual > tol
    wall_time: float = 0.0  # seconds; deliberately excluded from serialization

    @property
    def passed(self) -> bool:
        if self.mode == "max":
            return self.max_residual <= self.tolerance
        return self.max_residual > self.tolerance

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "anchor": self.anchor,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "passed": self.passed,
            "points": self.points,
        }


@dataclass
class Report:
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def lines(self, config: "RunConfig") -> list[str]:
        lines = [dump_record(c.to_record()) for c in sorted(self.checks, key=lambda c: c.check)]
        lines.append(dump_record({
            "check": "summary",
            "suite": config.suite,
            "n": config.n,
            "m": config.m,
            "seed": config.seed,
            "points": config.points,
            "checks": len(self.checks),
            "failures": self.failures,
            "passed": self.failures == 0,
        }))
        return lines


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """The inputs of one ``verify`` run, each checked when the config is built.

    ``lam``, the scaling family as a tuple of ``n`` expressions, is the product
    family unless given.  ``catalog`` holds the relations the run walks, the
    built-in ones first; built once per run, so every check walks the same
    relations and reuses their compiled tapes.
    """

    suite: str = "all"
    n: int = 2
    m: int = 1
    seed: int = 0
    points: int = 50
    lam: tuple[expr.Expr, ...] | None = None
    catalog: tuple[equilibrium.SystemCatalogEntry, ...] = field(
        default_factory=equilibrium.catalog)
    _metrics: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.suite != "all" and self.suite not in _CHECKS:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.n < 1:
            raise ConfigError(f"n={self.n} must be at least 1")
        if not 1 <= self.m <= self.n:
            raise ConfigError(f"m={self.m} must satisfy 1 <= m <= n={self.n}")
        if self.points < 1:
            raise ConfigError(f"points={self.points} must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be at least 0")
        lam = product_lambda(self.n) if self.lam is None else self.lam
        if len(lam) != self.n:
            raise ConfigError(f"lambda family has {len(lam)} entries, need {self.n}")
        free = set().union(*map(expr.free_variables, lam))
        unbound = sorted(free - set(coord_names(self.n)))
        if unbound:
            raise ConfigError(f"unbound variable '{unbound[0]}'")
        object.__setattr__(self, "lam", lam)

    def metric(self, kind: MetricKind, n: int, lam: tuple[expr.Expr, ...] | None = None) -> Metric:
        """The ``kind`` metric on ``n`` pairs, built on first use: the run's checks
        share it, so its symbolic work is done once per run and dies with it.  Only
        the two scaled kinds read the family ``lam``; the others ignore it."""
        if kind not in (MetricKind.LAMBDA, MetricKind.LAMBDA_BAR):
            lam = None
        key = (n, kind, lam)
        if key not in self._metrics:
            self._metrics[key] = metric_from_structure(n, kind, lam)
        return self._metrics[key]

    def rng(self, check_id: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])


# ---------------------------------------------------------------------------
# checks: one declared table, one runner

@dataclass(frozen=True)
class Check:
    """One verification check, declared as data.

    ``residuals(cfg, rng)`` yields blocks of the cases the record counts: case
    ``j`` of a block is its item ``j``, a number or a flat array of numbers.
    ``_run_check`` reduces each case to its largest absolute value and the
    cases with ``max`` (``min`` for ``mode="min"``).
    """

    id: str
    anchor: str
    tolerance: float
    residuals: Callable[[RunConfig, np.random.Generator], Iterable]
    mode: str = "max"


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def _worst(block) -> list[float]:
    """The largest absolute value of each case in ``block``; np.max propagates
    NaN, so a case holding a non-finite value gives a non-finite one."""
    return np.abs(np.asarray(block, float)).reshape(len(block), -1).max(axis=1).tolist()


def _run_check(check: Check, cfg: RunConfig) -> CheckRecord:
    """Draw from the check's own stream, reduce its residuals, and time it."""
    t0 = time.perf_counter()
    reduce = min if check.mode == "min" else max
    extremes, cases = [], 0  # one value per block, so memory does not grow with the cases
    for block in check.residuals(cfg, cfg.rng(check.id)):
        rows = _worst(block)
        if not all(map(math.isfinite, rows)):
            first = next(k for k, v in enumerate(rows, cases + 1) if not math.isfinite(v))
            raise expr.EvalError(f"check {check.id}: non-finite residual in case {first}")
        if rows:
            extremes.append(reduce(rows))
        cases += len(rows)
    return CheckRecord(check.id, check.anchor, reduce(extremes), check.tolerance, cases,
                       check.mode, time.perf_counter() - t0)


def _differences(coords, pairs, rows) -> np.ndarray:
    """One case per row of coordinate values: ``lhs - rhs`` for every component of every
    ``(lhs, rhs)`` pair of symbolic arrays, compiled against ``coords`` and run as one block."""
    diffs = [expr.sub(a, b) for lhs, rhs in pairs for a, b in np.broadcast(lhs, rhs)]
    return expr.compile(diffs, coords).run_batch(rows).T


def _sample_rows(n: int, rng, count: int, *metrics: Metric) -> list[list]:
    """``count`` sampled points on ``n`` pairs, one row of coordinate values per point,
    each checked by ``calculus.require_nonsingular`` for every metric, in point order."""
    points = sample_points(n, rng, count)
    for pt in points:
        for metric in metrics:
            calculus.require_nonsingular(metric, pt)
    return points


def _subset_masks(n: int) -> np.ndarray:
    """The membership rows of the non-empty index sets of ``1..n``, by size and
    within a size in the order of ``itertools.combinations``, filled straight from
    the combinations of each size."""
    masks = np.zeros((2 ** n - 1, n), dtype=bool)
    start = 0
    for r in range(1, n + 1):
        members = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), r)),
                              int).reshape(-1, r)
        masks[np.arange(start, start + len(members))[:, None], members] = True
        start += len(members)
    return masks


def _subsets(n: int) -> list[IndexSubset]:
    """The index sets of ``_subset_masks(n)``, in its order."""
    return [IndexSubset.of(np.flatnonzero(row) + 1) for row in _subset_masks(n)]


# the rows of one block of an index-set sweep: all 2^n - 1 sets at once would
# hold 3.3 million rows at n = 16
_SWEEP_ROWS = 4096


def _sweep_cases(count: int, inner: int):
    """Cases ``0 .. count - 1`` in blocks of ``_SWEEP_ROWS``, case ``c`` given as
    its pair ``(c // inner, c % inner)`` of index arrays."""
    for start in range(0, count, _SWEEP_ROWS):
        yield np.divmod(np.arange(start, min(start + _SWEEP_ROWS, count)), inner)


def _rows(columns: np.ndarray, index) -> np.ndarray:
    """The rows ``index`` of ``columns.T``, laid out column by column: numpy's
    masked operations in ``legendre_rows`` run several times faster on
    contiguous columns than across rows."""
    return columns.take(index, axis=1).T


def _heisenberg_commutators(cfg, rng):
    for n in (1, 2, 3):
        fields = frame(n)
        xi, Q, P = fields[0], fields[1:n + 1], fields[n + 1:]
        pairs = [(lie_bracket(P[a], Q[b]).comps, xi.comps if a == b else expr.ZERO)
                 for a in range(n) for b in range(n)]
        pairs += [(lie_bracket(xi, X).comps, expr.ZERO) for X in Q + P]
        yield _differences(coord_names(n), pairs, _sample_rows(n, rng, cfg.points))


def _heisenberg_reeb(cfg, rng):
    for n in (1, 2, 3):
        eta, xi = contact_form(n).comps, frame(n)[0].comps
        pairs = [(matmul(eta, xi), expr.ONE), (matmul(xi, d_eta(n).comps), expr.ZERO)]
        yield _differences(coord_names(n), pairs, _sample_rows(n, rng, cfg.points))


def _heisenberg_gram(cfg, rng):
    for n in (1, 2, 3):
        E = np.column_stack([f.comps for f in frame(n)[1:]])  # Q_1..Q_n, P^1..P^n
        closed = np.full((2 * n, 2 * n), expr.ZERO)
        closed[range(n), range(n, 2 * n)] = expr.const(0.5)
        closed[range(n, 2 * n), range(n)] = expr.const(-0.5)
        pair = (matmul(matmul(E.T, d_eta(n).comps), E), closed)
        yield _differences(coord_names(n), [pair], _sample_rows(n, rng, cfg.points))


def _hamiltonian_eta(cfg, rng):
    eta = contact_form(cfg.n)
    for _ in range(20):
        h = random_polynomial_hamiltonian(cfg.n, rng)
        X = hamiltonian_vector_field(cfg.n, h)
        h_tape = expr.compile((h,), coord_names(cfg.n))
        for pt in sample_points(cfg.n, rng, 5):
            yield [eta.evaluate(pt) @ X.evaluate(pt) - h_tape.run(pt)[0]]


def _hamiltonian_lie_eta(cfg, rng):
    eta = contact_form(cfg.n)
    for _ in range(20):
        h = random_polynomial_hamiltonian(cfg.n, rng)
        led = lie_derivative(eta, hamiltonian_vector_field(cfg.n, h))
        pair = (led.comps, eta.comps * expr.differentiate(h, "w"))
        yield _differences(coord_names(cfg.n), [pair], _sample_rows(cfg.n, rng, 5))


def _generator_flow(name: str, n: int, m: int, t: float):
    """The generator ``name`` on ``n`` pairs, ``hL`` rotating the first ``m`` or
    ``hS`` scaling them all, and its closed-form time-``t`` flow of a point."""
    if name == "hL":
        if not 1 <= m <= n:
            raise ConfigError(f"m={m} must satisfy 1 <= m <= n={n}")
        subset = IndexSubset.of(range(1, m + 1))
        return rotation_generator(m), partial(rotation_flow, t, subset)
    return scaling_generator(n), _scaling_map(n, t).apply


def _flows_vs_rk4(name: str, t: float, image: tuple, cfg, rng):
    # one case: the RK4 endpoint against the closed form, and that against its known image
    start = (1.0, 2.0, 3.0)
    h, flow = _generator_flow(name, 1, 1, t)
    end = np.array(integrate_flow(hamiltonian_vector_field(1, h), start, t, 10_000))
    target = np.array(flow(start))
    yield [np.concatenate([end - target, target - np.array(image)])]


def _flows_legendre_order(cfg, rng):
    fixed = [1.0] + [2.0] * cfg.n + [3.0] * cfg.n
    starts = np.vstack((fixed, rng.integers(-9, 10, size=(20, 2 * cfg.n + 1)))).T.copy()
    masks = _subset_masks(cfg.n).T.copy()
    # cases in (point, I) order
    for k, I in _sweep_cases(starts.shape[1] * masks.shape[1], masks.shape[1]):
        start, mask = _rows(starts, k), _rows(masks, I)
        image = start
        for _ in range(4):
            image = legendre_rows(mask, image)
        yield image - start


def _flows_eta_preserved(cfg, rng):
    eta = contact_form(cfg.n)
    maps = [legendre_map(cfg.n, IndexSubset.of(range(1, cfg.n + 1))),
            legendre_map(cfg.n, IndexSubset.of(1)),
            scaling_map(cfg.n, 0.37)]
    rows = _sample_rows(cfg.n, rng, cfg.points)
    for mapping in maps:
        yield _differences(coord_names(cfg.n), [(mapping.pullback(eta), eta.comps)], rows)


def _commutator(cfg, rng):
    pair = (generator_commutator(cfg.n, cfg.m).comps, closed_form_commutator(cfg.n, cfg.m).comps)
    yield _differences(coord_names(cfg.n), [pair], _sample_rows(cfg.n, rng, cfg.points))


def _structure(kind: MetricKind, cfg, rng):
    pairs = structure_identities(cfg.n, kind, cfg.lam)
    yield _differences(coord_names(cfg.n), pairs, _sample_rows(cfg.n, rng, cfg.points))


def _structures_scaling_pde(cfg, rng):
    pair = (scaling_residuals(cfg.lam), expr.ZERO)
    yield _differences(coord_names(cfg.n), [pair], _sample_rows(cfg.n, rng, cfg.points))


def _table1(kind: MetricKind, cfg, rng):
    metric = cfg.metric(kind, cfg.n, cfg.lam)
    generators = {"rotation": rotation_generator(cfg.m), "scaling": scaling_generator(cfg.n)}
    pairs = [(lie_derivative(metric.tensor, hamiltonian_vector_field(cfg.n, h)).comps,
              tables.lie_derivative_closed_form(cfg.n, kind, name, m=cfg.m, lam=cfg.lam).comps)
             for name, h in generators.items()]
    yield _differences(coord_names(cfg.n), pairs, _sample_rows(cfg.n, rng, cfg.points))


def _einstein(cfg, rng):
    metric = cfg.metric(MetricKind.ACS, cfg.n)
    rows = _sample_rows(cfg.n, rng, min(cfg.points, 20), metric)
    eta = contact_form(cfg.n).comps
    # the grouping of the numeric ric - lam * ee - nu * g; an Expr takes no array operand
    lhs = metric.ricci - np.outer(eta, eta) * expr.const(2 * cfg.n + 2)
    yield _differences(coord_names(cfg.n), [(lhs, metric.tensor.comps * expr.const(-2.0))], rows)


def _einstein_fit(cfg, rng):
    metric = cfg.metric(MetricKind.ACS, cfg.n)
    for pt in sample_points(cfg.n, rng, min(cfg.points, 20)):
        rep = calculus.ricci(metric, pt, fit=True)
        yield [(rep.lam - (2 * cfg.n + 2), rep.nu + 2.0)]


def _legendre_invariance(power: int, cfg, rng):
    for n in range(1, min(cfg.n, 3) + 1):
        metric = cfg.metric(MetricKind.LAMBDA, n, product_lambda(n, power=power))
        rows = _sample_rows(n, rng, cfg.points)
        for I in _subsets(n):
            pair = (legendre_map(n, I).pullback(metric.tensor), metric.tensor.comps)
            yield _differences(coord_names(n), [pair], rows)


def _legendre_even_control(cfg, rng):
    metric = cfg.metric(MetricKind.LAMBDA, cfg.n, product_lambda(cfg.n, power=2))
    pair = (legendre_map(cfg.n, IndexSubset.of(1)).pullback(metric.tensor), metric.tensor.comps)
    yield _differences(coord_names(cfg.n), [pair], _sample_rows(cfg.n, rng, cfg.points))


def _legendre_conditions(cfg, rng):
    pts = np.array(_sample_rows(cfg.n, rng, cfg.points))
    columns, masks = pts.T.copy(), _subset_masks(cfg.n).T.copy()
    for power in (1, 3):
        tape = expr.compile(product_lambda(cfg.n, power=power), coord_names(cfg.n))
        here = tape.run_batch(pts)
        # cases in (I, point) order
        for I, k in _sweep_cases(masks.shape[1] * len(pts), len(pts)):
            yield lambda_legendre_residual(tape, _rows(masks, I), _rows(columns, k), here[:, k])


def _nabla_reeb(kind: MetricKind, cfg, rng):
    # (nabla xi)^c_b = Gamma^c_{w b}, minus the other scaled structure
    dual = MetricKind.LAMBDA_BAR if kind is MetricKind.LAMBDA else MetricKind.LAMBDA
    metric = cfg.metric(kind, cfg.n, cfg.lam)
    rows = _sample_rows(cfg.n, rng, cfg.points, metric)
    pair = (metric.gamma[:, 0, :], -build_structure(cfg.n, dual, cfg.lam).comps)
    yield _differences(coord_names(cfg.n), [pair], rows)


def _nabla_duality(cfg, rng):
    m_lam = cfg.metric(MetricKind.LAMBDA, cfg.n, cfg.lam)
    m_bar = cfg.metric(MetricKind.LAMBDA_BAR, cfg.n, cfg.lam)
    rows = _sample_rows(cfg.n, rng, cfg.points, m_lam, m_bar)
    identity = np.where(np.eye(m_lam.tensor.dim, dtype=bool), expr.ONE, expr.ZERO)
    eta_xi = outer_11(contact_form(cfg.n), frame(cfg.n)[0]).comps
    pair = (matmul(m_lam.gamma[:, 0, :], m_bar.gamma[:, 0, :]), identity - eta_xi)
    yield _differences(coord_names(cfg.n), [pair], rows)


def _builtin_relation(cfg: RunConfig, entry_id: str):
    # the built-in entries come first, so a loaded entry of the same id never shadows one
    return next(e.relation for e in cfg.catalog if e.id == entry_id)


def _domain_samples(rel, rng, count):
    lo = np.array([d[0] for d in rel.domain])
    hi = np.array([d[1] for d in rel.domain])
    margin = 0.05 * (hi - lo)
    rows = lo + margin + (hi - lo - 2 * margin) * rng.random((count, rel.n))
    # one batched run of the embedding checks the block; only where it fails does
    # embed run row by row, to name the first potential or gradient that cannot be
    # evaluated there (the margin keeps each row inside embed's domain test)
    try:
        ok = np.isfinite(rel.embedding.tape.run_batch(rows)).all()
    except expr.EvalError:
        ok = False
    if not ok:
        for qvals in rows:
            equilibrium.embed(rel, qvals)
    return rows


def _equilibrium_hessian(cfg, rng):
    for entry in cfg.catalog:
        rel, psi = entry.relation, entry.relation.embedding
        pair = (psi.pullback(cfg.metric(MetricKind.R, rel.n).tensor), -psi.jacobian[rel.n + 1:])
        yield _differences(rel.coords, [pair], _domain_samples(rel, rng, cfg.points))


def _equilibrium_eta(cfg, rng):
    for entry in cfg.catalog:
        rel = entry.relation
        pair = (rel.embedding.pullback(contact_form(rel.n)), expr.ZERO)
        yield _differences(rel.coords, [pair], _domain_samples(rel, rng, cfg.points))


def _equilibrium_transform(cfg, rng):
    ideal = _builtin_relation(cfg, "ideal_gas")
    F = equilibrium.legendre_potential(ideal, 1)
    for S, V in _domain_samples(ideal, rng, 20):
        T = math.exp(S) * V ** (-2.0 / 3.0)
        closed = T * (1.0 - math.log(T) - (2.0 / 3.0) * math.log(V))
        x = equilibrium.embed(F, [T, V])  # (F, T, V, dF/dT, dF/dV)
        yield [(x[0] - closed, x[3] + S)]


def _equilibrium_involution(cfg, rng):
    ideal = _builtin_relation(cfg, "ideal_gas")
    for qvals in _domain_samples(ideal, rng, 10):
        yield [equilibrium.involution_check(ideal, IndexSubset.of(1), qvals)]
    quad = _builtin_relation(cfg, "quadratic")
    for I in _subsets(quad.n):
        for qvals in _domain_samples(quad, rng, 10):
            yield [equilibrium.involution_check(quad, I, qvals)]


# kind -> (suffix of its check id, anchor); each id keys its check's random stream
_STRUCTURE_ANCHORS = {
    MetricKind.ACS: ("phi", "phi^2 = -1 + eta (x) xi, phi(xi) = 0, eta o phi = 0"),
    MetricKind.ALPHA_PI: ("pi", "phi_pi^2 = 1 - eta (x) xi, phi_pi(xi) = 0, eta o phi_pi = 0"),
    MetricKind.R: ("r", "phi_r^2 = 1 - eta (x) xi, phi_r(xi) = 0, eta o phi_r = 0"),
    MetricKind.S: ("s", "phi_s^2 = 1 - eta (x) xi, phi_s(xi) = 0, eta o phi_s = 0"),
    MetricKind.LAMBDA: ("lambda",
                        "phi_L^2 = 1_L - eta (x) xi and phi_L o phi_Lbar = 1 - eta (x) xi"),
    MetricKind.LAMBDA_BAR: ("lambdabar",
                            "phi_Lbar^2 = 1_Lbar - eta (x) xi and duality with phi_L"),
}

# suite -> its checks, in run order; each check draws from its own id-keyed stream
_CHECKS: dict[str, tuple[Check, ...]] = {
    "heisenberg": (
        Check("heisenberg.commutators", "[P^a,Q_b] = delta^a_b xi; [xi,Q_a] = [xi,P^a] = 0",
              1e-12, _heisenberg_commutators),
        Check("heisenberg.reeb", "eta(xi) = 1 and d_eta(xi, .) = 0", 1e-12, _heisenberg_reeb),
        Check("heisenberg.gram", "d_eta on (Q_1..Q_n, P^1..P^n) is [[0, I/2], [-I/2, 0]]",
              1e-12, _heisenberg_gram),
    ),
    "hamiltonian": (
        Check("hamiltonian.eta_of_field", "eta(X_h) = h", 1e-12, _hamiltonian_eta),
        Check("hamiltonian.lie_eta", "L_{X_h} eta = (dh/dw) eta", 1e-12, _hamiltonian_lie_eta),
    ),
    "flows": (
        Check("flows.rotation_vs_rk4",
              "RK4 flow of the rotation generator matches the closed form", 1e-8,
              partial(_flows_vs_rk4, "hL", math.pi / 2, (-5.0, -3.0, 2.0))),
        Check("flows.scaling_vs_rk4",
              "RK4 flow of the scaling generator matches q e^-t, p e^t", 1e-8,
              partial(_flows_vs_rk4, "hS", math.log(2.0), (1.0, 1.0, 6.0))),
        Check("flows.legendre_order_four",
              "the partial Legendre map applied four times is the identity",
              0.0, _flows_legendre_order),
        Check("flows.eta_preserved",
              "the Legendre and scaling maps pull the contact form back to itself",
              1e-12, _flows_eta_preserved),
    ),
    "commutator": (
        Check("commutator.closed_form",
              "[X_hS, X_hL] = sum_i [(p_i^2 - q_i^2) xi - 2 (p_i Q_i + q^i P^i)]",
              1e-10, _commutator),
    ),
    "structures": (
        *(Check(f"structures.{suffix}", anchor, 1e-12, partial(_structure, kind))
          for kind, (suffix, anchor) in _STRUCTURE_ANCHORS.items()),
        Check("structures.scaling_pde",
              "sum_b (p_b dL_a/dp_b - q^b dL_a/dq^b) = 0 for the product family",
              1e-12, _structures_scaling_pde),
    ),
    "table1": tuple(
        Check(f"table1.{kind.value}",
              f"Lie derivatives of the {kind.value} tensor along both generators",
              1e-9, partial(_table1, kind))
        for kind in MetricKind),
    "einstein": (
        Check("einstein.acs", "Ric = (2n + 2) eta (x) eta - 2 g for the almost-contact metric",
              1e-8, _einstein),
        Check("einstein.fitted_constants",
              "least-squares (lam, nu) against eta (x) eta and g give 2n+2 and -2",
              1e-8, _einstein_fit),
    ),
    "legendre": (
        Check("legendre.invariance_qp", "pullback of g_L under every partial Legendre map "
              "equals g_L for L_a = (q^a p_a)^1", 1e-9, partial(_legendre_invariance, 1)),
        Check("legendre.invariance_qp_cubed", "pullback of g_L under every partial Legendre map "
              "equals g_L for L_a = (q^a p_a)^3", 1e-9, partial(_legendre_invariance, 3)),
        Check("legendre.even_family_control",
              "the even family (q^a p_a)^2 breaks Legendre invariance",
              1e-2, _legendre_even_control, mode="min"),
        Check("legendre.lambda_conditions",
              "L_i(Phi x) = -L_i(x) on transformed indices, unchanged elsewhere",
              1e-12, _legendre_conditions),
    ),
    "nablaxi": (
        Check("nabla_reeb.lambda",
              "nabla xi of the lambda metric equals minus the lambdabar automorphism", 1e-9,
              partial(_nabla_reeb, MetricKind.LAMBDA)),
        Check("nabla_reeb.lambdabar",
              "nabla xi of the lambdabar metric equals minus the lambda automorphism", 1e-9,
              partial(_nabla_reeb, MetricKind.LAMBDA_BAR)),
        Check("nabla_reeb.duality", "the two nabla xi endomorphisms compose to 1 - eta (x) xi",
              1e-9, _nabla_duality),
    ),
    "equilibrium": (
        Check("equilibrium.hessian_pullback",
              "pullback of g_r onto each equilibrium space is minus the Hessian",
              1e-10, _equilibrium_hessian),
        Check("equilibrium.eta_pullback", "the embedded state space kills the contact form",
              1e-12, _equilibrium_eta),
        Check("equilibrium.ideal_gas_transform", "the numeric conjugate transform of the ideal "
              "gas matches T (1 - log T - (2/3) log V)", 1e-8, _equilibrium_transform),
        Check("equilibrium.involution", "the quarter-turn image of a state space lies on the "
              "transformed relation's embedding", 1e-8, _equilibrium_involution),
    ),
}
_SUITES = tuple(_CHECKS)


def run_suite(config: RunConfig) -> Report:
    """Run the selected verification suites and collect one record per check.

    The cyclic collector is paused for the run, and resumed only if it was on:
    the run's nodes die by reference counting, and the few cycles it leaves,
    ``exp`` nodes held by their own derivative memos, wait for the next
    collection."""
    suites = _SUITES if config.suite == "all" else (config.suite,)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return Report([_run_check(check, config) for suite in suites for check in _CHECKS[suite]])
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# argument handling

def _parse_lambda(text: str | None, n: int) -> tuple[expr.Expr, ...] | None:
    if text is None:
        return None
    if text == "qp":
        return product_lambda(n)
    if text == "qp3":
        return product_lambda(n, power=3)
    parts = [s.strip() for s in text.split(";") if s.strip()]
    if len(parts) == 1 and n > 1:
        raise ConfigError(f"need {n} lambda expressions separated by ';' (or 'qp'/'qp3')")
    if len(parts) != n:
        raise ConfigError(f"need {n} lambda expressions, got {len(parts)}")
    return tuple(map(expr.parse, parts))


def _parse_point(csv: str, n: int) -> list:
    try:
        vals = [float(v) for v in csv.split(",")]
    except ValueError:
        raise ConfigError(f"--point must be comma-separated numbers, got {csv!r}") from None
    if len(vals) != 2 * n + 1:
        raise ConfigError(f"point needs {2 * n + 1} values for n={n}, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"--point must be finite, got {csv!r}")
    return vals


def _finite_t(t: float) -> float:
    if not math.isfinite(t):
        raise ConfigError(f"--t must be finite, got {t}")
    return t


def _scaling_map(n: int, t: float):
    """``scaling_map`` at ``--t``, whose factors ``exp(-t)`` and ``exp(t)`` must be finite."""
    try:
        return scaling_map(n, t)
    except OverflowError:
        raise ConfigError(f"--t must keep the scaling factor exp(|t|) finite, got {t}") from None


def _metric_for(args, n: int) -> Metric:
    # the family is checked for every kind, as verify checks it for every suite
    return metric_from_structure(n, MetricKind(args.metric),
                                 _parse_lambda(args.lam, n) or product_lambda(n))


def _emit(lines: list[str], json_path: str | None):
    """Write the report to ``json_path`` first, so that a path that cannot be written
    exits 2 with nothing on stdout, then to stdout."""
    text = "\n".join(lines) + "\n"
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


# the keys a --config file may set besides lambda.<k>, with the type of each value
_CONFIG_KEYS = {"suite": "a string", "n": "an integer", "m": "an integer",
                "seed": "an integer", "points": "an integer", "output": "a string"}


def _read_config(path: str) -> dict:
    """The typed values of a ``--config`` file; ``lam`` holds its ``lambda.<k>``
    entries as one family, a tuple of expressions ordered by ``k``.  Any other
    key exits 2."""
    with open(path, encoding="utf-8") as fh:
        raw = parse_flat(fh.read())
    lam_keys: dict[int, str] = {}
    for key in raw:
        if key.startswith("lambda."):
            index = key[len("lambda."):]
            if not (index.isascii() and index.isdigit()):
                raise ConfigError(f"config key '{key}': the lambda index must be an integer")
            if int(index) in lam_keys:
                raise ConfigError(f"config keys '{lam_keys[int(index)]}' and '{key}' "
                                  f"set the same lambda entry")
            lam_keys[int(index)] = key
        elif key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    values = {key: typed(raw, key, kind) for key, kind in _CONFIG_KEYS.items() if key in raw}
    if lam_keys:
        values["lam"] = tuple(map(expr.parse, [typed(raw, lam_keys[k], "a string")
                                               for k in sorted(lam_keys)]))
    return values


def _cmd_verify(args) -> int:
    # RunConfig's defaults, under the --config values, under the options given
    values = _read_config(args.config) if args.config else {}
    output = values.pop("output", None)
    lam = values.pop("lam", None)
    given = {"suite": args.suite, "n": args.n, "m": args.m, "seed": args.seed,
             "points": args.points}
    values.update((key, value) for key, value in given.items() if value is not None)
    # the scalars are checked first, so a bad n is named before --lambda is parsed against it
    cfg = RunConfig(**values, catalog=())
    if args.lam:
        lam = _parse_lambda(args.lam, cfg.n)
    extra = equilibrium.load_catalog(args.catalog) if args.catalog else ()
    cfg = replace(cfg, lam=lam, catalog=equilibrium.catalog() + extra)
    t0 = time.perf_counter()
    report = run_suite(cfg)
    elapsed = time.perf_counter() - t0
    _emit(report.lines(cfg), args.json or output)
    print(f"{len(report.checks)} checks, {report.failures} failures in {elapsed:.2f} s",
          file=sys.stderr)
    return 0 if report.failures == 0 else 1


def _pairs(args, default: int) -> int:
    """``--n``, or ``default`` without it; checked before anything is parsed against it."""
    n = args.n if args.n is not None else default
    coord_names(n)
    return n


def _cmd_curvature(args) -> int:
    n = _pairs(args, 2)
    metric = _metric_for(args, n)
    point = _parse_point(args.point, n)
    rep = calculus.ricci(metric, point, fit=args.fit)
    record = {
        "metric": args.metric,
        "n": n,
        "point": point,
        "ricci": [row.tolist() for row in rep.ricci],
        "lambda": rep.lam,
        "nu": rep.nu,
        "fitted": rep.fitted,
        "eta_einstein_residual": rep.eta_einstein_residual,
        "ricci_symmetry_residual": rep.symmetry_residual,
    }
    _emit([dump_record(record)], args.json)
    return 0


def _cmd_flow(args) -> int:
    n = _pairs(args, 1)
    point = _parse_point(args.point, n)
    t = _finite_t(args.t)
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    m = args.m if args.m is not None else n
    closed = None
    if args.hamiltonian in ("hL", "hS"):
        h, flow = _generator_flow(args.hamiltonian, n, m, t)
        closed = flow(point)
        if not all(map(math.isfinite, closed)):
            raise ConfigError(f"the closed-form flow is not finite for --t {t} "
                              f"and --point {args.point}")
    else:
        h = expr.parse(args.hamiltonian)
    X = hamiltonian_vector_field(n, h)
    start = X.tape.run(point)  # a field that fails at --point names its own failure
    if not all(map(math.isfinite, start)):
        raise ConfigError("the Hamiltonian vector field is not finite at --point")
    try:
        end = integrate_flow(X, point, t, args.steps)
    except FloatingPointError:
        # an overflow on a field finite at --point is --t and --steps at work;
        # a domain test's EvalError keeps its own message
        raise ConfigError(f"the flow is not finite for --t {t} and --steps {args.steps}") from None
    record = {
        "hamiltonian": args.hamiltonian,
        "t": t,
        "steps": args.steps,
        "endpoint": end,
    }
    if closed is not None:
        record["closed_form"] = closed
        record["deviation"] = _max_abs(np.subtract(end, closed))
    _emit([dump_record(record)], args.json)
    return 0


def _cmd_pullback(args) -> int:
    n = _pairs(args, 2)
    metric = _metric_for(args, n)
    point = _parse_point(args.point, n)
    if args.map == "legendre":
        text = "1" if args.indices is None else args.indices
        try:
            indices = [int(s) for s in text.split(",")]
        except ValueError:
            raise ConfigError(f"--indices must be comma-separated integers, "
                              f"got {text!r}") from None
        if not all(1 <= i <= n for i in indices):
            raise ConfigError(f"--indices must satisfy 1 <= index <= n={n}, got {text!r}")
        if len(set(indices)) != len(indices):
            raise ConfigError(f"--indices must not repeat an index, got {text!r}")
        mapping = legendre_map(n, IndexSubset.of(indices))
    else:
        mapping = _scaling_map(n, _finite_t(args.t))
    pulled = TensorField((0, 2), mapping.pullback(metric.tensor)).evaluate(point)
    if not np.isfinite(pulled).all():
        named = (f"--t {args.t}" if args.map == "scaling"
                 else f"--metric {args.metric} through {mapping.label}")
        raise ConfigError(f"the pulled-back components are not finite for {named}")
    original = metric.tensor.evaluate(point)
    record = {
        "map": mapping.label,
        "metric": args.metric,
        "pulled_back": [row.tolist() for row in pulled],
        "original": [row.tolist() for row in original],
        "max_residual": _max_abs(pulled - original),
    }
    _emit([dump_record(record)], args.json)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactgeo",
        description="Verification suites and computations on the contact phase space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=False):
        p.add_argument("--n", type=int, default=None, help="number of conjugate pairs")
        p.add_argument("--json", default=None, help="also write the JSON report here")
        if point:
            p.add_argument("--point", required=True,
                           help="comma-separated w,q1..qn,p1..pn")

    def sampled(p):
        common(p)
        p.add_argument("--seed", type=int, default=None, help="sampler seed")
        p.add_argument("--points", type=int, default=None, help="sample count per check")
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--m", type=int, default=None,
                       help="rotated pairs for the rotation generator")
        p.add_argument("--lambda", dest="lam", default=None,
                       help="scaling family: 'qp', 'qp3', or ';'-separated expressions")

    p = sub.add_parser("verify", help="run verification suites")
    sampled(p)
    p.add_argument("--suite", choices=("all",) + _SUITES, default=None)
    p.add_argument("--catalog", default=None, help="extra relation catalog file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("curvature", help="Ricci tensor and eta-Einstein residual")
    common(p, point=True)
    p.add_argument("--metric", choices=[k.value for k in MetricKind], default="acs")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--fit", action="store_true", help="fit (lambda, nu) by least squares")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("flow", help="integrate a contact Hamiltonian flow")
    common(p, point=True)
    p.add_argument("--hamiltonian", required=True, help="'hL', 'hS', or an expression")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("pullback", help="pull a metric back through a finite map")
    common(p, point=True)
    p.add_argument("--map", choices=("legendre", "scaling"), default="legendre")
    p.add_argument("--indices", default=None, help="comma-separated pair indices")
    p.add_argument("--t", type=float, default=0.5, help="scaling parameter")
    p.add_argument("--metric", choices=[k.value for k in MetricKind], default="r")
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("table", help="verify --suite table1: the Lie-derivative table rows")
    sampled(p)
    p.set_defaults(func=_cmd_verify, suite="table1", catalog=None)

    return parser


def _subcommand_options(parser: argparse.ArgumentParser) -> dict[str, dict[str, bool]]:
    """For each subcommand of ``parser``, its option strings, each mapped to whether
    it takes one value."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {s: a.nargs is None for a in sub._actions for s in a.option_strings}
            for name, sub in subparsers.choices.items()}


def _join_values(argv: list[str], options: dict[str, dict[str, bool]]) -> list[str]:
    """``argv`` with each option that takes one value joined to the token after it,
    ``--point v`` as ``--point=v``: argparse takes a value that begins with
    ``-``, such as ``-1,2,3``, ``-1e-3`` or ``-q1*p1``, for an option unless
    it is a plain negative decimal.  As argparse does, a token names an option
    of its own subcommand (``options[command]``) that it spells in full, or
    that is the one such option it is a prefix of; an ambiguous prefix is left
    for argparse to refuse."""
    out, tokens, own = [], iter(argv), None
    for token in tokens:
        if own is None:
            own = options.get(token)
            out.append(token)
            continue
        names = [token] if token in own else (
            [s for s in own if s.startswith(token)] if token.startswith("--") else [])
        value = next(tokens, None) if len(names) == 1 and own[names[0]] else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_values(argv, _subcommand_options(parser)))
    try:
        # non-finite results are caught by the runner and by _fmt, not by numpy's warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, expr.ExprError, ValueError, OSError, ArithmeticError,
            RecursionError, MemoryError, equilibrium.RootFindError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
