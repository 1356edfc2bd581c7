"""Batch front-end: verification suites, curvature, flows, pullbacks.

Reports are JSON lines, one record per check plus a summary record, printed
with 17 significant digits.  Given the same configuration and seed the
serialized report is byte-identical across runs (timing goes to stderr, never
into the records).  Exit codes: 0 all checks passed, 1 at least one failed,
2 configuration, parse or evaluation error (one ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import calculus, equilibrium, expr, tables
from ._config import parse_flat
from .hamiltonian import (IndexSubset, hamiltonian_vector_field, integrate_flow,
                          legendre_map, partial_legendre,
                          random_polynomial_hamiltonian, rotation_flow,
                          rotation_generator, scaling_flow, scaling_generator,
                          scaling_map)
from .metrics import Metric, MetricKind, metric_from_structure, pullback
from .phase_space import (PhasePoint, PhaseSpace, TensorField, contact_form,
                          d_eta, frame, outer_11, sample_points)
from .structures import (LambdaFamily, StructureKind, build_structure,
                         check_structure_identities, lambda_legendre_residual,
                         lambda_scaling_residual, product_lambda)

__all__ = ["main", "run_suite", "RunConfig", "CheckRecord", "Report"]

_SUITES = ("heisenberg", "hamiltonian", "flows", "commutator", "structures",
           "table1", "einstein", "legendre", "nablaxi", "equilibrium")


# ---------------------------------------------------------------------------
# report plumbing

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
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


@dataclass
class RunConfig:
    suite: str = "all"
    n: int = 2
    m: int = 1
    seed: int = 0
    points: int = 50
    lam: LambdaFamily | None = None
    catalog_path: str | None = None
    json_path: str | None = None

    def space(self) -> PhaseSpace:
        return PhaseSpace(self.n)

    def lambda_family(self, n: int | None = None) -> LambdaFamily:
        n = self.n if n is None else n
        if self.lam is not None:
            if self.lam.n != n:
                raise ConfigError(f"lambda family has {self.lam.n} entries, need {n}")
            return self.lam
        return product_lambda(n)

    def rng(self, check_id: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# checks

def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def _check_heisenberg_commutators(cfg: RunConfig) -> CheckRecord:
    from .calculus import lie_bracket

    rng = cfg.rng("heisenberg.commutators")
    worst, total = 0.0, 0
    for n in (1, 2, 3):
        space = PhaseSpace(n)
        fields = frame(space)
        xi, Q, P = fields[0], fields[1:n + 1], fields[n + 1:]
        pts = sample_points(space, rng, cfg.points)
        total += len(pts)
        brackets = []
        for a in range(n):
            for b in range(n):
                target = xi if a == b else None
                brackets.append((lie_bracket(space, P[a], Q[b]), target))
            brackets.append((lie_bracket(space, xi, Q[a]), None))
            brackets.append((lie_bracket(space, xi, P[a]), None))
        for pt in pts:
            for bracket, target in brackets:
                want = target.evaluate(pt) if target is not None else 0.0
                worst = max(worst, _max_abs(bracket.evaluate(pt) - want))
    return CheckRecord("heisenberg.commutators",
                       "[P^a,Q_b] = delta^a_b xi; [xi,Q_a] = [xi,P^a] = 0",
                       worst, 1e-12, total)


def _check_heisenberg_reeb(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("heisenberg.reeb")
    worst, total = 0.0, 0
    for n in (1, 2, 3):
        space = PhaseSpace(n)
        eta, deta, xi = contact_form(space), d_eta(space), frame(space)[0]
        pts = sample_points(space, rng, cfg.points)
        total += len(pts)
        for pt in pts:
            ev, dv, xv = eta.evaluate(pt), deta.evaluate(pt), xi.evaluate(pt)
            worst = max(worst, abs(ev @ xv - 1.0))
            X = rng.standard_normal(space.dim)
            worst = max(worst, _max_abs(xv @ dv), abs(xv @ dv @ X))
    return CheckRecord("heisenberg.reeb", "eta(xi) = 1 and d_eta(xi, .) = 0",
                       worst, 1e-12, total)


def _check_heisenberg_gram(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("heisenberg.gram")
    worst, total = 0.0, 0
    for n in (1, 2, 3):
        space = PhaseSpace(n)
        deta = d_eta(space)
        fields = frame(space)[1:]
        pts = sample_points(space, rng, cfg.points)
        total += len(pts)
        for pt in pts:
            E = np.column_stack([f.evaluate(pt) for f in fields])
            gram = E.T @ deta.evaluate(pt) @ E
            worst = max(worst, abs(abs(np.linalg.det(gram)) - 0.25 ** n))
    return CheckRecord("heisenberg.gram",
                       "d_eta restricted to span(Q, P) has |det| = (1/2)^(2n)",
                       worst, 1e-12, total)


def _check_hamiltonian_eta(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("hamiltonian.eta_of_field")
    space = cfg.space()
    eta = contact_form(space)
    worst, total = 0.0, 0
    for _ in range(20):
        h = random_polynomial_hamiltonian(space, rng)
        X = hamiltonian_vector_field(space, h)
        for pt in sample_points(space, rng, 5):
            total += 1
            lhs = eta.evaluate(pt) @ X.evaluate(pt)
            worst = max(worst, abs(lhs - expr.evaluate(h.h, pt.bindings())))
    return CheckRecord("hamiltonian.eta_of_field", "eta(X_h) = h",
                       worst, 1e-12, total)


def _check_hamiltonian_lie_eta(cfg: RunConfig) -> CheckRecord:
    from .calculus import lie_derivative

    rng = cfg.rng("hamiltonian.lie_eta")
    space = cfg.space()
    eta = contact_form(space)
    worst, total = 0.0, 0
    for _ in range(20):
        h = random_polynomial_hamiltonian(space, rng)
        X = hamiltonian_vector_field(space, h)
        led = lie_derivative(space, eta, X)
        dh_dw = expr.differentiate(h.h, "w")
        for pt in sample_points(space, rng, 5):
            total += 1
            scale = expr.evaluate(dh_dw, pt.bindings())
            worst = max(worst, _max_abs(led.evaluate(pt) - scale * eta.evaluate(pt)))
    return CheckRecord("hamiltonian.lie_eta", "L_{X_h} eta = (dh/dw) eta",
                       worst, 1e-12, total)


def _check_flows_rotation(cfg: RunConfig) -> CheckRecord:
    space = PhaseSpace(1)
    start = space.point(1.0, [2.0], [3.0])
    X = hamiltonian_vector_field(space, rotation_generator(1))
    end = integrate_flow(X, start, math.pi / 2, 10_000)
    target = rotation_flow(math.pi / 2, IndexSubset.of(1), start)
    worst = _max_abs(end.as_array() - target.as_array())
    worst = max(worst, _max_abs(target.as_array() - np.array([-5.0, -3.0, 2.0])))
    return CheckRecord("flows.rotation_vs_rk4",
                       "RK4 flow of the rotation generator matches the closed form",
                       worst, 1e-8, 1)


def _check_flows_scaling(cfg: RunConfig) -> CheckRecord:
    space = PhaseSpace(1)
    start = space.point(1.0, [2.0], [3.0])
    X = hamiltonian_vector_field(space, scaling_generator(1))
    end = integrate_flow(X, start, math.log(2.0), 10_000)
    target = scaling_flow(math.log(2.0), start)
    worst = _max_abs(end.as_array() - target.as_array())
    worst = max(worst, _max_abs(target.as_array() - np.array([1.0, 1.0, 6.0])))
    return CheckRecord("flows.scaling_vs_rk4",
                       "RK4 flow of the scaling generator matches q e^-t, p e^t",
                       worst, 1e-8, 1)


def _check_flows_legendre_order(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("flows.legendre_order_four")
    space = cfg.space()
    worst, total = 0.0, 0
    pts = [PhasePoint(1.0, (2.0,) * space.n, (3.0,) * space.n)]
    for _ in range(20):
        vals = rng.integers(-9, 10, size=2 * space.n + 1).astype(float)
        pts.append(PhasePoint.from_array(vals))
    subsets = [IndexSubset.of(c) for r in range(1, space.n + 1)
               for c in itertools.combinations(range(1, space.n + 1), r)]
    for pt in pts:
        for I in subsets:
            image = pt
            for _ in range(4):
                image = partial_legendre(I, image)
            total += 1
            worst = max(worst, _max_abs(image.as_array() - pt.as_array()))
    return CheckRecord("flows.legendre_order_four",
                       "the partial Legendre map applied four times is the identity",
                       worst, 0.0, total)


def _check_flows_eta_preserved(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("flows.eta_preserved")
    space = cfg.space()
    eta = contact_form(space)
    maps = [legendre_map(space, IndexSubset.of(range(1, space.n + 1))),
            legendre_map(space, IndexSubset.of(1)),
            scaling_map(space, 0.37)]
    worst, total = 0.0, 0
    for pt in sample_points(space, rng, cfg.points):
        for mapping in maps:
            total += 1
            J = mapping.jacobian(pt)
            pulled = J.T @ eta.evaluate(mapping.apply(pt))
            worst = max(worst, _max_abs(pulled - eta.evaluate(pt)))
    return CheckRecord("flows.eta_preserved",
                       "the Legendre and scaling maps pull the contact form back to itself",
                       worst, 1e-12, total)


def _check_commutator(cfg: RunConfig) -> CheckRecord:
    from .hamiltonian import closed_form_commutator, generator_commutator

    rng = cfg.rng("commutator.closed_form")
    space = cfg.space()
    bracket = generator_commutator(space, cfg.m)
    closed = closed_form_commutator(space, cfg.m)
    worst = 0.0
    pts = sample_points(space, rng, cfg.points)
    for pt in pts:
        worst = max(worst, _max_abs(bracket.evaluate(pt) - closed.evaluate(pt)))
    return CheckRecord("commutator.closed_form",
                       "[X_hS, X_hL] = sum_i [(p_i^2 - q_i^2) xi - 2 (p_i Q_i + q^i P^i)]",
                       worst, 1e-10, len(pts))


def _structure_check(kind: StructureKind):
    def run(cfg: RunConfig) -> CheckRecord:
        rng = cfg.rng(f"structures.{kind.value}")
        space = cfg.space()
        lam = cfg.lambda_family() if kind in (StructureKind.LAMBDA, StructureKind.LAMBDA_BAR) else None
        pts = sample_points(space, rng, cfg.points)
        report = check_structure_identities(space, kind, lam, points=pts)
        anchors = {
            StructureKind.ALMOST_CONTACT: "phi^2 = -1 + eta (x) xi, phi(xi) = 0, eta o phi = 0",
            StructureKind.PI_ROTATION: "phi_pi^2 = 1 - eta (x) xi, phi_pi(xi) = 0, eta o phi_pi = 0",
            StructureKind.REFLECTION: "phi_r^2 = 1 - eta (x) xi, phi_r(xi) = 0, eta o phi_r = 0",
            StructureKind.COMPOSITE: "phi_s^2 = 1 - eta (x) xi, phi_s(xi) = 0, eta o phi_s = 0",
            StructureKind.LAMBDA: "phi_L^2 = 1_L - eta (x) xi and phi_L o phi_Lbar = 1 - eta (x) xi",
            StructureKind.LAMBDA_BAR: "phi_Lbar^2 = 1_Lbar - eta (x) xi and duality with phi_L",
        }
        return CheckRecord(f"structures.{kind.value}", anchors[kind],
                           report.max_residual, 1e-12, len(pts))

    return run


def _check_structures_scaling_pde(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("structures.scaling_pde")
    space = cfg.space()
    lam = cfg.lambda_family()
    worst = 0.0
    pts = sample_points(space, rng, cfg.points)
    for pt in pts:
        worst = max(worst, _max_abs(lambda_scaling_residual(space, lam, pt)))
    return CheckRecord("structures.scaling_pde",
                       "sum_b (p_b dL_a/dp_b - q^b dL_a/dq^b) = 0 for the product family",
                       worst, 1e-12, len(pts))


def _table1_check(kind: MetricKind):
    def run(cfg: RunConfig) -> CheckRecord:
        from .calculus import lie_derivative

        rng = cfg.rng(f"table1.{kind.value}")
        space = cfg.space()
        lam = cfg.lambda_family() if kind in (MetricKind.LAMBDA, MetricKind.LAMBDA_BAR) else None
        metric = metric_from_structure(space, kind, lam)
        XL = hamiltonian_vector_field(space, rotation_generator(cfg.m))
        XS = hamiltonian_vector_field(space, scaling_generator(space.n))
        worst = 0.0
        pts = sample_points(space, rng, cfg.points)
        for X, generator in ((XL, "rotation"), (XS, "scaling")):
            got = lie_derivative(space, metric.tensor, X)
            want = tables.lie_derivative_closed_form(space, kind, generator, m=cfg.m, lam=lam)
            for pt in pts:
                worst = max(worst, _max_abs(got.evaluate(pt) - want.evaluate(pt)))
        return CheckRecord(f"table1.{kind.value}",
                           f"Lie derivatives of the {kind.value} tensor along both generators",
                           worst, 1e-9, len(pts))

    return run


def _check_einstein(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("einstein.acs")
    space = cfg.space()
    metric = metric_from_structure(space, MetricKind.ACS)
    worst = 0.0
    pts = sample_points(space, rng, min(cfg.points, 20))
    for pt in pts:
        worst = max(worst, calculus.ricci(metric, pt).eta_einstein_residual)
    return CheckRecord("einstein.acs",
                       "Ric = (2n + 2) eta (x) eta - 2 g for the almost-contact metric",
                       worst, 1e-8, len(pts))


def _check_einstein_fit(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("einstein.fitted_constants")
    space = cfg.space()
    metric = metric_from_structure(space, MetricKind.ACS)
    worst = 0.0
    pts = sample_points(space, rng, min(cfg.points, 20))
    for pt in pts:
        rep = calculus.ricci(metric, pt, fit=True)
        worst = max(worst, abs(rep.lam - (2 * space.n + 2)), abs(rep.nu + 2.0))
    return CheckRecord("einstein.fitted_constants",
                       "least-squares (lam, nu) against eta (x) eta and g give 2n+2 and -2",
                       worst, 1e-8, len(pts))


def _subsets(n: int) -> list[IndexSubset]:
    return [IndexSubset.of(c) for r in range(1, n + 1)
            for c in itertools.combinations(range(1, n + 1), r)]


def _legendre_invariance(check_id: str, power: int):
    def run(cfg: RunConfig) -> CheckRecord:
        rng = cfg.rng(check_id)
        worst, total = 0.0, 0
        for n in range(1, min(cfg.n, 3) + 1):
            space = PhaseSpace(n)
            lam = product_lambda(n, power=power)
            metric = metric_from_structure(space, MetricKind.LAMBDA, lam)
            pts = sample_points(space, rng, cfg.points)
            for I in _subsets(n):
                mapping = legendre_map(space, I)
                for pt in pts:
                    total += 1
                    pulled = pullback(mapping, metric, pt)
                    worst = max(worst, _max_abs(pulled - metric.tensor.evaluate(pt)))
        return CheckRecord(check_id,
                           f"pullback of g_L under every partial Legendre map equals g_L "
                           f"for L_a = (q^a p_a)^{power}",
                           worst, 1e-9, total)

    return run


def _check_legendre_even_control(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("legendre.even_family_control")
    space = cfg.space()
    lam = product_lambda(space.n, power=2)
    metric = metric_from_structure(space, MetricKind.LAMBDA, lam)
    mapping = legendre_map(space, IndexSubset.of(1))
    smallest = math.inf
    pts = sample_points(space, rng, cfg.points)
    for pt in pts:
        pulled = pullback(mapping, metric, pt)
        smallest = min(smallest, _max_abs(pulled - metric.tensor.evaluate(pt)))
    return CheckRecord("legendre.even_family_control",
                       "the even family (q^a p_a)^2 breaks Legendre invariance",
                       smallest, 1e-2, len(pts), mode="min")


def _check_legendre_conditions(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("legendre.lambda_conditions")
    space = cfg.space()
    worst, total = 0.0, 0
    pts = sample_points(space, rng, cfg.points)
    for power in (1, 3):
        lam = product_lambda(space.n, power=power)
        for I in _subsets(space.n):
            for pt in pts:
                total += 1
                worst = max(worst, _max_abs(lambda_legendre_residual(space, lam, I, pt)))
    return CheckRecord("legendre.lambda_conditions",
                       "L_i(Phi x) = -L_i(x) on transformed indices, unchanged elsewhere",
                       worst, 1e-12, total)


def _check_nabla_reeb(check_id: str, kind: MetricKind, dual_kind: StructureKind):
    def run(cfg: RunConfig) -> CheckRecord:
        rng = cfg.rng(check_id)
        space = cfg.space()
        lam = cfg.lambda_family()
        metric = metric_from_structure(space, kind, lam)
        dual = build_structure(space, dual_kind, lam)
        worst = 0.0
        pts = sample_points(space, rng, cfg.points)
        for pt in pts:
            worst = max(worst, _max_abs(calculus.nabla_reeb(metric, pt) + dual.evaluate(pt)))
        return CheckRecord(check_id,
                           f"nabla xi of the {kind.value} metric equals minus the "
                           f"{dual_kind.value} automorphism",
                           worst, 1e-9, len(pts))

    return run


def _check_nabla_duality(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("nabla_reeb.duality")
    space = cfg.space()
    lam = cfg.lambda_family()
    m_lam = metric_from_structure(space, MetricKind.LAMBDA, lam)
    m_bar = metric_from_structure(space, MetricKind.LAMBDA_BAR, lam)
    eta_xi = outer_11(contact_form(space), frame(space)[0])
    identity = np.eye(space.dim)
    worst = 0.0
    pts = sample_points(space, rng, cfg.points)
    for pt in pts:
        composed = calculus.nabla_reeb(m_lam, pt) @ calculus.nabla_reeb(m_bar, pt)
        worst = max(worst, _max_abs(composed - (identity - eta_xi.evaluate(pt))))
    return CheckRecord("nabla_reeb.duality",
                       "the two nabla xi endomorphisms compose to 1 - eta (x) xi",
                       worst, 1e-9, len(pts))


def _catalog_entries(cfg: RunConfig):
    entries = list(equilibrium.catalog())
    if cfg.catalog_path:
        entries.extend(equilibrium.load_catalog(cfg.catalog_path))
    return entries


def _domain_samples(rel, rng, count):
    lo = np.array([d[0] for d in rel.domain])
    hi = np.array([d[1] for d in rel.domain])
    margin = 0.05 * (hi - lo)
    return lo + margin + (hi - lo - 2 * margin) * rng.random((count, rel.n))


def _check_equilibrium_hessian(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("equilibrium.hessian_pullback")
    worst, total = 0.0, 0
    for entry in _catalog_entries(cfg):
        rel = entry.relation
        gr = metric_from_structure(PhaseSpace(rel.n), MetricKind.R)
        for qvals in _domain_samples(rel, rng, cfg.points):
            total += 1
            pulled = equilibrium.pullback_metric_on_E(rel, gr, qvals)
            worst = max(worst, _max_abs(pulled + rel.hessian(qvals)))
    return CheckRecord("equilibrium.hessian_pullback",
                       "pullback of g_r onto each equilibrium space is minus the Hessian",
                       worst, 1e-10, total)


def _check_equilibrium_eta(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("equilibrium.eta_pullback")
    worst, total = 0.0, 0
    for entry in _catalog_entries(cfg):
        rel = entry.relation
        eta = contact_form(PhaseSpace(rel.n))
        for qvals in _domain_samples(rel, rng, cfg.points):
            total += 1
            x = equilibrium.embed(rel, qvals)
            J = equilibrium.embedding_jacobian(rel, qvals)
            worst = max(worst, _max_abs(eta.evaluate(x) @ J))
    return CheckRecord("equilibrium.eta_pullback",
                       "the embedded state space kills the contact form",
                       worst, 1e-12, total)


def _check_equilibrium_transform(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("equilibrium.ideal_gas_transform")
    ideal = next(e.relation for e in equilibrium.catalog() if e.id == "ideal_gas")
    F = equilibrium.legendre_potential(ideal, "S")
    worst = 0.0
    for S, V in _domain_samples(ideal, rng, 20):
        T = math.exp(S) * V ** (-2.0 / 3.0)
        closed = T * (1.0 - math.log(T) - (2.0 / 3.0) * math.log(V))
        worst = max(worst, abs(F.value([T, V]) - closed))
        worst = max(worst, abs(F.gradient([T, V])[0] + S))
    return CheckRecord("equilibrium.ideal_gas_transform",
                       "the numeric conjugate transform of the ideal gas matches "
                       "T (1 - log T - (2/3) log V)",
                       worst, 1e-8, 20)


def _check_equilibrium_involution(cfg: RunConfig) -> CheckRecord:
    rng = cfg.rng("equilibrium.involution")
    worst, total = 0.0, 0
    ideal = next(e.relation for e in equilibrium.catalog() if e.id == "ideal_gas")
    for qvals in _domain_samples(ideal, rng, 10):
        total += 1
        worst = max(worst, equilibrium.involution_check(ideal, IndexSubset.of(1), qvals))
    quad = next(e.relation for e in equilibrium.catalog() if e.id == "quadratic")
    for I in _subsets(quad.n):
        for qvals in _domain_samples(quad, rng, 10):
            total += 1
            worst = max(worst, equilibrium.involution_check(quad, I, qvals))
    return CheckRecord("equilibrium.involution",
                       "the quarter-turn image of a state space lies on the "
                       "transformed relation's embedding",
                       worst, 1e-8, total)


_CHECKS: dict[str, list] = {
    "heisenberg": [_check_heisenberg_commutators, _check_heisenberg_reeb,
                   _check_heisenberg_gram],
    "hamiltonian": [_check_hamiltonian_eta, _check_hamiltonian_lie_eta],
    "flows": [_check_flows_rotation, _check_flows_scaling,
              _check_flows_legendre_order, _check_flows_eta_preserved],
    "commutator": [_check_commutator],
    "structures": [_structure_check(kind) for kind in StructureKind]
                  + [_check_structures_scaling_pde],
    "table1": [_table1_check(kind) for kind in MetricKind],
    "einstein": [_check_einstein, _check_einstein_fit],
    "legendre": [_legendre_invariance("legendre.invariance_qp", 1),
                 _legendre_invariance("legendre.invariance_qp_cubed", 3),
                 _check_legendre_even_control, _check_legendre_conditions],
    "nablaxi": [_check_nabla_reeb("nabla_reeb.lambda", MetricKind.LAMBDA,
                                  StructureKind.LAMBDA_BAR),
                _check_nabla_reeb("nabla_reeb.lambdabar", MetricKind.LAMBDA_BAR,
                                  StructureKind.LAMBDA),
                _check_nabla_duality],
    "equilibrium": [_check_equilibrium_hessian, _check_equilibrium_eta,
                    _check_equilibrium_transform, _check_equilibrium_involution],
}


def run_suite(config: RunConfig) -> Report:
    """Run the selected verification suites and collect one record per check."""
    if config.suite != "all" and config.suite not in _SUITES:
        raise ConfigError(f"unknown suite {config.suite!r}")
    if not 1 <= config.m <= config.n:
        raise ConfigError(f"m={config.m} must satisfy 1 <= m <= n={config.n}")
    suites = _SUITES if config.suite == "all" else (config.suite,)
    report = Report()
    for suite in suites:
        for check in _CHECKS[suite]:
            t0 = time.perf_counter()
            record = check(config)
            record.wall_time = time.perf_counter() - t0
            report.checks.append(record)
    return report


# ---------------------------------------------------------------------------
# argument handling

def _parse_lambda(text: str | None, n: int) -> LambdaFamily | None:
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
    return LambdaFamily.of(parts)


def _parse_point(csv: str, n: int) -> PhasePoint:
    vals = [float(v) for v in csv.split(",")]
    if len(vals) != 2 * n + 1:
        raise ConfigError(f"point needs {2 * n + 1} values for n={n}, got {len(vals)}")
    return PhasePoint.from_array(np.array(vals))


def _metric_for(args, space: PhaseSpace) -> Metric:
    kind = MetricKind(args.metric)
    lam = None
    if kind in (MetricKind.LAMBDA, MetricKind.LAMBDA_BAR):
        lam = _parse_lambda(args.lam, space.n) or product_lambda(space.n)
    return metric_from_structure(space, kind, lam)


def _emit(lines: list[str], json_path: str | None):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = parse_flat(fh.read())
        for key in ("suite", "n", "m", "seed", "points"):
            if key in raw:
                overrides[key] = raw[key]
        lam_entries = {k: v for k, v in raw.items() if k.startswith("lambda.")}
        if lam_entries:
            ordered = [lam_entries[k] for k in sorted(lam_entries, key=lambda k: int(k.split(".")[1]))]
            overrides["lam"] = LambdaFamily.of(ordered)
        if "output" in raw:
            overrides["json_path"] = raw["output"]
    cfg = RunConfig(
        suite=args.suite or overrides.get("suite", "all"),
        n=args.n if args.n is not None else int(overrides.get("n", 2)),
        m=args.m if args.m is not None else int(overrides.get("m", 1)),
        seed=args.seed if args.seed is not None else int(overrides.get("seed", 0)),
        points=args.points if args.points is not None else int(overrides.get("points", 50)),
        lam=overrides.get("lam"),
        catalog_path=args.catalog,
        json_path=args.json or overrides.get("json_path"),
    )
    if args.lam:
        cfg.lam = _parse_lambda(args.lam, cfg.n)
    t0 = time.perf_counter()
    report = run_suite(cfg)
    elapsed = time.perf_counter() - t0
    _emit(report.lines(cfg), cfg.json_path)
    print(f"{len(report.checks)} checks, {report.failures} failures in {elapsed:.2f} s",
          file=sys.stderr)
    return 0 if report.failures == 0 else 1


def _cmd_curvature(args) -> int:
    space = PhaseSpace(args.n if args.n is not None else 2)
    metric = _metric_for(args, space)
    point = _parse_point(args.point, space.n)
    rep = calculus.ricci(metric, point, fit=args.fit)
    record = {
        "metric": args.metric,
        "n": space.n,
        "point": point.as_array().tolist(),
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
    n = args.n if args.n is not None else 1
    space = PhaseSpace(n)
    point = _parse_point(args.point, n)
    m = args.m if args.m is not None else n
    closed = None
    if args.hamiltonian == "hL":
        h = rotation_generator(m)
        closed = rotation_flow(args.t, IndexSubset.of(range(1, m + 1)), point)
    elif args.hamiltonian == "hS":
        h = scaling_generator(n)
        closed = scaling_flow(args.t, point)
    else:
        h = expr.parse(args.hamiltonian)
    X = hamiltonian_vector_field(space, h)
    end = integrate_flow(X, point, args.t, args.steps)
    record = {
        "hamiltonian": args.hamiltonian,
        "t": args.t,
        "steps": args.steps,
        "endpoint": end.as_array().tolist(),
    }
    if closed is not None:
        record["closed_form"] = closed.as_array().tolist()
        record["deviation"] = _max_abs(end.as_array() - closed.as_array())
    _emit([dump_record(record)], args.json)
    return 0


def _cmd_pullback(args) -> int:
    space = PhaseSpace(args.n if args.n is not None else 2)
    metric = _metric_for(args, space)
    point = _parse_point(args.point, space.n)
    if args.map == "legendre":
        indices = [int(s) for s in (args.indices or "1").split(",")]
        mapping = legendre_map(space, IndexSubset.of(indices))
    else:
        mapping = scaling_map(space, args.t)
    pulled = pullback(mapping, metric, point)
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


def _cmd_table(args) -> int:
    cfg = RunConfig(
        suite="table1",
        n=args.n if args.n is not None else 2,
        m=args.m if args.m is not None else 1,
        seed=args.seed if args.seed is not None else 0,
        points=args.points if args.points is not None else 50,
        lam=_parse_lambda(args.lam, args.n if args.n is not None else 2),
        json_path=args.json,
    )
    report = run_suite(cfg)
    _emit(report.lines(cfg), cfg.json_path)
    return 0 if report.failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactgeo",
        description="Verification suites and computations on the contact phase space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=False):
        p.add_argument("--n", type=int, default=None, help="number of conjugate pairs")
        p.add_argument("--seed", type=int, default=None, help="sampler seed")
        p.add_argument("--points", type=int, default=None, help="sample count per check")
        p.add_argument("--json", default=None, help="also write the JSON report here")
        p.add_argument("--config", default=None, help="key = value config file")
        if point:
            p.add_argument("--point", required=True,
                           help="comma-separated w,q1..qn,p1..pn")

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", choices=("all",) + _SUITES, default=None)
    p.add_argument("--m", type=int, default=None, help="rotated pairs for the rotation generator")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="scaling family: 'qp', 'qp3', or ';'-separated expressions")
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

    p = sub.add_parser("table", help="verify the Lie-derivative table rows")
    common(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, expr.ExprError, ValueError, OSError, ArithmeticError,
            RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
