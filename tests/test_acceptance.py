"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) in addition to asserting, so the suite doubles
as a human-readable checklist.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import bindings, gamma_at, index_mask, pulled_back
from contactgeo import cli, expr
from contactgeo.calculus import lie_bracket, lie_derivative, ricci
from contactgeo.equilibrium import (catalog, embed, involution_check,
                                    legendre_potential)
from contactgeo.hamiltonian import (IndexSubset, closed_form_commutator,
                                    generator_commutator,
                                    hamiltonian_vector_field, integrate_flow,
                                    legendre_map, legendre_rows,
                                    random_polynomial_hamiltonian,
                                    rotation_flow, rotation_generator,
                                    scaling_generator, scaling_map)
from contactgeo.metrics import MetricKind, metric_from_structure
from contactgeo.phase_space import contact_form, coord_names, d_eta, frame, sample_points
from contactgeo.structures import build_structure, product_lambda, structure_identities
from contactgeo.tables import lie_derivative_closed_form


def _report(number: int, passed: bool, detail: str):
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def test_criterion_01_heisenberg_and_reeb():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (1, 2, 3):
        fields = frame(n)
        xi, Q, P = fields[0], fields[1:n + 1], fields[n + 1:]
        eta, deta = contact_form(n), d_eta(n)
        brackets = []
        for a in range(n):
            for b in range(n):
                brackets.append((lie_bracket(P[a], Q[b]), a == b))
            brackets.append((lie_bracket(xi, Q[a]), False))
            brackets.append((lie_bracket(xi, P[a]), False))
        for pt in sample_points(n, rng, 100):
            xv = xi.evaluate(pt)
            for bracket, is_reeb in brackets:
                want = xv if is_reeb else 0.0
                worst = max(worst, _max_abs(bracket.evaluate(pt) - want))
            worst = max(worst, abs(eta.evaluate(pt) @ xv - 1.0))
            worst = max(worst, _max_abs(xv @ deta.evaluate(pt)))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-12 and elapsed < 1.0,
            f"residual {worst:.3e}, runtime {elapsed:.2f} s")


def test_criterion_02_hamiltonian_field_identities():
    rng = np.random.default_rng(2)
    n = 2
    eta = contact_form(n)
    worst = 0.0
    for _ in range(20):
        h = random_polynomial_hamiltonian(n, rng)
        X = hamiltonian_vector_field(n, h)
        led = lie_derivative(eta, X)
        dh_dw = expr.differentiate(h, "w")
        for pt in sample_points(n, rng, 5):
            b = bindings(pt)
            worst = max(worst, abs(eta.evaluate(pt) @ X.evaluate(pt) - expr.evaluate(h, b)))
            scale = expr.evaluate(dh_dw, b)
            worst = max(worst, _max_abs(led.evaluate(pt) - scale * eta.evaluate(pt)))
    _report(2, worst < 1e-12, f"residual {worst:.3e} over 20 random Hamiltonians")


def test_criterion_03_flows_and_involutivity():
    n = 1
    start_pt = (1.0, 2.0, 3.0)
    XL = hamiltonian_vector_field(n, rotation_generator(1))
    XS = hamiltonian_vector_field(n, scaling_generator(1))
    rot_dev = _max_abs(np.array(integrate_flow(XL, start_pt, math.pi / 2, 10_000))
                       - rotation_flow(math.pi / 2, IndexSubset.of(1), start_pt))
    scale_dev = _max_abs(np.array(integrate_flow(XS, start_pt, math.log(2.0), 10_000))
                         - scaling_map(n, math.log(2.0)).apply(start_pt))
    x = np.array([start_pt])
    for _ in range(4):
        x = legendre_rows(index_mask(IndexSubset.of(1), 1)[None, :], x)
    exact = x[0].tolist() == list(start_pt)
    _report(3, rot_dev < 1e-8 and scale_dev < 1e-8 and exact,
            f"rotation {rot_dev:.2e}, scaling {scale_dev:.2e}, "
            f"fourth power exact: {exact}")


def test_criterion_04_generator_commutator():
    rng = np.random.default_rng(4)
    n = 2
    bracket = generator_commutator(n, 1)
    closed = closed_form_commutator(n, 1)
    worst = max(_max_abs(bracket.evaluate(pt) - closed.evaluate(pt))
                for pt in sample_points(n, rng, 50))
    _report(4, worst < 1e-10, f"residual {worst:.3e} at 50 points, n=2, m=1")


def test_criterion_05_structure_identities():
    rng = np.random.default_rng(5)
    n = 2
    pts = sample_points(n, rng, 100)
    lam = product_lambda(2)
    worst = 0.0
    for kind in MetricKind:
        fam = lam if kind.value.startswith("lambda") else None
        cases = cli._differences(coord_names(n), structure_identities(n, kind, fam), pts)
        worst = max(worst, *cli._worst(cases))
    _report(5, worst < 1e-12, f"residual {worst:.3e} over all six structures, 100 points")


def test_criterion_06_lie_derivative_table():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    n = 2
    m = 1
    lam = product_lambda(2)
    pts = sample_points(n, rng, 50)
    XL = hamiltonian_vector_field(n, rotation_generator(m))
    XS = hamiltonian_vector_field(n, scaling_generator(2))
    worst = 0.0
    for kind in MetricKind:
        fam = lam if kind.value.startswith("lambda") else None
        metric = metric_from_structure(n, kind, fam)
        for X, generator in ((XL, "rotation"), (XS, "scaling")):
            got = lie_derivative(metric.tensor, X)
            want = lie_derivative_closed_form(n, kind, generator, m=m, lam=fam)
            for pt in pts:
                worst = max(worst, _max_abs(got.evaluate(pt) - want.evaluate(pt)))
    elapsed = time.perf_counter() - start
    _report(6, worst < 1e-9 and elapsed < 10.0,
            f"residual {worst:.3e} over six rows, runtime {elapsed:.2f} s")


def test_criterion_07_eta_einstein():
    rng = np.random.default_rng(7)
    worst = 0.0
    runtime_n3 = 0.0
    for n in (1, 2, 3):
        start = time.perf_counter()
        metric = metric_from_structure(n, MetricKind.ACS)
        for pt in sample_points(n, rng, 20):
            worst = max(worst, ricci(metric, pt).eta_einstein_residual)
        if n == 3:
            runtime_n3 = time.perf_counter() - start
    _report(7, worst < 1e-8 and runtime_n3 < 30.0,
            f"residual {worst:.3e} for n in 1..3, n=3 runtime {runtime_n3:.2f} s")


def test_criterion_08_finite_legendre_invariance():
    rng = np.random.default_rng(8)
    worst = 0.0
    for power in (1, 3):
        for n in (1, 2, 3):
            metric = metric_from_structure(n, MetricKind.LAMBDA,
                                           product_lambda(n, power=power))
            pts = sample_points(n, rng, 10)
            for r in range(1, n + 1):
                for combo in itertools.combinations(range(1, n + 1), r):
                    mapping = legendre_map(n, IndexSubset.of(combo))
                    for pt in pts:
                        pulled = pulled_back(mapping, metric.tensor, pt)
                        worst = max(worst, _max_abs(pulled - metric.tensor.evaluate(pt)))
    # negative control: the even family must visibly break invariance
    even = metric_from_structure(2, MetricKind.LAMBDA, product_lambda(2, power=2))
    mapping = legendre_map(2, IndexSubset.of(1))
    control = min(_max_abs(pulled_back(mapping, even.tensor, pt)
                           - even.tensor.evaluate(pt))
                  for pt in sample_points(2, rng, 20))
    _report(8, worst < 1e-9 and control > 1e-2,
            f"invariance residual {worst:.3e}, even-family control {control:.3e}")


def test_criterion_09_reeb_covariant_derivative():
    rng = np.random.default_rng(9)
    n = 2
    lam = product_lambda(2)
    g_lam = metric_from_structure(n, MetricKind.LAMBDA, lam)
    g_bar = metric_from_structure(n, MetricKind.LAMBDA_BAR, lam)
    phi_lam = build_structure(n, MetricKind.LAMBDA, lam)
    phi_bar = build_structure(n, MetricKind.LAMBDA_BAR, lam)
    worst = 0.0
    for pt in sample_points(n, rng, 50):
        worst = max(worst, _max_abs(gamma_at(g_lam, pt)[:, 0, :] + phi_bar.evaluate(pt)))
        worst = max(worst, _max_abs(gamma_at(g_bar, pt)[:, 0, :] + phi_lam.evaluate(pt)))
    _report(9, worst < 1e-9, f"residual {worst:.3e} at 50 points off the zero locus")


def test_criterion_10_hessian_pullback_and_involution():
    rng = np.random.default_rng(10)
    worst_hessian = 0.0
    for entry in catalog():
        rel = entry.relation
        gr = metric_from_structure(rel.n, MetricKind.R)
        lo = np.array([d[0] for d in rel.domain])
        hi = np.array([d[1] for d in rel.domain])
        margin = 0.05 * (hi - lo)
        for qvals in lo + margin + (hi - lo - 2 * margin) * rng.random((50, rel.n)):
            pulled = pulled_back(rel.embedding, gr.tensor, qvals)
            worst_hessian = max(worst_hessian, _max_abs(pulled + rel.hessian(qvals)))

    ideal = next(e.relation for e in catalog() if e.id == "ideal_gas")
    F = legendre_potential(ideal, 1)
    worst_transform = 0.0
    worst_involution = 0.0
    for S in np.linspace(0.6, 1.9, 5):
        for V in np.linspace(0.6, 1.9, 4):
            T = math.exp(S) * V ** (-2.0 / 3.0)
            closed = T * (1.0 - math.log(T) - (2.0 / 3.0) * math.log(V))
            worst_transform = max(worst_transform, abs(embed(F, [T, V])[0] - closed))
            worst_involution = max(worst_involution,
                                   involution_check(ideal, IndexSubset.of(1), [S, V]))
    _report(10, worst_hessian < 1e-10 and worst_transform < 1e-8
            and worst_involution < 1e-8,
            f"hessian {worst_hessian:.3e}, transform {worst_transform:.3e}, "
            f"involution {worst_involution:.3e}")
