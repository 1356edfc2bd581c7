"""The sparse symbolic builders against their dense originals, node for node.

``lie_derivative``, ``directional_derivative``, ``christoffel_symbolic``,
``ricci_symbolic``, ``metric_from_structure`` and ``phase_space.matmul`` build a
product only when no factor is structurally zero and a derivative only for a
free variable.  Nodes are interned, so each component must be the very node the
dense sum (for ``matmul``, numpy's ``@``) builds.
Table 1's closed forms, written as one coefficient row per conjugate pair, are
held to the sums of scaled coframe products they replace in the same way.
"""

import numpy as np
import pytest

from conftest import (composed_lie_derivative_closed_form, dense_christoffel_symbolic,
                      dense_directional_derivative, dense_lie_derivative, dense_metric_sum,
                      dense_ricci_symbolic)
from contactgeo import expr, metrics
from contactgeo.calculus import (christoffel_symbolic, directional_derivative,
                                 lie_derivative, ricci_symbolic)
from contactgeo.hamiltonian import (IndexSubset, hamiltonian_vector_field, legendre_map,
                                    random_polynomial_hamiltonian,
                                    rotation_generator, scaling_generator, scaling_map)
from contactgeo.metrics import MetricKind, metric_from_structure
from contactgeo.phase_space import contact_form, d_eta, frame, matmul
from contactgeo.structures import build_structure, product_lambda
from contactgeo.tables import lie_derivative_closed_form

NS = (1, 2, 3)


def _assert_same_nodes(got, want):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    bad = [idx for idx in np.ndindex(got.shape) if got[idx] is not want[idx]]
    assert not bad, f"{len(bad)} of {got.size} components differ, first at {bad[0]}"


def _hamiltonians(n):
    rng = np.random.default_rng(140 + n)
    return [random_polynomial_hamiltonian(n, rng) for _ in range(3)] + [
        rotation_generator(n), rotation_generator(1), scaling_generator(n)]


def _lambda(kind, n):
    return product_lambda(n) if kind.value.startswith("lambda") else None


@pytest.mark.parametrize("n", NS)
def test_lie_derivative_of_every_valence(n):
    lam = product_lambda(n)
    fields = frame(n)
    tensors = [contact_form(n), d_eta(n), fields[0], fields[n], fields[-1],
               build_structure(n, MetricKind.ACS),
               build_structure(n, MetricKind.LAMBDA, lam),
               build_structure(n, MetricKind.LAMBDA_BAR, lam)]
    for h in _hamiltonians(n):
        X = hamiltonian_vector_field(n, h)
        for T in tensors:
            got = lie_derivative(T, X)
            assert got.valence == T.valence
            _assert_same_nodes(got.comps, dense_lie_derivative(T, X).comps)


@pytest.mark.parametrize("n, kinds", [(4, list(MetricKind)), (8, [MetricKind.LAMBDA_BAR])])
def test_lie_derivative_of_the_table1_metrics(n, kinds):
    # the inputs of the table1 checks, where X has the fewest live components
    fields = [hamiltonian_vector_field(n, h)
              for h in (rotation_generator(1), rotation_generator(n), scaling_generator(n))]
    for kind in kinds:
        T = metric_from_structure(n, kind, _lambda(kind, n)).tensor
        for X in fields:
            _assert_same_nodes(lie_derivative(T, X).comps,
                               dense_lie_derivative(T, X).comps)


def test_lie_derivative_of_eta_at_n_four():
    # the inputs of hamiltonian.lie_eta
    n = 4
    rng = np.random.default_rng(29)
    eta = contact_form(n)
    for _ in range(3):
        X = hamiltonian_vector_field(n, random_polynomial_hamiltonian(n, rng))
        _assert_same_nodes(lie_derivative(eta, X).comps,
                           dense_lie_derivative(eta, X).comps)


@pytest.mark.parametrize("n", NS)
def test_directional_derivative(n):
    hs = _hamiltonians(n)
    for h in hs:
        X = hamiltonian_vector_field(n, h)
        for f in [*hs, *product_lambda(n)]:
            assert directional_derivative(X, f) is dense_directional_derivative(X, f)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kind", list(MetricKind))
def test_metric_from_structure(kind, n):
    lam = _lambda(kind, n)
    metric = metric_from_structure(n, kind, lam)
    phi = build_structure(n, kind, lam)
    want = dense_metric_sum(contact_form(n), d_eta(n), phi, metrics._SIGN_OF[kind])
    _assert_same_nodes(metric.tensor.comps, want)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kind", [k for k in MetricKind if k != MetricKind.ALPHA_PI])
def test_christoffel_and_ricci(kind, n):
    metric = metric_from_structure(n, kind, _lambda(kind, n))
    gamma = christoffel_symbolic(metric)
    dense_gamma = dense_christoffel_symbolic(metric)
    _assert_same_nodes(gamma, dense_gamma)
    _assert_same_nodes(ricci_symbolic(metric), dense_ricci_symbolic(dense_gamma))


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kind", list(MetricKind))
def test_table1_rows(kind, n):
    # invariant, non-invariant, constant (whose rates fold to zero) and mixed families
    families = [product_lambda(n), product_lambda(n, power=2),
                tuple(map(expr.parse, [str(a + 2) for a in range(n)])),
                tuple(map(expr.parse, [f"w*q{a} + p{a}^2" for a in range(1, n + 1)]))]
    cases = [("scaling", None)] + [("rotation", m) for m in range(1, n + 1)]
    for lam in families if kind.value.startswith("lambda") else [None]:
        for generator, m in cases:
            got = lie_derivative_closed_form(n, kind, generator, m=m, lam=lam)
            want = composed_lie_derivative_closed_form(n, kind, generator, m=m, lam=lam)
            assert got.valence == want.valence == (0, 2)
            _assert_same_nodes(got.comps, want.comps)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_matmul_is_numpy_matmul(n):
    lam = product_lambda(n)
    squares = [build_structure(n, kind, _lambda(kind, n)).comps for kind in MetricKind]
    for kind in MetricKind:
        metric = metric_from_structure(n, kind, _lambda(kind, n))
        squares.append(metric.tensor.comps)
        if metric.inverse is not None:
            squares.append(metric.inverse)
    squares.append(d_eta(n).comps)
    squares += [legendre_map(n, IndexSubset.of(range(1, m + 1))).jacobian
                for m in range(1, n + 1)]
    squares.append(scaling_map(n, 0.3).jacobian)
    squares.append(build_structure(n, MetricKind.LAMBDA, lam).comps.T)
    vectors = [contact_form(n).comps] + [f.comps for f in frame(n)]
    for A in squares:
        for B in squares:
            _assert_same_nodes(matmul(A, B), A @ B)
        for v in vectors:
            _assert_same_nodes(matmul(A, v), A @ v)
            _assert_same_nodes(matmul(v, A), v @ A)
    for u in vectors:
        for v in vectors:
            assert matmul(u, v) is u @ v
