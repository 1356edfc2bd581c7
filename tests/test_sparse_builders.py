"""The sparse symbolic builders against their dense originals, node for node.

``lie_derivative``, ``directional_derivative``, ``christoffel_symbolic``,
``ricci_symbolic`` and ``metric_from_structure`` build a product only when no
factor is structurally zero and a derivative only for a free variable.  Nodes
are interned, so each component must be the very node the dense sum builds.
"""

import numpy as np
import pytest

from conftest import (dense_christoffel_symbolic, dense_directional_derivative,
                      dense_lie_derivative, dense_metric_sum, dense_ricci_symbolic)
from contactgeo import metrics
from contactgeo.calculus import (christoffel_symbolic, directional_derivative,
                                 lie_derivative, ricci_symbolic)
from contactgeo.hamiltonian import (hamiltonian_vector_field,
                                    random_polynomial_hamiltonian,
                                    rotation_generator, scaling_generator)
from contactgeo.metrics import MetricKind, metric_from_structure
from contactgeo.phase_space import PhaseSpace, contact_form, d_eta, frame
from contactgeo.structures import StructureKind, build_structure, product_lambda

NS = (1, 2, 3)


def _assert_same_nodes(got, want):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    bad = [idx for idx in np.ndindex(got.shape) if got[idx] is not want[idx]]
    assert not bad, f"{len(bad)} of {got.size} components differ, first at {bad[0]}"


def _hamiltonians(space):
    rng = np.random.default_rng(140 + space.n)
    return [random_polynomial_hamiltonian(space, rng) for _ in range(3)] + [
        rotation_generator(space.n), rotation_generator(1), scaling_generator(space.n)]


def _lambda(kind, n):
    return product_lambda(n) if kind.value.startswith("lambda") else None


@pytest.mark.parametrize("n", NS)
def test_lie_derivative_of_every_valence(n):
    space = PhaseSpace(n)
    lam = product_lambda(n)
    fields = frame(space)
    tensors = [contact_form(space), d_eta(space), fields[0], fields[n], fields[-1],
               build_structure(space, StructureKind.ALMOST_CONTACT),
               build_structure(space, StructureKind.LAMBDA, lam),
               build_structure(space, StructureKind.LAMBDA_BAR, lam)]
    for h in _hamiltonians(space):
        X = hamiltonian_vector_field(space, h)
        for T in tensors:
            got = lie_derivative(space, T, X)
            assert got.valence == T.valence
            _assert_same_nodes(got.comps, dense_lie_derivative(space, T, X).comps)


@pytest.mark.parametrize("n", NS)
def test_directional_derivative(n):
    space = PhaseSpace(n)
    hs = _hamiltonians(space)
    for h in hs:
        X = hamiltonian_vector_field(space, h)
        for f in [*hs, *product_lambda(n).exprs]:
            assert directional_derivative(space, X, f) is dense_directional_derivative(space, X, f)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kind", list(MetricKind))
def test_metric_from_structure(kind, n):
    space = PhaseSpace(n)
    lam = _lambda(kind, n)
    metric = metric_from_structure(space, kind, lam)
    phi = build_structure(space, metrics._STRUCTURE_OF[kind], lam)
    want = dense_metric_sum(contact_form(space), d_eta(space), phi, metrics._SIGN_OF[kind])
    _assert_same_nodes(metric.tensor.comps, want)


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kind", [k for k in MetricKind if k != MetricKind.ALPHA_PI])
def test_christoffel_and_ricci(kind, n):
    space = PhaseSpace(n)
    metric = metric_from_structure(space, kind, _lambda(kind, n))
    gamma = christoffel_symbolic(metric)
    dense_gamma = dense_christoffel_symbolic(metric)
    _assert_same_nodes(gamma, dense_gamma)
    _assert_same_nodes(ricci_symbolic(metric), dense_ricci_symbolic(space, dense_gamma))
