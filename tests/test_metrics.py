"""Metric construction, Gram tables, compatibility/associated checks, pullbacks."""

import itertools

import numpy as np
import pytest

from conftest import add_tensors, coframe, outer_02, pulled_back
from contactgeo import expr
from contactgeo.calculus import SingularMetricError, lie_derivative
from contactgeo.cli import _differences
from contactgeo.hamiltonian import (IndexSubset, hamiltonian_vector_field,
                                    legendre_map, rotation_generator,
                                    scaling_generator, scaling_map)
from contactgeo.metrics import (MetricKind, associated_pairs, compatibility_pairs,
                                metric_from_structure)
from contactgeo.phase_space import TensorField, contact_form, coord_names, frame, sample_points
from contactgeo.structures import StructureKind, build_structure, product_lambda
from contactgeo.tables import lie_derivative_closed_form

PT = (1.0, 2.0, 3.0)

ALL_KINDS = list(MetricKind)
METRIC_KINDS = [k for k in ALL_KINDS if k != MetricKind.ALPHA_PI]


def _metric(n, kind):
    lam = product_lambda(n) if kind.value.startswith("lambda") else None
    return metric_from_structure(n, kind, lam)


class TestConstruction:
    def test_acs_matrix(self):
        g = _metric(1, MetricKind.ACS).tensor.evaluate(PT)
        assert np.allclose(g, [[1.0, -3.0, 0.0], [-3.0, 9.5, 0.0], [0.0, 0.0, 0.5]])

    def test_lambda_matrix(self):
        g = _metric(1, MetricKind.LAMBDA).tensor.evaluate(PT)
        assert np.allclose(g, [[1.0, -3.0, 0.0], [-3.0, 9.0, -3.0], [0.0, -3.0, 0.0]])

    def test_alpha_pi_is_not_a_metric(self):
        alpha = _metric(1, MetricKind.ALPHA_PI)
        mat = alpha.tensor.evaluate(PT)
        ee = np.outer([1.0, -3.0, 0.0], [1.0, -3.0, 0.0])
        horizontal = mat - ee
        assert np.max(np.abs(horizontal + horizontal.T)) < 1e-15  # antisymmetric part

    def test_symmetry_of_all_metric_kinds(self):
        rng = np.random.default_rng(50)
        for kind in METRIC_KINDS:
            metric = _metric(2, kind)
            for pt in sample_points(2, rng, 20):
                g = metric.tensor.evaluate(pt)
                assert np.max(np.abs(g - g.T)) < 1e-12

    def test_nondegeneracy_off_singular_locus(self):
        rng = np.random.default_rng(51)
        for kind in METRIC_KINDS:
            metric = _metric(2, kind)
            for pt in sample_points(2, rng, 20):
                assert abs(np.linalg.det(metric.tensor.evaluate(pt))) > 1e-10

    def test_symbolic_inverse_is_exact(self):
        rng = np.random.default_rng(52)
        for kind in METRIC_KINDS:
            metric = _metric(2, kind)
            inv = TensorField((0, 2), metric.inverse)
            for pt in sample_points(2, rng, 10):
                prod = metric.tensor.evaluate(pt) @ inv.evaluate(pt)
                assert np.max(np.abs(prod - np.eye(5))) < 1e-12


def _frame_gram(metric, point):
    """Gram matrix ``E^T g E`` of the frame ``(xi, Q_1..Q_n, P^1..P^n)`` at a point."""
    E = np.column_stack([f.evaluate(point) for f in frame(metric.tensor.n)])
    return E.T @ metric.tensor.evaluate(point) @ E


class TestFrameGram:
    def test_acs_orthogonal_frame(self):
        gram = _frame_gram(_metric(2, MetricKind.ACS), (0.2, 1.0, -2.0, 0.7, 1.1))
        assert np.allclose(gram, np.diag([1.0, 0.5, 0.5, 0.5, 0.5]))

    def test_reflection_pairing(self):
        gram = _frame_gram(_metric(1, MetricKind.R), PT)
        assert np.allclose(gram, [[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]])

    def test_composite_pseudo_orthogonal(self):
        gram = _frame_gram(_metric(2, MetricKind.S), (0.0, 1.0, 1.0, 1.0, 1.0))
        assert np.allclose(gram, np.diag([1.0, 0.5, 0.5, -0.5, -0.5]))

    def test_alpha_pi_rejected(self):
        # the half-turn tensor has no inverse, so the metric-only operations refuse it
        with pytest.raises(SingularMetricError, match="not a metric"):
            _metric(1, MetricKind.ALPHA_PI).gamma


class TestCompatibility:
    """The identities hold for all X, Y when every component of ``lhs - rhs`` vanishes;
    the pairs run through verify's residual tape."""

    @pytest.mark.parametrize("metric_kind,structure_kind", [
        (MetricKind.ACS, StructureKind.ALMOST_CONTACT),
        (MetricKind.R, StructureKind.REFLECTION),
        (MetricKind.S, StructureKind.COMPOSITE),
    ])
    def test_compatible_pairs(self, metric_kind, structure_kind):
        rng = np.random.default_rng(53)
        phi = build_structure(2, structure_kind)
        pairs = compatibility_pairs(_metric(2, metric_kind), phi)
        rows = sample_points(2, rng, 10)
        diffs = _differences(coord_names(2), pairs, rows)
        assert diffs.shape == (10, 25)
        assert np.max(np.abs(diffs)) < 1e-12

    @pytest.mark.parametrize("metric_kind,structure_kind", [
        (MetricKind.ACS, StructureKind.ALMOST_CONTACT),
        (MetricKind.R, StructureKind.REFLECTION),
        (MetricKind.S, StructureKind.COMPOSITE),
    ])
    def test_associated_pairs(self, metric_kind, structure_kind):
        rng = np.random.default_rng(54)
        phi = build_structure(2, structure_kind)
        pairs = associated_pairs(_metric(2, metric_kind), phi)
        rows = sample_points(2, rng, 10)
        diffs = _differences(coord_names(2), pairs, rows)
        assert diffs.shape == (10, 25)
        assert np.max(np.abs(diffs)) < 1e-12

    def test_scaled_family_is_neither(self):
        # the scaled reflection loses both properties at generic points
        metric = _metric(1, MetricKind.LAMBDA)
        phi = build_structure(1, StructureKind.LAMBDA, product_lambda(1))

        def at_dq_dp(pairs):
            diffs = _differences(coord_names(1), pairs, [PT])
            return diffs.reshape(3, 3)[1, 2]  # the (q1, p1) component

        # hand values at (1,2,3), Lambda = 6: g(phi dq, phi dp) = -Lambda^2 g(Q,P) = 108
        # against -(g(dq, dp) - eta(dq) eta(dp)) = 3
        assert at_dq_dp(compatibility_pairs(metric, phi)) == pytest.approx(105.0)
        # g(dq, phi dp) = Lambda^2/2 = 18 vs d_eta = 1/2
        assert at_dq_dp(associated_pairs(metric, phi)) == pytest.approx(17.5)


class TestPullback:
    def test_eta_outer_eta_is_invariant(self):
        rng = np.random.default_rng(55)
        eta = contact_form(2)
        ee = outer_02(eta, eta)
        for I in (IndexSubset.of(1), IndexSubset.of([1, 2])):
            mapping = legendre_map(2, I)
            for pt in sample_points(2, rng, 10):
                pulled = pulled_back(mapping, ee, pt)
                assert np.max(np.abs(pulled - ee.evaluate(pt))) < 1e-12

    @pytest.mark.parametrize("power", [1, 3])
    def test_odd_product_families_are_legendre_invariant(self, power):
        rng = np.random.default_rng(56 + power)
        for n in (1, 2, 3):
            metric = metric_from_structure(n, MetricKind.LAMBDA,
                                           product_lambda(n, power=power))
            pts = sample_points(n, rng, 10)
            for r in range(1, n + 1):
                for combo in itertools.combinations(range(1, n + 1), r):
                    mapping = legendre_map(n, IndexSubset.of(combo))
                    for pt in pts:
                        pulled = pulled_back(mapping, metric.tensor, pt)
                        assert np.max(np.abs(pulled - metric.tensor.evaluate(pt))) < 1e-9

    def test_even_family_is_not_invariant(self):
        rng = np.random.default_rng(58)
        metric = metric_from_structure(2, MetricKind.LAMBDA, product_lambda(2, power=2))
        mapping = legendre_map(2, IndexSubset.of(1))
        for pt in sample_points(2, rng, 20):
            pulled = pulled_back(mapping, metric.tensor, pt)
            assert np.max(np.abs(pulled - metric.tensor.evaluate(pt))) > 1e-2

    def test_reflection_metric_is_not_invariant(self):
        # the defect is exactly dq^i (x) dp_i + dp_i (x) dq^i on the turned pairs
        rng = np.random.default_rng(59)
        metric = _metric(2, MetricKind.R)
        mapping = legendre_map(2, IndexSubset.of(1))
        co = coframe(2)
        defect = add_tensors(outer_02(co[1], co[3]), outer_02(co[3], co[1]))
        for pt in sample_points(2, rng, 10):
            diff = pulled_back(mapping, metric.tensor, pt) - metric.tensor.evaluate(pt)
            assert np.max(np.abs(diff)) == pytest.approx(1.0)
            assert np.max(np.abs(diff - defect.evaluate(pt))) < 1e-12

    def test_scaling_map_preserves_lambda_metric(self):
        rng = np.random.default_rng(60)
        metric = _metric(2, MetricKind.LAMBDA)
        mapping = scaling_map(2, 0.6)
        for pt in sample_points(2, rng, 10):
            pulled = pulled_back(mapping, metric.tensor, pt)
            assert np.max(np.abs(pulled - metric.tensor.evaluate(pt))) < 1e-12

    def test_contact_form_is_invariant(self):
        # a (0,1) field pulls back as J^T (eta o phi)
        rng = np.random.default_rng(62)
        eta = contact_form(2)
        for mapping in (legendre_map(2, IndexSubset.of([1, 2])), scaling_map(2, 0.6)):
            for pt in sample_points(2, rng, 10):
                pulled = pulled_back(mapping, eta, pt)
                assert np.max(np.abs(pulled - eta.evaluate(pt))) < 1e-12

    def test_rejects_wrong_valence(self):
        # vectors and endomorphisms push forward; only (0,1) and (0,2) fields pull back
        for field in (frame(1)[0], build_structure(1, StructureKind.REFLECTION)):
            with pytest.raises(ValueError, match="expects a \\(0,1\\) or \\(0,2\\) tensor"):
                legendre_map(1, IndexSubset.of(1)).pullback(field)


class TestLieDerivativeTable:
    """All six rows along both generators, n=2, m=1."""

    M = 1

    def setup_method(self):
        self.rng = np.random.default_rng(61)
        self.XL = hamiltonian_vector_field(2, rotation_generator(self.M))
        self.XS = hamiltonian_vector_field(2, scaling_generator(2))
        self.pts = sample_points(2, self.rng, 50)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rows(self, kind):
        lam = product_lambda(2) if kind.value.startswith("lambda") else None
        metric = metric_from_structure(2, kind, lam)
        for X, generator in ((self.XL, "rotation"), (self.XS, "scaling")):
            got = lie_derivative(metric.tensor, X)
            want = lie_derivative_closed_form(2, kind, generator, m=self.M, lam=lam)
            for pt in self.pts:
                assert np.max(np.abs(got.evaluate(pt) - want.evaluate(pt))) < 1e-9

    @pytest.mark.parametrize("generator", ["rotation", "scaling"])
    @pytest.mark.parametrize("size", [1, 3])
    def test_a_family_of_another_size_is_refused(self, generator, size):
        # one entry per pair: a shorter family once raised a bare IndexError and a
        # longer one silently lost its last entries
        for kind in (MetricKind.LAMBDA, MetricKind.LAMBDA_BAR):
            with pytest.raises(ValueError, match=f"lambda family has {size} entries, need 2"):
                lie_derivative_closed_form(2, kind, generator, m=1, lam=product_lambda(size))
            with pytest.raises(ValueError, match=f"{kind.value} needs a lambda family"):
                lie_derivative_closed_form(2, kind, generator, m=1)

    def test_frozen_scaling_row_of_acs(self):
        # L_{X_S} g = dp (x) dp - dq (x) dq has constant components
        got = lie_derivative(_metric(1, MetricKind.ACS).tensor,
                             hamiltonian_vector_field(1, scaling_generator(1)))
        assert np.allclose(got.evaluate(PT), np.diag([0.0, -1.0, 1.0]))

    def test_frozen_rotation_row_of_reflection(self):
        got = lie_derivative(_metric(1, MetricKind.R).tensor,
                             hamiltonian_vector_field(1, rotation_generator(1)))
        assert np.allclose(got.evaluate(PT), np.diag([0.0, -1.0, 1.0]))

    def test_frozen_rotation_row_of_lambda(self):
        # -(1/2) X(L)(dp (x) dq + dq (x) dp) - L (dq (x) dq - dp (x) dp)
        # at (1,2,3): X(L) = q^2 - p^2 = -5, L = 6
        got = lie_derivative(_metric(1, MetricKind.LAMBDA).tensor,
                             hamiltonian_vector_field(1, rotation_generator(1)))
        want = np.array([[0.0, 0.0, 0.0], [0.0, -6.0, 2.5], [0.0, 2.5, 6.0]])
        assert np.allclose(got.evaluate(PT), want)

    def test_scaling_isometries(self):
        for kind in (MetricKind.ALPHA_PI, MetricKind.R, MetricKind.LAMBDA,
                     MetricKind.LAMBDA_BAR):
            lam = product_lambda(2) if kind.value.startswith("lambda") else None
            metric = metric_from_structure(2, kind, lam)
            got = lie_derivative(metric.tensor, self.XS)
            for pt in self.pts[:10]:
                assert np.max(np.abs(got.evaluate(pt))) < 1e-12

    def test_rotation_isometries(self):
        for kind in (MetricKind.ACS, MetricKind.ALPHA_PI):
            metric = metric_from_structure(2, kind)
            got = lie_derivative(metric.tensor, self.XL)
            for pt in self.pts[:10]:
                assert np.max(np.abs(got.evaluate(pt))) < 1e-12

    def test_composite_row_vanishes_under_bracket(self):
        from contactgeo.calculus import lie_bracket

        metric = _metric(2, MetricKind.S)
        bracket = lie_bracket(self.XL, self.XS)
        got = lie_derivative(metric.tensor, bracket)
        for pt in self.pts[:10]:
            assert np.max(np.abs(got.evaluate(pt))) < 1e-10
