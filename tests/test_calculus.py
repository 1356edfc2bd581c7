"""Lie calculus, Levi-Civita connection, curvature, and the Reeb covariant derivative."""

import math

import numpy as np
import pytest

from conftest import (christoffel_fd, flat_metric, flow_lie_derivative, gamma_at,
                      metric_from_components, ricci_fd)
from contactgeo import expr
from contactgeo.calculus import (SingularMetricError, directional_derivative, lie_bracket,
                                 lie_derivative, require_nonsingular, ricci)
from contactgeo.hamiltonian import (hamiltonian_vector_field,
                                    random_polynomial_hamiltonian,
                                    rotation_generator, scaling_generator)
from contactgeo.metrics import MetricKind, metric_from_structure
from contactgeo.phase_space import _obj, contact_form, coord_names, frame, sample_points
from contactgeo.structures import build_structure, product_lambda

PT = (1.0, 2.0, 3.0)


def _lambda_metric(n, kind=MetricKind.LAMBDA, power=1):
    return metric_from_structure(n, kind, product_lambda(n, power=power))


class TestLieBracket:
    def test_heisenberg_bracket(self):
        _, Q1, P1 = frame(1)
        bracket = lie_bracket(P1, Q1)
        assert np.array_equal(bracket.evaluate(PT), [1.0, 0.0, 0.0])

    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(70)
        X = hamiltonian_vector_field(2, random_polynomial_hamiltonian(2, rng))
        bracket = lie_bracket(X, X)
        for pt in sample_points(2, rng, 5):
            assert np.max(np.abs(bracket.evaluate(pt))) < 1e-12

    def test_generator_bracket_value(self):
        XS = hamiltonian_vector_field(1, scaling_generator(1))
        XL = hamiltonian_vector_field(1, rotation_generator(1))
        bracket = lie_bracket(XS, XL)
        assert np.allclose(bracket.evaluate(PT), [-13.0, -6.0, -4.0])

    def test_antisymmetry_and_jacobi(self):
        rng = np.random.default_rng(71)
        for n in (1, 2):
            X = hamiltonian_vector_field(n, rotation_generator(n))
            Y = hamiltonian_vector_field(n, scaling_generator(n))
            Z = hamiltonian_vector_field(n, random_polynomial_hamiltonian(n, rng))
            anti = lie_bracket(X, Y)
            anti_rev = lie_bracket(Y, X)
            jacobi_terms = [lie_bracket(X, lie_bracket(Y, Z)),
                            lie_bracket(Y, lie_bracket(Z, X)),
                            lie_bracket(Z, lie_bracket(X, Y))]
            for pt in sample_points(n, rng, 10):
                assert np.max(np.abs(anti.evaluate(pt) + anti_rev.evaluate(pt))) < 1e-10
                total = sum(t.evaluate(pt) for t in jacobi_terms)
                assert np.max(np.abs(total)) < 1e-10


class TestLieDerivative:
    def test_contact_form_is_preserved_by_rotations(self):
        XL = hamiltonian_vector_field(2, rotation_generator(1))
        led = lie_derivative(contact_form(2), XL)
        rng = np.random.default_rng(72)
        for pt in sample_points(2, rng, 10):
            assert np.max(np.abs(led.evaluate(pt))) < 1e-15

    def test_w_free_tensors_are_reeb_invariant(self):
        xi = frame(2)[0]
        for tensor in (metric_from_structure(2, MetricKind.R).tensor,
                       build_structure(2, MetricKind.S)):
            led = lie_derivative(tensor, xi)
            rng = np.random.default_rng(73)
            for pt in sample_points(2, rng, 5):
                assert np.max(np.abs(led.evaluate(pt))) < 1e-15

    def test_reflection_defect_frozen(self):
        phi_r = build_structure(1, MetricKind.R)
        XL = hamiltonian_vector_field(1, rotation_generator(1))
        got = lie_derivative(phi_r, XL).evaluate(PT)
        want = np.array([[0.0, 0.0, -6.0], [0.0, 0.0, -2.0], [0.0, -2.0, 0.0]])
        assert np.allclose(got, want)

    def test_against_flow_based_oracle(self):
        # independent route: numeric flow, FD Jacobians, central time difference
        pt = (0.3, 0.9, -1.2)
        cases = [
            (metric_from_structure(1, MetricKind.ACS).tensor,
             hamiltonian_vector_field(1, scaling_generator(1))),
            (metric_from_structure(1, MetricKind.R).tensor,
             hamiltonian_vector_field(1, rotation_generator(1))),
            (_lambda_metric(1).tensor,
             hamiltonian_vector_field(1, rotation_generator(1))),
        ]
        for tensor, X in cases:
            exact = lie_derivative(tensor, X).evaluate(pt)
            approx = flow_lie_derivative(tensor, X, pt)
            assert np.max(np.abs(exact - approx)) < 1e-5

    def test_unsupported_direction(self):
        with pytest.raises(ValueError):
            lie_derivative(contact_form(1), contact_form(1))

    def test_fields_of_different_dimension(self):
        X1 = hamiltonian_vector_field(1, rotation_generator(1))
        X2 = hamiltonian_vector_field(2, rotation_generator(1))
        for call in (lambda: lie_derivative(contact_form(2), X1),
                     lambda: lie_derivative(contact_form(1), X2),
                     lambda: lie_bracket(X1, X2), lambda: lie_bracket(X2, X1)):
            with pytest.raises(ValueError, match="dimension 3 and 5|dimension 5 and 3"):
                call()


class TestDirectionalDerivative:
    def test_rate_along_a_field(self):
        # qdot = -p, pdot = q, wdot = (1/2) sum (q^2 - p^2): the rate of q2 p2 + w is
        # q2^2 - p2^2 + wdot, -12 - 10 at (q1, q2, p1, p2) = (1, 2, 3, 4)
        X = hamiltonian_vector_field(2, rotation_generator(2))
        rate = directional_derivative(X, expr.parse("q2*p2 + w"))
        pt = [0.5, 1.0, 2.0, 3.0, 4.0]
        assert expr.evaluate(rate, dict(zip(coord_names(2), pt))) == -22.0

    def test_a_variable_outside_the_field_is_refused(self):
        # on n = 1, q2 and p2 are no coordinates: no longer read as constants
        X = hamiltonian_vector_field(1, rotation_generator(1))
        with pytest.raises(ValueError, match="'p2' is not a coordinate of the 3-dimensional"):
            directional_derivative(X, expr.parse("q2*p2 + w"))


class TestChristoffel:
    def test_flat_metric_has_no_connection_coefficients(self):
        gamma = gamma_at(flat_metric(1), PT)
        assert np.max(np.abs(gamma)) == 0.0

    def test_symmetry_in_lower_indices(self):
        gamma = gamma_at(metric_from_structure(1, MetricKind.ACS), PT)
        assert np.isfinite(gamma).all()
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) == 0.0

    def test_matches_finite_differences(self):
        metric = metric_from_structure(1, MetricKind.ACS)

        def g_fn(arr):
            return metric.tensor.evaluate(arr.tolist())

        gamma = gamma_at(metric, PT)
        gamma_fd = christoffel_fd(g_fn, PT)
        assert np.max(np.abs(gamma - gamma_fd)) < 1e-6

    def test_metric_compatibility(self):
        # nabla g = 0: d_c g_ab = Gamma^d_ca g_db + Gamma^d_cb g_ad
        rng = np.random.default_rng(74)
        names = coord_names(2)
        for kind in (MetricKind.ACS, MetricKind.R):
            metric = metric_from_structure(2, kind)
            dg = np.empty((5, 5, 5), dtype=object)
            for c, name in enumerate(names):
                for a in range(5):
                    for b in range(5):
                        dg[c, a, b] = expr.differentiate(metric.tensor.comps[a, b], name)
            tape = expr.compile(dg.reshape(-1), names)
            for pt in sample_points(2, rng, 10):
                gamma = gamma_at(metric, pt)
                g = metric.tensor.evaluate(pt)
                partials = np.reshape(tape.run(pt), dg.shape)
                for c in range(5):
                    for a in range(5):
                        for b in range(5):
                            partial = partials[c, a, b]
                            correction = gamma[:, c, a] @ g[:, b] + gamma[:, c, b] @ g[a, :]
                            assert abs(partial - correction) < 1e-8

    def test_singular_point_raises(self):
        metric = _lambda_metric(1)
        with pytest.raises(SingularMetricError):
            gamma_at(metric, (0.0, 0.0, 1.0))


class TestRicci:
    def test_product_sphere_curvature(self):
        # R x S^2 with theta = q1, phi = p1: Ric = diag(0, 1, sin^2 q1)
        comps, inv = _obj((3, 3)), _obj((3, 3))
        comps[0, 0] = inv[0, 0] = expr.ONE
        comps[1, 1] = inv[1, 1] = expr.ONE
        sin_sq = expr.power(expr.sin(expr.var("q1")), 2)
        comps[2, 2] = sin_sq
        inv[2, 2] = expr.div(expr.ONE, sin_sq)
        sphere = metric_from_components(comps, inv, label="sphere")
        pt = (0.4, 0.7, 2.0)
        rep = ricci(sphere, pt)
        want = np.diag([0.0, 1.0, math.sin(0.7) ** 2])
        assert np.max(np.abs(rep.ricci - want)) < 1e-12

    def test_flat_metric_is_ricci_flat(self):
        rep = ricci(flat_metric(2), (0.1, 1.0, 2.0, 3.0, 4.0))
        assert np.max(np.abs(rep.ricci)) == 0.0
        assert rep.eta_einstein_residual == 0.0

    def test_acs_frozen_matrix(self):
        rep = ricci(metric_from_structure(1, MetricKind.ACS), PT)
        want = np.array([[2.0, -6.0, 0.0], [-6.0, 17.0, 0.0], [0.0, 0.0, -1.0]])
        assert np.allclose(rep.ricci, want)
        assert rep.lam == 4.0 and rep.nu == -2.0 and not rep.fitted
        assert rep.eta_einstein_residual < 1e-12

    def test_eta_einstein_at_n_two(self):
        rng = np.random.default_rng(75)
        metric = metric_from_structure(2, MetricKind.ACS)
        for pt in sample_points(2, rng, 10):
            rep = ricci(metric, pt)
            assert rep.lam == 6.0
            assert rep.eta_einstein_residual < 1e-8
            assert rep.symmetry_residual < 1e-8

    def test_fitted_constants(self):
        rng = np.random.default_rng(76)
        metric = metric_from_structure(2, MetricKind.ACS)
        for pt in sample_points(2, rng, 5):
            rep = ricci(metric, pt, fit=True)
            assert rep.fitted
            assert rep.lam == pytest.approx(6.0, abs=1e-8)
            assert rep.nu == pytest.approx(-2.0, abs=1e-8)

    def test_matches_finite_difference_pipeline(self):
        metric = metric_from_structure(1, MetricKind.ACS)

        def g_fn(arr):
            return metric.tensor.evaluate(arr.tolist())

        rep = ricci(metric, PT)
        approx = ricci_fd(g_fn, PT)
        assert np.max(np.abs(rep.ricci - approx)) < 1e-4

    def test_singular_metric_raises(self):
        with pytest.raises(SingularMetricError):
            ricci(_lambda_metric(1), (0.0, 0.0, 1.0))


def _sympy_curvature(metric, point):
    """``Gamma^c_ab`` and ``R_ab`` at ``point`` from sympy's first and second
    derivatives of the metric's components, with the algebra done in numpy: an
    oracle that shares neither ``differentiate`` nor the symbolic connection and
    Ricci builders.  ``R_ab = d_c G^c_ab - d_b G^c_ac + G^c_cd G^d_ab - G^c_bd G^d_ac``,
    with ``d_e g^-1 = -g^-1 (d_e g) g^-1``."""
    sympy = pytest.importorskip("sympy")
    names = coord_names(metric.tensor.n)
    symbols = sympy.symbols(names)
    scope = dict(zip(names, symbols))
    g = sympy.Matrix([[sympy.sympify(expr.to_string(c), locals=scope) for c in row]
                      for row in metric.tensor.comps])
    dg = [g.diff(x) for x in symbols]
    ddg = [[d.diff(x) for x in symbols] for d in dg]
    entries = [g.tolist(), [d.tolist() for d in dg], [[d.tolist() for d in row] for row in ddg]]
    values = sympy.lambdify(symbols, entries, "math")(*point)
    g, dg, ddg = (np.array(v, dtype=float) for v in values)
    ginv = np.linalg.inv(g)
    # bracket[d, a, b] = d_a g_db + d_b g_da - d_d g_ab, and its derivatives d_e
    bracket = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    dbracket = ddg.transpose(0, 2, 1, 3) + ddg.transpose(0, 2, 3, 1) - ddg
    dginv = -np.einsum("cd,edf,fg->ecg", ginv, dg, ginv)
    gamma = 0.5 * np.einsum("cd,dab->cab", ginv, bracket)
    dgamma = 0.5 * (np.einsum("ecd,dab->ecab", dginv, bracket)
                    + np.einsum("cd,edab->ecab", ginv, dbracket))
    ric = (np.einsum("ccab->ab", dgamma) - np.einsum("bcac->ab", dgamma)
           + np.einsum("ccd,dab->ab", gamma, gamma) - np.einsum("cbd,dac->ab", gamma, gamma))
    return gamma, ric


class TestCurvatureAgainstSympy:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", [k for k in MetricKind if k is not MetricKind.ALPHA_PI])
    def test_christoffel_and_ricci(self, kind, n):
        # the lambda metrics' volume is not constant, so their contracted symbol
        # G^c_cb, which two terms of ricci_symbolic sum, is not 0
        metric = _lambda_metric(n, kind) if kind.value.startswith("lambda") else (
            metric_from_structure(n, kind))
        for point in sample_points(n, np.random.default_rng(77), 3):
            gamma, ric = _sympy_curvature(metric, point)
            assert np.allclose(gamma_at(metric, point), gamma, rtol=1e-10, atol=1e-10)
            assert np.allclose(ricci(metric, point).ricci, ric, rtol=1e-10, atol=1e-10)

    def test_the_half_turn_tensor_has_no_connection(self):
        # the sixth structure tensor, a_pi, is antisymmetric: no metric, so no oracle
        with pytest.raises(SingularMetricError, match="alpha_pi is not a metric"):
            gamma_at(metric_from_structure(2, MetricKind.ALPHA_PI), [0.1, 1.0, 2.0, 3.0, 4.0])


class TestRequireNonsingular:

    def _constant_metric(self, mat):
        comps = _obj(mat.shape)
        for (a, b), v in np.ndenumerate(mat):
            if v != 0.0:
                comps[a, b] = expr.const(float(v))
        return metric_from_components(comps)

    def test_a_small_scale_is_not_singular(self):
        # det(0.01 I) = 1e-34 at dimension 17, below the 1e-12 that alone refused it
        mat = 0.01 * np.eye(17)
        point = (0.0,) + (1.0,) * 16
        assert np.array_equal(require_nonsingular(self._constant_metric(mat), point), mat)

    @pytest.mark.parametrize("mat", [
        np.diag([0.0] + [1.0] * 16),                             # determinant exactly 0
        np.diag([1e-13] + [1.0] * 16),                           # condition number 1e13
        np.outer(np.arange(1.0, 18.0), np.arange(1.0, 18.0)),   # rank 1
    ])
    def test_a_rank_deficient_metric_is_refused(self, mat):
        point = (0.0,) + (1.0,) * 16
        with pytest.raises(SingularMetricError, match="^metric is singular at the point$"):
            require_nonsingular(self._constant_metric(mat), point)


class TestNablaReeb:
    def test_lambda_metric_frozen_components(self):
        got = gamma_at(_lambda_metric(1), PT)[:, 0, :]
        # -(1/6) (dq (x) Q - dp (x) P) at (1,2,3)
        want = np.array([[0.0, -0.5, 0.0], [0.0, -1.0 / 6.0, 0.0], [0.0, 0.0, 1.0 / 6.0]])
        assert np.allclose(got, want)

    def test_equals_minus_dual_structure(self):
        rng = np.random.default_rng(77)
        lam = product_lambda(2)
        pairs = [
            (metric_from_structure(2, MetricKind.LAMBDA, lam),
             build_structure(2, MetricKind.LAMBDA_BAR, lam)),
            (metric_from_structure(2, MetricKind.LAMBDA_BAR, lam),
             build_structure(2, MetricKind.LAMBDA, lam)),
        ]
        for metric, dual in pairs:
            for pt in sample_points(2, rng, 25):
                assert np.max(np.abs(gamma_at(metric, pt)[:, 0, :] + dual.evaluate(pt))) < 1e-9

    def test_lambda_bar_frozen_scale(self):
        got = gamma_at(_lambda_metric(1, MetricKind.LAMBDA_BAR), PT)[:, 0, :]
        want = np.array([[0.0, -18.0, 0.0], [0.0, -6.0, 0.0], [0.0, 0.0, 6.0]])
        assert np.allclose(got, want)

    def test_kills_reeb_direction(self):
        got = gamma_at(_lambda_metric(2), (0.3, 1.0, -0.7, 0.9, 1.4))[:, 0, :]
        assert np.max(np.abs(got[:, 0])) < 1e-12

    def test_duality_composition(self):
        from contactgeo.phase_space import outer_11

        rng = np.random.default_rng(78)
        lam = product_lambda(2)
        m1 = metric_from_structure(2, MetricKind.LAMBDA, lam)
        m2 = metric_from_structure(2, MetricKind.LAMBDA_BAR, lam)
        eta_xi = outer_11(contact_form(2), frame(2)[0])
        for pt in sample_points(2, rng, 10):
            composed = gamma_at(m1, pt)[:, 0, :] @ gamma_at(m2, pt)[:, 0, :]
            target = np.eye(5) - eta_xi.evaluate(pt)
            assert np.max(np.abs(composed - target)) < 1e-9

    def test_reflection_limit(self):
        # constant family L = 1 reduces the scaled metric to g_r: nabla xi = -phi_r
        ones = tuple(map(expr.parse, ["1", "1"]))
        metric = metric_from_structure(2, MetricKind.LAMBDA, ones)
        phi_r = build_structure(2, MetricKind.R)
        pt = (0.2, 1.1, -0.6, 0.8, 1.3)
        assert np.max(np.abs(gamma_at(metric, pt)[:, 0, :] + phi_r.evaluate(pt))) < 1e-12


class TestKappa:
    # kappa = (1/2) L_xi phi
    def test_w_free_structures_have_zero_kappa(self):
        rng = np.random.default_rng(79)
        xi = frame(1)[0]
        for structure in (build_structure(1, MetricKind.R),
                          build_structure(1, MetricKind.LAMBDA, product_lambda(1))):
            lie = lie_derivative(structure, xi)
            for pt in sample_points(1, rng, 5):
                assert np.max(np.abs(lie.evaluate(pt))) == 0.0

    def test_w_dependent_family(self):
        lam = tuple(map(expr.parse, ["w*q1*p1"]))
        lie = lie_derivative(build_structure(1, MetricKind.LAMBDA, lam), frame(1)[0])
        # (1/2)(q p)(dq (x) Q - dp (x) P): columns q -> (qp/2) Q, p -> -(qp/2) P
        got = 0.5 * lie.evaluate(PT)
        want = np.array([[0.0, 9.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, -3.0]])
        assert np.allclose(got, want)


class TestKilling:
    # X is Killing where L_X g vanishes
    def test_reeb_is_killing_for_w_free_metrics(self):
        xi = frame(2)[0]
        rng = np.random.default_rng(80)
        for metric in (metric_from_structure(2, MetricKind.ACS), _lambda_metric(2)):
            lie = lie_derivative(metric.tensor, xi)
            for pt in sample_points(2, rng, 5):
                assert np.max(np.abs(lie.evaluate(pt))) == 0.0

    def test_scaling_generator_is_not_killing_for_acs(self):
        XS = hamiltonian_vector_field(1, scaling_generator(1))
        metric = metric_from_structure(1, MetricKind.ACS)
        # L_{X_S} g = dp (x) dp - dq (x) dq has max component 1
        lie = lie_derivative(metric.tensor, XS)
        assert np.max(np.abs(lie.evaluate(PT))) == pytest.approx(1.0)
