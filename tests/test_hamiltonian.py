"""Contact Hamiltonian fields, closed-form flows, and the RK4 integrator."""

import math

import numpy as np
import pytest

from conftest import (bindings, coframe, evaluated, loop_random_polynomial_hamiltonian,
                      partial_legendre_scalar)
from contactgeo import cli, expr
from contactgeo.calculus import lie_bracket, lie_derivative
from contactgeo.hamiltonian import (IndexSubset, closed_form_commutator,
                                    generator_commutator,
                                    hamiltonian_vector_field, integrate_flow,
                                    legendre_map, legendre_rows,
                                    random_polynomial_hamiltonian,
                                    rotation_flow, rotation_generator,
                                    scaling_generator, scaling_map)
from contactgeo.phase_space import (PhaseSpace, TensorField, _obj, contact_form, frame,
                                    sample_points)

SP1 = PhaseSpace(1)
PT = (1.0, 2.0, 3.0)
I1 = IndexSubset.of(1)


def _legendre(I, pt):
    """The partial Legendre image of one point: the one-row case of ``legendre_rows``."""
    (row,) = legendre_rows(I.mask((len(pt) - 1) // 2)[None, :], [pt])
    return row.tolist()


class TestIndexSubset:
    def test_sorts_and_dedups(self):
        assert IndexSubset.of([3, 1, 3]).indices == (1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IndexSubset.of(0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            IndexSubset.of([1, 4]).validate(3)

    def test_nonempty_required_by_maps(self):
        with pytest.raises(ValueError):
            _legendre(IndexSubset(()), PT)


class TestHamiltonianVectorField:
    def test_rotation_generator_components(self):
        X = hamiltonian_vector_field(SP1, rotation_generator(1))
        assert np.allclose(X.evaluate(PT), [-2.5, -3.0, 2.0])
        # cross-check eta(X) = h = 6.5
        assert contact_form(SP1).evaluate(PT) @ X.evaluate(PT) == pytest.approx(6.5)

    def test_scaling_generator_components(self):
        X = hamiltonian_vector_field(SP1, scaling_generator(1))
        assert np.allclose(X.evaluate(PT), [0.0, -2.0, 3.0])

    def test_zero_hamiltonian_gives_zero_field(self):
        X = hamiltonian_vector_field(SP1, expr.ZERO)
        assert np.array_equal(X.evaluate(PT), [0.0, 0.0, 0.0])

    def test_defining_relation_for_random_hamiltonians(self):
        rng = np.random.default_rng(11)
        space = PhaseSpace(2)
        eta = contact_form(space)
        for _ in range(20):
            h = random_polynomial_hamiltonian(space, rng)
            X = hamiltonian_vector_field(space, h)
            for pt in sample_points(space, rng, 5):
                got = eta.evaluate(pt) @ X.evaluate(pt)
                assert got == pytest.approx(expr.evaluate(h, bindings(pt)), abs=1e-12)

    def test_contact_transformation_property(self):
        # L_{X_h} eta = (dh/dw) eta, componentwise
        rng = np.random.default_rng(12)
        space = PhaseSpace(2)
        eta = contact_form(space)
        for _ in range(20):
            h = random_polynomial_hamiltonian(space, rng)
            X = hamiltonian_vector_field(space, h)
            led = lie_derivative(space, eta, X)
            dh_dw = expr.differentiate(h, "w")
            for pt in sample_points(space, rng, 5):
                scale = expr.evaluate(dh_dw, bindings(pt))
                assert np.max(np.abs(led.evaluate(pt) - scale * eta.evaluate(pt))) < 1e-12


class TestRotationFlow:
    def test_quarter_turn(self):
        end = rotation_flow(math.pi / 2, I1, PT)
        assert np.allclose(end, [-5.0, -3.0, 2.0], atol=1e-12)

    def test_zero_time_is_identity(self):
        assert rotation_flow(0.0, I1, PT) == list(PT)

    def test_group_law(self):
        # Phi_{pi/2} o Phi_{pi/2} = Phi_pi, and random-time composition
        twice = rotation_flow(math.pi / 2, I1, rotation_flow(math.pi / 2, I1, PT))
        assert np.allclose(twice, rotation_flow(math.pi, I1, PT), atol=1e-12)
        rng = np.random.default_rng(13)
        space = PhaseSpace(2)
        I = IndexSubset.of([1, 2])
        for pt in sample_points(space, rng, 5):
            t1, t2 = rng.uniform(-2, 2, size=2)
            composed = rotation_flow(t2, I, rotation_flow(t1, I, pt))
            direct = rotation_flow(t1 + t2, I, pt)
            assert np.allclose(composed, direct, atol=1e-12)

    def test_untouched_indices(self):
        space = PhaseSpace(2)
        pt = (0.5, 1.0, 2.0, 3.0, 4.0)
        end = rotation_flow(0.7, IndexSubset.of(1), pt)
        assert end[2] == 2.0 and end[4] == 4.0


class TestScalingFlow:
    def test_log_two(self):
        end = scaling_map(SP1, math.log(2.0)).apply(PT)
        assert np.allclose(end, [1.0, 1.0, 6.0], atol=1e-12)

    def test_zero_time_is_identity(self):
        assert scaling_map(SP1, 0.0).apply(PT) == list(PT)

    def test_preserves_contact_form(self):
        rng = np.random.default_rng(14)
        space = PhaseSpace(2)
        eta = contact_form(space)
        mapping = scaling_map(space, 0.8)
        for pt in sample_points(space, rng, 20):
            J = evaluated(mapping.jacobian, mapping.coords, pt)
            pulled = J.T @ eta.evaluate(mapping.apply(pt))
            assert np.max(np.abs(pulled - eta.evaluate(pt))) < 1e-12


class TestPartialLegendre:
    def test_image(self):
        assert _legendre(I1, PT) == [-5.0, -3.0, 2.0]

    def test_order_four_exactly(self):
        x = PT
        for _ in range(4):
            x = _legendre(I1, x)
        assert x == list(PT)

    def test_order_four_on_integer_points(self):
        rng = np.random.default_rng(15)
        space = PhaseSpace(3)
        for _ in range(25):
            pt = rng.integers(-9, 10, size=7).astype(float).tolist()
            for I in (IndexSubset.of(1), IndexSubset.of([1, 3]), IndexSubset.of([1, 2, 3])):
                x = pt
                for _ in range(4):
                    x = _legendre(I, x)
                assert x == pt

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_equal_the_scalar_map_bit_for_bit(self, n):
        # random masks, the empty one included, on integer and on float points
        rng = np.random.default_rng(200 + n)
        ints = rng.integers(-9, 10, size=(30, 2 * n + 1)).astype(float)
        floats = rng.standard_normal((30, 2 * n + 1)) * 10.0 ** rng.integers(-3, 4, (30, 2 * n + 1))
        rows = np.vstack([ints, floats])
        mask = rng.random((len(rows), n)) < 0.5
        images = [rows]
        for _ in range(4):
            images.append(legendre_rows(mask, images[-1]))
        for j, (row, m) in enumerate(zip(rows, mask)):
            I = IndexSubset.of(np.flatnonzero(m) + 1)
            x = row.tolist()
            for image in images[1:]:
                x = partial_legendre_scalar(I, x)
                assert image[j].tobytes() == np.array(x).tobytes()
        # four applications are the identity, exactly on integer points
        assert images[4][:len(ints)].tobytes() == ints.tobytes()
        assert np.allclose(images[4], rows, rtol=1e-12, atol=1e-9)

    def test_point_form_is_the_one_row_case(self):
        rng = np.random.default_rng(18)
        space = PhaseSpace(4)
        for pt in sample_points(space, rng, 10):
            for I in (IndexSubset.of(2), IndexSubset.of([1, 3, 4])):
                (row,) = legendre_rows(I.mask(4)[None, :], [pt])
                assert _legendre(I, pt) == partial_legendre_scalar(I, pt)
                assert np.array(partial_legendre_scalar(I, pt)).tobytes() == row.tobytes()

    def test_rows_and_mask_must_agree(self):
        with pytest.raises(ValueError, match="expected 2 rows of 5 coordinates"):
            legendre_rows(np.ones((2, 2), dtype=bool), np.zeros((2, 3)))

    def test_matches_quarter_rotation(self):
        rng = np.random.default_rng(16)
        space = PhaseSpace(2)
        I = IndexSubset.of([1, 2])
        for pt in sample_points(space, rng, 10):
            a = np.array(_legendre(I, pt))
            b = np.array(rotation_flow(math.pi / 2, I, pt))
            assert np.max(np.abs(a - b)) < 1e-12

    def test_strict_contact_transformation(self):
        rng = np.random.default_rng(17)
        space = PhaseSpace(2)
        eta = contact_form(space)
        for I in (IndexSubset.of(1), IndexSubset.of([1, 2])):
            mapping = legendre_map(space, I)
            for pt in sample_points(space, rng, 10):
                J = evaluated(mapping.jacobian, mapping.coords, pt)
                pulled = J.T @ eta.evaluate(mapping.apply(pt))
                assert np.max(np.abs(pulled - eta.evaluate(pt))) < 1e-12


def _numpy_rk4(X, x, t, steps):
    """RK4 on numpy vectors, each component evaluated alone: neither the
    stepper nor a tape of the whole field is in it."""

    def rhs(arr):
        b = bindings(arr.tolist())
        return np.array([expr.evaluate(c, b) for c in X.comps])

    h = t / steps
    y = np.array(x, dtype=float)
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class TestIntegrateFlow:
    def test_rotation_against_closed_form(self):
        X = hamiltonian_vector_field(SP1, rotation_generator(1))
        end = integrate_flow(X, PT, math.pi / 2, 10_000)
        assert np.max(np.abs(np.array(end) - [-5.0, -3.0, 2.0])) < 1e-8

    def test_scaling_against_closed_form(self):
        X = hamiltonian_vector_field(SP1, scaling_generator(1))
        end = integrate_flow(X, PT, math.log(2.0), 10_000)
        assert np.max(np.abs(np.array(end) - [1.0, 1.0, 6.0])) < 1e-8

    def test_zero_time_returns_start(self):
        X = hamiltonian_vector_field(SP1, rotation_generator(1))
        assert integrate_flow(X, PT, 0.0, 5) == list(PT)

    def test_nonfinite_state_raises(self):
        from contactgeo.phase_space import TensorField, _obj

        comps = _obj(3)
        comps[0] = expr.parse("w*w*w*w*w*w*w*w*w")
        blowup = TensorField((1, 0), comps)
        with pytest.raises(FloatingPointError, match="non-finite"):
            integrate_flow(blowup, (10.0, 0.0, 0.0), 50.0, 400)

    def test_step_validation(self):
        X = hamiltonian_vector_field(SP1, rotation_generator(1))
        with pytest.raises(ValueError):
            integrate_flow(X, PT, 1.0, 0)

    def test_equals_numpy_rk4_exactly(self):
        # the reference steps numpy vectors and evaluates each component alone,
        # so neither the float-list stepping nor the generated tape is in it;
        # the steps are long enough that summing k1..k4 in another order shows
        space = PhaseSpace(2)
        rng = np.random.default_rng(9)
        for _ in range(2):
            X = hamiltonian_vector_field(space, random_polynomial_hamiltonian(space, rng))
            x = sample_points(space, rng, 1)[0]
            y = _numpy_rk4(X, x, 0.5, 300)
            assert integrate_flow(X, x, 0.5, 300)== y.tolist()

    @pytest.mark.parametrize("n, seed", [(1, 40), (2, 40), (3, 44)])  # flows that stay finite
    def test_stepper_equals_numpy_rk4_exactly(self, n, seed):
        # a random field, and the same field with a constant w component and a
        # zero q1 component, which the stepper reads from its default arguments
        space = PhaseSpace(n)
        rng = np.random.default_rng(seed)
        X = hamiltonian_vector_field(space, random_polynomial_hamiltonian(space, rng))
        comps = X.comps.copy()
        comps[0], comps[1] = expr.const(0.7), expr.ZERO
        x = sample_points(space, rng, 1)[0]
        for field in (X, TensorField((1, 0), comps)):
            y = _numpy_rk4(field, x, 0.5, 300)
            assert integrate_flow(field, x, 0.5, 300)== y.tolist()

    def test_math_range_error_late_in_a_run_names_its_step(self):
        # w = 700 + t, so exp(w) overflows in step 98 of 200 inside the stepper,
        # which names the step as a state that is not finite does
        comps = _obj(3)
        comps[0] = expr.const(1.0)
        comps[1] = expr.const(1e-300) * expr.exp(expr.var("w"))
        with pytest.raises(FloatingPointError) as info:
            integrate_flow(TensorField((1, 0), comps), (700.0, 0.0, 0.0), 20.0, 200)
        assert str(info.value) == "non-finite state at step 98"

    def test_nonfinite_state_names_its_step(self):
        # wdot = w^2 from w = 1 blows up at t = 1, which step 203 of 400 passes
        comps = _obj(3)
        comps[0] = expr.parse("w*w")
        with pytest.raises(FloatingPointError) as info:
            integrate_flow(TensorField((1, 0), comps), PT, 2.0, 400)
        assert str(info.value) == "non-finite state at step 203"

    def test_stepper_is_generated_once_per_tape(self, monkeypatch):
        # the oracle's pattern: many short flows of one field from nearby points
        calls = []
        generate = expr._generate
        monkeypatch.setattr(expr, "_generate", lambda *args: (
            calls.append(args), generate(*args))[1])
        X = hamiltonian_vector_field(SP1, rotation_generator(1))
        for shift in (0.0, 1e-5, -1e-5):
            for t in (1e-4, -1e-4):
                integrate_flow(X, (1.0 + shift, 2.0, 3.0), t, 32)
        assert len(calls) == 1

    def test_stepper_source_does_not_grow_with_steps(self):
        def source_lines(steps):
            X = hamiltonian_vector_field(SP1, rotation_generator(1))
            integrate_flow(X, PT, 0.1, steps)
            return max(line for *_, line in X.tape._stepper.__code__.co_lines() if line)

        assert source_lines(1) == source_lines(5000) < 100

    def test_domain_error_late_in_a_long_run(self, capsys):
        # w reaches 0 at step 3552, deep inside the stepper's loop over the steps
        code = cli.main(["flow", "--hamiltonian", "log(w)", "--point", "0.9,0.5,0.5",
                         "--t", "5", "--steps", "10000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: log of a non-positive value\n"


class TestGeneratorCommutator:
    def test_value_at_point(self):
        comm = generator_commutator(SP1, 1)
        assert np.allclose(comm.evaluate(PT), [-13.0, -6.0, -4.0])

    def test_closed_form_matches_bracket(self):
        rng = np.random.default_rng(18)
        space = PhaseSpace(2)
        comm = generator_commutator(space, 1)
        closed = closed_form_commutator(space, 1)
        for pt in sample_points(space, rng, 50):
            assert np.max(np.abs(comm.evaluate(pt) - closed.evaluate(pt))) < 1e-10

    def test_reeb_component_vanishes_on_diagonal(self):
        # eta([X_hS, X_hL]) = p^2 - q^2 = 0 when q = p
        comm = generator_commutator(SP1, 1)
        eta = contact_form(SP1)
        pt = (0.0, 1.0, 1.0)
        assert eta.evaluate(pt) @ comm.evaluate(pt) == pytest.approx(0.0, abs=1e-12)

    def test_untouched_directions_vanish(self):
        rng = np.random.default_rng(19)
        space = PhaseSpace(2)
        comm = generator_commutator(space, 1)
        for pt in sample_points(space, rng, 10):
            vals = comm.evaluate(pt)
            assert abs(vals[space.q_index(2)]) < 1e-12
            assert abs(vals[space.p_index(2)]) < 1e-12

    def test_m_validation(self):
        with pytest.raises(ValueError):
            generator_commutator(SP1, 2)


class TestFrameTransport:
    """Lie derivatives of the frame and coframe along the two generators."""

    def test_along_rotation_generator(self):
        rng = np.random.default_rng(20)
        space = PhaseSpace(2)
        m = 1
        XL = hamiltonian_vector_field(space, rotation_generator(m))
        fields = frame(space)
        xi, Q, P = fields[0], fields[1:3], fields[3:]
        co = coframe(space)
        dq, dp = co[1:3], co[3:]
        pts = sample_points(space, rng, 10)

        def check(got, want_field, sign=1.0):
            for pt in pts:
                want = sign * want_field.evaluate(pt) if want_field is not None else 0.0
                assert np.max(np.abs(got.evaluate(pt) - want)) < 1e-12

        check(lie_derivative(space, xi, XL), None)
        check(lie_derivative(space, Q[0], XL), P[0], -1.0)   # L Q_i = -P^i for i <= m
        check(lie_derivative(space, P[0], XL), Q[0])         # L P^i = Q_i
        check(lie_derivative(space, Q[1], XL), None)         # untouched beyond m
        check(lie_derivative(space, P[1], XL), None)
        check(lie_derivative(space, dq[0], XL), dp[0], -1.0)  # L dq^i = -dp_i
        check(lie_derivative(space, dp[0], XL), dq[0])        # L dp_i = dq^i
        check(lie_derivative(space, dq[1], XL), None)
        check(lie_derivative(space, dp[1], XL), None)

    def test_along_scaling_generator(self):
        rng = np.random.default_rng(21)
        space = PhaseSpace(2)
        XS = hamiltonian_vector_field(space, scaling_generator(2))
        fields = frame(space)
        co = coframe(space)
        pts = sample_points(space, rng, 10)
        for a in (1, 2):
            Q, P = fields[a], fields[2 + a]
            dq, dp = co[space.q_index(a)], co[space.p_index(a)]
            for got, want, sign in ((lie_derivative(space, Q, XS), Q, 1.0),
                                    (lie_derivative(space, P, XS), P, -1.0),
                                    (lie_derivative(space, dq, XS), dq, -1.0),
                                    (lie_derivative(space, dp, XS), dp, 1.0)):
                for pt in pts:
                    assert np.max(np.abs(got.evaluate(pt) - sign * want.evaluate(pt))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_random_hamiltonian_is_the_scalar_draws_tree(n):
    # one broadcast draw per Hamiltonian reads the stream the scalar draws read
    space = PhaseSpace(n)
    for seed in range(60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert (random_polynomial_hamiltonian(space, rng)
                    is loop_random_polynomial_hamiltonian(space, ref))
        assert rng.bit_generator.state == ref.bit_generator.state
