"""Contact Hamiltonian fields, closed-form flows, and the RK4 integrator."""

import ast
import math

import numpy as np
import pytest

from conftest import (bindings, coframe, evaluated, index_mask, long_sum_hamiltonian,
                      loop_random_polynomial_hamiltonian, partial_legendre_scalar)
from contactgeo import cli, expr
from contactgeo.calculus import lie_bracket, lie_derivative
from contactgeo.hamiltonian import (IndexSubset, closed_form_commutator,
                                    generator_commutator,
                                    hamiltonian_vector_field, integrate_flow,
                                    legendre_map, legendre_rows,
                                    random_polynomial_hamiltonian,
                                    rotation_flow, rotation_generator,
                                    scaling_generator, scaling_map)
from contactgeo.phase_space import TensorField, _obj, contact_form, frame, sample_points

PT = (1.0, 2.0, 3.0)
I1 = IndexSubset.of(1)


def _legendre(I, pt):
    """The partial Legendre image of one point: the one-row case of ``legendre_rows``."""
    (row,) = legendre_rows(index_mask(I, (len(pt) - 1) // 2)[None, :], [pt])
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

    @pytest.mark.parametrize("index", [1.5, True, "a"])
    def test_the_constructor_refuses_an_index_that_is_no_integer(self, index):
        # it took them as given: legendre_map then failed inside numpy and
        # rotation_flow read True as index 1
        with pytest.raises(TypeError) as err:
            IndexSubset((index,))
        assert str(err.value) == f"an index must be an integer, not {index!r}"

    def test_the_constructor_keeps_numpy_integers_as_int(self):
        I = IndexSubset((np.int64(2), 1))
        assert I.indices == (1, 2) and all(type(i) is int for i in I.indices)
        assert IndexSubset.of(I) is I

    def test_nonempty_required_by_maps(self):
        with pytest.raises(ValueError):
            _legendre(IndexSubset(()), PT)


class TestHamiltonianVectorField:
    def test_rotation_generator_components(self):
        X = hamiltonian_vector_field(1, rotation_generator(1))
        assert np.allclose(X.evaluate(PT), [-2.5, -3.0, 2.0])
        # cross-check eta(X) = h = 6.5
        assert contact_form(1).evaluate(PT) @ X.evaluate(PT) == pytest.approx(6.5)

    def test_scaling_generator_components(self):
        X = hamiltonian_vector_field(1, scaling_generator(1))
        assert np.allclose(X.evaluate(PT), [0.0, -2.0, 3.0])

    def test_zero_hamiltonian_gives_zero_field(self):
        X = hamiltonian_vector_field(1, expr.ZERO)
        assert np.array_equal(X.evaluate(PT), [0.0, 0.0, 0.0])

    def test_defining_relation_for_random_hamiltonians(self):
        rng = np.random.default_rng(11)
        n = 2
        eta = contact_form(n)
        for _ in range(20):
            h = random_polynomial_hamiltonian(n, rng)
            X = hamiltonian_vector_field(n, h)
            for pt in sample_points(n, rng, 5):
                got = eta.evaluate(pt) @ X.evaluate(pt)
                assert got == pytest.approx(expr.evaluate(h, bindings(pt)), abs=1e-12)

    def test_contact_transformation_property(self):
        # L_{X_h} eta = (dh/dw) eta, componentwise
        rng = np.random.default_rng(12)
        n = 2
        eta = contact_form(n)
        for _ in range(20):
            h = random_polynomial_hamiltonian(n, rng)
            X = hamiltonian_vector_field(n, h)
            led = lie_derivative(eta, X)
            dh_dw = expr.differentiate(h, "w")
            for pt in sample_points(n, rng, 5):
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
        n = 2
        I = IndexSubset.of([1, 2])
        for pt in sample_points(n, rng, 5):
            t1, t2 = rng.uniform(-2, 2, size=2)
            composed = rotation_flow(t2, I, rotation_flow(t1, I, pt))
            direct = rotation_flow(t1 + t2, I, pt)
            assert np.allclose(composed, direct, atol=1e-12)

    def test_untouched_indices(self):
        n = 2
        pt = (0.5, 1.0, 2.0, 3.0, 4.0)
        end = rotation_flow(0.7, IndexSubset.of(1), pt)
        assert end[2] == 2.0 and end[4] == 4.0

    @pytest.mark.parametrize("pt", [(), (1.0,), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0),
                                    (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)])
    def test_a_point_of_even_or_short_length_is_refused(self, pt):
        # an even length was read as the n below it, the last value left alone
        with pytest.raises(ValueError, match=f"odd number >= 3 of coordinates, got {len(pt)}$"):
            rotation_flow(0.5, I1, pt)


class TestScalingFlow:
    def test_log_two(self):
        end = scaling_map(1, math.log(2.0)).apply(PT)
        assert np.allclose(end, [1.0, 1.0, 6.0], atol=1e-12)

    def test_zero_time_is_identity(self):
        assert scaling_map(1, 0.0).apply(PT) == list(PT)

    def test_preserves_contact_form(self):
        rng = np.random.default_rng(14)
        n = 2
        eta = contact_form(n)
        mapping = scaling_map(n, 0.8)
        for pt in sample_points(n, rng, 20):
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
        n = 3
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
        n = 4
        for pt in sample_points(n, rng, 10):
            for I in (IndexSubset.of(2), IndexSubset.of([1, 3, 4])):
                (row,) = legendre_rows(index_mask(I, 4)[None, :], [pt])
                assert _legendre(I, pt) == partial_legendre_scalar(I, pt)
                assert np.array(partial_legendre_scalar(I, pt)).tobytes() == row.tobytes()

    def test_rows_and_mask_must_agree(self):
        with pytest.raises(ValueError, match="expected 2 rows of 5 coordinates"):
            legendre_rows(np.ones((2, 2), dtype=bool), np.zeros((2, 3)))

    def test_matches_quarter_rotation(self):
        rng = np.random.default_rng(16)
        n = 2
        I = IndexSubset.of([1, 2])
        for pt in sample_points(n, rng, 10):
            a = np.array(_legendre(I, pt))
            b = np.array(rotation_flow(math.pi / 2, I, pt))
            assert np.max(np.abs(a - b)) < 1e-12

    def test_strict_contact_transformation(self):
        rng = np.random.default_rng(17)
        n = 2
        eta = contact_form(n)
        for I in (IndexSubset.of(1), IndexSubset.of([1, 2])):
            mapping = legendre_map(n, I)
            for pt in sample_points(n, rng, 10):
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


def _field(*texts):
    """The vector field whose components, w first, are the expressions ``texts``."""
    comps = _obj(len(texts))
    comps[:] = [expr.parse(text) for text in texts]
    return TensorField((1, 0), comps)


def _bits(values):
    """Each float of ``values`` as its exact hex text, which tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


class TestIntegrateFlow:
    def test_rotation_against_closed_form(self):
        X = hamiltonian_vector_field(1, rotation_generator(1))
        end = integrate_flow(X, PT, math.pi / 2, 10_000)
        assert np.max(np.abs(np.array(end) - [-5.0, -3.0, 2.0])) < 1e-8

    def test_scaling_against_closed_form(self):
        X = hamiltonian_vector_field(1, scaling_generator(1))
        end = integrate_flow(X, PT, math.log(2.0), 10_000)
        assert np.max(np.abs(np.array(end) - [1.0, 1.0, 6.0])) < 1e-8

    def test_zero_time_returns_start(self):
        X = hamiltonian_vector_field(1, rotation_generator(1))
        assert integrate_flow(X, PT, 0.0, 5) == list(PT)

    def test_nonfinite_state_raises(self):
        from contactgeo.phase_space import TensorField, _obj

        comps = _obj(3)
        comps[0] = expr.parse("w*w*w*w*w*w*w*w*w")
        blowup = TensorField((1, 0), comps)
        with pytest.raises(FloatingPointError, match="non-finite"):
            integrate_flow(blowup, (10.0, 0.0, 0.0), 50.0, 400)

    def test_step_validation(self):
        X = hamiltonian_vector_field(1, rotation_generator(1))
        with pytest.raises(ValueError):
            integrate_flow(X, PT, 1.0, 0)

    def test_equals_numpy_rk4_exactly(self):
        # the reference steps numpy vectors and evaluates each component alone,
        # so neither the float-list stepping nor the generated tape is in it;
        # the steps are long enough that summing k1..k4 in another order shows
        n = 2
        rng = np.random.default_rng(9)
        for _ in range(2):
            X = hamiltonian_vector_field(n, random_polynomial_hamiltonian(n, rng))
            x = sample_points(n, rng, 1)[0]
            y = _numpy_rk4(X, x, 0.5, 300)
            assert integrate_flow(X, x, 0.5, 300)== y.tolist()

    @pytest.mark.parametrize("n, seed", [(1, 40), (2, 40), (3, 44)])  # flows that stay finite
    def test_stepper_equals_numpy_rk4_exactly(self, n, seed):
        # a random field, and the same field with a constant w component and a
        # zero q1 component, which the stepper reads from its default arguments
        rng = np.random.default_rng(seed)
        X = hamiltonian_vector_field(n, random_polynomial_hamiltonian(n, rng))
        comps = X.comps.copy()
        comps[0], comps[1] = expr.const(0.7), expr.ZERO
        x = sample_points(n, rng, 1)[0]
        for field in (X, TensorField((1, 0), comps)):
            y = _numpy_rk4(field, x, 0.5, 300)
            assert integrate_flow(field, x, 0.5, 300)== y.tolist()

    @pytest.mark.parametrize("texts, x", [
        # a quotient and its zero test, log, exp, sin, cos, negation, rational
        # powers of odd and even root, and integer powers negative, odd and even,
        # with q1*p1 shared by two powers
        (("log(q1)/(p1^2 + 1) + exp(-w)*sin(p1)", "cos(w*q1) - q1^(1/3) + (q1 + 2)^-2",
          "(q1*p1)^3 + (q1*p1)^2 - q1^(2/3) + q1^(1/2)"), (0.3, 1.2, 0.7)),
        (("w/(q1 - p1) - (w*w)^-1", "-(q1^2)*exp(p1*w)", "sin(q1)^3 + cos(p1)^(5/3) + 1/w"),
         (-0.4, 0.5, 1.5)),
    ])
    def test_every_opcode_equals_numpy_rk4_exactly(self, texts, x):
        field = _field(*texts)
        if texts[0].startswith("log"):
            assert {op for op, *_ in field.tape._code} == set(range(13))
        y = _numpy_rk4(field, x, 0.2, 40)
        assert _bits(integrate_flow(field, x, 0.2, 40)) == _bits(y)

    def test_negative_zero_through_odd_and_even_powers(self):
        # q stays -0.0 (qdot = q), so every stage raises -0.0 to the third and the
        # second power: the odd power's zero test gives +0.0 where math.pow gives
        # -0.0, and the even power needs none, math.pow giving +0.0 itself
        field = _field("q1^3", "q1", "q1^2")
        x = (-0.0, -0.0, -0.0)
        end = integrate_flow(field, x, 0.5, 10)
        assert _bits(end) == _bits(_numpy_rk4(field, x, 0.5, 10)) == _bits([0.0, -0.0, 0.0])

    def test_first_domain_error_in_tape_order(self):
        # at w = -1 and q1 = 0 the log's test and the divisor's both fail in the
        # first stage; the first in tape order raises, as in Tape.run
        messages = []
        for text in ("log(w) + 1/q1", "1/q1 + log(w)"):
            field = _field(text, "0", "0")
            with pytest.raises(expr.EvalError) as want:
                field.tape.run([-1.0, 0.0, 1.0])
            with pytest.raises(expr.EvalError) as got:
                integrate_flow(field, (-1.0, 0.0, 1.0), 0.1, 5)
            assert str(got.value) == str(want.value)
            messages.append(str(got.value))
        assert messages == ["log of a non-positive value", "division by zero"]

    def test_a_400_term_sum(self):
        # the endpoint of one statement per instruction; inlined without a cap,
        # the chains of sums nest past the parser's 200 parentheses
        X = hamiltonian_vector_field(1, expr.parse(long_sum_hamiltonian()))
        end = integrate_flow(X, (0.1, 0.2, 0.3), 0.5, 200)
        assert end == [0.9492867570936296, 7.434520064261467e-06, 1309987.6199212624]

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
        X = hamiltonian_vector_field(1, rotation_generator(1))
        for shift in (0.0, 1e-5, -1e-5):
            for t in (1e-4, -1e-4):
                integrate_flow(X, (1.0 + shift, 2.0, 3.0), t, 32)
        assert len(calls) == 1

    def test_stepper_source_does_not_grow_with_steps(self):
        def source_lines(steps):
            X = hamiltonian_vector_field(1, rotation_generator(1))
            integrate_flow(X, PT, 0.1, steps)
            return max(line for *_, line in X.tape._stepper.__code__.co_lines() if line)

        assert source_lines(1) == source_lines(5000) < 100

    def test_rotation_stepper_has_no_copy_and_no_unread_input(self, monkeypatch):
        # a copy (a name assigned from a bare name) and a stage input that no
        # instruction reads (w here) are work the fused stepper does not do
        bodies = []
        body = expr._stepper_body
        monkeypatch.setattr(expr, "_stepper_body", lambda *args: (
            bodies.append(body(*args)), bodies[-1])[1])
        integrate_flow(hamiltonian_vector_field(1, rotation_generator(1)), PT, 0.1, 1)
        tree = ast.parse("\n".join(bodies[0]))
        copies = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Name)
                  and all(isinstance(target, ast.Name) for target in node.targets)]
        assert copies == []
        names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
        stored = {node.id for node in names if isinstance(node.ctx, ast.Store)}
        assert stored <= {node.id for node in names if isinstance(node.ctx, ast.Load)}

    def test_domain_error_late_in_a_long_run(self, capsys):
        # w reaches 0 at step 3552, deep inside the stepper's loop over the steps
        code = cli.main(["flow", "--hamiltonian", "log(w)", "--point", "0.9,0.5,0.5",
                         "--t", "5", "--steps", "10000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: log of a non-positive value\n"


class TestGeneratorCommutator:
    def test_value_at_point(self):
        comm = generator_commutator(1, 1)
        assert np.allclose(comm.evaluate(PT), [-13.0, -6.0, -4.0])

    def test_closed_form_matches_bracket(self):
        rng = np.random.default_rng(18)
        n = 2
        comm = generator_commutator(n, 1)
        closed = closed_form_commutator(n, 1)
        for pt in sample_points(n, rng, 50):
            assert np.max(np.abs(comm.evaluate(pt) - closed.evaluate(pt))) < 1e-10

    def test_reeb_component_vanishes_on_diagonal(self):
        # eta([X_hS, X_hL]) = p^2 - q^2 = 0 when q = p
        comm = generator_commutator(1, 1)
        eta = contact_form(1)
        pt = (0.0, 1.0, 1.0)
        assert eta.evaluate(pt) @ comm.evaluate(pt) == pytest.approx(0.0, abs=1e-12)

    def test_untouched_directions_vanish(self):
        rng = np.random.default_rng(19)
        n = 2
        comm = generator_commutator(n, 1)
        for pt in sample_points(n, rng, 10):
            vals = comm.evaluate(pt)
            assert abs(vals[2]) < 1e-12
            assert abs(vals[n + 2]) < 1e-12

    def test_m_validation(self):
        with pytest.raises(ValueError):
            generator_commutator(1, 2)


class TestFrameTransport:
    """Lie derivatives of the frame and coframe along the two generators."""

    def test_along_rotation_generator(self):
        rng = np.random.default_rng(20)
        n = 2
        m = 1
        XL = hamiltonian_vector_field(n, rotation_generator(m))
        fields = frame(n)
        xi, Q, P = fields[0], fields[1:3], fields[3:]
        co = coframe(n)
        dq, dp = co[1:3], co[3:]
        pts = sample_points(n, rng, 10)

        def check(got, want_field, sign=1.0):
            for pt in pts:
                want = sign * want_field.evaluate(pt) if want_field is not None else 0.0
                assert np.max(np.abs(got.evaluate(pt) - want)) < 1e-12

        check(lie_derivative(xi, XL), None)
        check(lie_derivative(Q[0], XL), P[0], -1.0)   # L Q_i = -P^i for i <= m
        check(lie_derivative(P[0], XL), Q[0])         # L P^i = Q_i
        check(lie_derivative(Q[1], XL), None)         # untouched beyond m
        check(lie_derivative(P[1], XL), None)
        check(lie_derivative(dq[0], XL), dp[0], -1.0)  # L dq^i = -dp_i
        check(lie_derivative(dp[0], XL), dq[0])        # L dp_i = dq^i
        check(lie_derivative(dq[1], XL), None)
        check(lie_derivative(dp[1], XL), None)

    def test_along_scaling_generator(self):
        rng = np.random.default_rng(21)
        n = 2
        XS = hamiltonian_vector_field(n, scaling_generator(2))
        fields = frame(n)
        co = coframe(n)
        pts = sample_points(n, rng, 10)
        for a in (1, 2):
            Q, P = fields[a], fields[2 + a]
            dq, dp = co[a], co[n + a]
            for got, want, sign in ((lie_derivative(Q, XS), Q, 1.0),
                                    (lie_derivative(P, XS), P, -1.0),
                                    (lie_derivative(dq, XS), dq, -1.0),
                                    (lie_derivative(dp, XS), dp, 1.0)):
                for pt in pts:
                    assert np.max(np.abs(got.evaluate(pt) - sign * want.evaluate(pt))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_random_hamiltonian_is_the_scalar_draws_tree(n):
    # one broadcast draw per Hamiltonian reads the stream the scalar draws read
    for seed in range(60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert (random_polynomial_hamiltonian(n, rng)
                    is loop_random_polynomial_hamiltonian(n, ref))
        assert rng.bit_generator.state == ref.bit_generator.state
