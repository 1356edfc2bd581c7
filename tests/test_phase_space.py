"""Darboux phase space: contact form, Heisenberg frame, exterior derivative."""

import itertools

import numpy as np
import pytest

from conftest import choice_sample_points, coframe, outer_02
from contactgeo import cli, equilibrium, expr
from contactgeo.calculus import lie_bracket
from contactgeo.hamiltonian import (IndexSubset, hamiltonian_vector_field, integrate_flow,
                                    rotation_flow, rotation_generator, scaling_map)
from contactgeo.phase_space import (TensorField, contact_form, coord_names, d_eta, frame,
                                    outer_11, sample_points)


@pytest.fixture
def pt123():
    return (1.0, 2.0, 3.0)


class TestCoordNames:
    def test_dimension(self):
        assert len(coord_names(3)) == 7
        assert contact_form(3).dim == frame(3)[0].dim == d_eta(3).dim == 7

    def test_requires_positive_n(self):
        rng = np.random.default_rng(0)
        for build in (coord_names, contact_form, frame, d_eta,
                      lambda n: sample_points(n, rng, 1),
                      lambda n: hamiltonian_vector_field(n, rotation_generator(1)),
                      lambda n: scaling_map(n, 0.4)):
            with pytest.raises(ValueError, match="phase space needs n >= 1 conjugate pairs"):
                build(0)

    def test_coordinate_ordering(self):
        assert coord_names(2) == ("w", "q1", "q2", "p1", "p2")


class TestContactForm:
    def test_components_at_point(self, pt123):
        assert np.allclose(contact_form(1).evaluate(pt123), [1.0, -3.0, 0.0])

    def test_reeb_pairing_is_one(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            eta, xi = contact_form(n), frame(n)[0]
            for pt in sample_points(n, rng, 25):
                assert eta.evaluate(pt) @ xi.evaluate(pt) == pytest.approx(1.0, abs=1e-12)

    def test_horizontal_frame_is_killed(self):
        rng = np.random.default_rng(1)
        eta = contact_form(2)
        fields = frame(2)
        for pt in sample_points(2, rng, 25):
            ev = eta.evaluate(pt)
            for f in fields[1:]:
                assert abs(ev @ f.evaluate(pt)) < 1e-12


class TestFrame:
    def test_components_at_point(self, pt123):
        xi, Q1, P1 = frame(1)
        assert np.array_equal(xi.evaluate(pt123), [1, 0, 0])
        assert np.array_equal(Q1.evaluate(pt123), [3, 1, 0])
        assert np.array_equal(P1.evaluate(pt123), [0, 0, 1])

    def test_heisenberg_relations(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3):
            fields = frame(n)
            xi, Q, P = fields[0], fields[1:n + 1], fields[n + 1:]
            pts = sample_points(n, rng, 20)
            for a in range(n):
                for b in range(n):
                    bracket = lie_bracket(P[a], Q[b])
                    for pt in pts:
                        want = xi.evaluate(pt) if a == b else 0.0
                        assert np.max(np.abs(bracket.evaluate(pt) - want)) < 1e-12
            for f in (*Q, *P):
                bracket = lie_bracket(xi, f)
                for pt in pts:
                    assert np.max(np.abs(bracket.evaluate(pt))) < 1e-12

    def test_frame_spans_tangent_space(self, pt123):
        E = np.column_stack([f.evaluate(pt123) for f in frame(1)])
        assert abs(np.linalg.det(E)) > 1e-12


class TestDEta:
    def test_symplectic_pairing_convention(self, pt123):
        _, Q1, P1 = frame(1)
        deta = d_eta(1).evaluate(pt123)
        assert Q1.evaluate(pt123) @ deta @ P1.evaluate(pt123) == pytest.approx(0.5)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        deta = d_eta(2)
        for pt in sample_points(2, rng, 10):
            dv = deta.evaluate(pt)
            assert np.max(np.abs(dv + dv.T)) < 1e-15
            X = rng.standard_normal(5)
            assert abs(X @ dv @ X) < 1e-12

    def test_reeb_is_in_kernel(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            deta, xi = d_eta(n), frame(n)[0]
            for pt in sample_points(n, rng, 10):
                xv = xi.evaluate(pt)
                assert np.max(np.abs(xv @ deta.evaluate(pt))) < 1e-15

    def test_horizontal_gram_determinant(self):
        # non-degeneracy on span(Q, P): |det| = (1/2)^(2n)
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            deta = d_eta(n)
            horiz = frame(n)[1:]
            for pt in sample_points(n, rng, 10):
                E = np.column_stack([f.evaluate(pt) for f in horiz])
                gram = E.T @ deta.evaluate(pt) @ E
                assert abs(np.linalg.det(gram)) == pytest.approx(0.25 ** n, abs=1e-12)


class TestTensorField:
    def test_valence_validation(self):
        with pytest.raises(ValueError):
            TensorField((2, 0), np.empty((3, 3), dtype=object))

    def test_dimension_validation(self):
        # n is read from the dimension, so 2n + 1 must be one: an even one would
        # silently drop a coordinate from every operator that reads the field
        for dim in (1, 2, 4):
            with pytest.raises(ValueError, match=f"2n \\+ 1 >= 3 components, got {dim}"):
                TensorField((0, 1), np.full(dim, expr.ZERO))

    def test_outer_products(self, pt123):
        eta = contact_form(1)
        xi = frame(1)[0]
        ee = outer_02(eta, eta).evaluate(pt123)
        assert np.allclose(ee, np.outer([1, -3, 0], [1, -3, 0]))
        proj = outer_11(eta, xi).evaluate(pt123)
        assert np.allclose(proj @ xi.evaluate(pt123), xi.evaluate(pt123))

    def test_coframe_pairs_with_frame(self, pt123):
        co = coframe(1)
        fr = frame(1)
        pairing = np.array([[co[i].evaluate(pt123) @ fr[j].evaluate(pt123)
                             for j in range(3)] for i in range(3)])
        # dw(Q1) = p1 is the only off-diagonal pairing
        expected = np.eye(3)
        expected[0, 1] = 3.0
        assert np.allclose(pairing, expected)


def test_sample_points_respect_boxes():
    rng = np.random.default_rng(6)
    for pt in sample_points(2, rng, 200):
        assert len(pt) == 5 and -1.0 <= pt[0] <= 1.0
        for v in pt[1:]:
            assert 0.5 <= abs(v) <= 2.0


def test_sample_points_draw_what_the_choice_loop_drew():
    # one raw block decodes to the doubles and signs of the per-point
    # uniform/uniform/choice draws, after a 32-bit half the generator holds
    for n, count, held in itertools.product((1, 2, 3, 8, 12), (0, 1, 7, 50), (False, True)):
        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            if held:
                for gen in (rng, ref):
                    gen.integers(0, 2, size=1)
                assert rng.bit_generator.state["has_uint32"] == 1
            got, want = sample_points(n, rng, count), choice_sample_points(n, ref, count)
            assert got == want
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.integers(0, 2, size=3).tolist() == ref.integers(0, 2, size=3).tolist()
            assert rng.random(2).tolist() == ref.random(2).tolist()


class _CountingPCG64(np.random.PCG64):
    def __init__(self, seed):
        super().__init__(seed)
        self.raw_sizes = []

    def random_raw(self, size=None, output=True):
        self.raw_sizes.append(size)
        return super().random_raw(size, output)


class _NoDrawGenerator(np.random.Generator):
    def uniform(self, *args, **kwargs):
        raise AssertionError("sample_points called uniform")

    def integers(self, *args, **kwargs):
        raise AssertionError("sample_points called integers")


def test_sample_points_read_one_raw_block_per_call():
    bitgen = _CountingPCG64(5)
    rng = _NoDrawGenerator(bitgen)
    for n, count in ((1, 3), (2, 1), (8, 50)):
        sample_points(n, rng, count)
    assert bitgen.raw_sizes == [3 * 4, 1 * 7, 50 * 25]


def test_sample_points_need_a_pcg64_generator():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="PCG64.*MT19937"):
        sample_points(2, rng, 5)


@pytest.mark.parametrize("held", [False, True])
def test_sample_points_of_a_negative_count_draw_nothing(held):
    rng = np.random.default_rng(9)
    if held:
        rng.integers(0, 2, size=1)
    state = rng.bit_generator.state
    assert sample_points(2, rng, -3) == []
    assert rng.bit_generator.state == state


_PT2 = sample_points(2, np.random.default_rng(21), 1)[0]


@pytest.mark.parametrize("point", [
    pytest.param(lambda: _PT2, id="sample_points"),
    pytest.param(lambda: rotation_flow(0.4, IndexSubset.of(2), _PT2), id="rotation_flow"),
    pytest.param(lambda: integrate_flow(hamiltonian_vector_field(2, rotation_generator(2)),
                                        _PT2, 0.4, 10), id="integrate_flow"),
    pytest.param(lambda: scaling_map(2, 0.4).apply(_PT2), id="CoordinateMap.apply"),
    pytest.param(lambda: equilibrium.embed(equilibrium.catalog()[1].relation,
                                           np.array([1.0, 1.5])), id="embed"),
    pytest.param(lambda: cli._parse_point("0.5,1,-2,3e-3,4", 2), id="cli._parse_point"),
])
def test_a_point_is_a_list_of_python_floats(point):
    # Tape.run reads Python floats faster than numpy scalars, so no producer
    # of a point hands back np.float64
    values = point()
    assert type(values) is list and len(values) == 5
    assert all(type(v) is float for v in values)
