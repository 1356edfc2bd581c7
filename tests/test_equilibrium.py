"""Legendre submanifolds: embeddings, Hessian pullbacks, potential transforms."""

import gc
import itertools
import json
import math
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bindings, index_mask, partial_legendre_scalar, pulled_back
from contactgeo import expr
from contactgeo.equilibrium import (FundamentalRelation, RootFindError, _guard_samples,
                                    _legendre_point, catalog, embed, involution_check,
                                    legendre_potential, load_catalog)
from contactgeo.hamiltonian import IndexSubset, legendre_rows
from contactgeo.metrics import MetricKind, metric_from_structure
from contactgeo.phase_space import contact_form
from contactgeo.structures import product_lambda

E = math.e


def _entry(name) -> FundamentalRelation:
    return next(e.relation for e in catalog() if e.id == name)


# each test gets fresh relations: a relation keeps its compiled tapes and guard
# Hessians, and a test must not see what an earlier one built;
# a parametrized test takes one of these builders through the ``rel`` fixture
QUAD = partial(_entry, "quadratic")
IDEAL = partial(_entry, "ideal_gas")
VDW = partial(_entry, "van_der_waals")


@pytest.fixture
def quad() -> FundamentalRelation:
    return QUAD()


@pytest.fixture
def ideal() -> FundamentalRelation:
    return IDEAL()


@pytest.fixture
def vdw() -> FundamentalRelation:
    return VDW()


@pytest.fixture
def rel(request) -> FundamentalRelation:
    """A fresh relation from the builder the test is parametrized with."""
    return request.param()


def _domain_points(rel, rng, count):
    lo = np.array([d[0] for d in rel.domain])
    hi = np.array([d[1] for d in rel.domain])
    margin = 0.05 * (hi - lo)
    return lo + margin + (hi - lo - 2 * margin) * rng.random((count, rel.n))


class TestEmbed:
    def test_quadratic(self, quad):
        assert embed(quad, [1.0, 2.0]) == [2.5, 1.0, 2.0, 1.0, 2.0]

    def test_ideal_gas_with_darboux_signs(self, ideal):
        # q = (S, V), p = (T, -P): the volume slot carries dU/dV = -(2/3) e
        pt = embed(ideal, [1.0, 1.0])
        assert pt[0] == pytest.approx(E)
        assert pt[3] == pytest.approx(E)
        assert pt[4] == pytest.approx(-2.0 * E / 3.0)

    def test_kills_contact_form(self, quad, ideal, vdw):
        rng = np.random.default_rng(90)
        for rel in (quad, ideal, vdw):
            eta = contact_form(rel.n)
            for qvals in _domain_points(rel, rng, 20):
                assert np.max(np.abs(pulled_back(rel.embedding, eta, qvals))) < 1e-12

    def test_domain_violation(self, ideal):
        with pytest.raises(ValueError, match="outside the domain"):
            embed(ideal, [5.0, 1.0])

    def test_relation_validation(self):
        with pytest.raises(ValueError, match="unknown variables"):
            FundamentalRelation("bad", ("x",), expr.parse("x + y"), ((0.0, 1.0),))
        with pytest.raises(ValueError, match="domain"):
            FundamentalRelation("bad", ("x", "y"), expr.parse("x*y"), ((0.0, 1.0),))

    @pytest.mark.parametrize("coords, box, match", [
        (("x", "x"), ((0.0, 1.0), (0.0, 1.0)), "duplicate coordinate"),
        (("x", "y"), ((0.0, 1.0), (1.0, 0.5)), "lo < hi"),
        (("x", "y"), ((0.0, 1.0), (1.0, 1.0)), "lo < hi"),
        (("x", "y"), ((0.0, math.inf), (0.0, 1.0)), "finite"),
        (("x", "y"), ((math.nan, 1.0), (0.0, 1.0)), "finite"),
        pytest.param((), (), "relation 'bad' has no coordinates", id="no-coordinates"),
    ])
    def test_rejects_malformed_relations(self, coords, box, match):
        # duplicate names evaluated both slots at the last value; a reversed box
        # failed later as a misleading "outside the domain", and no coordinates as
        # a phase space of n = 0
        with pytest.raises(ValueError, match=match):
            FundamentalRelation("bad", coords, expr.parse("x^2"), box)


class TestHessian:
    def test_quadratic_is_identity(self, quad):
        assert np.array_equal(quad.hessian([0.3, -0.7]), np.eye(2))

    def test_ideal_gas_frozen(self, ideal):
        want = np.array([[E, -2 * E / 3], [-2 * E / 3, 10 * E / 9]])
        assert np.allclose(ideal.hessian([1.0, 1.0]), want)

    def test_symmetry_is_exact(self, ideal, vdw):
        rng = np.random.default_rng(91)
        for rel in (ideal, vdw):
            for qvals in _domain_points(rel, rng, 10):
                H = rel.hessian(qvals)
                assert np.array_equal(H, H.T)


class TestPullbackOntoStateSpace:
    def test_reflection_metric_gives_minus_hessian(self, quad, ideal, vdw):
        rng = np.random.default_rng(92)
        for rel in (quad, ideal, vdw):
            gr = metric_from_structure(rel.n, MetricKind.R)
            for qvals in _domain_points(rel, rng, 50):
                pulled = pulled_back(rel.embedding, gr.tensor, qvals)
                assert np.max(np.abs(pulled + rel.hessian(qvals))) < 1e-10

    def test_mixed_quadratic(self):
        rel = FundamentalRelation("mixed", ("x1", "x2"), expr.parse("x1*x2"),
                                  ((-2.0, 2.0), (-2.0, 2.0)))
        gr = metric_from_structure(2, MetricKind.R)
        pulled = pulled_back(rel.embedding, gr.tensor, [0.5, 1.5])
        assert np.allclose(pulled, [[0.0, -1.0], [-1.0, 0.0]])

    def test_scaled_metric_single_pair(self):
        rel = FundamentalRelation("half_square", ("x",), expr.parse("0.5*x^2"),
                                  ((0.5, 2.0),))
        gl = metric_from_structure(1, MetricKind.LAMBDA, product_lambda(1))
        pulled = pulled_back(rel.embedding, gl.tensor, [1.0])
        assert pulled[0, 0] == pytest.approx(-1.0)  # -Lambda * d2wbar with Lambda = 1

    def test_scaled_metric_componentwise_symmetrization(self, quad, ideal):
        # components are -(L_a + L_b)/2 * d_a d_b wbar for the product family
        rng = np.random.default_rng(93)
        for rel in (quad, ideal):
            lam = product_lambda(rel.n)
            gl = metric_from_structure(rel.n, MetricKind.LAMBDA, lam)
            for qvals in _domain_points(rel, rng, 15):
                x = embed(rel, qvals)
                lam_vals = np.array([expr.evaluate(e, bindings(x)) for e in lam])
                H = rel.hessian(qvals)
                want = -0.5 * (lam_vals[:, None] + lam_vals[None, :]) * H
                pulled = pulled_back(rel.embedding, gl.tensor, qvals)
                assert np.max(np.abs(pulled - want)) < 1e-9


class TestLegendrePotential:
    def test_ideal_gas_closed_form(self, ideal):
        F = legendre_potential(ideal, 1)
        rng = np.random.default_rng(94)
        for S, V in _domain_points(ideal, rng, 20):
            T = math.exp(S) * V ** (-2.0 / 3.0)
            closed = T * (1.0 - math.log(T) - (2.0 / 3.0) * math.log(V))
            x = embed(F, [T, V])
            assert x[0] == pytest.approx(closed, abs=1e-8)
            # the recovered entropy: -dF/dT = S
            assert -x[3] == pytest.approx(S, abs=1e-8)

    def test_quadratic_self_conjugate(self):
        rel = FundamentalRelation("half_square", ("x",), expr.parse("0.5*x^2"),
                                  ((-2.0, 2.0),))
        F = legendre_potential(rel, 1)
        for p in (-1.5, -0.3, 0.8, 1.9):
            assert embed(F, [p])[0] == pytest.approx(-0.5 * p * p, abs=1e-12)

    def test_names_and_coords(self, ideal):
        F = legendre_potential(ideal, 1)
        assert F.potential == "L1[U]"
        assert F.coords == ("S_dual", "V")

    def test_transformed_hessian_schur_update(self, ideal):
        F = legendre_potential(ideal, 1)
        rng = np.random.default_rng(96)
        for S, V in _domain_points(ideal, rng, 5):
            T = math.exp(S) * V ** (-2.0 / 3.0)
            H = F.hessian([T, V])
            # exact second derivatives of T (1 - log T - (2/3) log V)
            want = np.array([[-1.0 / T, -2.0 / (3.0 * V)],
                             [-2.0 / (3.0 * V), 2.0 * T / (3.0 * V * V)]])
            assert np.max(np.abs(H - want)) < 1e-8

    def test_non_monotone_conjugate_rejected(self):
        rel = FundamentalRelation("cubic", ("x",), expr.parse("x^3"), ((-1.0, 1.0),))
        with pytest.raises(ValueError, match="not monotone"):
            legendre_potential(rel, 1)

    def test_out_of_range_target_raises(self, ideal):
        F = legendre_potential(ideal, 1)
        with pytest.raises(RootFindError):
            embed(F, [-1.0, 1.0])  # conjugate exp(S) V^(-2/3) is always positive

    @pytest.mark.parametrize("I, u", [(1, [1e308, 1.0]), (1, [-1e160, 1.0]), (2, [1.0, 1e200]),
                                      ((1, 2), [1e200, 1e200])])
    def test_a_huge_target_fails_without_a_warning(self, ideal, I, u):
        # |grad phi|^2 overflows numpy once a target passes about 1e154; a leaked
        # overflow warning, an error under this suite's warning filter, would
        # replace the RootFindError
        with pytest.raises(RootFindError, match="made no progress"):
            embed(legendre_potential(ideal, I), u)

    def test_only_a_fundamental_relation_is_transformed(self, ideal):
        F = legendre_potential(ideal, 1)
        with pytest.raises(TypeError, match="FundamentalRelation"):
            legendre_potential(F, 2)

    def test_relations_and_kept_transforms_die_by_reference_counting(self):
        # a transform holds its relation and the relation no transform, so no
        # reference cycle keeps either alive
        collecting = gc.isenabled()
        gc.disable()
        try:
            rel = IDEAL()
            F = legendre_potential(rel, 1)
            G = legendre_potential(rel, 2)
            refs = [weakref.ref(x) for x in (rel, F, G)]
            del rel, F, G
            assert [r() for r in refs] == [None, None, None]
        finally:
            (gc.enable if collecting else gc.disable)()

    def test_a_failing_guard_is_not_kept(self, vdw):
        # every call for a transform that is not monotone raises, not only the first
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError, match="not monotone") as exc:
                legendre_potential(vdw, (1, 2))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_index_validation(self, ideal):
        with pytest.raises(ValueError, match="out of range"):
            legendre_potential(ideal, 3)

    @pytest.mark.parametrize("indices, named", [("12", "'12'"), ("S", "'S'"), ([1.7], "1.7"),
                                                ([2.0], "2.0"), (True, "True"),
                                                ([1, False], "False"), (b"\x01", "b'\\x01'")])
    def test_an_index_that_is_no_integer_is_refused(self, ideal, indices, named):
        # a string was iterated ("12" gave the joint transform) and a float truncated
        with pytest.raises(TypeError) as err:
            legendre_potential(ideal, indices)
        assert str(err.value) == f"an index must be an integer, not {named}"

    def test_numpy_integers_are_indices(self, ideal):
        # a lone numpy integer, and the int64 arrays cli._subsets passes
        assert legendre_potential(ideal, np.int64(2)).indices == (2,)
        F = legendre_potential(ideal, np.flatnonzero([True, True]) + 1)
        assert F.indices == (1, 2) and all(type(i) is int for i in F.indices)
        assert F.potential == legendre_potential(ideal, [1, 2]).potential == "L1,2[U]"


class TestInvolution:
    def test_ideal_gas(self, ideal):
        rng = np.random.default_rng(97)
        for qvals in _domain_points(ideal, rng, 10):
            assert involution_check(ideal, IndexSubset.of(1), qvals) < 1e-8

    def test_quadratic_every_subset(self, quad):
        rng = np.random.default_rng(98)
        for I in (IndexSubset.of(1), IndexSubset.of(2), IndexSubset.of([1, 2])):
            for qvals in _domain_points(quad, rng, 10):
                assert involution_check(quad, I, qvals) < 1e-12

    def test_image_lies_on_a_legendre_submanifold(self, ideal):
        # the transformed relation's own embedding kills the contact form
        rng = np.random.default_rng(99)
        F = legendre_potential(ideal, 1)
        eta = contact_form(2)
        for S, V in _domain_points(ideal, rng, 10):
            T = math.exp(S) * V ** (-2.0 / 3.0)
            x = embed(F, [T, V])
            J = np.vstack([x[3:], np.eye(2), F.hessian([T, V])])
            assert np.max(np.abs(eta.evaluate(x) @ J)) < 1e-8

    def test_the_point_map_is_legendre_rows_bit_for_bit(self):
        # signed zeros, infinities, NaNs of either sign and q p products that overflow;
        # IEEE 754 leaves open which operand's NaN NaN * NaN returns, and CPython's
        # specialized float multiply and its generic one (which a line tracer forces)
        # choose differently, so a w that takes the product of a NaN q_i and a NaN p_i
        # need only be NaN on both sides
        special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                            1e200, -1e200, 1.5, -2.25, 5e-324])
        rng = np.random.default_rng(104)
        for n in range(1, 6):
            rows = rng.choice(special, size=(40, 2 * n + 1))
            nan_products = np.isnan(rows[:, 1:n + 1]) & np.isnan(rows[:, n + 1:])
            for I in map(IndexSubset.of, _subsets(n)):
                mask = np.tile(index_mask(I, n), (len(rows), 1))
                want = legendre_rows(mask, rows)
                got = np.array([_legendre_point(I, row) for row in rows.tolist()])
                open_sign = (mask & nan_products).any(axis=1)
                assert np.isnan(got[open_sign, 0]).all() and np.isnan(want[open_sign, 0]).all()
                got[open_sign, 0] = want[open_sign, 0]
                assert got.tobytes() == want.tobytes()

    def test_image_point_matches_quarter_turn(self, ideal):
        # spot check of the sign dictionary at one state
        x = embed(ideal, [1.0, 1.0])
        y = partial_legendre_scalar(IndexSubset.of(1), x)
        F = legendre_potential(ideal, 1)
        z = embed(F, [-y[1], y[2]])
        assert y[0] == pytest.approx(z[0], abs=1e-10)
        assert y[3] == pytest.approx(-z[3], abs=1e-10)
        assert y[4] == pytest.approx(z[4], abs=1e-10)


class TestCatalog:
    def test_three_entries_with_finite_hessians(self):
        entries = catalog()
        assert [e.id for e in entries] == ["quadratic", "ideal_gas", "van_der_waals"]
        rng = np.random.default_rng(100)
        for entry in entries:
            for qvals in _domain_points(entry.relation, rng, 10):
                assert np.isfinite(entry.relation.hessian(qvals)).all()

    def test_load_catalog_round_trip(self, tmp_path):
        path = tmp_path / "relations.cfg"
        path.write_text(
            '# test catalog\n'
            'id = "quartic"\n'
            'potential = "Phi"\n'
            'coords = ["x"]\n'
            'wbar = "x^4"\n'
            'domain = [[0.5, 2.0]]\n'
            '\n'
            'potential = "G"\n'
            'coords = ["a", "b"]\n'
            'wbar = "exp(a) + b^2"\n'
            'domain = [[0, 1], [0, 1]]\n'
        )
        entries = load_catalog(path)
        assert [e.id for e in entries] == ["quartic", "G"]
        assert embed(entries[0].relation, [1.0])[0] == 1.0
        assert entries[1].relation.gradient([0.0, 0.5]).tolist() == [1.0, 1.0]

    def test_load_catalog_missing_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text('potential = "X"\ncoords = ["x"]\n')
        with pytest.raises(ValueError, match="missing"):
            load_catalog(path)


# the coupled convex quadratic of the conjugate benchmark, wbar = x.A x / 2 + b.x
COUPLED_A = np.array([[1.0, 0.05, 0.0, 0.08],
                      [0.05, 1.04, 0.0, 0.0],
                      [0.0, 0.0, 1.26, -0.15],
                      [0.08, 0.0, -0.15, 0.91]])
COUPLED_B = np.array([0.44, -0.12, 0.27, -0.46])


def _quadratic_relation(A, b, half_width=1.0):
    names = [f"x{k + 1}" for k in range(len(b))]
    xs = [expr.var(c) for c in names]
    w = expr.ZERO
    for j, k in itertools.product(range(len(b)), repeat=2):
        w = w + expr.const(0.5 * float(A[j, k])) * xs[j] * xs[k]
    for k in range(len(b)):
        w = w + expr.const(float(b[k])) * xs[k]
    return FundamentalRelation("U", tuple(names), w, ((-half_width, half_width),) * len(b))


def _subsets(n):
    return [I for r in range(1, n + 1) for I in itertools.combinations(range(1, n + 1), r)]


def _conjugate_point(rel, I, q):
    """Coordinates of the I-transformed relation at the state ``q``: p_i on I, q^i off it."""
    return np.array([g if k + 1 in I else v for k, (g, v) in enumerate(zip(rel.gradient(q), q))])


def _quadratic_oracle_gradient(A, b, I, u):
    """Gradient of the transformed quadratic from one direct solve of
    A_II x_I = u_I - b_I - A_IR x_R with x_R = u_R."""
    idx = [i - 1 for i in I]
    rest = [k for k in range(len(b)) if k not in idx]
    x = np.array(u, dtype=float)
    x[idx] = np.linalg.solve(A[np.ix_(idx, idx)],
                             x[idx] - b[idx] - A[np.ix_(idx, rest)] @ x[rest])
    grad = A @ x + b
    grad[idx] = -x[idx]
    return x, grad


COUPLED = partial(_quadratic_relation, COUPLED_A, COUPLED_B)


class TestJointTransform:
    def test_coupled_quadratic_every_index_set_against_direct_solve(self):
        rng = np.random.default_rng(101)
        rel = COUPLED()
        for I in _subsets(4):
            F = legendre_potential(rel, I)
            idx = [i - 1 for i in I]
            for q in _domain_points(rel, rng, 3):
                u = _conjugate_point(rel, I, q)
                x, want_grad = _quadratic_oracle_gradient(COUPLED_A, COUPLED_B, I, u)
                want_value = embed(rel, x)[0] - x[idx] @ u[idx]
                got = embed(F, u)
                assert got[0] == pytest.approx(want_value, abs=1e-12)
                assert np.max(np.abs(got[5:] - want_grad)) < 1e-12
                # the gradient is affine in u: unit differences give the Hessian exactly
                want_hess = np.column_stack([
                    _quadratic_oracle_gradient(COUPLED_A, COUPLED_B, I, u + e)[1] - want_grad
                    for e in np.eye(4)])
                assert np.max(np.abs(F.hessian(u) - want_hess)) < 1e-12

    def test_index_set_forms_and_labels(self, ideal):
        F = legendre_potential(ideal, IndexSubset.of([1, 2]))
        assert F.potential == "L1,2[U]"
        assert F.coords == ("S_dual", "V_dual")
        assert F.indices == (1, 2)
        assert legendre_potential(ideal, [2, 1]).indices == (1, 2)
        assert legendre_potential(ideal, [2]).potential == "L2[U]"
        with pytest.raises(ValueError, match="non-empty"):
            legendre_potential(ideal, [])

    def test_ideal_gas_joint_transform_recovers_the_state(self, ideal):
        joint = legendre_potential(ideal, (1, 2))
        rng = np.random.default_rng(102)
        for q in _domain_points(ideal, rng, 10):
            u = ideal.gradient(q)
            assert np.max(np.abs(embed(joint, u)[3:] + q)) < 1e-10  # recovers (S, V)

    @pytest.mark.parametrize("rel, I", [(IDEAL, (1, 2)), (IDEAL, (2,)), (VDW, (1,)),
                                        (COUPLED, (1, 3, 4))], indirect=["rel"])
    def test_hessian_matches_central_differences(self, rel, I):
        F = legendre_potential(rel, I)
        rng = np.random.default_rng(103)
        h = 1e-5

        def grad(u):
            return np.array(embed(F, u)[rel.n + 1:])

        for q in _domain_points(rel, rng, 4):
            u = _conjugate_point(rel, I, q)
            fd = np.column_stack([(grad(u + h * e) - grad(u - h * e)) / (2 * h)
                                  for e in np.eye(rel.n)])
            H = F.hessian(u)
            assert np.array_equal(H, H.T)
            assert np.max(np.abs(H - fd)) < 1e-6 * (1.0 + np.max(np.abs(H)))

    def test_indefinite_block_rejected_at_construction(self, vdw):
        # F_TT < 0 < F_VV: the joint van der Waals map is not monotone; it used
        # to fail deep in a nested solve with a log-domain RootFindError
        with pytest.raises(ValueError, match="not monotone"):
            legendre_potential(vdw, (1, 2))

    def test_non_finite_block_rejected_at_construction(self):
        rel = FundamentalRelation("huge", ("x",), expr.parse("1e308*x^2"), ((-1.0, 1.0),))
        with pytest.raises(ValueError, match="not monotone"):
            legendre_potential(rel, 1)

    def test_singular_block_raises_root_find_error(self):
        # x^4 passes the sampled probe, but its Hessian vanishes at the box middle
        rel = FundamentalRelation("quartic", ("x",), expr.parse("x^4"), ((-1.0, 1.0),))
        F = legendre_potential(rel, 1)
        with pytest.raises(RootFindError, match="no Newton step"):
            embed(F, [0.5])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pivot", [0.0, math.nan])
    def test_bad_scalar_pivot_raises_root_find_error(self, pivot, monkeypatch):
        # a one-index block is divided directly: a zero pivot must neither raise
        # ZeroDivisionError nor warn, and a NaN one must not pass as a step
        rel = FundamentalRelation("quadratic", ("x",), expr.parse("x^2"), ((-1.0, 1.0),))
        F = legendre_potential(rel, 1)
        monkeypatch.setattr(FundamentalRelation, "hessian", lambda self, q: np.array([[pivot]]))
        with pytest.raises(RootFindError, match="no Newton step|non-finite conjugate block"):
            embed(F, [0.5])
        F._solve = lambda u: np.array([0.25])
        with pytest.raises(RootFindError, match="singular or non-finite"):
            F.hessian([0.5])

    @pytest.mark.parametrize("rel", [QUAD, IDEAL, VDW, COUPLED,
                                     partial(FundamentalRelation, "huge", ("x",),
                                             expr.parse("1e308*x^2"), ((-1.0, 1.0),))],
                             indirect=True)
    def test_guard_hessians_are_the_pointwise_hessians(self, rel):
        want = np.array([rel.hessian(p) for p in _guard_samples(rel.domain, rel.n)])
        got = rel._guard_hessians
        assert got.shape == (32, rel.n, rel.n)
        assert np.array_equal(got, want, equal_nan=True)

    def test_the_guard_runs_one_batch_per_relation(self, monkeypatch):
        # the 32 guard Hessians are one run_batch on the relation's Hessian tape,
        # kept for each further transform; construction calls hessian not at all
        rel = COUPLED()
        tape = rel._hessian_tape
        batches, hessians = [], []
        run_batch = type(tape).run_batch
        monkeypatch.setattr(type(tape), "run_batch",
                            lambda self, rows: batches.append(self) or run_batch(self, rows))
        hessian = FundamentalRelation.hessian
        monkeypatch.setattr(FundamentalRelation, "hessian",
                            lambda self, q: hessians.append(1) or hessian(self, q))
        for I in _subsets(4):
            legendre_potential(rel, I)
        assert batches == [tape] and hessians == []

    def test_a_failing_guard_sample_raises_the_first_failing_points_error(self):
        # the second sample has y < 0 (a root error); the batch meets log(x < 0) first
        rel = FundamentalRelation("mixed", ("x", "y", "z"),
                                  expr.parse("log(x)*y^2 + z^2*y^(1/2)"),
                                  ((-1.0, 1.0), (-1.0, 1.0), (1.0, 2.0)))
        for I in (3, (1, 3)):
            with pytest.raises(expr.EvalError) as exc:
                legendre_potential(rel, I)
            assert str(exc.value) == "negative base with even-root exponent"

    def test_odd_root_branch_is_not_entered(self, ideal):
        # an unclipped Newton step from the box middle crosses V = 0, where the
        # odd root makes V^(-2/3) real and convex again
        q = [1.9052991806869062, 0.60682829079533]
        assert involution_check(ideal, IndexSubset.of(2), q) <= 1e-12


@st.composite
def spd_quadratics(draw):
    n = draw(st.sampled_from([3, 4]))
    entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    M = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    I = draw(st.sampled_from(_subsets(n)))
    q = np.array(draw(st.lists(st.floats(min_value=-0.95, max_value=0.95),
                               min_size=n, max_size=n)))
    return M.T @ M + 0.5 * np.eye(n), b, I, q


@settings(max_examples=25, deadline=None)
@given(spd_quadratics())
def test_involution_on_random_spd_quadratics(case):
    A, b, I, q = case
    rel = _quadratic_relation(A, b)
    assert involution_check(rel, IndexSubset.of(I), q) <= 1e-10


# perfbench's conjugate_n4 cases, rebuilt here rather than imported: three points for
# each index set of the catalog relations, then one for each index set of a coupled
# convex quadratic on [-1, 1]^4
BENCH_SUBSETS = {
    "quadratic": [(1,), (2,), (1, 2)],
    "ideal_gas": [(1,), (2,), (1, 2)],
    "van_der_waals": [(1,), (2,)],
}
BENCH_COUPLED = (
    "0.5*x1^2 + 0.52*x2^2 + 0.63*x3^2 + 0.455*x4^2 + 0.05*x1*x2 + 0.08*x1*x4"
    " - 0.15*x3*x4 + 0.44*x1 - 0.12*x2 + 0.27*x3 - 0.46*x4")
INVOLUTION_GOLDEN = Path(__file__).parent / "golden" / "involution_residuals.json"


def _bench_involution_cases(seed):
    rng = np.random.default_rng([seed, 4])

    def inside(rel):
        return [lo + (hi - lo) * (0.05 + 0.9 * rng.random()) for lo, hi in rel.domain]

    relations = {entry.id: entry.relation for entry in catalog()}
    cases = [(relations[rid], IndexSubset.of(I), inside(relations[rid]))
             for rid, subsets in BENCH_SUBSETS.items() for I in subsets for _ in range(3)]
    coupled = FundamentalRelation("U", ("x1", "x2", "x3", "x4"), expr.parse(BENCH_COUPLED),
                                  ((-1.0, 1.0),) * 4)
    return cases + [(coupled, IndexSubset.of(I), inside(coupled)) for I in _subsets(4)]


def involution_residuals() -> dict:
    """The ``repr`` of every ``involution_check`` residual of the conjugate benchmark at
    seeds 0-3 and of ``verify``'s ``equilibrium.involution`` at seed 7."""
    from contactgeo import cli

    out = {f"conjugate_n4 seed {seed}": [repr(involution_check(*case))
                                         for case in _bench_involution_cases(seed)]
           for seed in range(4)}
    cfg = cli.RunConfig(seed=7)
    blocks = cli._equilibrium_involution(cfg, cfg.rng("equilibrium.involution"))
    out["verify equilibrium.involution seed 7"] = [repr(r) for (r,) in blocks]
    return out


def test_involution_residuals_match_their_golden():
    # bit for bit: verify's report keeps only each check's largest residual
    want = json.loads(INVOLUTION_GOLDEN.read_text(encoding="utf-8"))
    assert involution_residuals() == want
