"""The six (1,1) automorphism fields and the scaling-family admissibility checks."""

import numpy as np
import pytest

from conftest import add_tensors, coframe, index_mask, scale_tensor
from contactgeo import cli, expr
from contactgeo.calculus import lie_bracket, lie_derivative
from contactgeo.expr import EvalError
from contactgeo.hamiltonian import (IndexSubset, hamiltonian_vector_field,
                                    rotation_generator, scaling_generator)
from contactgeo.phase_space import contact_form, coord_names, frame, outer_11, sample_points
from contactgeo.structures import (StructureKind, build_structure, lambda_legendre_residual,
                                   product_lambda, scaling_residuals, structure_identities)

PT = (1.0, 2.0, 3.0)


class TestBuildStructure:
    def test_quarter_turn_action_on_frame(self):
        rng = np.random.default_rng(30)
        phi = build_structure(2, StructureKind.ALMOST_CONTACT)
        fields = frame(2)
        for pt in sample_points(2, rng, 10):
            m = phi.evaluate(pt)
            for a in (1, 2):
                Q, P = fields[a].evaluate(pt), fields[2 + a].evaluate(pt)
                assert np.max(np.abs(m @ Q + P)) < 1e-12   # phi(Q) = -P
                assert np.max(np.abs(m @ P - Q)) < 1e-12   # phi(P) = Q

    def test_reflection_and_composite_actions(self):
        rng = np.random.default_rng(31)
        fields = frame(2)
        actions = {
            StructureKind.PI_ROTATION: lambda Q, P: (-Q, -P),
            StructureKind.REFLECTION: lambda Q, P: (Q, -P),
            StructureKind.COMPOSITE: lambda Q, P: (P, Q),
        }
        for kind, act in actions.items():
            phi = build_structure(2, kind)
            for pt in sample_points(2, rng, 5):
                m = phi.evaluate(pt)
                for a in (1, 2):
                    Q, P = fields[a].evaluate(pt), fields[2 + a].evaluate(pt)
                    wantQ, wantP = act(Q, P)
                    assert np.max(np.abs(m @ Q - wantQ)) < 1e-12
                    assert np.max(np.abs(m @ P - wantP)) < 1e-12

    def test_scaled_family_action(self):
        phi = build_structure(1, StructureKind.LAMBDA, product_lambda(1))
        Q1 = frame(1)[1].evaluate(PT)
        assert np.allclose(phi.evaluate(PT) @ Q1, [18.0, 6.0, 0.0])  # 6 * Q1

    def test_every_kind_kills_reeb(self):
        rng = np.random.default_rng(32)
        xi = frame(2)[0]
        for kind in StructureKind:
            lam = product_lambda(2) if kind.value.startswith("lambda") else None
            phi = build_structure(2, kind, lam)
            for pt in sample_points(2, rng, 5):
                assert np.max(np.abs(phi.evaluate(pt) @ xi.evaluate(pt))) < 1e-15

    def test_lambda_required(self):
        with pytest.raises(ValueError, match="lambda needs a lambda family"):
            build_structure(1, StructureKind.LAMBDA)

    def test_lambda_size_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            build_structure(2, StructureKind.LAMBDA, product_lambda(1))

    def test_reciprocal_blows_up_on_zero_locus(self):
        phi = build_structure(1, StructureKind.LAMBDA_BAR, product_lambda(1))
        with pytest.raises(EvalError, match="division by zero"):
            phi.evaluate((0.0, 0.0, 1.0))


def _worst_identity_residuals(kind, lam, pts):
    """The worst residual of the structure's declared identities at each point,
    as verify's residual helper and runner reduce them."""
    pairs = structure_identities(2, kind, lam)
    return cli._worst(cli._differences(coord_names(2), pairs, pts))


class TestDefiningIdentities:
    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_identities_hold(self, kind):
        rng = np.random.default_rng(33)
        lam = product_lambda(2) if kind.value.startswith("lambda") else None
        worst = _worst_identity_residuals(kind, lam, sample_points(2, rng, 100))
        assert len(worst) == 100
        assert max(worst) < 1e-12

    def test_nan_residual_is_kept(self):
        # an infinite coefficient makes phi_L o phi_L NaN; the max over points must keep it
        lam = tuple(map(expr.parse, ["1e200*1e200*q1*p1", "q2*p2"]))
        pts = sample_points(2, np.random.default_rng(35), 3)
        worst = _worst_identity_residuals(StructureKind.LAMBDA, lam, pts)
        assert len(worst) == 3
        assert np.isnan(worst).all()
        assert np.isnan(np.max(worst))

    @pytest.mark.parametrize("kind", list(StructureKind))
    def test_one_pair_per_identity(self, kind):
        lam = product_lambda(2) if kind.value.startswith("lambda") else None
        pairs = structure_identities(2, kind, lam)
        assert len(pairs) == (4 if lam else 3)
        assert [np.shape(lhs) for lhs, _ in pairs] == [(5, 5), (5,), (5,), (5, 5)][:len(pairs)]

    def test_lambda_square_scales_quadratically(self):
        phi = build_structure(1, StructureKind.LAMBDA, product_lambda(1))
        m = phi.evaluate(PT)
        Q1 = frame(1)[1].evaluate(PT)
        assert np.allclose(m @ (m @ Q1), 36.0 * Q1)

    def test_duality_where_lambda_nonzero(self):
        rng = np.random.default_rng(34)
        lam = product_lambda(2)
        phiL = build_structure(2, StructureKind.LAMBDA, lam)
        phiB = build_structure(2, StructureKind.LAMBDA_BAR, lam)
        eta_xi = outer_11(contact_form(2), frame(2)[0])
        for pt in sample_points(2, rng, 25):
            target = np.eye(5) - eta_xi.evaluate(pt)
            got = phiL.evaluate(pt) @ phiB.evaluate(pt)
            assert np.max(np.abs(got - target)) < 1e-12

    def test_composite_is_reflection_after_quarter_turn(self):
        rng = np.random.default_rng(35)
        phi = build_structure(2, StructureKind.ALMOST_CONTACT)
        phir = build_structure(2, StructureKind.REFLECTION)
        phis = build_structure(2, StructureKind.COMPOSITE)
        for pt in sample_points(2, rng, 10):
            composed = phir.evaluate(pt) @ phi.evaluate(pt)
            assert np.max(np.abs(composed - phis.evaluate(pt))) < 1e-15
            reverse = phi.evaluate(pt) @ phir.evaluate(pt)
            assert np.max(np.abs(reverse + phis.evaluate(pt))) < 1e-15


class TestSymmetriesUnderGenerators:
    def setup_method(self):
        self.rng = np.random.default_rng(36)
        self.m = 1
        self.XL = hamiltonian_vector_field(2, rotation_generator(self.m))
        self.XS = hamiltonian_vector_field(2, scaling_generator(2))
        self.pts = sample_points(2, self.rng, 15)

    def _assert_zero(self, field):
        for pt in self.pts:
            assert np.max(np.abs(field.evaluate(pt))) < 1e-12

    def test_quarter_turn_has_rotation_symmetry(self):
        phi = build_structure(2, StructureKind.ALMOST_CONTACT)
        self._assert_zero(lie_derivative(phi, self.XL))

    def test_half_turn_has_both_symmetries(self):
        phi_pi = build_structure(2, StructureKind.PI_ROTATION)
        self._assert_zero(lie_derivative(phi_pi, self.XL))
        self._assert_zero(lie_derivative(phi_pi, self.XS))

    def test_reflection_scaling_symmetry_and_rotation_defect(self):
        phi_r = build_structure(2, StructureKind.REFLECTION)
        self._assert_zero(lie_derivative(phi_r, self.XS))
        got = lie_derivative(phi_r, self.XL)
        co, fields = coframe(2), frame(2)
        # -2 (dp_i (x) Q_i + dq^i (x) P^i) on the rotated pairs only
        want = add_tensors(*[scale_tensor(add_tensors(outer_11(co[2 + i], fields[i]),
                                                      outer_11(co[i], fields[2 + i])),
                                          -2.0)
                             for i in range(1, self.m + 1)])
        for pt in self.pts:
            assert np.max(np.abs(got.evaluate(pt) - want.evaluate(pt))) < 1e-12

    def test_reflection_rotation_defect_frozen_components(self):
        phi_r = build_structure(1, StructureKind.REFLECTION)
        XL1 = hamiltonian_vector_field(1, rotation_generator(1))
        got = lie_derivative(phi_r, XL1).evaluate(PT)
        # -2(dp (x) Q + dq (x) P) at (1,2,3): columns (q: -2P, p: -2Q)
        want = np.array([[0.0, 0.0, -6.0], [0.0, 0.0, -2.0], [0.0, -2.0, 0.0]])
        assert np.allclose(got, want)

    def test_composite_symmetric_under_generator_composition(self):
        phi_s = build_structure(2, StructureKind.COMPOSITE)
        inner_S = lie_derivative(phi_s, self.XS)
        self._assert_zero(lie_derivative(inner_S, self.XL))
        inner_L = lie_derivative(phi_s, self.XL)
        self._assert_zero(lie_derivative(inner_L, self.XS))
        bracket = lie_bracket(self.XL, self.XS)
        self._assert_zero(lie_derivative(phi_s, bracket))


def _scaling_residual(lam, pts):
    """``(len(pts), n)``: the scaling condition of each ``L_a`` at each point, run
    through verify's residual tape."""
    coords = coord_names(len(lam))
    return cli._differences(coords, [(scaling_residuals(lam), expr.ZERO)], pts)


class TestScalingCondition:
    def test_product_family_is_exact_solution(self):
        rng = np.random.default_rng(37)
        lam = product_lambda(2)
        assert np.max(np.abs(_scaling_residual(lam, sample_points(2, rng, 25)))) < 1e-15

    def test_single_coordinate_fails(self):
        lam = tuple(map(expr.parse, ["q1"]))
        pt = (0.0, 2.0, 3.0)
        assert _scaling_residual(lam, [pt])[0, 0] == pytest.approx(-2.0)

    def test_w_only_family_passes(self):
        lam = tuple(map(expr.parse, ["w"]))
        rng = np.random.default_rng(38)
        assert (_scaling_residual(lam, sample_points(1, rng, 10)) == 0.0).all()

    def test_general_scaling_family_instances(self):
        # ratios and cross products of the scaling-invariant general form
        rng = np.random.default_rng(39)
        lam = tuple(map(expr.parse, ["q1*p2", "q2/q1"]))
        assert np.max(np.abs(_scaling_residual(lam, sample_points(2, rng, 25)))) < 1e-12

    def test_separable_odd_family_breaks_scaling(self):
        lam = tuple(map(expr.parse, ["(q1^3 + q1)*(p1^3 + p1)"]))
        pt = (0.0, 1.0, 2.0)
        # p f(q) g'(p) - q f'(q) g(p) = 2*2*13 - 1*4*10 = 12
        assert _scaling_residual(lam, [pt])[0, 0] == pytest.approx(12.0)

    def test_family_size_must_match_the_space(self, tmp_path, capsys):
        # the compiled condition sums over the family's own n conjugate pairs, so a
        # run refuses a family of another size, from a config file or the command line
        # and one whose variables are not coordinates of the space; it does so when the
        # run is configured, so a suite that reads no family refuses it as well
        with pytest.raises(cli.ConfigError, match="lambda family has 1 entries, need 2"):
            cli.RunConfig(n=2, lam=tuple(map(expr.parse, ["q1*p1"])))
        config = tmp_path / "run.cfg"
        config.write_text('n = 2\nlambda.1 = "q1*p1"\n')
        for argv, message in (
                (["--config", str(config)], "lambda family has 1 entries, need 2"),
                (["--n", "2", "--lambda", "q1*p1;q2;w"], "need 2 lambda expressions, got 3"),
                (["--n", "2", "--lambda", "q1*p1;q7*p2"], "unbound variable 'q7'")):
            for suite in ("structures", "heisenberg"):
                code = cli.main(["verify", "--suite", suite, *argv])
                assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


def _legendre_residual(lam, I, pts):
    """The residual rows of ``lam`` under the partial Legendre map on ``I`` at ``pts``."""
    tape = expr.compile(lam, coord_names(len(lam)))
    mask = np.tile(index_mask(I, len(lam)), (len(pts), 1))
    return lambda_legendre_residual(tape, mask, pts, tape.run_batch(pts))


class TestLegendreCondition:
    def test_product_family_passes(self):
        assert np.max(np.abs(_legendre_residual(product_lambda(1), IndexSubset.of(1), [PT]))) == 0.0

    def test_cubed_family_passes(self):
        assert np.max(np.abs(
            _legendre_residual(product_lambda(1, power=3), IndexSubset.of(1), [PT]))) == 0.0

    def test_even_family_fails_with_known_residual(self):
        res = _legendre_residual(product_lambda(1, power=2), IndexSubset.of(1), [PT])
        assert res.shape == (1, 1)
        assert res[0, 0] == pytest.approx(72.0)

    def test_separable_odd_family_passes(self):
        rng = np.random.default_rng(40)
        lam = tuple(map(expr.parse, ["(q1^3 + q1)*(p1^3 + p1)"]))
        res = _legendre_residual(lam, IndexSubset.of(1), sample_points(1, rng, 20))
        assert res.shape == (20, 1)
        assert np.max(np.abs(res)) < 1e-10

    def test_untransformed_indices_must_be_unchanged(self):
        rng = np.random.default_rng(41)
        lam = product_lambda(2)
        pts = sample_points(2, rng, 20)
        for I in (IndexSubset.of(1), IndexSubset.of(2), IndexSubset.of([1, 2])):
            assert np.max(np.abs(_legendre_residual(lam, I, pts))) < 1e-12

    def test_rows_take_each_their_own_index_set(self):
        # a block mixing index sets, with L(x) passed in, gives each row's own residual
        lam = product_lambda(2, power=2)
        pts = sample_points(2, np.random.default_rng(42), 3)
        subsets = (IndexSubset.of(1), IndexSubset.of(2), IndexSubset.of([1, 2]))
        rows = np.array(pts)
        mask = np.array([index_mask(I, 2) for I in subsets])
        tape = expr.compile(lam, coord_names(2))
        block = lambda_legendre_residual(tape, mask, rows, tape.run_batch(rows))
        for j, (I, pt) in enumerate(zip(subsets, pts)):
            assert block[j].tolist() == _legendre_residual(lam, I, [pt])[0].tolist()
