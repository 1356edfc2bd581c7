"""Expression core: parsing, exact differentiation, evaluation."""

import gc
import math
import pickle
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (central_difference, live_nodes, random_expression, reference_add,
                      reference_compile, reference_differentiate, reference_div,
                      reference_mul, reference_neg, reference_parse, reference_sub)
from contactgeo import expr
from contactgeo.calculus import lie_derivative
from contactgeo.expr import (EvalError, ParseError, differentiate, evaluate,
                             parse, to_string)
from contactgeo.hamiltonian import hamiltonian_vector_field, random_polynomial_hamiltonian
from contactgeo.phase_space import PhaseSpace, contact_form


class TestParse:
    def test_product_ast(self):
        e = parse("q1*p1")
        assert e.kind == "mul"
        assert e.args[0].name == "q1" and e.args[1].name == "p1"

    def test_rotation_generator_ast(self):
        e = parse("0.5*(q1^2 + p1^2)")
        assert e.kind == "mul"
        assert e.args[0].value == 0.5
        inner = e.args[1]
        assert inner.kind == "add"
        assert inner.args[0].kind == "pow" and inner.args[0].exponent == 2

    def test_unbalanced_paren_position(self):
        with pytest.raises(ParseError) as err:
            parse("q1*(")
        assert err.value.position == 3

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("sinh(q1)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("q1 q2")

    def test_rational_exponent(self):
        e = parse("V^(-2/3)")
        assert e.kind == "pow"
        assert e.exponent.numerator == -2 and e.exponent.denominator == 3

    def test_bare_exponent_does_not_eat_division(self):
        # q1^2/3 is (q1^2)/3, not q1^(2/3)
        assert evaluate(parse("q1^2/4"), {"q1": 2.0}) == 1.0

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + 2.5e2"), {}) == pytest.approx(250.001)

    def test_unary_minus_binds_inside_power(self):
        # grammar: factor := base ^ exp with base := '-' base, so -q^2 = (-q)^2
        assert evaluate(parse("-q1^2"), {"q1": 3.0}) == 9.0

    def test_whitespace(self):
        assert parse(" q1 * p1 ") == parse("q1*p1")

    @pytest.mark.parametrize("text, message, position", [
        # the first seven raised IndexError, ValueError or OverflowError, or parsed 1e999 to inf
        ("q1^", "expected a number", 3),
        ("2^(", "expected a number", 3),
        ("(x^", "unbalanced '('", 0),
        ("\u00b2", "unexpected character '\u00b2'", 0),
        ("1e999", "number out of range", 0),
        ("q1^1e999", "number out of range", 3),
        ("q1^(1/1e999)", "number out of range", 6),
        ("exp((x + 1)", "unbalanced '('", 3),  # the innermost open '('
    ])
    def test_error_message_and_offset(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.position) == (message, position)

    def test_decimal_digits_of_any_script(self):
        # float reads every Unicode decimal digit, and so does the number syntax
        assert parse("\u0663.\u0665*x") is parse("3.5*x")

    # these three raised RecursionError while the parser recursed
    def test_deep_right_nested_difference_round_trips(self):
        e = expr.var("x3000")
        for i in reversed(range(3000)):
            e = expr.sub(expr.var(f"x{i}"), e)
        text = to_string(e)
        assert text.count("(") == 2999
        assert parse(text) is e

    def test_nested_parentheses(self):
        assert parse("(" * 5000 + "x" + ")" * 5000) is expr.var("x")

    def test_prefix_minus_signs(self):
        assert parse("-" * 5001 + "x") is expr.neg(expr.var("x"))
        assert parse("-" * 5000 + "x") is expr.var("x")


class TestDifferentiate:
    def test_product_rule(self):
        assert differentiate(parse("q1*p1"), "p1") == expr.var("q1")

    def test_power_rule_evaluates_to_coordinate(self):
        d = differentiate(parse("0.5*(q1^2+p1^2)"), "q1")
        for q in (0.0, 1.5, -2.2):
            assert evaluate(d, {"q1": q, "p1": 9.9}) == pytest.approx(q)

    def test_exponential_with_rational_power(self):
        e = parse("exp(S)*V^(-2/3)")
        assert differentiate(e, "S") == e

    def test_derivative_of_constant_expression(self):
        assert differentiate(parse("sin(p1) + 3"), "q1") is expr.ZERO

    def test_closure_under_repeated_differentiation(self):
        e = parse("exp(q1)*sin(p1)/(q1^2 + 1)")
        for name in ("q1", "p1", "q1"):
            e = differentiate(e, name)
        assert np.isfinite(evaluate(e, {"q1": 0.3, "p1": -1.1}))


class TestEvaluate:
    def test_product(self):
        assert evaluate(parse("q1*p1"), {"q1": 2, "p1": 3}) == 6.0

    def test_rotation_generator_value(self):
        assert evaluate(parse("0.5*(q1^2+p1^2)"), {"q1": 2, "p1": 3}) == 6.5

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(parse("1/q1"), {"q1": 0.0})

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound variable"):
            evaluate(parse("q1 + p7"), {"q1": 1.0})

    def test_log_of_nonpositive(self):
        with pytest.raises(EvalError, match="non-positive"):
            evaluate(parse("log(q1)"), {"q1": -1.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError, match="negative power"):
            evaluate(parse("q1^-2"), {"q1": 0.0})

    def test_negative_base_odd_root(self):
        assert evaluate(parse("V^(2/3)"), {"V": -8.0}) == pytest.approx(4.0)

    def test_negative_base_even_root(self):
        with pytest.raises(EvalError):
            evaluate(parse("V^(1/2)"), {"V": -4.0})

    def test_denominator_is_checked_before_numerator(self):
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(parse("log(q1)/p1"), {"q1": -1.0, "p1": 0.0})

    def test_deep_sum_has_no_recursion_limit(self):
        q = expr.var("q1")
        e = expr.ZERO
        for i in range(1, 3001):
            e = e + expr.const(float(i)) * q
        assert evaluate(e, {"q1": 0.5}) == sum(i * 0.5 for i in range(1, 3001))
        assert differentiate(e, "q1") is expr.const(sum(range(1, 3001)))
        assert expr.free_variables(e) == {"q1"}
        assert parse(to_string(e)) is e


# "cold": a test checks the runs of tapes fresh from compile
COLD = pytest.mark.parametrize("tier", ["cold"])


class TestCompile:
    @COLD
    def test_shared_subtrees_give_the_values_of_each_tree_alone(self, tier):
        rng = np.random.default_rng(11)
        for _ in range(40):
            parts = [random_expression(rng, NAMES, depth=3) for _ in range(3)]
            a, b, c = parts
            trees = parts + [a + b, b * c, a / (c * c + expr.const(1.0)), expr.sin(a - c),
                             expr.log(a) / b, c / (a - b)]
            tape = expr.compile(trees, NAMES)
            cases = [{name: float(rng.uniform(-2.0, 2.0)) for name in NAMES} for _ in range(5)]
            # zero denominators and log arguments: the first error raised must
            # be the one of the trees in turn, where a quotient checks its
            # denominator before its numerator
            cases += [dict.fromkeys(NAMES, 0.0)]
            for bindings in cases:
                point = [bindings[name] for name in NAMES]
                try:
                    alone = [evaluate(t, bindings) for t in trees]
                except EvalError as err:
                    with pytest.raises(EvalError) as raised:
                        tape.run(point)
                    assert str(raised.value) == str(err)
                    continue
                assert tape.run(point) == alone

    def test_empty_and_constant_outputs(self):
        assert expr.compile([], ()).run([]) == []
        assert expr.compile([expr.ONE, expr.var("w"), expr.ONE], ("w",)).run([2.5]) == [
            1.0, 2.5, 1.0]

    def test_unbound_variable(self):
        # evaluate compiles against its bindings' names, so a name missing from
        # them fails as a variable outside the coordinates does
        with pytest.raises(EvalError, match="unbound variable 'p7'"):
            evaluate(parse("q1 + p7"), {"q1": 1.0, "p1": 2.0})

    def test_names_and_constants_never_become_source_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        hostile = ["x'] or __import__('os').system('touch PWNED') or b['", "a\nb",
                   '"""\n__import__("os").system("touch PWNED")\n"""']
        x, y, z = map(expr.var, hostile)
        trees = [x * y + expr.const(math.inf), z ** Fraction(1, 3), y]
        tape = expr.compile(trees, hostile)
        assert tape.rk4([2.0, 3.0, 8.0], 0.1, 0) == [2.0, 3.0, 8.0]  # generates the stepper
        assert tape.run([2.0, 3.0, 8.0]) == [math.inf, 2.0, 3.0]
        assert evaluate(trees[0], dict(zip(hostile, (2.0, 3.0, 8.0)))) == math.inf
        with pytest.raises(EvalError) as err:
            expr.compile(trees, hostile[:1])
        assert str(err.value) == "unbound variable 'a\nb'"
        assert list(tmp_path.iterdir()) == []


def _same_tape(exprs, coords):
    got, want = expr.compile(exprs, coords), reference_compile(exprs, coords)
    assert got._template == want._template
    assert got._code == want._code
    assert got._outputs == want._outputs


def _quotients(rng, depth):
    """A tree of mostly quotients, its operands shared between some of them."""
    if depth == 0:
        return random_expression(rng, NAMES, depth=2)
    num, den = _quotients(rng, depth - 1), _quotients(rng, depth - 1)
    pick = rng.random()
    if pick < 0.6:
        return num / den
    return num / (den / num) if pick < 0.8 else (num - den) * (den / expr.var("w"))


class TestCompileMatchesReference:
    # compile against the two-phase tuple stacks it replaced (conftest.reference_compile):
    # the same constants, instructions and output slots

    def test_random_trees(self):
        rng = np.random.default_rng(23)
        trees = [random_expression(rng, NAMES, depth=4) for _ in range(200)]
        for tree in trees[:50]:
            _same_tape([tree], NAMES)
        _same_tape(trees, NAMES)
        _same_tape(trees, NAMES[::-1])

    def test_division_heavy_trees(self):
        rng = np.random.default_rng(29)
        trees = [_quotients(rng, 4) for _ in range(30)]
        assert sum(op == expr._NONZERO for op, *_ in expr.compile(trees, NAMES)._code) > 300
        _same_tape(trees, NAMES)

    def test_lie_eta_differences_at_n_eight(self):
        space = PhaseSpace(8)
        h = random_polynomial_hamiltonian(space, np.random.default_rng(3))
        eta = contact_form(space)
        led = lie_derivative(space, eta, hamiltonian_vector_field(space, h))
        diffs = [expr.sub(a, b) for a, b in zip(led.comps, eta.comps * differentiate(h, "w"))]
        assert len(expr.compile(diffs, space.coord_names())._code) > 500
        _same_tape(diffs, space.coord_names())

    def test_deep_sum(self):
        q = expr.var("q1")
        e = expr.ZERO
        for i in range(1, 3001):
            e = e + expr.const(float(i)) * q
        _same_tape([e, differentiate(e, "q1")], NAMES)


def _outcome(fn):
    """``fn()``'s values as hex strings, so 0.0 and -0.0 differ, or its error."""
    try:
        return [v.hex() for v in fn()]
    except (EvalError, OverflowError) as err:
        return type(err), str(err)


# the coordinates in another order, with an unused name among them
OTHER_ORDER = ("p2", "q1", "x", "w", "p1", "q2")


class TestPositional:
    @COLD
    def test_values_and_errors_equal_name_keyed_evaluation(self, tier):
        # by name through evaluate, and by position in two coordinate orders
        rng = np.random.default_rng(12)
        for _ in range(40):
            parts = [random_expression(rng, NAMES, depth=3) for _ in range(3)]
            a, b, c = parts
            trees = parts + [a * b, expr.log(a) / b, c / (a - b), expr.power(a - c, -3)]
            tapes = [expr.compile(trees, NAMES), expr.compile(trees, OTHER_ORDER)]
            cases = [{name: float(rng.uniform(-2.0, 2.0)) for name in OTHER_ORDER}
                     for _ in range(5)]
            cases += [dict.fromkeys(OTHER_ORDER, 0.0), dict.fromkeys(OTHER_ORDER, -0.0)]
            for bindings in cases:
                by_name = _outcome(lambda: [evaluate(t, bindings) for t in trees])
                for tape, order in zip(tapes, (NAMES, OTHER_ORDER)):
                    assert _outcome(lambda: tape.run([bindings[n] for n in order])) == by_name

    def test_instruction_lists_differ_only_in_variable_positions(self):
        trees = [parse("q1^3*p1 - w/q1 + exp(p1)^(2/3)"), parse("q1*p1")]
        first, second = expr.compile(trees, NAMES)._code, expr.compile(trees, OTHER_ORDER)._code
        assert len(first) == len(second)
        for one, other in zip(first, second):
            if one[0] == expr._VAR:
                assert other == (expr._VAR, one[1], OTHER_ORDER.index(NAMES[one[2]]), None)
            else:
                assert other == one

    def test_free_variable_outside_the_coordinates(self):
        with pytest.raises(EvalError, match="unbound variable 'p7'"):
            expr.compile([parse("q1"), parse("q1 + p7")], ("q1", "p1"))

    @COLD
    @pytest.mark.parametrize("point", [[1.0], [1.0, 2.0], (), [1.0] * 4])
    def test_point_of_another_length(self, tier, point):
        tape = expr.compile([parse("q1*p1 + w"), parse("q1")], ("w", "q1", "p1"))
        assert tape.run([1.0, 2.0, 3.0]) == [7.0, 2.0]
        with pytest.raises(EvalError) as err:
            tape.run(point)
        assert str(err.value) == f"expected 3 coordinate values, got {len(point)}"

    def test_constant_tape_still_checks_the_length(self):
        tape = expr.compile([expr.ONE], ("w",))
        assert tape.run([5.0]) == [1.0]
        with pytest.raises(EvalError, match="expected 1 coordinate values, got 0"):
            tape.run([])

    @COLD
    def test_integer_power_opcode_equals_pow_value_bit_for_bit(self, tier):
        x = expr.var("x")
        bases = [-2.5, -1.0, -0.3, -0.0, 0.0, 1e-300, 0.3, 1.0, 1.7, 1e200, -1e200]
        for r in [*range(-7, 0), *range(2, 8)]:
            tape = expr.compile([expr.power(x, r)], ("x",))
            assert [op for op, *_ in tape._code] == [expr._VAR, expr._POWI]
            for base in bases:
                want = _outcome(lambda: [expr._pow_value(base, *expr._exponent(Fraction(r)))])
                if want[0] is OverflowError:  # the tape names the call that overflowed
                    want = (EvalError, f"pow({base}, {float(r)}): {want[1]}")
                assert _outcome(lambda: tape.run([base])) == want
        # a zero base gives +0.0 for any sign, and raises for a negative exponent
        assert _outcome(lambda: [expr._pow_value(-0.0, 3.0, expr._INTEGER)]) == [(0.0).hex()]
        assert _outcome(lambda: [expr._pow_value(-0.0, -2.0, expr._INTEGER)]) == (
            EvalError, "zero raised to a negative power")

    @COLD
    def test_rational_powers_keep_their_rules(self, tier):
        x = expr.var("x")
        cases = {Fraction(2, 3): 4.0, Fraction(1, 3): -2.0, Fraction(-1, 3): -0.5}
        for r, want in cases.items():
            tape = expr.compile([expr.power(x, r)], ("x",))
            assert tape._code[1] == (expr._POW, 1, 0, expr._exponent(r))
            assert tape.run([-8.0]) == [pytest.approx(want)]
            assert tape.run([-8.0]) == [evaluate(expr.power(x, r), {"x": -8.0})]
        tape = expr.compile([expr.power(x, Fraction(1, 2))], ("x",))
        with pytest.raises(EvalError, match="even-root"):
            tape.run([-4.0])
        assert tape.run([-0.0]) == [0.0]


# values that reach every rule of the scalar evaluator: zeros of both signs (a divisor,
# a zero base, log), negative bases (roots, log), and magnitudes that overflow pow
# and exp or make an infinity that sin and cos reject
_BATCH_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -8.0, 800.0, 1e200, -1e200]),
                         st.floats(-3.0, 3.0))
_BATCH_COORDS = ("x", "y", "z")


def _batch_trees(seed):
    rng = np.random.default_rng(seed)
    x, y, z = map(expr.var, _BATCH_COORDS)
    trees = [random_expression(rng, list(_BATCH_COORDS), depth=3) for _ in range(3)]
    return trees + [expr.power(x, 3), expr.power(y, -2), expr.power(x, Fraction(1, 3)),
                    expr.power(y, Fraction(2, 3)), expr.power(z, Fraction(1, 2)),
                    expr.exp(y), expr.log(z), expr.sin(x * y), expr.cos(z * z), x / y]


def _row_outcome(tape, row):
    """``tape.run(row)`` as hex strings, so 0.0 and -0.0 differ, or its error."""
    try:
        return [v.hex() for v in tape.run(row)]
    except (EvalError, ArithmeticError, ValueError) as err:
        return type(err), str(err)


class TestNamedMathErrors:
    @pytest.mark.parametrize("text, value, message", [
        ("exp(x*1000)", 2.0, "exp(2000.0): math range error"),
        ("sin(x*1e300)", 1e300, "sin(inf): math domain error"),
        ("cos(x*1e300)", -1e300, "cos(-inf): math domain error"),
        ("x^400", 20.0, "pow(20.0, 400.0): math range error"),
        ("x^(401/3)", 1e300, "pow(1e+300, 133.66666666666666): math range error"),
    ])
    def test_every_tier_names_the_call_and_its_operand(self, text, value, message):
        # these raised a bare OverflowError or ValueError: "math range error"
        cold = expr.compile([parse(text)], ("x",))
        for run in (lambda: cold.run([value]), lambda: cold.run_batch([[0.5], [value], [0.5]])):
            with pytest.raises(EvalError) as err:
                run()
            assert str(err.value) == message


class TestRunBatch:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.lists(st.tuples(_BATCH_VALUE, _BATCH_VALUE, _BATCH_VALUE),
                         min_size=1, max_size=6))
    def test_equals_run_row_by_row_bit_for_bit(self, seed, rows):
        trees = _batch_trees(seed)
        # each tree alone, where most rows succeed, and all trees in one tape
        tapes = [expr.compile([t], _BATCH_COORDS) for t in trees]
        tapes.append(expr.compile(trees, _BATCH_COORDS))
        for tape in tapes:
            want = [_row_outcome(tape, list(row)) for row in rows]
            failed = [w for w in want if isinstance(w, tuple)]
            try:
                got = tape.run_batch(np.array(rows))
            except (EvalError, ArithmeticError, ValueError) as err:
                assert failed and (type(err), str(err)) == failed[0]
            else:
                assert not failed
                assert [[v.hex() for v in row] for row in got.T.tolist()] == want

    def test_first_failing_row_decides_the_error(self):
        # the batch meets row 3's zero divisor first; row by row, row 2's log fails first
        tape = expr.compile([parse("1/y"), parse("log(x)")], ("x", "y"))
        with pytest.raises(EvalError, match="log of a non-positive value"):
            tape.run_batch([[1.0, 1.0], [-1.0, 1.0], [1.0, 0.0]])
        assert tape.run_batch([[1.0, 4.0], [math.e, 0.5]]).tolist() == [[0.25, 2.0], [0.0, 1.0]]

    def test_constant_and_variable_outputs_fill_their_rows(self):
        tape = expr.compile([expr.ONE, expr.var("w"), expr.exp(expr.const(2.0))], ("w", "q1"))
        got = tape.run_batch([[3.0, 4.0], [5.0, 6.0]])
        assert got.tolist() == [[1.0, 1.0], [3.0, 5.0], [math.exp(2.0)] * 2]
        assert tape.run_batch(np.zeros((0, 2))).shape == (3, 0)

    @pytest.mark.parametrize("rows", [np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3),
                                      np.zeros((1, 1, 3))])
    def test_rows_of_another_shape(self, rows):
        tape = expr.compile([parse("q1*p1 + w")], ("w", "q1", "p1"))
        with pytest.raises(EvalError, match="expected rows of 3 coordinate values"):
            tape.run_batch(rows)


class TestExactExponents:
    def test_small_decimal_exponent_is_kept_exactly(self):
        # it was rounded to the nearest fraction of denominator <= 10^12: 0, so q1^1e-13 was 1
        e = parse("q1^1e-13")
        assert e.kind == "pow" and e.exponent == Fraction(1, 10**13)
        assert parse("q1^0.1e-300").exponent == Fraction(1, 10**301)

    def test_short_decimals_read_as_before(self):
        assert parse("q1^0.5").exponent == Fraction(1, 2)
        assert parse("q1^0.1").exponent == Fraction(1, 10)
        assert parse("q1^-2.5").exponent == Fraction(-5, 2)
        assert parse("q1^(2.0/4)").exponent == Fraction(1, 2)
        assert parse("q1^0e-99999999") is expr.ONE

    @pytest.mark.parametrize("text, position", [
        ("q1^1e-400", 3), ("q1^-0.1e-99999999", 4), ("q1^(1/1e-400)", 4),
        pytest.param("q1^1" + "0" * 5000 + "e-5000", 3, id="more digits than int() converts"),
    ])
    def test_exponent_beyond_float_range_is_an_error(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.position) == ("exponent out of range", position)

    def test_rational_exponent_must_still_use_integers(self):
        with pytest.raises(ParseError, match="rational exponent must use integers"):
            parse("q1^(1.5/2)")


class TestHash:
    def test_equal_trees_built_apart(self):
        a, b = parse("q1*p1 + sin(w)"), parse("q1*p1 + sin(w)")
        assert a is b
        assert a != parse("q1*p1 + cos(w)")

    def test_equal_deep_sums_built_apart_are_one_node(self):
        def deep_sum():
            s = expr.ZERO
            for i in range(1, 3001):
                s = s + expr.const(i) * expr.var("q1")
            return s

        a, b = deep_sum(), deep_sum()
        assert a is b
        assert a == b  # identity: no walk of the 3000 levels

    def test_tape_over_equal_trees_built_apart_has_one_tree_of_slots(self):
        text = "q1*p1 + sin(w)"
        assert len(expr.compile([parse(text)], NAMES)._code) == 6
        assert len(expr.compile([parse(text), parse(text)], NAMES)._code) == 6

    def test_node_never_differentiated_dies(self):
        e = parse("q1*p1 + 271.828*w")
        ref = weakref.ref(e)
        del e
        gc.collect()
        assert ref() is None

    def test_differentiated_node_dies_with_its_derivatives(self):
        e = parse("q1*p1*exp(271.828*w)")
        derivatives = [weakref.ref(differentiate(e, name)) for name in ("q1", "p1", "w")]
        ref = weakref.ref(e)
        del e
        gc.collect()
        assert ref() is None
        assert all(d() is None for d in derivatives)

    def test_table_stays_within_the_live_nodes_and_a_quarter_plus_the_floor(self):
        # 100,000 nodes built and dropped in batches of 5,000: dead entries stay
        # until a sweep, which comes once the table holds a quarter more than the
        # last sweep kept plus the floor, so the table is bounded by the nodes
        # alive at once, and a dead entry, whose ids new nodes reuse, never
        # answers a lookup
        while gc.collect():
            pass
        expr._sweep()
        x = expr.var("u8")
        for batch in range(20):
            values = [0.5 + 2500 * batch + k for k in range(2500)]
            nodes = [expr.const(v) * x for v in values]  # a constant and a product each
            assert len(expr._NODES) <= live_nodes() * 5 // 4 + expr._SWEEP_FLOOR
            assert all(e.kind == "mul" and e.args == (expr.const(v), x)
                       for v, e in zip(values, nodes))
            assert all(expr.const(v) * x is e for v, e in zip(values, nodes))
            del nodes
        assert len(expr._NODES) <= (live_nodes() + 5000) * 5 // 4 + expr._SWEEP_FLOOR

    def test_a_node_hashes_and_compares_by_identity(self):
        # compile and substitute key their memos by the node itself
        assert expr.Expr.__hash__ is object.__hash__
        assert "__eq__" not in vars(expr.Expr) and expr.Expr.__eq__ is object.__eq__
        e = parse("q1*p1")
        assert {e: 1}[parse("q1*p1")] == 1

    def test_pickle_returns_the_live_node(self):
        e = parse("exp(S)*V^(-2/3) + q1")
        state = e.__reduce__()
        assert state == (expr.Expr, (e.kind, e.args, e.value, e.name, e.exponent))
        copy = pickle.loads(pickle.dumps(e))
        assert copy is e

    def test_nodes_are_immutable(self):
        e = parse("q1*p1")
        with pytest.raises(AttributeError):
            e.kind = "add"
        with pytest.raises(AttributeError):
            del e.args
        assert e.kind == "mul" and e is parse("q1*p1")

    def test_every_kind_built_twice_apart_is_one_node(self):
        for build in _ONE_OF_EACH_KIND:
            assert build() is build()

    def test_nodes_differing_only_in_kind_are_distinct(self):
        a, b = expr.var("u5"), expr.var("v5") * expr.var("w5")
        unary = [f(a) for f in (expr.neg, expr.exp, expr.log, expr.sin, expr.cos)]
        binary = [f(a, b) for f in (expr.add, expr.sub, expr.mul, expr.div)]
        swapped = [f(b, a) for f in (expr.add, expr.sub, expr.mul, expr.div)]
        nodes = unary + binary + swapped
        assert len({id(e) for e in nodes}) == len(nodes)
        assert [e.kind for e in unary] == ["neg", "exp", "log", "sin", "cos"]
        assert all(e.args == (a, b) for e in binary)
        assert all(e.args == (b, a) for e in swapped)

    def test_powers_and_constants_are_told_apart_by_their_field(self):
        x = expr.var("u5")
        powers = [expr.power(x, 2), expr.power(x, 3), expr.power(x, Fraction(1, 2))]
        assert len({id(e) for e in powers}) == 3
        assert [e.exponent for e in powers] == [2, 3, Fraction(1, 2)]
        assert expr.const(2.5) is not expr.const(3.5)
        assert expr.var("u5") is not expr.var("v5")

    def test_expr_returns_the_node_its_constructor_returns(self):
        for build in _ONE_OF_EACH_KIND:
            e = build()
            assert expr.Expr(e.kind, e.args, e.value, e.name, e.exponent) is e

    def test_pickle_returns_the_live_node_of_every_kind(self):
        for build in _ONE_OF_EACH_KIND:
            e = build()
            assert pickle.loads(pickle.dumps(e)) is e

    def test_differentiate_cache_reports_counts(self):
        info = differentiate.cache_info()
        assert isinstance(info.hits, int) and isinstance(info.misses, int)
        e = parse("u7*v7 + 314.159*u7")  # names no other test uses
        differentiate(e, "u7")  # rules for the sum, both products and u7, then u7's memo
        after = differentiate.cache_info()
        assert (after.hits - info.hits, after.misses - info.misses) == (1, 4)
        differentiate(e, "u7")  # answered from the sum's memo
        assert differentiate.cache_info() == (after.hits + 1, after.misses)


NAMES = ("w", "q1", "p1", "q2", "p2")

# one builder of a fresh node per kind, over names no other test uses
_ONE_OF_EACH_KIND = [
    lambda: expr.const(271.5),
    lambda: expr.var("u6"),
    lambda: expr.var("u6") + expr.var("v6"),
    lambda: expr.var("u6") - expr.var("v6"),
    lambda: expr.var("u6") * expr.var("v6"),
    lambda: expr.var("u6") / expr.var("v6"),
    lambda: expr.power(expr.var("u6"), Fraction(-2, 3)),
    lambda: -expr.var("u6"),
    lambda: expr.exp(expr.var("u6")),
    lambda: expr.log(expr.var("u6")),
    lambda: expr.sin(expr.var("u6")),
    lambda: expr.cos(expr.var("u6")),
]


def _safe_sample(rng, e):
    """Bindings for which e, its derivative and the central difference behave."""
    b = {name: float(rng.uniform(0.4, 1.6)) for name in NAMES}
    try:
        v = evaluate(e, b)
    except EvalError:
        return None
    if not math.isfinite(v) or abs(v) > 1e6:
        return None
    return b


def test_derivative_matches_central_differences_1000_samples():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        e = random_expression(rng, NAMES, depth=3)
        name = str(rng.choice(NAMES))
        b = _safe_sample(rng, e)
        if b is None:
            continue
        try:
            exact = evaluate(differentiate(e, name), b)
            approx = central_difference(e, name, b)
        except EvalError:
            continue
        if not (math.isfinite(exact) and math.isfinite(approx)) or abs(exact) > 1e5:
            continue
        assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact)), to_string(e)
        checked += 1


def test_derivative_matches_sympy():
    # an oracle that shares no rule with differentiate: sympy's derivative of the
    # printed tree, at points where the tree evaluates
    sympy = pytest.importorskip("sympy")
    symbols = {name: sympy.Symbol(name) for name in NAMES}
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 200:
        e = random_expression(rng, NAMES, depth=3)
        name = str(rng.choice(NAMES))
        b = _safe_sample(rng, e)
        if b is None:
            continue
        try:
            exact = evaluate(differentiate(e, name), b)
        except EvalError:
            continue
        oracle = sympy.diff(sympy.sympify(to_string(e), locals=symbols), symbols[name])
        want = float(oracle.evalf(subs={symbols[k]: v for k, v in b.items()}))
        assert abs(exact - want) <= 1e-9 * (1.0 + abs(want)), (to_string(e), name)
        checked += 1


def test_differentiate_is_the_full_rule_derivative():
    # the rules that skip a structurally zero term build the very node the
    # unshortened rules build, for every name, free or not
    rng = np.random.default_rng(29)
    for _ in range(300):
        e = random_expression(rng, NAMES, depth=3)
        for name in NAMES:
            assert differentiate(e, name) is reference_differentiate(e, name), (e, name)


def test_differentiation_is_linear():
    rng = np.random.default_rng(7)
    for _ in range(50):
        e1 = random_expression(rng, NAMES, depth=3)
        e2 = random_expression(rng, NAMES, depth=3)
        a = float(rng.uniform(-3, 3))
        combo = differentiate(expr.const(a) * e1 + e2, "q1")
        split = expr.const(a) * differentiate(e1, "q1") + differentiate(e2, "q1")
        b = _safe_sample(rng, combo - split)
        if b is None:
            continue
        assert abs(evaluate(combo, b) - evaluate(split, b)) <= 1e-12 * (
            1.0 + abs(evaluate(split, b)))


@st.composite
def expression_trees(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    depth = draw(st.integers(min_value=0, max_value=4))
    return random_expression(np.random.default_rng(seed), NAMES, depth)


@settings(max_examples=300, deadline=None)
@given(expression_trees())
def test_print_parse_round_trip_is_identity_on_asts(e):
    assert parse(to_string(e)) is e


@settings(max_examples=100, deadline=None)
@given(expression_trees())
def test_parse_print_parse_equals_parse(e):
    text = to_string(e)
    once = parse(text)
    assert parse(to_string(once)) == once


def test_round_trip_of_sample_texts():
    for text in ("q1*p1", "0.5*(q1^2 + p1^2)", "exp(S)*V^(-2/3)",
                 "w - q1*p1 - q2*p2", "-q1^2 + sin(p1)/cos(p1)",
                 "1.5*T - 1/V - T*log(V - 1) - 1.5*T*log(T)"):
        once = parse(text)
        assert parse(to_string(once)) == once


def test_free_variables():
    assert expr.free_variables(parse("q1*p1 + w")) == {"q1", "p1", "w"}
    assert expr.free_variables(parse("42")) == frozenset()


def test_operator_overloads_match_constructors():
    q, p = expr.var("q1"), expr.var("p1")
    assert (q + p) == parse("q1 + p1")
    assert (q - 2) == parse("q1 - 2")
    assert (3 * q) == parse("3*q1")
    assert (q / p) == parse("q1/p1")
    assert (-q) == parse("-q1")
    assert (q ** 2) == parse("q1^2")


def test_light_simplification_only():
    q = expr.var("q1")
    assert q + 0 is q
    assert 1 * q is q
    assert q - q is expr.ZERO
    assert expr.power(q, 1) is q
    # but no deep canonicalization: q*p and p*q stay distinct trees
    assert parse("q1*p1") != parse("p1*q1")


def test_constructors_return_the_reference_nodes():
    # the constructors that test kinds inline against the ones that called a
    # helper (conftest.reference_*): the very same node for every pair of operands
    q = expr.var("q1")
    grid = [expr.ZERO, expr.ONE, expr.const(-1.0), expr.const(1e-160), expr.const(1e-200),
            expr.const(1e300), expr.const(math.inf), expr.const(2.5) * q,
            expr.const(1e-160) * q, q, -q, q / expr.var("p1")]
    pairs = [(expr.add, reference_add), (expr.sub, reference_sub), (expr.mul, reference_mul),
             (expr.div, reference_div)]
    for build, reference in pairs:
        for a in grid:
            for b in grid:
                assert build(a, b) is reference(a, b), (build.__name__, a, b)
    for a in grid:
        assert expr.neg(a) is reference_neg(a)


@pytest.mark.parametrize("c1, c2", [
    # 1e-200 * 1e-200 underflows to 0, so the product folded to the constant 0
    (1e-200, 1e-200),
    # 1e-320 is subnormal, so (1e-160*1e-160)*x loses the digits c1*(c2*x) keeps
    (1e-160, 1e-160),
])
def test_nested_constants_fold_only_to_a_normal_product(c1, c2):
    e = parse(f"{c1!r}*({c2!r}*x)")
    assert evaluate(e, {"x": 1e300}) == c1 * (c2 * 1e300)
    assert parse("2*(3*x)") is parse("6*x")


class TestSubstitute:
    def test_values_are_those_at_the_image_point(self):
        rng = np.random.default_rng(31)
        compared = 0
        for _ in range(60):
            e = random_expression(rng, NAMES, depth=3)
            env = {name: random_expression(rng, NAMES, depth=2) for name in NAMES}
            (moved,) = expr.substitute([e], env)
            point = {name: float(rng.uniform(-2.0, 2.0)) for name in NAMES}
            try:
                image = {name: evaluate(env[name], point) for name in NAMES}
                want = evaluate(e, image)
            except (EvalError, OverflowError):
                continue
            # folding may regroup constant factors, so the last bits may differ
            assert evaluate(moved, point) == pytest.approx(want, rel=1e-9, abs=1e-12)
            compared += 1
        assert compared >= 40

    def test_empty_env_returns_the_same_nodes(self):
        rng = np.random.default_rng(32)
        trees = [random_expression(rng, NAMES, depth=4) for _ in range(30)]
        assert all(a is b for a, b in zip(expr.substitute(trees, {}), trees))

    def test_deep_sum_has_no_recursion_limit(self):
        q = expr.var("q1")
        e = expr.ZERO
        for i in range(1, 3001):
            e = e + expr.const(float(i)) * q
        (moved,) = expr.substitute([e], {"q1": expr.var("x") * expr.const(0.5)})
        assert evaluate(moved, {"x": 1.0}) == evaluate(e, {"q1": 0.5})
        assert expr.free_variables(moved) == {"x"}


# the parser against the recursive-descent parser it replaced (conftest.reference_parse):
# the same node for a text the reference parses, the same message and offset for a
# text it rejects, and a ParseError where it crashed.  The one new error is an
# overflowing literal: "number out of range" at its start.  The reference reads such
# a literal to inf and may meet its own error later, which it blames on an earlier
# '(' when that error is at the end of the input, or fold the inf away (1e999*0).

_TOKENS = ["x", "q1", "p_2", "exp", "sinh", "2", "0", "1.5", "1e", "1e999", ".", "+", "-",
           "*", "/", "^", "(", ")", "(-2/3)", " ", "\t"]
# texts of the grammar, which random token strings seldom are: most parse
_GRAMMAR_TEXTS = st.recursive(
    st.sampled_from(["x", "q1", "p_2", "2", "0", "0.5", "3e2", "1e999"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*", "/"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["^2", "^-1", "^0.5", "^(-2/3)"])).map("".join),
        st.tuples(st.sampled_from(["-", "(", "exp(", "log("]), inner).map(
            lambda p: p[0] + p[1] + (")" if p[0].endswith("(") else ""))),
    max_leaves=10)
_LITERAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _parsed(parse_text, text):
    try:
        return parse_text(text)
    except ParseError as err:
        return err.message, err.position


def _finite(e):
    stack = [e]
    while stack:
        node = stack.pop()
        if node.kind == "const" and not math.isfinite(node.value):
            return False
        stack.extend(node.args)
    return True


def _assert_parses_as_the_reference(text):
    got = _parsed(parse, text)  # any other exception fails the test
    assert isinstance(got, tuple) or _finite(got), text
    try:
        want = _parsed(reference_parse, text)
    except (IndexError, ValueError, OverflowError):
        assert isinstance(got, tuple), text
        return
    if isinstance(got, tuple) and got[0] == "number out of range":
        literal = _LITERAL.match(text, got[1])
        assert literal and math.isinf(float(literal[0])), text
        if isinstance(want, tuple):
            assert got[1] <= want[1] or want[0] == "unbalanced '('", (text, want)
        return
    assert got == want, text  # nodes compare by identity


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join))
def test_parse_agrees_with_the_recursive_reference_on_token_strings(text):
    _assert_parses_as_the_reference(text)


@settings(max_examples=500, deadline=None)
@given(_GRAMMAR_TEXTS)
def test_parse_agrees_with_the_recursive_reference_on_grammar_texts(text):
    _assert_parses_as_the_reference(text)


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=24))
def test_parse_agrees_with_the_recursive_reference_on_any_text(text):
    _assert_parses_as_the_reference(text)
