"""Small symbolic expression core: parsing, exact differentiation, evaluation.

Every scalar quantity in this package (contact form components, Hamiltonians,
metric entries, thermodynamic potentials) is an immutable ``Expr`` tree, so
that all derivatives needed downstream -- up to the third derivatives that
curvature requires -- are exact.

Grammar accepted by :func:`parse`::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' exponent)?
    base     := number | ident | func '(' expr ')' | '(' expr ')' | '-' base
    exponent := signed number | '(' signed rational ')'     e.g.  2, -2, 0.5, (-2/3)
    func     := 'exp' | 'log' | 'sin' | 'cos'

Identifiers are ``[A-Za-z][A-Za-z0-9_]*``.  A number is a decimal literal such
as ``2``, ``.5`` or ``1.5e-3`` that is finite as a float; ``1e999`` is an error.
Exponents are stored as exact ``fractions.Fraction`` values so that e.g.
``V^(-2/3)`` differentiates cleanly; a decimal exponent is the rational its
digits spell (``1e-13`` is 1/10^13).  The parser is one loop over an explicit
stack, so nesting has no depth limit; an error at the end of the input is
reported at the innermost ``(`` still open.
Only light simplification is performed at construction time (constant folding
and 0/1 identities); correctness elsewhere is checked by evaluation, not by
tree equality.

Nodes are interned, so equal trees are one object and equality is identity.
The intern table holds each node through a plain weak reference, with no
callback to run when the node dies; it sweeps out the entries of dead nodes
once it holds a quarter more entries than the last sweep kept, plus a small
floor.
A node keeps its free variables and derivatives in its own slots, so that
work dies with the node.  :func:`compile` orders the unique nodes of some
expressions into a :class:`Tape` once, equal subtrees sharing a slot;
``Tape.run`` then evaluates each node once per point without recursion, by
interpreting the tape, the one scalar evaluator; ``Tape.run_batch`` runs the
same interpreter at many points at once, one numpy operation per
instruction; ``Tape.rk4`` runs a whole RK4 flow of a vector field's tape in
one generated function, the only code a tape generates.  A tape is compiled
against a coordinate order and reads a point as the sequence of its
coordinate values, in that order.
"""

from __future__ import annotations

import builtins
import itertools
import math
import re
import sys
import weakref
from collections import namedtuple
from fractions import Fraction

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "EvalError",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "exp",
    "log",
    "sin",
    "cos",
    "parse",
    "differentiate",
    "evaluate",
    "compile",
    "Tape",
    "to_string",
    "free_variables",
    "substitute",
]

class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error; ``position`` is the 0-based offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.message = message
        self.position = position


class EvalError(ExprError):
    """Raised for unbound variables and arithmetic domain errors."""


# The intern table maps a node's key to a plain weak reference to the node, one
# with no callback.  A key holds what tells the nodes of one kind apart:
# ("const", value), ("var", name), ("pow", exponent, id(base)), (kind, id(a))
# for neg, exp, log, sin and cos, and (kind, id(a), id(b)) for add, sub, mul
# and div.  Each constructor builds its own key and hands it to _node;
# Expr.__new__ builds the same key from a node's fields.
# A node lives while something outside the table holds it, and its entry stays
# behind when it dies.  A dead entry reads as a miss and is overwritten by the
# next node of its key; the rest are swept out once the table holds a quarter
# more entries than the last sweep kept, plus _SWEEP_FLOOR, so it never holds
# more than 5/4 of the nodes alive at the last sweep plus the floor.  (With
# twice in place of 5/4, the dead entries raised the peak RSS of one verify run
# at n = 8 by 2.5 per cent; with 5/4, by 0.2 per cent.)
# A stale key never matches a live node: a live node holds its children alive,
# so the ids in the key of a live entry are those of live objects, which no
# other object can have.
_NODES: dict = {}
_SWEEP_FLOOR = 1024
_sweep_at = _SWEEP_FLOOR


def _sweep() -> None:
    """Drop the entries of dead nodes and set the table size of the next sweep."""
    global _sweep_at
    for key in [key for key, ref in _NODES.items() if ref() is None]:
        del _NODES[key]
    _sweep_at = len(_NODES) * 5 // 4 + _SWEEP_FLOOR


class Expr:
    """Immutable, interned expression node.

    ``kind`` is one of ``const, var, add, sub, mul, div, pow, neg, exp, log,
    sin, cos``.  ``value`` is used for constants, ``name`` for variables and
    ``exponent`` (an exact rational) for ``pow`` nodes.  Building a node equal
    to a live one returns that node, so ``==`` is ``is``; the intern table
    ``_NODES`` holds each node through a plain weak reference, under a key of
    its kind's distinguishing fields and its children's ids.  The constructors
    (:func:`const`, :func:`add`, ...) build that key themselves; ``Expr(...)``
    builds the same one, and unpickling goes through it.  ``_free`` and
    ``_derivs`` are the memos of :func:`free_variables` and
    :func:`differentiate`, None until first asked for.
    """

    __slots__ = ("kind", "args", "value", "name", "exponent", "_free", "_derivs", "__weakref__")

    def __new__(cls, kind: str, args: tuple["Expr", ...] = (), value: float = 0.0,
                name: str = "", exponent: Fraction | None = None):
        return _node(_key(kind, args, value, name, exponent), kind, args, value, name,
                     exponent)

    def __setattr__(self, name, value):
        raise AttributeError(f"Expr is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Expr is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # unpickling goes through __new__, so it returns the live node
        return (Expr, (self.kind, self.args, self.value, self.name, self.exponent))

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"<Expr {to_string(self)}>"


# a new node's slots are set through each slot's own setter, which bypasses
# Expr.__setattr__
_new_object = object.__new__
_weak = weakref.ref
(_set_kind, _set_args, _set_value, _set_name, _set_exponent, _set_free,
 _set_derivs) = (getattr(Expr, slot).__set__ for slot in Expr.__slots__[:7])


def _key(kind: str, args: tuple, value: float, name: str, exponent) -> tuple:
    """The intern key of the node with these fields (see _NODES)."""
    if kind == "const":
        return ("const", value)
    if kind == "var":
        return ("var", name)
    if kind == "pow":
        return ("pow", exponent, id(args[0]))
    return (kind, *map(id, args))


def _node(key: tuple, kind: str, args: tuple = (), value: float = 0.0, name: str = "",
          exponent: Fraction | None = None) -> Expr:
    """The live node of ``key``, or a new node of these fields entered under it."""
    # children are interned, so the key holds their ids (see _NODES); the table
    # holds no node strongly, so a collection frees a dead cycle and its
    # children at once
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = _new_object(Expr)
    _set_kind(node, kind)
    _set_args(node, args)
    _set_value(node, value)
    _set_name(node, name)
    _set_exponent(node, exponent)
    _set_free(node, None)
    _set_derivs(node, None)
    _NODES[key] = _weak(node)
    if len(_NODES) > _sweep_at:
        _sweep()
    return node


_isfinite = math.isfinite


def _lift(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


ZERO = _node(("const", 0.0), "const", value=0.0)
ONE = _node(("const", 1.0), "const", value=1.0)


def const(value: float) -> Expr:
    value = float(value)
    if value == 0.0:
        return ZERO
    if value == 1.0:
        return ONE
    return _node(("const", value), "const", value=value)


def var(name: str) -> Expr:
    return _node(("var", name), "var", name=name)


def add(a: Expr, b: Expr) -> Expr:
    if a.kind == "const" and b.kind == "const":
        s = a.value + b.value
        if _isfinite(s):
            return const(s)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return _node(("add", id(a), id(b)), "add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if a.kind == "const" and b.kind == "const":
        s = a.value - b.value
        if _isfinite(s):
            return const(s)
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if a is b:
        return ZERO
    return _node(("sub", id(a), id(b)), "sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    ka, kb = a.kind, b.kind
    if ka == "const" and kb == "const":
        s = a.value * b.value
        if _isfinite(s):
            return const(s)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    # keep constants in front and collapse nested constant factors, unless their
    # product leaves the normal range, where c1*(c2*x) as written can still be normal
    if kb == "const" and ka != "const":
        a, b, ka, kb = b, a, kb, ka
    if ka == "const" and kb == "mul" and b.args[0].kind == "const":
        s = a.value * b.args[0].value
        if _isfinite(s) and abs(s) >= sys.float_info.min:
            return mul(const(s), b.args[1])
    return _node(("mul", id(a), id(b)), "mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if b is ONE:
        return a
    if a is ZERO and b is not ZERO:
        return ZERO
    if a.kind == "const" and b.kind == "const" and b.value != 0.0:
        s = a.value / b.value
        if _isfinite(s):
            return const(s)
    return _node(("div", id(a), id(b)), "div", (a, b))


def neg(a: Expr) -> Expr:
    if a.kind == "const":
        return const(-a.value)
    if a.kind == "neg":
        return a.args[0]
    return _node(("neg", id(a)), "neg", (a,))


def power(base: Expr, exponent) -> Expr:
    r = exponent if isinstance(exponent, Fraction) else Fraction(exponent)
    if r == 0:
        return ONE
    if r == 1:
        return base
    if base.kind == "const":
        try:
            v = _pow_value(base.value, *_exponent(r))
        except (EvalError, OverflowError):
            v = None
        if v is not None and math.isfinite(v):
            return const(v)
    return _node(("pow", r, id(base)), "pow", (base,), exponent=r)


def exp(a: Expr) -> Expr:
    return _node(("exp", id(a)), "exp", (a,))


def log(a: Expr) -> Expr:
    return _node(("log", id(a)), "log", (a,))


def sin(a: Expr) -> Expr:
    return _node(("sin", id(a)), "sin", (a,))


def cos(a: Expr) -> Expr:
    return _node(("cos", id(a)), "cos", (a,))


# ---------------------------------------------------------------------------
# differentiation

_NO_VARIABLES: frozenset[str] = frozenset()


def free_variables(e: Expr) -> frozenset[str]:
    """The names of the variables in ``e``; each node of ``e`` keeps its own set."""
    stack = [e] if e._free is None else []
    while stack:
        node = stack.pop()
        if node._free is not None:
            continue
        pending = [a for a in node.args if a._free is None]
        if pending:
            stack += [node, *pending]
            continue
        free = frozenset((node.name,)) if node.kind == "var" else _NO_VARIABLES
        for a in node.args:  # share an operand's set where it holds them all
            if not a._free <= free:
                free = a._free if free <= a._free else free | a._free
        _set_free(node, free)
    return e._free


# derivatives answered from a node's memo, and rules applied, in this process
_diff_counts = [0, 0]
_CacheInfo = namedtuple("CacheInfo", "hits misses")
# the markers on the stacks of differentiate and compile: the next item popped
# after one is the node whose operands (_READY) or whose denominator (_CHECKED)
# are done
_READY, _CHECKED = object(), object()


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to variable ``name``.

    The walk stops at nodes that already hold their derivative by ``name``;
    a zero derivative is read from the free variables, not stored."""
    derivs = e._derivs
    if derivs is not None and name in derivs:
        _diff_counts[0] += 1
        return derivs[name]
    if name not in free_variables(e):
        return ZERO
    # a node is pushed bare when reached, and again under _READY below the
    # operands it still needs
    stack = [e]
    pop, push = stack.pop, stack.append
    hits = misses = 0
    while stack:
        node = pop()
        if node is _READY:  # every operand's derivative is answered
            node = pop()
            derivs = node._derivs
            if derivs is None:
                derivs = {}
                _set_derivs(node, derivs)
            derivs[name] = _rule(node, name)
            misses += 1
            continue
        derivs = node._derivs
        if derivs is not None and name in derivs:
            hits += 1
            continue
        push(node)
        push(_READY)
        for a in node.args:
            if name in a._free:
                push(a)
    _diff_counts[0] += hits
    _diff_counts[1] += misses
    return e._derivs[name]


differentiate.cache_info = lambda: _CacheInfo(*_diff_counts)


def _rule(e: Expr, name: str) -> Expr:
    """The derivative of ``e`` from the answered derivatives of its operands."""
    k = e.kind
    if k == "var":
        return ONE
    a, b = e.args[0], e.args[-1]  # b is a for a node of one operand
    da = a._derivs[name] if name in a._free else ZERO
    db = b._derivs[name] if name in b._free else ZERO
    if k == "add":
        return add(da, db)
    if k == "sub":
        return sub(da, db)
    if k == "mul":  # a factor constant in name: the sum below folds to the other term
        if db is ZERO:
            return mul(da, b)
        if da is ZERO:
            return mul(a, db)
        return add(mul(da, b), mul(a, db))
    if k == "div":
        return div(sub(mul(da, b), mul(a, db)), mul(b, b))
    if k == "neg":
        return neg(da)
    if k == "pow":
        return mul(mul(const(float(e.exponent)), power(a, e.exponent - 1)), da)
    if k == "exp":
        return mul(e, da)
    if k == "log":
        return div(da, a)
    if k == "sin":
        return mul(cos(a), da)
    if k == "cos":
        return neg(mul(sin(a), da))
    raise AssertionError(f"unknown node kind {k!r}")


# each compound kind's constructor; a power also takes its node's exponent
_CONSTRUCTOR = {"add": add, "sub": sub, "mul": mul, "div": div, "neg": neg, "pow": power,
                "exp": exp, "log": log, "sin": sin, "cos": cos}


def substitute(exprs, env) -> list[Expr]:
    """``exprs`` with each variable named in ``env`` replaced by its expression there.

    Each node is rebuilt once, children first and through an explicit stack, by
    its constructor, which folds as usual; a node whose operands are unchanged is
    kept, so an empty ``env`` returns the same nodes."""
    roots = tuple(exprs)
    done: dict[Expr, Expr] = {}  # an Expr hashes by identity
    stack = list(roots)
    while stack:
        node = stack.pop()
        pending = [a for a in node.args if a not in done]
        if pending:
            stack += [node, *pending]
        elif node.kind == "var":
            done[node] = env.get(node.name, node)
        elif node not in done:
            args = [done[a] for a in node.args]
            exponent = (node.exponent,) if node.kind == "pow" else ()
            same = all(a is b for a, b in zip(args, node.args))
            done[node] = node if same else _CONSTRUCTOR[node.kind](*args, *exponent)
    return [done[root] for root in roots]


# ---------------------------------------------------------------------------
# evaluation

# how a negative base takes the rational power num/den: directly for an integer
# exponent, as a real odd root (negative for an odd num) or not at all
_INTEGER, _ODD_ROOT_NEGATIVE, _ODD_ROOT_POSITIVE, _EVEN_ROOT = range(4)


def _exponent(r: Fraction) -> tuple[float, int]:
    """The data ``_pow_value`` takes for the exponent ``r``, computed once per slot."""
    num, den = r.numerator, r.denominator
    if den == 1:
        root = _INTEGER
    elif den % 2 == 0:
        root = _EVEN_ROOT
    else:
        root = _ODD_ROOT_NEGATIVE if num % 2 == 1 else _ODD_ROOT_POSITIVE
    return num / den, root


def _zero_power(e: float) -> float:
    if e < 0.0:
        raise EvalError("zero raised to a negative power")
    return 0.0


def _pow_value(base: float, e: float, root: int) -> float:
    """``base`` to the rational power ``r``, given as ``e, root = _exponent(r)``."""
    if base == 0.0:
        return _zero_power(e)
    if base < 0.0 and root != _INTEGER:
        if root == _EVEN_ROOT:
            raise EvalError("negative base with even-root exponent")
        mag = math.pow(-base, e)
        return -mag if root == _ODD_ROOT_NEGATIVE else mag
    return math.pow(base, e)


# opcodes of a tape; constants are not instructions but slots filled at compile
# time.  A power with an integer exponent is _POWI, any other _POW.
(_VAR, _ADD, _SUB, _MUL, _DIV, _NEG, _POWI, _POW, _EXP, _LOG, _SIN, _COS, _NONZERO) = range(13)
_OPCODE = {"add": _ADD, "sub": _SUB, "mul": _MUL, "div": _DIV, "neg": _NEG, "pow": _POW,
           "exp": _EXP, "log": _LOG, "sin": _SIN, "cos": _COS}
_BINARY = (_ADD, _SUB, _MUL, _DIV)

# The stepper's source.  An arithmetic instruction is an expression over the
# text of its operands, {0} and {1}.  Any other instruction is a statement: {0}
# is the local it assigns, {1} the text of its operand and {2} its slot, which
# names its exponent's parameters r<slot> and s<slot>, so no constant or
# exponent ever becomes source text.  A positive even integer power has no zero
# test, since math.pow(+-0.0, e) is then +0.0, the value of _zero_power(e).
_EXPRESSION = {_ADD: "{0} + {1}", _SUB: "{0} - {1}", _MUL: "{0} * {1}", _DIV: "{0} / {1}",
               _NEG: "-{0}"}
_STATEMENT = {
    _POWI: "{0} = _pow({1}, r{2:d}) if {1} != 0.0 else _zero_power(r{2:d})",
    _POW: "{0} = _pow_value({1}, r{2:d}, s{2:d})",
    _EXP: "{0} = _exp({1})",
    _LOG: "if {1} <= 0.0: raise EvalError('log of a non-positive value')\n{0} = _log({1})",
    _SIN: "{0} = _sin({1})",
    _COS: "{0} = _cos({1})",
    _NONZERO: "if {1} == 0.0: raise EvalError('division by zero')",
}
_EVEN_POWER = "{0} = _pow({1}, r{2:d})"
# The deepest that an inlined expression nests its parentheses; an arithmetic
# instruction that would nest deeper is a statement of its own.  Python's parser
# refuses more than 200 nested parentheses, which the chain of single-use sums
# of a Hamiltonian of 400 terms would pass.
_MAX_NESTING = 32


def _even(e: float) -> bool:
    """Whether a _POWI exponent is a positive even integer."""
    return e > 0.0 and e % 2.0 == 0.0


def _wrong_length(arity: int, point):
    raise EvalError(f"expected {arity} coordinate values, got {len(point)}")


_STEPPER_GLOBALS = {"__builtins__": {}, "EvalError": EvalError, "len": len, "range": range,
                    "OverflowError": OverflowError, "ValueError": ValueError,
                    "FloatingPointError": FloatingPointError, "_isfinite": math.isfinite,
                    "_wrong_length": _wrong_length, "_zero_power": _zero_power,
                    "_pow_value": _pow_value, "_pow": math.pow,
                    "_exp": math.exp, "_log": math.log, "_sin": math.sin, "_cos": math.cos}


def _generate(template: list, code: list, outputs: list, arity: int):
    """The stepper of :meth:`Tape.rk4`: the function ``(y, h, steps) -> y``
    that runs ``code`` at each of the four stages of every step.

    A stage is written as fused expressions, the rule for generating code from
    an expression DAG (Sethi and Ullman, JACM 17(4), 1970): an add, sub, mul,
    div or neg that one other instruction alone reads goes, in parentheses,
    inside that one, up to ``_MAX_NESTING`` parentheses deep; a shared one, a
    deeper one and a stage output are each assigned to a local.  A variable
    reads the stage's input local directly, and an input that no variable
    reads is not computed.  Each math call and domain test (a power, ``exp``,
    ``log``, ``sin`` and ``cos``, a divisor's zero test and a ``log``'s domain
    test) stays one statement, in tape order, so the values and the first
    error raised are those of :meth:`Tape.run`: the arithmetic that moves
    later cannot raise, since its divisors are tested before it.  Each
    constant slot and exponent is a parameter whose value is set as the
    function's default arguments, so a call passes its own arguments alone
    and no value becomes source text.
    """
    # the source is built with %-formatting: an f-string takes about ten times
    # as long to compile, which every import pays where no bytecode is cached
    assigned = {dst for _, dst, _, _ in code}
    params = {"v%d" % s: template[s] for s in range(len(template)) if s not in assigned}
    # how often a stage reads each slot: a log and a power with a zero test
    # read their operand twice, a divisor is read by its test and its quotient
    reads = [0] * len(template)
    for op, dst, a, b in code:
        if op == _POWI:
            params["r%d" % dst] = b
        elif op == _POW:
            params["r%d" % dst], params["s%d" % dst] = b
        if op in _BINARY:
            reads[b] += 1
        if op != _VAR:
            reads[a] += 2 if op == _LOG or op == _POWI and not _even(b) else 1
    stages = [_stage(code, reads, outputs, letter) for letter in "abcd"]
    source = "\n".join(["def rk4(y, h, steps, " + ", ".join(params) + "):",
                        *["    " + line for line in _stepper_body(stages, arity)]])
    scope: dict = {}
    exec(builtins.compile(source, "<tape>", "exec"), dict(_STEPPER_GLOBALS), scope)
    function = scope["rk4"]
    function.__defaults__ = tuple(params.values())
    return function


def _stage(code: list, reads: list, outputs: list, letter: str) -> tuple:
    """One stage of the stepper: its inputs ``(j, local)``, its statements and
    the text of each of its outputs.

    An output slot is assigned to the stage's local ``<letter><j>`` of its
    first output ``j``, and another statement to ``v<slot>``; a constant is
    its parameter ``v<slot>``.  A variable at position ``j`` reads the state
    ``y<j>`` in the first stage, and after it the stage's input ``x<j>``, or
    its own output where it is one, so that a stage output keeps its value
    until the step's update.  An inlined slot's text is its expression in
    parentheses.
    """
    first: dict = {}
    for j, s in enumerate(outputs):
        first.setdefault(s, j)
    text = {s: "v%d" % s for s in range(len(reads))}
    depth: dict = {}  # the nesting of parentheses of each inlined slot's text
    inputs, lines = [], []
    for op, dst, a, b in code:
        name = "%s%d" % (letter, first[dst]) if dst in first else "v%d" % dst
        if op == _VAR:
            text[dst] = "y%d" % a if letter == "a" else name if dst in first else "x%d" % a
            inputs.append((a, text[dst]))
            continue
        if op in _EXPRESSION:
            value = _EXPRESSION[op].format(text[a], text.get(b))
            nesting = 1 + max(depth.get(a, 0), depth.get(b, 0))
            if reads[dst] == 1 and dst not in first and nesting <= _MAX_NESTING:
                text[dst], depth[dst] = "(" + value + ")", nesting
                continue
            lines.append(name + " = " + value)
        else:
            form = _EVEN_POWER if op == _POWI and _even(b) else _STATEMENT[op]
            lines += form.format(name, text[a], dst).split("\n")
        text[dst] = name
    return inputs, lines, [text[s] for s in outputs]


def _stepper_body(stages: list, arity: int) -> list:
    """The lines of the stepper: a loop over the steps that runs the four
    ``stages``, each ``(inputs, statements, outputs)`` as :func:`_stage` makes
    them, on scalar locals and in the association order of numpy's array form
    ``y + (0.5*h)*k`` and ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``.

    A stage after the first assigns its inputs, only those that a variable
    reads, from the state and the outputs of the stage before.  The state is
    updated at once, since an output of the first stage may be a coordinate
    of the state.
    """
    state = "".join("y%d, " % j for j in range(arity))
    lines = ["if len(y) != %d: _wrong_length(%d, y)" % (arity, arity),
             state + "= y",
             "half, sixth = 0.5 * h, h / 6.0",
             "for k in range(steps):",
             "    try:"]
    before = None
    for (inputs, stage, outputs), step in zip(stages, ("", "half", "half", "h")):
        lines += ["        %s = y%d + %s * %s" % (x, j, step, before[j]) for j, x in inputs if step]
        lines += ["        " + line for line in stage]
        before = outputs
    if lines[-1] == "    try:":  # a field of constants
        lines.append("        pass")
    ks = zip(*[outputs for _, _, outputs in stages])
    lines += ["    except (OverflowError, ValueError):  # a math call overflowed",
              "        raise FloatingPointError(f'non-finite state at step {k + 1}') from None",
              "    %s= %s" % (state, "".join("y%d + sixth * (((%s + 2.0 * %s) + 2.0 * %s) + %s), "
                                          % (j, *k) for j, k in enumerate(ks))),
              "    if not (%s):" % " and ".join("_isfinite(y%d)" % j for j in range(arity)),
              "        raise FloatingPointError(f'non-finite state at step {k + 1}')",
              "return [%s]" % state]
    return lines


def _powi_value(x: float, e: float) -> float:
    return math.pow(x, e) if x != 0.0 else _zero_power(e)


_FUNCTION = {_EXP: math.exp, _LOG: math.log, _SIN: math.sin, _COS: math.cos}
_CALL_NAME = {_POWI: "pow", _POW: "pow", _EXP: "exp", _LOG: "log", _SIN: "sin", _COS: "cos"}


def _mapped(f, x, *data):
    """``f(value, *data)`` for a constant slot, or for each value of a column as
    a column: the scalar evaluator's own call, so the bits are its bits."""
    if not isinstance(x, np.ndarray):
        return f(x, *data)
    return np.array(list(map(f, x.tolist(), *map(itertools.repeat, data))), dtype=float)


class Tape:
    """Straight-line program over the unique nodes of some expressions.

    Built by :func:`compile`.  Each instruction is ``(opcode, destination,
    operand, operand)`` over a list of slots, one slot per unique node.  A
    variable's operand is its position in the coordinate order the tape was
    compiled against.  A power's second operand is its exponent as a float
    where that is an integer (``_POWI``), and the pair :func:`_exponent` gives
    otherwise (``_POW``).

    :meth:`run` interprets the instruction list: one pass per point, in tape
    order.  It is the one scalar evaluator.  A failing ``math`` call raises an
    :class:`EvalError` that names the call and its operand: ``exp(1000.0):
    math range error``.

    :meth:`rk4` runs a vector field's tape as the right-hand side of an RK4
    flow: its first call generates the stepper, one Python function that holds
    the instructions four times, once per stage, in one loop over all the
    steps.  There a single-use arithmetic instruction is inlined into the one
    that reads it, up to ``_MAX_NESTING`` parentheses deep, and each math call
    and domain test is a statement of its own, in tape order.  It is the only
    generated code of a tape, and dies with it.  A ``math`` call that
    overflows in a step raises ``FloatingPointError``, which names the step,
    not the call.

    :meth:`run_batch` runs the same list over many points at once, through
    the interpreter's own loop with a column of values in each slot.
    Arithmetic and negation are then numpy operations, which round as the
    scalar ones do; powers and the functions apply the scalar evaluator's own
    ``math`` calls to each value of the column, since numpy's differ from them
    in the last bit.  An integer power of a column that holds no zero maps
    ``math.pow`` itself, with no Python call per value.  Its values are
    therefore those of ``run`` at each point, bit for bit, and a batch in
    which any point fails is re-run point by point, so it raises the scalar
    evaluator's error.
    """

    __slots__ = ("_template", "_code", "_outputs", "_arity", "_stepper")

    def __init__(self, template: list, code: list, outputs: list, arity: int):
        self._template = template
        self._code = code
        self._outputs = outputs
        self._arity = arity
        self._stepper = None

    def run(self, point) -> list:
        """Values of the compiled expressions, in order, at ``point``.

        ``point`` is the sequence of the coordinate values in the order the
        tape was compiled against, best as Python floats; a sequence of another
        length raises :class:`EvalError`.

        The instruction list is interpreted once.  Each node is evaluated
        once, children first, in the order a recursive walk of the
        expressions in turn finishes them (a quotient's denominator and its
        zero check come before its numerator), so the values and the first
        :class:`EvalError` raised are those of evaluating each expression
        alone.
        """
        return self._interpret(point)

    def rk4(self, state: list, h: float, steps: int) -> list:
        """The state after ``steps`` classical RK4 steps of length ``h`` of
        ``ydot = f(y)`` from ``state``, where ``f`` is the tape's outputs, one
        per coordinate.

        The first call generates the stepper (:func:`_generate`), one Python
        function that runs all the steps and is kept for every later call.  It
        does at each stage what :meth:`run` does, on Python floats: an
        arithmetic instruction that one other alone reads is inlined into it,
        up to ``_MAX_NESTING`` parentheses deep, each math call and domain test
        is a statement, in tape order, and each operation rounds as it does
        alone.  So its states are those of stepping with :meth:`run` in numpy's
        association order ``y + (0.5*h)*k`` and
        ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, bit for bit.  A ``math`` call
        that overflows in step ``k``, or a state that is not finite after it,
        raises ``FloatingPointError("non-finite state at step k")``; a domain
        test that fails raises the :class:`EvalError` that :meth:`run` raises
        first at that stage's point.
        """
        stepper = self._stepper
        if stepper is None:
            if len(self._outputs) != self._arity:
                raise ValueError(f"rk4 needs one output per coordinate, got "
                                 f"{len(self._outputs)} for {self._arity}")
            stepper = self._stepper = _generate(self._template, self._code, self._outputs,
                                                self._arity)
        return stepper(state, h, steps)

    def run_batch(self, rows) -> np.ndarray:
        """Values of the compiled expressions at each row of ``rows``.

        ``rows`` is a ``(k, arity)`` array, one point per row in the coordinate
        order; another shape raises :class:`EvalError`.  Row ``j`` of the
        ``(outputs, k)`` result holds output ``j`` at the k points, each equal
        bit for bit to what :meth:`run` returns at that point.  If any point
        fails, the rows are run in order through :meth:`run`, so the error
        raised is that of the first failing point.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self._arity:
            raise EvalError(f"expected rows of {self._arity} coordinate values, "
                            f"got an array of shape {rows.shape}")
        try:
            with np.errstate(all="ignore"):
                values = self._interpret(rows.T, np.any)
        except (EvalError, ArithmeticError, ValueError):
            values = [self.run(point) for point in rows.tolist()]
            return np.array(values, dtype=float).reshape(len(rows), len(self._outputs)).T
        out = np.empty((len(values), len(rows)))
        for j, column in enumerate(values):
            out[j] = column  # a constant output is a float, broadcast over the row
        return out

    def _interpret(self, point, test=bool) -> list:
        """The outputs after one pass over the instruction list.

        ``point[a]`` is the value of coordinate ``a``: a float for one point,
        or a column of values for a block, the transposed rows.  A slot holds a
        float or a column alike, as numpy's arithmetic and :func:`_mapped` do;
        ``test`` reduces a division's zero test and a log's domain test to one
        verdict, ``bool`` for a float and ``np.any`` for a column.
        """
        if len(point) != self._arity:
            _wrong_length(self._arity, point)
        v = self._template.copy()  # a constant stays a float, broadcast by numpy
        scalar = test is bool
        try:
            # branches in the order of how often the verify suites execute them
            for op, dst, a, b in self._code:
                if op == _MUL:
                    v[dst] = v[a] * v[b]
                elif op == _VAR:
                    v[dst] = point[a]
                elif op == _ADD:
                    v[dst] = v[a] + v[b]
                elif op == _POWI:
                    x = v[a]
                    if scalar:
                        v[dst] = math.pow(x, b) if x != 0.0 else _zero_power(b)
                    elif isinstance(x, np.ndarray) and x.all():  # no ±0.0, so math.pow alone
                        v[dst] = np.fromiter(map(math.pow, x.tolist(), itertools.repeat(b)),
                                             float, len(x))
                    else:
                        v[dst] = _mapped(_powi_value, x, b)
                elif op == _NEG:
                    v[dst] = -v[a]
                elif op == _SUB:
                    v[dst] = v[a] - v[b]
                elif op == _NONZERO:
                    if test(v[a] == 0.0):
                        raise EvalError("division by zero")
                elif op == _DIV:
                    v[dst] = v[a] / v[b]
                elif op == _POW:
                    v[dst] = _mapped(_pow_value, v[a], *b)
                elif op == _LOG and test(v[a] <= 0.0):
                    raise EvalError("log of a non-positive value")
                else:  # exp, sin, cos, and a log in its domain
                    v[dst] = _mapped(_FUNCTION[op], v[a])
        except (OverflowError, ValueError) as err:  # raised by a math call alone
            operands = f"{v[a]}, {b if op == _POWI else b[0]}" if op in (_POWI, _POW) else v[a]
            raise EvalError(f"{_CALL_NAME[op]}({operands}): {err}") from None
        return list(map(v.__getitem__, self._outputs))


def compile(exprs, coords) -> Tape:
    """Order the unique nodes of ``exprs`` into one :class:`Tape`, iteratively.

    ``coords`` is a sequence of variable names: the tape reads a point as the
    values of those names in that order, and a free variable outside ``coords``
    raises :class:`EvalError` here.  Nodes are interned, so equal subtrees, even
    of expressions built apart, are one node and share one slot.
    """
    position = {name: k for k, name in enumerate(coords)}
    slot: dict[Expr, int] = {}  # keyed by the node itself: an Expr hashes by identity
    template: list = []
    code: list = []
    outputs: list = []
    fill, emit = template.append, code.append
    # a node is pushed bare when reached, and again under _READY below those of
    # its operands that have no slot yet; a quotient also goes under _CHECKED
    # between its two operands
    stack: list = []
    pop, push = stack.pop, stack.append
    for root in exprs:
        push(root)
        while stack:
            node = pop()
            if node is _READY:  # operands done
                node = pop()
                args = node.args
                op, second = _OPCODE[node.kind], None
                if len(args) == 2:
                    second = slot[args[1]]
                elif op == _POW:
                    second = _exponent(node.exponent)
                    if second[1] == _INTEGER:
                        op, second = _POWI, second[0]
                emit((op, len(template), slot[args[0]], second))
                slot[node] = len(template)
                fill(0.0)
                continue
            if node is _CHECKED:  # denominator done, numerator next
                emit((_NONZERO, -1, slot[pop().args[1]], None))
                continue
            if node in slot:
                continue
            k = node.kind
            if k == "const":
                slot[node] = len(template)
                fill(node.value)
                continue
            if k == "var":
                if node.name not in position:
                    raise EvalError(f"unbound variable '{node.name}'")
                slot[node] = len(template)
                emit((_VAR, len(template), position[node.name], None))
                fill(0.0)
                continue
            if k not in _OPCODE:
                raise AssertionError(f"unknown node kind {k!r}")
            push(node)
            push(_READY)
            args = node.args
            if len(args) == 1:
                push(args[0])
                continue
            first, second = args
            if k == "div":
                if first not in slot:
                    push(first)
                push(node)
                push(_CHECKED)
                if second not in slot:
                    push(second)
            else:
                if second not in slot:
                    push(second)
                if first not in slot:
                    push(first)
        outputs.append(slot[root])
    return Tape(template, code, outputs, len(coords))


def evaluate(e: Expr, bindings) -> float:
    """IEEE-double evaluation of the tree with all free variables bound by name."""
    names = tuple(bindings)
    return compile((e,), names).run([bindings[name] for name in names])[0]


# ---------------------------------------------------------------------------
# parsing

_FUNCTIONS = {"exp": exp, "log": log, "sin": sin, "cos": cos}
# binary operators: precedence level and constructor
_OPERATORS = {"+": (0, add), "-": (0, sub), "*": (1, mul), "/": (1, div)}
_SPACE = re.compile(r"[ \t\r\n]*")
# \d is a Unicode decimal digit, as float reads them
_NUMBER = re.compile(r"(\d*\.?\d*)([eE][+-]?\d+)?")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, position: int | None = None):
        raise ParseError(message, self.pos if position is None else position)

    def peek(self) -> str:
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def parse(self) -> Expr:
        """One loop over an explicit stack that holds, innermost last, a pending
        prefix ``neg``, an open group as ``(position, function)`` and a pending
        binary operator as ``(left operand, level, constructor)``."""
        stack: list = []
        try:
            while True:
                c = self.peek()  # an operand: prefix signs and open groups, then a number or name
                if c == "-" or c == "(":
                    stack.append(neg if c == "-" else (self.pos, None))
                    self.pos += 1
                    continue
                if c == "." or c.isdecimal():
                    e = const(float(self.parse_literal()))
                elif c.isalpha():
                    start = self.pos
                    name = self.parse_ident()
                    if self.peek() == "(":
                        if name not in _FUNCTIONS:
                            self.error(f"unknown function '{name}'", start)
                        stack.append((self.pos, _FUNCTIONS[name]))
                        self.pos += 1
                        continue
                    e = var(name)
                else:
                    self.error(f"unexpected character {c!r}" if c else "unexpected end of input")
                while True:  # e is a base: take its signs and power, then an operator or a ')'
                    while stack and stack[-1] is neg:
                        stack.pop()
                        e = neg(e)
                    if self.peek() == "^":
                        self.pos += 1
                        e = power(e, self.parse_exponent())
                    c = self.peek()
                    level, build = _OPERATORS.get(c, (-1, None))
                    # pending operators that bind at least as tightly take e as right operand
                    while stack and len(stack[-1]) == 3 and stack[-1][1] >= level:
                        left, _, combine = stack.pop()
                        e = combine(left, e)
                    if build is not None:
                        stack.append((e, level, build))
                        self.pos += 1
                        break
                    if not stack:
                        if c:
                            self.error(f"unexpected character {c!r}")
                        return e
                    if c != ")":
                        self.error(f"expected ')' but found {c!r}")
                    self.pos += 1
                    function = stack.pop()[1]
                    if function is not None:
                        e = function(e)
        except ParseError as err:
            # an error at end of input is blamed on the innermost open '('
            opened = [item[0] for item in stack if item is not neg and len(item) == 2]
            if opened and err.position >= len(self.text):
                raise ParseError("unbalanced '('", opened[-1]) from None
            raise

    def parse_literal(self) -> str:
        """The text of a decimal literal that is finite as a float."""
        match = _NUMBER.match(self.text, self.pos)
        if match[1] in ("", "."):
            self.error("expected a number")
        if not math.isfinite(float(match[0])):
            self.error("number out of range")
        self.pos = match.end()
        return match[0]

    def parse_ident(self) -> str:
        t = self.text
        start = self.pos
        self.pos += 1
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start:self.pos]

    def parse_exponent(self) -> Fraction:
        if self.peek() != "(":
            return self.parse_signed_rational(allow_slash=False)
        open_pos = self.pos
        self.pos += 1
        r = self.parse_signed_rational(allow_slash=True)
        if self.peek() != ")":
            self.error("unbalanced '(' in exponent", open_pos)
        self.pos += 1
        return r

    def parse_signed_rational(self, allow_slash: bool) -> Fraction:
        c = self.peek()
        sign = -1 if c == "-" else 1
        if c in ("+", "-"):
            self.pos += 1
        start = self.pos
        r = self.exact(self.parse_literal(), start)
        if allow_slash and self.peek() == "/":
            self.pos += 1
            den = self.exact(self.parse_literal(), start)
            if den == 0:
                self.error("zero denominator in exponent", start)
            if r.denominator != 1 or den.denominator != 1:
                self.error("rational exponent must use integers", start)
            r /= den
        return sign * r

    def exact(self, literal: str, start: int) -> Fraction:
        """The rational a decimal literal spells, digit for digit: ``1e-13`` is
        1/10^13, never rounded to a nearby fraction or to zero."""
        if float(literal) == 0.0:
            # a zero literal is 0; a non-zero digit here means the value underflows
            if any(d != "." and int(d) for d in _NUMBER.match(literal)[1]):
                self.error("exponent out of range", start)
            return Fraction(0)
        try:
            return Fraction(literal)
        except ValueError:  # more digits than int() converts
            self.error("exponent out of range", start)


def parse(text: str) -> Expr:
    """Parse ``text`` into an :class:`Expr`; raises :class:`ParseError` on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

def _num_str(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _pieces(e: Expr) -> tuple[int, tuple]:
    """The grammar level of ``e`` (expr 0 < term 1 < factor 2 < base 3) and what
    it prints as: text, and each operand with the level its place needs."""
    k, args = e.kind, e.args
    if k in ("add", "sub"):
        return 0, ((args[0], 0), " + " if k == "add" else " - ", (args[1], 1))
    if k in ("mul", "div"):
        return 1, ((args[0], 1), "*" if k == "mul" else "/", (args[1], 2))
    if k == "pow":
        r = e.exponent
        return 2, ((args[0], 3), f"^{r.numerator}" if r.denominator == 1
                   else f"^({r.numerator}/{r.denominator})")
    if k == "const":
        return 3, (_num_str(e.value),)
    if k == "var":
        return 3, (e.name,)
    if k == "neg":
        return 3, ("-", (args[0], 3))
    return 3, (f"{k}(", (args[0], 0), ")")


def to_string(e: Expr) -> str:
    """Render ``e``, through an explicit stack, so that ``parse(to_string(e))``
    rebuilds the identical tree."""
    out: list[str] = []
    stack: list = [(e, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        level, pieces = _pieces(item[0])
        if level < item[1]:
            pieces = ("(", *pieces, ")")
        stack.extend(reversed(pieces))
    return "".join(out)
