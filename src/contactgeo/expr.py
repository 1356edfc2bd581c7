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

Identifiers are ``[A-Za-z][A-Za-z0-9_]*``.  Exponents are stored as exact
``fractions.Fraction`` values so that e.g. ``V^(-2/3)`` differentiates cleanly.
Only light simplification is performed at construction time (constant folding
and 0/1 identities); correctness elsewhere is checked by evaluation, not by
tree equality.

Nodes are interned, so equal trees are one object and equality is identity.
A node keeps its free variables and derivatives in its own slots, so that
work dies with the node.  :func:`compile` orders the unique nodes of some
expressions into a :class:`Tape` once, equal subtrees sharing a slot;
``Tape.run`` then evaluates each node once per point without recursion, by
interpreting the tape at first and through a generated Python function once
the tape has run often.  A tape is compiled against a coordinate order and
reads a point as the sequence of its coordinate values, in that order.
"""

from __future__ import annotations

import builtins
import math
from collections import namedtuple
from fractions import Fraction
from weakref import WeakValueDictionary

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


# the intern table: a node lives while something outside the table holds it
_NODES: WeakValueDictionary = WeakValueDictionary()


class Expr:
    """Immutable, interned expression node.

    ``kind`` is one of ``const, var, add, sub, mul, div, pow, neg, exp, log,
    sin, cos``.  ``value`` is used for constants, ``name`` for variables and
    ``exponent`` (an exact rational) for ``pow`` nodes.  Building a node equal
    to a live one returns that node, so ``==`` is ``is``.  ``_free`` and
    ``_derivs`` are the memos of :func:`free_variables` and
    :func:`differentiate`, None until first asked for.
    """

    __slots__ = ("kind", "args", "value", "name", "exponent", "_free", "_derivs", "__weakref__")

    def __new__(cls, kind: str, args: tuple["Expr", ...] = (), value: float = 0.0,
                name: str = "", exponent: Fraction | None = None):
        # children are interned, so the key holds their ids: a live node holds its
        # children, whose ids stay theirs while its key exists, and the table holds
        # no node strongly, so a collection frees a dead cycle and its children at once
        key = (kind, value, name, exponent, *map(id, args))
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for slot, field in zip(cls.__slots__, (kind, args, value, name, exponent, None, None)):
                object.__setattr__(node, slot, field)
            _NODES[key] = node
        return node

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


def _lift(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in an expression")


ZERO = Expr("const", value=0.0)
ONE = Expr("const", value=1.0)


def const(value: float) -> Expr:
    value = float(value)
    if value == 0.0:
        return ZERO
    if value == 1.0:
        return ONE
    return Expr("const", value=value)


def var(name: str) -> Expr:
    return Expr("var", name=name)


def _is_const(e: Expr) -> bool:
    return e.kind == "const"


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        s = a.value + b.value
        if math.isfinite(s):
            return const(s)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        s = a.value - b.value
        if math.isfinite(s):
            return const(s)
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if a is b:
        return ZERO
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        s = a.value * b.value
        if math.isfinite(s):
            return const(s)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    # keep constants in front and collapse nested constant factors
    if _is_const(b) and not _is_const(a):
        a, b = b, a
    if _is_const(a) and b.kind == "mul" and _is_const(b.args[0]):
        s = a.value * b.args[0].value
        if math.isfinite(s):
            return mul(const(s), b.args[1])
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if b is ONE:
        return a
    if a is ZERO and b is not ZERO:
        return ZERO
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        s = a.value / b.value
        if math.isfinite(s):
            return const(s)
    return Expr("div", (a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if a.kind == "neg":
        return a.args[0]
    return Expr("neg", (a,))


def power(base: Expr, exponent) -> Expr:
    r = exponent if isinstance(exponent, Fraction) else Fraction(exponent)
    if r == 0:
        return ONE
    if r == 1:
        return base
    if _is_const(base):
        try:
            v = _pow_value(base.value, *_exponent(r))
        except (EvalError, OverflowError):
            v = None
        if v is not None and math.isfinite(v):
            return const(v)
    return Expr("pow", (base,), exponent=r)


def exp(a: Expr) -> Expr:
    return Expr("exp", (a,))


def log(a: Expr) -> Expr:
    return Expr("log", (a,))


def sin(a: Expr) -> Expr:
    return Expr("sin", (a,))


def cos(a: Expr) -> Expr:
    return Expr("cos", (a,))


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
        object.__setattr__(node, "_free", free)
    return e._free


# derivatives answered from a node's memo, and rules applied, in this process
_diff_counts = [0, 0]
_CacheInfo = namedtuple("CacheInfo", "hits misses")


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to variable ``name``.

    The walk stops at nodes that already hold their derivative by ``name``;
    a zero derivative is read from the free variables, not stored."""
    if e._derivs is not None and name in e._derivs:
        _diff_counts[0] += 1
        return e._derivs[name]
    if name not in free_variables(e):
        return ZERO
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:  # every operand's derivative is answered
            if node._derivs is None:
                object.__setattr__(node, "_derivs", {})
            node._derivs[name] = _rule(node, name)
            _diff_counts[1] += 1
        elif node._derivs is not None and name in node._derivs:
            _diff_counts[0] += 1
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args if name in a._free)
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
    if k == "mul":
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

# A tape is interpreted for its first _HOT_RUNS runs; the next run generates one
# straight-line Python function from it, used from then on.  Measured on the 154
# verify tapes of five or more instructions at n=2: generating costs about
# 0.2 ms plus 10 us per instruction, and the function saves 70 to 80 per cent
# of every later run (10th to 90th percentile, tapes with powers included), so
# it pays for itself after 120 to 280 runs, mostly about 160.  Of the 300 or
# more tapes that verify compiles, about 300 run fewer than 50 times and would
# never repay it; the RK4 and scaling-family tapes run 25,000 to 40,000 times.
_HOT_RUNS = 128

# The statements of each instruction, formatted with integer slot numbers only:
# {0} is the destination, {1} and {2} the operand slots.  A variable's position
# is the parameter n<dst> and a power's exponent data r<dst> (and s<dst>), so no
# constant or exponent ever becomes source text.
_STATEMENT = {
    _VAR: "v{0:d} = b[n{0:d}]",
    _ADD: "v{0:d} = v{1:d} + v{2:d}",
    _SUB: "v{0:d} = v{1:d} - v{2:d}",
    _MUL: "v{0:d} = v{1:d} * v{2:d}",
    _DIV: "v{0:d} = v{1:d} / v{2:d}",
    _NEG: "v{0:d} = -v{1:d}",
    _POWI: "v{0:d} = _pow(v{1:d}, r{0:d}) if v{1:d} != 0.0 else _zero_power(r{0:d})",
    _POW: "v{0:d} = _pow_value(v{1:d}, r{0:d}, s{0:d})",
    _EXP: "v{0:d} = _exp(v{1:d})",
    _LOG: "if v{1:d} <= 0.0: raise EvalError('log of a non-positive value')\n"
          "v{0:d} = _log(v{1:d})",
    _SIN: "v{0:d} = _sin(v{1:d})",
    _COS: "v{0:d} = _cos(v{1:d})",
    _NONZERO: "if v{1:d} == 0.0: raise EvalError('division by zero')",
}
_BINARY = (_ADD, _SUB, _MUL, _DIV)


def _wrong_length(arity: int, point):
    raise EvalError(f"expected {arity} coordinate values, got {len(point)}")


_KERNEL_GLOBALS = {"__builtins__": {}, "EvalError": EvalError, "len": len,
                   "_wrong_length": _wrong_length, "_zero_power": _zero_power,
                   "_pow_value": _pow_value, "_pow": math.pow,
                   "_exp": math.exp, "_log": math.log, "_sin": math.sin, "_cos": math.cos}


def _generate(template: list, code: list, outputs: list, arity: int):
    """The function ``point -> values`` that runs ``code`` as Python statements.

    Every constant slot, variable position and exponent is a parameter
    whose value is set as the function's default arguments, so a call passes
    the point alone.
    """
    assigned = {dst for _, dst, _, _ in code}
    params = {f"v{s:d}": template[s] for s in range(len(template)) if s not in assigned}
    for op, dst, a, b in code:
        if op == _VAR:
            params[f"n{dst:d}"] = a
        elif op == _POWI:
            params[f"r{dst:d}"] = b
        elif op == _POW:
            params[f"r{dst:d}"], params[f"s{dst:d}"] = b
    body = [f"if len(b) != {arity:d}: _wrong_length({arity:d}, b)"]
    for op, dst, a, b in code:
        text = _STATEMENT[op].format(dst, None if op == _VAR else a,
                                     b if op in _BINARY else None)
        body += text.split("\n")
    source = "\n".join([
        f"def kernel(b, {', '.join(params)}):",
        *["    " + line for line in body],
        "    return [" + "".join(f"v{s:d}, " for s in outputs) + "]",
    ])
    scope: dict = {}
    exec(builtins.compile(source, "<tape>", "exec"), dict(_KERNEL_GLOBALS), scope)
    kernel = scope["kernel"]
    kernel.__defaults__ = tuple(params.values())
    return kernel


class Tape:
    """Straight-line program over the unique nodes of some expressions.

    Built by :func:`compile`.  Each instruction is ``(opcode, destination,
    operand, operand)`` over a list of slots, one slot per unique node.  A
    variable's operand is its position in the coordinate order the tape was
    compiled against.  A power's second operand is its exponent as a float
    where that is an integer (``_POWI``), and the pair :func:`_exponent` gives
    otherwise (``_POW``).

    A tape runs in two tiers.  Its first ``_HOT_RUNS`` runs interpret the
    instruction list.  The run after that generates one straight-line Python
    function from the same list, one statement per instruction in tape order,
    and every later run calls it.  Generating costs about as much as a hundred
    interpreted runs save, so only a tape that runs often repays it.  Both tiers
    do the same operations in the same order, so they return bit-identical
    values and raise the same first :class:`EvalError`.
    """

    __slots__ = ("_template", "_code", "_outputs", "_arity", "_runs", "_kernel")

    def __init__(self, template: list, code: list, outputs: list, arity: int):
        self._template = template
        self._code = code
        self._outputs = outputs
        self._arity = arity
        self._runs = 0
        self._kernel = None

    def run(self, point) -> list:
        """Values of the compiled expressions, in order, at ``point``.

        ``point`` is the sequence of the coordinate values in the order the
        tape was compiled against, best as Python floats; a sequence of another
        length raises :class:`EvalError`.

        Each node is evaluated once, children first, in the order a recursive
        walk of the expressions in turn finishes them (a quotient's denominator
        and its zero check come before its numerator), so the values and the
        first :class:`EvalError` raised are those of evaluating each
        expression alone.
        """
        kernel = self._kernel
        if kernel is None:
            self._runs += 1
            if self._runs <= _HOT_RUNS:
                return self._interpret(point)
            kernel = self._kernel = _generate(self._template, self._code, self._outputs,
                                              self._arity)
        return kernel(point)

    def _interpret(self, point) -> list:
        if len(point) != self._arity:
            _wrong_length(self._arity, point)
        v = self._template.copy()
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
                v[dst] = math.pow(x, b) if x != 0.0 else _zero_power(b)
            elif op == _NEG:
                v[dst] = -v[a]
            elif op == _SUB:
                v[dst] = v[a] - v[b]
            elif op == _NONZERO:
                if v[a] == 0.0:
                    raise EvalError("division by zero")
            elif op == _DIV:
                v[dst] = v[a] / v[b]
            elif op == _POW:
                v[dst] = _pow_value(v[a], *b)
            elif op == _EXP:
                v[dst] = math.exp(v[a])
            elif op == _LOG:
                arg = v[a]
                if arg <= 0.0:
                    raise EvalError("log of a non-positive value")
                v[dst] = math.log(arg)
            elif op == _SIN:
                v[dst] = math.sin(v[a])
            else:
                v[dst] = math.cos(v[a])
        return list(map(v.__getitem__, self._outputs))


def compile(exprs, coords) -> Tape:
    """Order the unique nodes of ``exprs`` into one :class:`Tape`, iteratively.

    ``coords`` is a sequence of variable names: the tape reads a point as the
    values of those names in that order, and a free variable outside ``coords``
    raises :class:`EvalError` here.  Nodes are interned, so equal subtrees, even
    of expressions built apart, are one node and share one slot.
    """
    roots = tuple(exprs)  # holds every node alive, so the ids below stay unique
    position = {name: k for k, name in enumerate(coords)}
    slot: dict[int, int] = {}
    template: list = []
    code: list = []
    outputs: list = []
    for root in roots:
        stack = [(root, 0)]
        while stack:
            node, phase = stack.pop()
            if phase == 0:  # reached
                if id(node) in slot:
                    continue
                k = node.kind
                if k == "const":
                    slot[id(node)] = len(template)
                    template.append(node.value)
                    continue
                if k == "var":
                    if node.name not in position:
                        raise EvalError(f"unbound variable '{node.name}'")
                    slot[id(node)] = len(template)
                    code.append((_VAR, len(template), position[node.name], None))
                    template.append(0.0)
                    continue
                if k not in _OPCODE:
                    raise AssertionError(f"unknown node kind {k!r}")
                stack.append((node, 2))
                if k == "div":
                    num, den = node.args
                    stack += ((num, 0), (node, 1), (den, 0))
                else:
                    stack.extend((a, 0) for a in reversed(node.args))
            elif phase == 1:  # denominator done, numerator next
                code.append((_NONZERO, -1, slot[id(node.args[1])], None))
            else:  # operands done
                args = node.args
                op, second = _OPCODE[node.kind], None
                if len(args) == 2:
                    second = slot[id(args[1])]
                elif op == _POW:
                    second = _exponent(node.exponent)
                    if second[1] == _INTEGER:
                        op, second = _POWI, second[0]
                code.append((op, len(template), slot[id(args[0])], second))
                slot[id(node)] = len(template)
                template.append(0.0)
        outputs.append(slot[id(root)])
    return Tape(template, code, outputs, len(coords))


def evaluate(e: Expr, bindings) -> float:
    """IEEE-double evaluation of the tree with all free variables bound by name."""
    names = tuple(bindings)
    return compile((e,), names).run([bindings[name] for name in names])[0]


# ---------------------------------------------------------------------------
# parsing

_FUNCTIONS = {"exp": exp, "log": log, "sin": sin, "cos": cos}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, position: int | None = None):
        raise ParseError(message, self.pos if position is None else position)

    def skip_ws(self):
        t = self.text
        while self.pos < len(t) and t[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expr:
        e = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = add(e, self.parse_term())
            elif c == "-":
                self.pos += 1
                e = sub(e, self.parse_term())
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self.parse_factor())
            elif c == "/":
                self.pos += 1
                e = div(e, self.parse_factor())
            else:
                return e

    def parse_factor(self) -> Expr:
        e = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            e = power(e, self.parse_exponent())
        return e

    def parse_base(self) -> Expr:
        c = self.peek()
        if c == "":
            self.error("unexpected end of input")
        if c == "-":
            self.pos += 1
            return neg(self.parse_base())
        if c == "(":
            open_pos = self.pos
            self.pos += 1
            e = self.parse_group_body(open_pos)
            return e
        if c.isdigit() or c == ".":
            return const(self.parse_number())
        if c.isalpha():
            start = self.pos
            name = self.parse_ident()
            if self.peek() == "(":
                if name not in _FUNCTIONS:
                    self.error(f"unknown function '{name}'", start)
                open_pos = self.pos
                self.pos += 1
                arg = self.parse_group_body(open_pos)
                return _FUNCTIONS[name](arg)
            return var(name)
        self.error(f"unexpected character {c!r}")

    def parse_group_body(self, open_pos: int) -> Expr:
        # errors hitting end-of-input inside a group are blamed on the '('
        try:
            e = self.parse_expr()
            self.skip_ws()
            if self.pos >= len(self.text):
                raise ParseError("unbalanced '('", open_pos)
            if self.text[self.pos] != ")":
                self.error(f"expected ')' but found {self.text[self.pos]!r}")
            self.pos += 1
            return e
        except ParseError as err:
            if err.position >= len(self.text):
                raise ParseError("unbalanced '('", open_pos) from None
            raise

    def parse_number(self) -> float:
        t = self.text
        start = self.pos
        while self.pos < len(t) and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(t) and t[self.pos] == ".":
            self.pos += 1
            while self.pos < len(t) and t[self.pos].isdigit():
                self.pos += 1
        if self.pos == start or t[start:self.pos] == ".":
            self.error("expected a number", start)
        if self.pos < len(t) and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not scientific notation; 'e...' starts the next token
        return float(t[start:self.pos])

    def parse_ident(self) -> str:
        t = self.text
        start = self.pos
        self.pos += 1
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start:self.pos]

    def parse_exponent(self) -> Fraction:
        self.skip_ws()
        if self.peek() == "(":
            open_pos = self.pos
            self.pos += 1
            r = self.parse_signed_rational(allow_slash=True)
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ")":
                self.error("unbalanced '(' in exponent", open_pos)
            self.pos += 1
            return r
        return self.parse_signed_rational(allow_slash=False)

    def parse_signed_rational(self, allow_slash: bool) -> Fraction:
        self.skip_ws()
        sign = 1
        if self.peek() in "+-":
            if self.text[self.pos] == "-":
                sign = -1
            self.pos += 1
        start = self.pos
        num = self.parse_number()
        if allow_slash and self.peek() == "/":
            self.pos += 1
            den = self.parse_number()
            if den == 0:
                self.error("zero denominator in exponent", start)
            if num != int(num) or den != int(den):
                self.error("rational exponent must use integers", start)
            return Fraction(sign * int(num), int(den))
        return sign * Fraction(num).limit_denominator(10**12) if num != int(num) else Fraction(sign * int(num))


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
