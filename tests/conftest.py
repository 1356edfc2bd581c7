"""Shared test helpers: random expression trees, test metrics, tensor algebra and
independent oracles."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from contactgeo import expr
from contactgeo.calculus import directional_derivative, require_nonsingular
from contactgeo.expr import (_FUNCTIONS, Expr, ParseError, add, const, div, mul, neg, power,
                             sub, var)
from contactgeo.hamiltonian import (hamiltonian_vector_field, integrate_flow,
                                    rotation_generator, scaling_generator)
from contactgeo.metrics import Metric, MetricKind
from contactgeo.phase_space import TensorField, _obj, coord_names


def bindings(point):
    """The name-keyed mapping that ``expr.evaluate`` reads, for a phase point."""
    return dict(zip(coord_names((len(point) - 1) // 2), point))


def partial_legendre_scalar(I, x):
    """The partial Legendre map as it was computed before it took rows: one point,
    Python floats, ``w -= q_i p_i`` in increasing ``i`` from the original ``q`` and
    ``p``.  The oracle of ``hamiltonian.legendre_rows``."""
    n = (len(x) - 1) // 2
    y = list(x)
    for i in I:
        y[0] -= x[i] * x[n + i]
        y[i] = -x[n + i]
        y[n + i] = x[i]
    return y


def index_mask(I, n):
    """Membership of the indices 1..n in the index set ``I``, as the boolean row
    ``hamiltonian.legendre_rows`` takes."""
    I.validate(n)
    mask = np.zeros(n, dtype=bool)
    mask[[i - 1 for i in I]] = True
    return mask


def evaluated(comps, coords, values):
    """The symbolic component array ``comps`` compiled against ``coords`` and run at
    the coordinate ``values``."""
    tape = expr.compile(comps.reshape(-1), coords)
    return np.array(tape.run(list(values))).reshape(comps.shape)


def pulled_back(mapping, tensor, values):
    """``mapping``'s symbolic pullback of ``tensor`` at the source coordinate ``values``."""
    return evaluated(mapping.pullback(tensor), mapping.coords, values)


def gamma_at(metric, point):
    """``Gamma^c_ab`` of ``metric`` at ``point``: the singular-metric guard, then the
    symbolic connection ``Metric.gamma`` compiled and run there."""
    require_nonsingular(metric, point)
    tape = expr.compile(metric.gamma.reshape(-1), coord_names(metric.tensor.n))
    return np.array(tape.run(point)).reshape(metric.gamma.shape)


def metric_from_components(comps, inverse=None, label="custom"):
    """Wrap explicit (0,2) components (plus optional symbolic inverse) as a metric."""
    return Metric(label, TensorField((0, 2), comps), inverse)


def flat_metric(n):
    """The Euclidean test metric on ``n`` pairs (identity components) with its trivial inverse."""
    dim = 2 * n + 1
    comps = _obj((dim, dim))
    inverse = _obj((dim, dim))
    for i in range(dim):
        comps[i, i] = expr.ONE
        inverse[i, i] = expr.ONE
    return metric_from_components(comps, inverse, label="flat")


def central_difference(e, name, bindings, h=1e-5):
    """Independent derivative oracle for a single variable."""
    up = dict(bindings)
    down = dict(bindings)
    up[name] = bindings[name] + h
    down[name] = bindings[name] - h
    return (expr.evaluate(e, up) - expr.evaluate(e, down)) / (2 * h)


def random_expression(rng, names, depth=3):
    """A random expression over ``names`` built through the public constructors.

    Shapes are weighted toward well-behaved trees; division and log only see
    arguments bounded away from their singular sets by construction.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return expr.const(round(float(rng.uniform(-2.5, 2.5)), 3))
        return expr.var(str(rng.choice(names)))
    pick = rng.random()
    if pick < 0.22:
        return random_expression(rng, names, depth - 1) + random_expression(rng, names, depth - 1)
    if pick < 0.40:
        return random_expression(rng, names, depth - 1) - random_expression(rng, names, depth - 1)
    if pick < 0.62:
        return random_expression(rng, names, depth - 1) * random_expression(rng, names, depth - 1)
    if pick < 0.70:
        num = random_expression(rng, names, depth - 1)
        den = random_expression(rng, names, depth - 1)
        # shift the denominator away from zero on the sampled boxes
        return num / (den * den + expr.const(float(rng.uniform(0.5, 1.5))))
    if pick < 0.78:
        exponent = int(rng.integers(2, 4)) if rng.random() < 0.7 else -2
        return expr.power(random_expression(rng, names, depth - 1), exponent)
    if pick < 0.86:
        return expr.sin(random_expression(rng, names, depth - 1))
    if pick < 0.94:
        return expr.cos(random_expression(rng, names, depth - 1))
    arg = random_expression(rng, names, depth - 1)
    return expr.log(arg * arg + expr.const(float(rng.uniform(0.5, 1.5))))


def flow_lie_derivative(tensor, X, point, t=1e-4, steps=32):
    """Flow-based Lie derivative oracle for (0,2) tensors.

    Computes ``d/dt (Phi_t^* T)(x)`` at ``t = 0`` by central differences of the
    RK4 flow of ``X``, with the flow Jacobian itself taken by central
    differences over perturbed initial conditions.  Fully independent of the
    coordinate Lie-derivative formula; accuracy is a few 1e-6.
    """
    dim = tensor.dim

    def flow(arr, tt):
        return np.array(integrate_flow(X, arr.tolist(), tt, steps))

    def pulled(tt):
        x0 = np.array(point, dtype=float)
        y = flow(x0, tt)
        J = np.empty((dim, dim))
        h = 1e-5
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = h
            J[:, j] = (flow(x0 + step, tt) - flow(x0 - step, tt)) / (2 * h)
        g = tensor.evaluate(y.tolist())
        return J.T @ g @ J

    return (pulled(t) - pulled(-t)) / (2 * t)


# central finite differences for black-box metrics given only as point
# evaluations ``x -> g(x)``: truncation error around 1e-4, independent of the
# symbolic Christoffel and Ricci pipeline

def _fd_metric_derivs(metric_fn, arr: np.ndarray, h: float):
    dim = arr.size
    g0 = np.asarray(metric_fn(arr), dtype=float)
    dg = np.empty((dim, dim, dim))
    for c in range(dim):
        step = np.zeros(dim)
        step[c] = h
        dg[c] = (np.asarray(metric_fn(arr + step)) - np.asarray(metric_fn(arr - step))) / (2 * h)
    return g0, dg


def christoffel_fd(metric_fn, arr: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference Christoffel symbols of a black-box metric ``x -> g(x)``."""
    arr = np.asarray(arr, dtype=float)
    g0, dg = _fd_metric_derivs(metric_fn, arr, h)
    ginv = np.linalg.inv(g0)
    dim = arr.size
    gamma = np.empty((dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            bracket = dg[a, :, b] + dg[b, :, a] - dg[:, a, b]
            gamma[:, a, b] = 0.5 * ginv @ bracket
    return gamma


def ricci_fd(metric_fn, arr: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference Ricci tensor of a black-box metric (tolerance ~1e-4)."""
    arr = np.asarray(arr, dtype=float)
    dim = arr.size
    dgamma = np.empty((dim, dim, dim, dim))  # dgamma[e][c][a][b] = d_e Gamma^c_ab
    for e in range(dim):
        step = np.zeros(dim)
        step[e] = h
        dgamma[e] = (christoffel_fd(metric_fn, arr + step, h)
                     - christoffel_fd(metric_fn, arr - step, h)) / (2 * h)
    gamma = christoffel_fd(metric_fn, arr, h)
    ric = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            val = 0.0
            for c in range(dim):
                val += dgamma[c, c, a, b] - dgamma[a, c, c, b]
            for c in range(dim):
                for d_i in range(dim):
                    val += gamma[c, c, d_i] * gamma[d_i, a, b] - gamma[c, a, d_i] * gamma[d_i, c, b]
            ric[a, b] = val
    return ric


# the dense symbolic builders as they were before products and derivatives with
# a structurally zero factor were skipped: every term of every sum is built and
# mul/add fold the zeros away.  They are the oracle for the sparse builders,
# which must give the same interned node for every component.

def dense_directional_derivative(X, f):
    acc = expr.ZERO
    for c, name in enumerate(coord_names(X.n)):
        acc = acc + X.comps[c] * expr.differentiate(f, name)
    return acc


def dense_lie_derivative(T, X):
    names = coord_names(X.n)
    comps = _obj(T.comps.shape)
    for idx in np.ndindex(T.comps.shape):
        acc = expr.ZERO
        for c, name in enumerate(names):
            acc = acc + X.comps[c] * expr.differentiate(T.comps[idx], name)
            for slot, i in enumerate(idx):
                moved = T.comps[idx[:slot] + (c,) + idx[slot + 1:]]
                if slot < T.valence[0]:
                    acc = acc - moved * expr.differentiate(X.comps[i], name)
                else:
                    acc = acc + moved * expr.differentiate(X.comps[c], names[i])
        comps[idx] = acc
    return TensorField(T.valence, comps)


def dense_christoffel_symbolic(metric):
    names = coord_names(metric.tensor.n)
    dim = len(names)
    g = metric.tensor.comps
    ginv = metric.inverse

    dg = np.empty((dim, dim, dim), dtype=object)  # dg[d][a][b] = d_d g_ab
    for d_i, name in enumerate(names):
        for a in range(dim):
            for b in range(dim):
                dg[d_i, a, b] = expr.differentiate(g[a, b], name)

    gamma = np.empty((dim, dim, dim), dtype=object)
    half = expr.const(0.5)
    for a in range(dim):
        for b in range(a, dim):
            brackets = [dg[a, d_i, b] + dg[b, d_i, a] - dg[d_i, a, b] for d_i in range(dim)]
            for c in range(dim):
                acc = expr.ZERO
                for d_i in range(dim):
                    acc = acc + ginv[c, d_i] * brackets[d_i]
                val = half * acc
                gamma[c, a, b] = val
                gamma[c, b, a] = val
    return gamma


def dense_ricci_symbolic(gamma):
    dim = gamma.shape[0]
    names = coord_names((dim - 1) // 2)

    contracted = np.empty(dim, dtype=object)
    for b in range(dim):
        acc = expr.ZERO
        for c in range(dim):
            acc = acc + gamma[c, c, b]
        contracted[b] = acc

    ric = np.empty((dim, dim), dtype=object)
    for a in range(dim):
        for b in range(a, dim):
            acc = expr.ZERO
            for c in range(dim):
                acc = acc + expr.differentiate(gamma[c, a, b], names[c])
            acc = acc - expr.differentiate(contracted[b], names[a])
            for d_i in range(dim):
                acc = acc + contracted[d_i] * gamma[d_i, a, b]
                for c in range(dim):
                    acc = acc - gamma[c, a, d_i] * gamma[d_i, c, b]
            ric[a, b] = acc
            ric[b, a] = acc
    return ric


def loop_random_polynomial_hamiltonian(n, rng):
    """``random_polynomial_hamiltonian`` as it drew before: one scalar draw per
    coefficient and per power, in the order of one broadcast draw's rows."""
    names = coord_names(n)
    h = expr.ZERO
    for _ in range(4):
        coeff = float(rng.integers(-3, 4))
        if coeff == 0.0:
            coeff = 1.0
        term = expr.const(coeff)
        for name in names:
            d = int(rng.integers(0, 3))
            if d:
                term = term * expr.power(expr.var(name), d)
        h = h + term
    return h


def choice_sample_points(n, rng, count):
    """``sample_points`` as it drew before, with the signs from ``rng.choice``."""
    pts = []
    for _ in range(count):
        w = rng.uniform(-1.0, 1.0)
        mags = rng.uniform(0.5, 2.0, size=2 * n)
        signs = rng.choice((-1.0, 1.0), size=2 * n)
        pts.append([w, *(mags * signs).tolist()])
    return pts


def dense_metric_sum(eta, deta, phi, sign):
    """``eta (x) eta + sign * d_eta o (phi (x) 1)``, the sum of ``metric_from_structure``."""
    dim = eta.comps.shape[0]
    comps = _obj((dim, dim))
    for a in range(dim):
        for b in range(dim):
            acc = expr.mul(eta.comps[a], eta.comps[b])
            for c in range(dim):
                term = expr.mul(phi.comps[c, a], deta.comps[c, b])
                acc = expr.add(acc, expr.mul(expr.const(sign), term))
            comps[a, b] = acc
    return comps


# covector algebra that only the tests use: the coordinate coframe, tensor
# products of covectors, and sums and scalar multiples of fields

def coframe(n: int) -> tuple[TensorField, ...]:
    """The coordinate coframe ``(dw, dq^1..dq^n, dp_1..dp_n)`` on ``n`` pairs."""
    dim = 2 * n + 1
    fields = []
    for c in range(dim):
        comps = _obj(dim)
        comps[c] = expr.ONE
        fields.append(TensorField((0, 1), comps))
    return tuple(fields)


def outer_02(alpha: TensorField, beta: TensorField) -> TensorField:
    """Tensor product of two covector fields: ``(alpha (x) beta)_ab = alpha_a beta_b``."""
    if alpha.valence != (0, 1) or beta.valence != (0, 1):
        raise ValueError("outer_02 expects two covector fields")
    dim = alpha.dim
    comps = _obj((dim, dim))
    for i in range(dim):
        for j in range(dim):
            comps[i, j] = expr.mul(alpha.comps[i], beta.comps[j])
    return TensorField((0, 2), comps)


def add_tensors(*fields: TensorField) -> TensorField:
    valence = fields[0].valence
    if any(f.valence != valence for f in fields):
        raise ValueError("cannot add tensor fields of different valence")
    comps = _obj(fields[0].comps.shape)
    flat = comps.reshape(-1)
    for f in fields:
        for i, e in enumerate(f.comps.reshape(-1)):
            flat[i] = expr.add(flat[i], e)
    return TensorField(valence, comps)


def scale_tensor(field: TensorField, s) -> TensorField:
    s = s if isinstance(s, Expr) else expr.const(s)
    comps = _obj(field.comps.shape)
    flat_out = comps.reshape(-1)
    for i, e in enumerate(field.comps.reshape(-1)):
        flat_out[i] = expr.mul(s, e)
    return TensorField(field.valence, comps)


# Table 1 as the library composed it before it wrote coefficient rows: sums of
# scaled tensor products of the coframe.  It is the oracle of the rows, which
# must give the same interned node for every component.

def _sym(dq: TensorField, dp: TensorField) -> TensorField:
    return add_tensors(outer_02(dp, dq), outer_02(dq, dp))


def composed_lie_derivative_closed_form(n: int, kind: MetricKind, generator: str,
                                        m: int | None = None,
                                        lam: tuple[Expr, ...] | None = None) -> TensorField:
    """Expected ``L_X g`` for the tensor of ``kind`` along one generator.

    ``generator`` is ``"rotation"`` (needs ``m``) or ``"scaling"``.
    """
    kind = MetricKind(kind)
    if generator not in ("rotation", "scaling"):
        raise ValueError("generator must be 'rotation' or 'scaling'")
    rotation = generator == "rotation"
    if rotation:
        if m is None:
            raise ValueError("the rotation generator needs m")
        if not 1 <= m <= n:
            raise ValueError(f"m must satisfy 1 <= m <= {n}")
    co = coframe(n)
    dq, dp = co[1:n + 1], co[n + 1:]
    zero = TensorField((0, 2), _obj((2 * n + 1, 2 * n + 1)))

    if kind == MetricKind.ALPHA_PI:
        return zero

    if kind == MetricKind.ACS:
        if rotation:
            return zero
        return add_tensors(*[add_tensors(outer_02(dp[a], dp[a]),
                                         scale_tensor(outer_02(dq[a], dq[a]), -1.0))
                             for a in range(n)])

    if kind == MetricKind.R:
        if not rotation:
            return zero
        return add_tensors(*[add_tensors(scale_tensor(outer_02(dq[i], dq[i]), -1.0),
                                         outer_02(dp[i], dp[i]))
                             for i in range(m)])

    if kind == MetricKind.S:
        if rotation:
            return add_tensors(*[scale_tensor(_sym(dq[i], dp[i]), -1.0) for i in range(m)])
        return add_tensors(*[scale_tensor(add_tensors(outer_02(dp[a], dp[a]),
                                                      outer_02(dq[a], dq[a])), -1.0)
                             for a in range(n)])

    if kind in (MetricKind.LAMBDA, MetricKind.LAMBDA_BAR):
        if lam is None:
            raise ValueError(f"{kind.value} needs a lambda family")
        coeffs = lam if kind == MetricKind.LAMBDA else tuple(div(expr.ONE, e) for e in lam)
        gen = rotation_generator(m) if rotation else scaling_generator(n)
        X = hamiltonian_vector_field(n, gen)
        pieces = []
        for a in range(n):
            rate = directional_derivative(X, coeffs[a])
            pieces.append(scale_tensor(_sym(dq[a], dp[a]),
                                       expr.mul(expr.const(-0.5), rate)))
        if rotation:
            for i in range(m):
                pieces.append(scale_tensor(add_tensors(outer_02(dq[i], dq[i]),
                                                       scale_tensor(outer_02(dp[i], dp[i]), -1.0)),
                                           expr.neg(coeffs[i])))
        return add_tensors(*pieces)

    raise ValueError(f"unknown metric kind {kind}")


# the recursive-descent parser as it was before parsing became one loop over an
# explicit stack: the oracle of the differential parse test.  It recurses once
# per nesting level and crashes on some malformed input.  It reads an exponent
# literal as the exact decimal it spells (through decimal.Decimal), as parse
# does, where it once rounded it to a fraction of denominator at most 10^12.

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
        num = self.exact_number(start)
        if allow_slash and self.peek() == "/":
            self.pos += 1
            den = self.exact_number(start)
            if den == 0:
                self.error("zero denominator in exponent", start)
            if num.denominator != 1 or den.denominator != 1:
                self.error("rational exponent must use integers", start)
            return sign * num / den
        return sign * num

    def exact_number(self, start: int) -> Fraction:
        begin = self.pos
        value = self.parse_number()
        if math.isinf(value):
            raise OverflowError("cannot convert Infinity to integer ratio")  # as Fraction(inf)
        exact = Decimal(self.text[begin:self.pos])
        if value != 0.0:
            return Fraction(exact)
        if exact != 0:  # a non-zero literal that underflows
            self.error("exponent out of range", start)
        return Fraction(0)


def reference_parse(text):
    return _Parser(text).parse()


# the constructors and compile as they were before they tested a node's kind
# inline and walked one stack of bare nodes: the oracles of the constructors,
# which must return the very same node, and of compile, which must emit the
# same tape.

def _is_const(e):
    return e.kind == "const"


def reference_add(a, b):
    if _is_const(a) and _is_const(b):
        s = a.value + b.value
        if math.isfinite(s):
            return const(s)
    if a is expr.ZERO:
        return b
    if b is expr.ZERO:
        return a
    return Expr("add", (a, b))


def reference_sub(a, b):
    if _is_const(a) and _is_const(b):
        s = a.value - b.value
        if math.isfinite(s):
            return const(s)
    if b is expr.ZERO:
        return a
    if a is expr.ZERO:
        return reference_neg(b)
    if a is b:
        return expr.ZERO
    return Expr("sub", (a, b))


def reference_mul(a, b):
    if _is_const(a) and _is_const(b):
        s = a.value * b.value
        if math.isfinite(s):
            return const(s)
    if a is expr.ZERO or b is expr.ZERO:
        return expr.ZERO
    if a is expr.ONE:
        return b
    if b is expr.ONE:
        return a
    if _is_const(b) and not _is_const(a):
        a, b = b, a
    if _is_const(a) and b.kind == "mul" and _is_const(b.args[0]):
        s = a.value * b.args[0].value
        if math.isfinite(s) and abs(s) >= sys.float_info.min:
            return reference_mul(const(s), b.args[1])
    return Expr("mul", (a, b))


def reference_div(a, b):
    if b is expr.ONE:
        return a
    if a is expr.ZERO and b is not expr.ZERO:
        return expr.ZERO
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        s = a.value / b.value
        if math.isfinite(s):
            return const(s)
    return Expr("div", (a, b))


def reference_neg(a):
    if _is_const(a):
        return const(-a.value)
    if a.kind == "neg":
        return a.args[0]
    return Expr("neg", (a,))


def reference_differentiate(e, name):
    """``d e / d name`` by recursion and the full rules, built through the
    reference constructors: no rule skips a term that is structurally zero.  The
    oracle of ``expr.differentiate``, whose shortened rules must give the very
    same node; it recurses, so it is for small trees only."""
    k = e.kind
    if k == "const":
        return expr.ZERO
    if k == "var":
        return expr.ONE if e.name == name else expr.ZERO
    a, b = e.args[0], e.args[-1]
    da = reference_differentiate(a, name)
    db = reference_differentiate(b, name) if len(e.args) == 2 else da
    if k == "add":
        return reference_add(da, db)
    if k == "sub":
        return reference_sub(da, db)
    if k == "mul":
        return reference_add(reference_mul(da, b), reference_mul(a, db))
    if k == "div":
        return reference_div(reference_sub(reference_mul(da, b), reference_mul(a, db)),
                             reference_mul(b, b))
    if k == "neg":
        return reference_neg(da)
    if k == "pow":
        return reference_mul(reference_mul(const(float(e.exponent)),
                                           power(a, e.exponent - 1)), da)
    if k == "exp":
        return reference_mul(e, da)
    if k == "log":
        return reference_div(da, a)
    if k == "sin":
        return reference_mul(expr.cos(a), da)
    if k == "cos":
        return reference_neg(reference_mul(expr.sin(a), da))
    raise AssertionError(f"unknown node kind {k!r}")


def reference_compile(exprs, coords):
    roots = tuple(exprs)
    position = {name: k for k, name in enumerate(coords)}
    slot = {}
    template, code, outputs = [], [], []
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
                        raise expr.EvalError(f"unbound variable '{node.name}'")
                    slot[id(node)] = len(template)
                    code.append((expr._VAR, len(template), position[node.name], None))
                    template.append(0.0)
                    continue
                stack.append((node, 2))
                if k == "div":
                    num, den = node.args
                    stack += ((num, 0), (node, 1), (den, 0))
                else:
                    stack.extend((a, 0) for a in reversed(node.args))
            elif phase == 1:  # denominator done, numerator next
                code.append((expr._NONZERO, -1, slot[id(node.args[1])], None))
            else:  # operands done
                args = node.args
                op, second = expr._OPCODE[node.kind], None
                if len(args) == 2:
                    second = slot[id(args[1])]
                elif op == expr._POW:
                    second = expr._exponent(node.exponent)
                    if second[1] == expr._INTEGER:
                        op, second = expr._POWI, second[0]
                code.append((op, len(template), slot[id(args[0])], second))
                slot[id(node)] = len(template)
                template.append(0.0)
        outputs.append(slot[id(root)])
    return expr.Tape(template, code, outputs, len(coords))


def live_nodes():
    """The number of entries of the intern table whose node is alive."""
    return sum(ref() is not None for ref in expr._NODES.values())
