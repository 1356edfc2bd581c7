"""Shared test helpers: random expression trees, test metrics and independent numeric oracles."""

import numpy as np

from contactgeo import expr
from contactgeo.hamiltonian import integrate_flow
from contactgeo.metrics import Metric
from contactgeo.phase_space import PhasePoint, PhaseSpace, TensorField, _obj


def bindings(point):
    """The name-keyed mapping that ``expr.evaluate`` reads, for a phase point."""
    return dict(zip(PhaseSpace(point.n).coord_names(), point.values))


def metric_from_components(space, comps, inverse=None, label="custom"):
    """Wrap explicit (0,2) components (plus optional symbolic inverse) as a metric."""
    return Metric(label, space, TensorField((0, 2), comps), inverse)


def flat_metric(space):
    """The Euclidean test metric (identity components) with its trivial inverse."""
    dim = space.dim
    comps = _obj((dim, dim))
    inverse = _obj((dim, dim))
    for i in range(dim):
        comps[i, i] = expr.ONE
        inverse[i, i] = expr.ONE
    return metric_from_components(space, comps, inverse, label="flat")


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


def flow_lie_derivative(space, tensor, X, point, t=1e-4, steps=32):
    """Flow-based Lie derivative oracle for (0,2) tensors.

    Computes ``d/dt (Phi_t^* T)(x)`` at ``t = 0`` by central differences of the
    RK4 flow of ``X``, with the flow Jacobian itself taken by central
    differences over perturbed initial conditions.  Fully independent of the
    coordinate Lie-derivative formula; accuracy is a few 1e-6.
    """
    dim = space.dim

    def flow(arr, tt):
        return integrate_flow(X, PhasePoint.from_array(arr), tt, steps).as_array()

    def pulled(tt):
        x0 = point.as_array()
        y = flow(x0, tt)
        J = np.empty((dim, dim))
        h = 1e-5
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = h
            J[:, j] = (flow(x0 + step, tt) - flow(x0 - step, tt)) / (2 * h)
        g = tensor.evaluate(PhasePoint.from_array(y))
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

def dense_directional_derivative(space, X, f):
    acc = expr.ZERO
    for c, name in enumerate(space.coord_names()):
        acc = acc + X.comps[c] * expr.differentiate(f, name)
    return acc


def dense_lie_derivative(space, T, X):
    names = space.coord_names()
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
    space = metric.space
    names = space.coord_names()
    dim = space.dim
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


def dense_ricci_symbolic(space, gamma):
    names = space.coord_names()
    dim = space.dim

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
