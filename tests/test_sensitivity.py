"""``verify`` must be able to fail: each mutant below breaks one result of the library,
and ``run_suite`` must then report failing checks, as verdicts and not as exceptions.

A mutant changes a function's output, not its code: it wraps the function and is
monkeypatched into every module that binds the name, so no source file changes and
each test restores the library when it ends.  The expected number of failing checks
is that of ``run_suite(RunConfig(n=2, seed=7))``; a change that catches a mutant with
more checks raises its number here.
"""

import numpy as np
import pytest

import contactgeo
from contactgeo import calculus, cli, equilibrium, expr, hamiltonian, metrics, structures, tables
from contactgeo.cli import RunConfig, run_suite
from contactgeo.phase_space import CoordinateMap, TensorField

# the package and its modules; a mutant replaces the name wherever it is bound
NAMESPACES = (contactgeo, calculus, cli, equilibrium, hamiltonian, metrics, structures, tables)


def _times(comps, c):
    """The object array ``comps`` with each expression multiplied by ``c``."""
    out = np.empty(comps.shape, dtype=object)
    out.flat = [expr.const(c) * e for e in comps.flat]
    return out


def _negated(field, *args):
    return TensorField(field.valence, _times(field.comps, -1.0))


def _wdot_negated(field, *args):
    comps = field.comps.copy()
    comps[0] = expr.neg(comps[0])
    return TensorField(field.valence, comps)


def _map_w_plus_qp(mapping, n, I):
    exprs = mapping.exprs.copy()
    exprs[0] = expr.var("w")
    for i in I:
        exprs[0] = exprs[0] + expr.var(f"q{i}") * expr.var(f"p{i}")
    return CoordinateMap(exprs, mapping.coords, mapping.label)


def _point_w_plus_qp(y, I, x):
    n = (len(x) - 1) // 2
    return [x[0] + sum(x[i] * x[n + i] for i in I), *y[1:]]


def _rows_w_plus_qp(out, mask, rows):
    rows = np.asarray(rows, dtype=float)
    n = np.shape(mask)[1]
    out = out.copy()
    out[:, 0] = rows[:, 0] + (np.asarray(mask) * rows[:, 1:n + 1] * rows[:, n + 1:]).sum(axis=1)
    return out


MUTANTS = [
    pytest.param(calculus, "lie_derivative", _negated, 8, id="lie_derivative_negated"),
    pytest.param(calculus, "christoffel_symbolic", lambda G, metric: _times(G, 0.5), 5,
                 id="christoffel_halved"),
    pytest.param(calculus, "ricci_symbolic", lambda R, metric: _times(R, 2.0), 2,
                 id="ricci_doubled"),
    pytest.param(hamiltonian, "hamiltonian_vector_field", _wdot_negated, 10,
                 id="field_wdot_negated"),
    pytest.param(hamiltonian, "legendre_map", _map_w_plus_qp, 3, id="legendre_map_w_plus_qp"),
    pytest.param(equilibrium, "_legendre_point", _point_w_plus_qp, 1,
                 id="legendre_point_w_plus_qp"),
    pytest.param(hamiltonian, "legendre_rows", _rows_w_plus_qp, None, id="legendre_rows_w_plus_qp",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "no check reads the w of legendre_rows since equilibrium.involution maps "
                     "its point with _legendre_point (CHANGES.md FOUND); ROADMAP item 4's "
                     "flows.legendre_point_map check would catch it"))),
]


@pytest.mark.parametrize("home, name, change, failing", MUTANTS)
def test_verify_fails_on_the_mutant(monkeypatch, home, name, change, failing):
    original = getattr(home, name)

    def mutant(*args):
        return change(original(*args), *args)

    bound = [module for module in NAMESPACES if getattr(module, name, None) is original]
    for module in bound:
        monkeypatch.setattr(module, name, mutant)
    report = run_suite(RunConfig(n=2, seed=7))
    failed = sorted(c.check for c in report.checks if not c.passed)
    assert failed, f"no check fails with {name} mutated in {[m.__name__ for m in bound]}"
    assert len(failed) == failing, failed
