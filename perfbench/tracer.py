"""Per-layer spans and exact counts for contactgeo, installed from outside.

The package itself is not changed.  ``Tracer.install`` replaces each traced
function, in every loaded ``contactgeo.*`` namespace that binds it (``cli``
imports ``integrate_flow``, ``pullback``, ``sample_points`` and others by
name), with a wrapper that records a span: name, start, end and the index of
the enclosing span.  Spans stay in memory until ``dump`` writes them out after
the measured call.  A layer's self time is the duration of its spans minus the
time their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("expr", "phase_space", "hamiltonian", "structures", "metrics",
          "calculus", "equilibrium", "tables", "cli")

# span name -> the functions ("module:qualname") whose calls it records
SPANS = {
    "expr.parse": ["expr:parse"],
    "expr.differentiate": ["expr:differentiate"],
    "expr.evaluate": ["expr:evaluate"],
    "phase_space.tensor_eval": ["phase_space:TensorField.evaluate"],
    "phase_space.map": ["phase_space:CoordinateMap.apply",
                        "phase_space:CoordinateMap.jacobian"],
    "phase_space.sample": ["phase_space:sample_points"],
    "hamiltonian.field_build": ["hamiltonian:hamiltonian_vector_field",
                                "hamiltonian:generator_commutator",
                                "hamiltonian:closed_form_commutator",
                                "hamiltonian:random_polynomial_hamiltonian",
                                "hamiltonian:legendre_map",
                                "hamiltonian:scaling_map"],
    "hamiltonian.rk4": ["hamiltonian:integrate_flow"],
    "structures.build": ["structures:build_structure"],
    "structures.identities": ["structures:check_structure_identities",
                              "structures:lambda_scaling_residual",
                              "structures:lambda_legendre_residual"],
    "metrics.build": ["metrics:metric_from_structure"],
    "metrics.pullback": ["metrics:pullback"],
    "calculus.lie": ["calculus:lie_derivative", "calculus:lie_bracket"],
    "calculus.christoffel_sym": ["calculus:christoffel_symbolic"],
    "calculus.christoffel_eval": ["calculus:christoffel"],
    "calculus.ricci_sym": ["calculus:ricci_symbolic"],
    "calculus.ricci_eval": ["calculus:ricci"],
    "tables.closed_form": ["tables:lie_derivative_closed_form"],
    "equilibrium.transform_build": ["equilibrium:legendre_potential"],
    "equilibrium.involution": ["equilibrium:involution_check"],
    # the check bodies of run_suite that no other layer's span covers
    "cli.self": ["cli:run_suite"],
    "cli.report": ["cli:Report.lines"],
}

# counted without a span: tens of thousands of calls inside the conjugate solves
COUNTED = {
    "equilibrium.base_gradient_calls": "equilibrium:FundamentalRelation.gradient",
    "equilibrium.base_hessian_calls": "equilibrium:FundamentalRelation.hessian",
}

SUITES = ("heisenberg", "hamiltonian", "flows", "commutator", "structures",
          "table1", "einstein", "legendre", "nablaxi", "equilibrium")
# check-id prefix -> suite, where the two differ
_SUITE_OF_PREFIX = {"nabla_reeb": "nablaxi"}


def _resolve(path: str):
    """``"module:Class.attr"`` -> (owner object, attribute name, current value)."""
    module_name, qualname = path.split(":")
    owner = importlib.import_module(f"contactgeo.{module_name}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def unique_nodes(roots) -> int:
    """Structurally distinct ``Expr`` nodes reachable from ``roots``.

    An iterative post-order walk over ``args`` gives each node the key
    (kind, value, name, exponent, child ids), so the count does not depend on
    whether equal subtrees are shared objects.
    """
    ident: dict[int, int] = {}  # id() is stable: the roots keep every node alive
    keys: dict[tuple, int] = {}
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if id(node) in ident:
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args if id(a) not in ident)
            continue
        key = (node.kind, getattr(node, "value", None), getattr(node, "name", None),
               getattr(node, "exponent", None), tuple(ident[id(a)] for a in node.args))
        ident[id(node)] = keys.setdefault(key, len(keys))
    return len(keys)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.rk4_steps = 0
        self.lie_results: list = []
        self.report = None
        self._differentiate = None

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _outermost(self, name, fn):
        """Span only the outermost call; recursion through the global goes straight to ``fn``."""
        traced = self._span(name, fn)
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            try:
                return traced(*args, **kwargs)
            finally:
                active[0] = False

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_rk4(self, args, kwargs):
        self.rk4_steps += int(kwargs["steps"] if "steps" in kwargs else args[3])

    def _on_lie(self, result):
        self.lie_results.append(result)

    def _on_report(self, report):
        self.report = report

    def _make(self, name, fn):
        if name == "expr.differentiate":
            self._differentiate = fn
            return self._outermost(name, fn)
        if name == "hamiltonian.rk4":
            return self._span(name, fn, on_call=self._on_rk4)
        if name == "calculus.lie":
            return self._span(name, fn, on_result=self._on_lie)
        if name == "cli.self":
            return self._span(name, fn, on_result=self._on_report)
        return self._span(name, fn)

    # -- installation -----------------------------------------------------
    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"contactgeo.{layer}")
        plan = [(name, path, False) for name, paths in SPANS.items() for path in paths]
        plan += [(name, path, True) for name, path in COUNTED.items()]
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "contactgeo" or k.startswith("contactgeo.")]
        for name, path, counted in plan:
            try:
                owner, attr, fn = _resolve(path)
            except AttributeError:
                continue  # removed by a later refactor: its metric reads 0
            wrapper = self._counted(name, fn) if counted else self._make(name, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    # -- results ----------------------------------------------------------
    def _cache_info(self):
        info = getattr(self._differentiate, "cache_info", None)
        return info() if info is not None else None

    def summary(self, window: tuple[float, float]) -> dict:
        """Per-layer metrics; ``window`` is the (start, end) of the measured call."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        in_window = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_time[name] += (end - start) - covered[i]
            calls[name] += 1
            if parent < 0 and start >= window[0]:
                in_window += end - start

        out = {f"{span}_s": self_time[span] for span in SPANS}
        info = self._cache_info()
        out["expr.differentiate_calls"] = calls["expr.differentiate"]
        out["expr.diff_cache_hits"] = info.hits if info is not None else None
        out["expr.diff_cache_misses"] = info.misses if info is not None else None
        out["calculus.lie_nodes_unique"] = unique_nodes(
            e for field in self.lie_results for e in field.comps.reshape(-1))
        out["phase_space.tensor_eval_calls"] = calls["phase_space.tensor_eval"]
        out["hamiltonian.rk4_steps"] = self.rk4_steps
        out["hamiltonian.rk4_step_us"] = (
            1e6 * self_time["hamiltonian.rk4"] / self.rk4_steps if self.rk4_steps else 0.0)
        for name in COUNTED:
            out[name] = self.counts[name]
        suite_s = dict.fromkeys(SUITES, 0.0)
        for check in (self.report.checks if self.report is not None else ()):
            prefix = check.check.split(".")[0]
            suite = _SUITE_OF_PREFIX.get(prefix, prefix)
            if suite in suite_s:
                suite_s[suite] += check.wall_time
        for suite, seconds in suite_s.items():
            out[f"cli.suite_s.{suite}"] = seconds
        out["trace.coverage"] = in_window / (window[1] - window[0])
        return out

    def dump(self, path):
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
