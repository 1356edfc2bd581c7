"""One cold repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --workload verify_n2 --seed 7 --mode run

Modes: ``setup`` imports contactgeo and prepares the inputs, ``run`` also makes
the one timed call into contactgeo, ``trace`` does the same with the layer
tracer installed.  The clock starts once the interpreter and the standard
library are up, so interpreter start-up is outside ``setup_s`` and ``wall_s``.
Both are reported raw and at reference machine speed (see ``SpeedProbe``).
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback

WORKLOADS = ("verify_n2", "verify_n8", "conjugate_n4")
# smoke runs verify on one suite that still builds and evaluates at size n
SMOKE_SUITE, SMOKE_CHECK_PREFIX = "nablaxi", "nabla_reeb."


def _verify(n: int, seed: int, smoke: bool):
    from contactgeo import cli

    argv = ["verify", "--suite", SMOKE_SUITE if smoke else "all",
            "--n", str(n), "--seed", str(seed)]
    if smoke:
        argv += ["--points", "2"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def result(raw):
        code, text = raw
        records = [json.loads(line) for line in text.splitlines()]
        return {
            "exit_code": code,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "checks": {r["check"]: [r["passed"], r["max_residual"]]
                       for r in records if r["check"] != "summary"},
            "summary": records[-1] if records else None,
        }

    return call, result


def _subsets(n: int, largest: int):
    return [c for r in range(1, largest + 1)
            for c in itertools.combinations(range(1, n + 1), r)]


# Index sets transformed for each built-in relation.  The joint van der Waals
# transform leaves the log domain, so only its single-index transforms exist.
CATALOG_SUBSETS = {
    "quadratic": [(1,), (2,), (1, 2)],
    "ideal_gas": [(1,), (2,), (1, 2)],
    "van_der_waals": [(1,), (2,)],
}
# A coupled convex quadratic on [-1, 1]^4.  Its Hessian is positive definite
# (eigenvalues 0.82 to 1.32), and so is every Schur complement of it, so each
# nested conjugate map is monotone on its box.  It is fixed rather than drawn
# from the seed: the number of base-gradient calls of the nested transforms
# moves by 6 to 8 per cent between random coefficient draws, against 1 per
# cent between sample points, and the seed draws the points.
COUPLED_QUADRATIC = (
    "0.5*x1^2 + 0.52*x2^2 + 0.63*x3^2 + 0.455*x4^2 + 0.05*x1*x2 + 0.08*x1*x4"
    " - 0.15*x3*x4 + 0.44*x1 - 0.12*x2 + 0.27*x3 - 0.46*x4")
COUPLED_COORDS = 4


def conjugate_plan(smoke: bool):
    """(points per catalog index set, index sets of the coupled quadratic)."""
    return (1 if smoke else 3), _subsets(COUPLED_COORDS, 2 if smoke else COUPLED_COORDS)


def conjugate_case_count(smoke: bool) -> int:
    points, coupled = conjugate_plan(smoke)
    return points * sum(map(len, CATALOG_SUBSETS.values())) + len(coupled)


def _inside(rng, rel):
    return [lo + (hi - lo) * (0.05 + 0.9 * rng.random()) for lo, hi in rel.domain]


def _conjugate(seed: int, smoke: bool):
    import numpy as np

    from contactgeo import equilibrium, expr
    from contactgeo.hamiltonian import IndexSubset

    rng = np.random.default_rng([seed, COUPLED_COORDS])
    points, coupled = conjugate_plan(smoke)
    catalog = {entry.id: entry.relation for entry in equilibrium.catalog()}
    cases = [(catalog[rid], IndexSubset.of(I), _inside(rng, catalog[rid]))
             for rid, subsets in CATALOG_SUBSETS.items()
             for I in subsets for _ in range(points)]
    coords = tuple(f"x{i + 1}" for i in range(COUPLED_COORDS))
    rel = equilibrium.FundamentalRelation(
        "U", coords, expr.parse(COUPLED_QUADRATIC), ((-1.0, 1.0),) * COUPLED_COORDS)
    cases += [(rel, IndexSubset.of(I), _inside(rng, rel)) for I in coupled]

    def call():
        return [equilibrium.involution_check(r, I, q) for r, I, q in cases]

    def result(residuals):
        text = json.dumps(residuals)
        return {"residuals": residuals,
                "digest": hashlib.sha256(text.encode()).hexdigest()}

    return call, result


def prepare(workload: str, seed: int, smoke: bool):
    if workload == "verify_n2":
        return _verify(2, seed, smoke)
    if workload == "verify_n8":
        return _verify(8, seed, smoke)
    if workload == "conjugate_n4":
        return _conjugate(seed, smoke)
    raise SystemExit(f"unknown workload {workload!r}")


PROBE_PERIOD_S = 0.02
# the probe kernel's time on an idle Intel Xeon under Python 3.11; scaled
# times are the times at that machine speed
KERNEL_REF_S = 2.0e-4


def _kernel():
    d = {}
    for i in range(1000):
        k = (i & 63, "k")
        d[k] = d.get(k, 0.0) + 1.000001
    return d


class SpeedProbe:
    """Times a fixed pure-Python kernel every PROBE_PERIOD_S from a background thread.

    Other tenants of a shared machine slow it down in phases that last seconds,
    by up to a factor of two.  The kernel slows with the measured call, so a
    duration times KERNEL_REF_S over the kernel's mean time in the same
    interval is that duration at a fixed machine speed.  The probe costs about
    one per cent of the interpreter.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        clock = time.perf_counter
        while not self._stop.wait(PROBE_PERIOD_S):
            start = clock()
            _kernel()
            self.samples.append((start, clock() - start))

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()
        while len(self.samples) < 3:  # a process too short for three samples
            start = time.perf_counter()
            _kernel()
            self.samples.append((start, time.perf_counter() - start))

    def scale(self, start: float, end: float) -> float:
        """Factor taking a duration in [start, end] to reference speed."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < 3:  # short intervals: the three nearest samples
            mid = 0.5 * (start + end)
            inside = [d for t, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return KERNEL_REF_S / statistics.fmean(inside)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None, help="write the trace spans here")
    args = parser.parse_args(argv)

    # one CPU for the call and the probe, so the probe sees the CPU the call runs on
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:  # the set of allowed CPUs changed in between: run unpinned
        pass
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import contactgeo

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    call, result = prepare(args.workload, args.seed, args.smoke)
    t1 = time.perf_counter()
    out = {"source": os.path.dirname(os.path.abspath(contactgeo.__file__))}
    raw = None
    if args.mode != "setup":
        try:
            raw = call()
        except Exception:
            out["error"] = traceback.format_exc()
    t2 = time.perf_counter()
    probe.stop()
    out["raw_setup_s"] = t1 - t0
    out["setup_s"] = (t1 - t0) * probe.scale(t0, t1)
    if args.mode != "setup":
        out["scale"] = probe.scale(t1, t2)
        out["raw_wall_s"] = t2 - t1
        out["wall_s"] = (t2 - t1) * out["scale"]
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if raw is not None:
            out.update(result(raw))
        if tracer is not None:
            out["trace"] = tracer.summary((t1, t2))
            if args.spans:
                tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
