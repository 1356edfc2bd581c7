"""Cold-process benchmark of contactgeo's verify command and nested conjugate transforms.

    python3 perfbench/run.py --workload verify_n2 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Closed loop with one client: each timed repetition is a fresh interpreter
(``child.py``) that imports contactgeo, prepares the inputs and makes one call
into the public API, and the next repetition starts only after the previous
one has exited.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics
of ``tracer.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
marked ``#``, give the environment, every wall time, the output digest and any
problem the correctness gate found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 5  # set-up-only interpreters per run, on top of one per repetition
MIN_REPS = 3
TRACED_REPS = 2  # counts must repeat exactly between traced repetitions
DEADLINE_S = 170.0  # no run may take three minutes
# Under heavy load a run stops short of MIN_REPS rather than start a
# repetition that, at 1.5 times the slowest one so far, ends after this.
BUDGET_S = 130.0

# Every verify check is expected to pass, the "min"-mode control included.
VERIFY_CHECKS = (
    "commutator.closed_form", "einstein.acs", "einstein.fitted_constants",
    "equilibrium.eta_pullback", "equilibrium.hessian_pullback",
    "equilibrium.ideal_gas_transform", "equilibrium.involution",
    "flows.eta_preserved", "flows.legendre_order_four", "flows.rotation_vs_rk4",
    "flows.scaling_vs_rk4", "hamiltonian.eta_of_field", "hamiltonian.lie_eta",
    "heisenberg.commutators", "heisenberg.gram", "heisenberg.reeb",
    "legendre.even_family_control", "legendre.invariance_qp",
    "legendre.invariance_qp_cubed", "legendre.lambda_conditions",
    "nabla_reeb.duality", "nabla_reeb.lambda", "nabla_reeb.lambdabar",
    "structures.lambda", "structures.lambdabar", "structures.phi", "structures.pi",
    "structures.r", "structures.s", "structures.scaling_pde", "table1.acs",
    "table1.alpha_pi", "table1.lambda", "table1.lambdabar", "table1.r", "table1.s",
)
# Known defect: from n = 5 on these miss their absolute 1e-12 tolerance by
# rounding alone (residuals of 1e-12 to 1e-10 at n = 8).  They count as
# verdict errors, but leave the run correct while the residual stays below
# the ceiling.
KNOWN_DEFECTS = ("hamiltonian.eta_of_field", "hamiltonian.lie_eta")
KNOWN_DEFECT_CEILING = 1e-9
CONJUGATE_TOLERANCE = 1e-8


class Run:
    """The child processes of one benchmark run, sharing its seed and deadline."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.start = time.monotonic()
        # a hash seed taken from the run seed makes the dict layout, and so
        # the timing, a property of the seed like the inputs
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED=str(seed % 4294967296))

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, mode: str, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if self.smoke:
            cmd.append("--smoke")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(DEADLINE_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} repetition passed the {DEADLINE_S:.0f} s deadline"}
        if proc.returncode != 0 or not proc.stdout.strip():
            return {"error": proc.stderr.strip() or f"exit code {proc.returncode} and no output"}
        rep = json.loads(proc.stdout.splitlines()[-1])
        rep["process_s"] = time.monotonic() - started
        return rep


def measure(run: Run, seconds: float, trace: bool, min_reps: int, spans: Path | None):
    """Repetitions until ``seconds`` are spent; returns (untraced, traced).

    Untraced runs at least ``min_reps`` times, or once under tracing, where
    traced repetitions alternate with untraced ones after the first.  Once
    one untraced (and TRACED_REPS traced) repetitions have finished, a run
    that would pass BUDGET_S stops early, so a loaded machine shortens the
    run instead of failing it.
    """
    plain, traced = [], []
    while True:
        if trace and plain and len(traced) <= len(plain):
            traced.append(run.child("trace", spans if len(traced) == TRACED_REPS - 1 else None))
            last = traced[-1]
        else:
            plain.append(run.child("run"))
            last = plain[-1]
        if "error" in last:
            return plain, traced
        needed = len(plain) >= 1 and len(traced) >= (TRACED_REPS if trace else 0)
        if not needed:
            continue
        slowest = max(r["process_s"] for r in plain + traced)
        if run.elapsed() + 1.5 * slowest > BUDGET_S:
            return plain, traced
        upcoming = traced if trace and len(traced) <= len(plain) else plain
        if (len(plain) >= (1 if trace else min_reps)
                and run.elapsed() + statistics.median(r["process_s"] for r in upcoming) > seconds):
            return plain, traced


def _verify_gate(rep: dict, expected: set[str]) -> tuple[list[str], int, int]:
    """(problems, verdict errors, unexpected verdict errors) of one verify repetition."""
    checks = rep.get("checks")
    if "error" in rep or not checks or rep.get("exit_code") == 2:
        problem = rep.get("error", f"exit code {rep.get('exit_code')} and no report")
        return [problem.splitlines()[-1]], len(expected), len(expected)
    problems = []
    missing = expected - set(checks)
    if missing or len(checks) != len(expected):
        problems.append(f"check ids differ from the expected {len(expected)}")
    failing = [c for c, (passed, _) in checks.items() if not passed]
    summary = rep["summary"]
    if summary.get("checks") != len(checks) or summary.get("failures") != len(failing):
        problems.append("summary record disagrees with the check records")
    if rep["exit_code"] != (1 if failing else 0):
        problems.append(f"exit code {rep['exit_code']} with {len(failing)} failures")
    unexpected = [c for c in failing
                  if c not in KNOWN_DEFECTS or not checks[c][1] <= KNOWN_DEFECT_CEILING]
    problems += [f"{c} failed with residual {checks[c][1]!r}" for c in unexpected]
    return problems, len(failing) + len(missing), len(unexpected) + len(missing)


def _conjugate_gate(rep: dict, expected: int) -> tuple[list[str], int, int]:
    residuals = rep.get("residuals")
    if "error" in rep or residuals is None:
        return [rep.get("error", "no residuals").splitlines()[-1]], expected, expected
    bad = sum(1 for r in residuals if not r <= CONJUGATE_TOLERANCE)
    bad += abs(expected - len(residuals))
    problems = [f"{bad} of {expected} residuals missing or above {CONJUGATE_TOLERANCE}"] if bad else []
    return problems, bad, bad


def gate(workload: str, reps: list[dict], smoke: bool):
    """Check every repetition: (problems, attempted, verdict errors, unexpected errors)."""
    verify = workload.startswith("verify")
    expected = {c for c in VERIFY_CHECKS if not smoke or c.startswith(child.SMOKE_CHECK_PREFIX)}
    count = len(expected) if verify else child.conjugate_case_count(smoke)
    problems, errors, unexpected = [], 0, 0
    for rep in reps:
        p, e, u = _verify_gate(rep, expected) if verify else _conjugate_gate(rep, count)
        problems += p
        errors += e
        unexpected += u
    digests = {r.get("digest") for r in reps}
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions of one seed: {len(digests)} digests")
    return problems, count * len(reps), errors, unexpected, digests


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "trace.coverage":
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or ".suite_s." in name:
        return "s"
    return "count"


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the traced repetitions; counts must agree exactly between them."""
    reps = [r for r in traced if "trace" in r]
    plain = [r for r in plain if "wall_s" in r]
    if not reps or not plain:
        return {}, ["no traced and untraced pair of repetitions finished"]
    out, problems = {}, []
    for name in reps[0]["trace"]:
        values = [r["trace"][name] for r in reps]
        if _unit(name) == "count":
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced repetitions: {values}")
            out[name] = values[0]
        elif _unit(name) == "ratio":
            out[name] = statistics.median(values)
        else:
            out[name] = statistics.median(v * r["scale"] for v, r in zip(values, reps))
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in reps)
                               - statistics.median(r["wall_s"] for r in plain))
    return out, problems


def environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, cpu {cpu}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    run = Run(workload, seed, smoke)
    first = run.child("setup")  # also writes the bytecode caches before timing
    if "error" in first:
        raise SystemExit(f"cannot set up {workload}: {first['error']}")
    if Path(first["source"]).resolve() != (ROOT / "src" / "contactgeo").resolve():
        raise SystemExit(f"contactgeo imported from {first['source']}, not from this checkout")
    setups = [run.child("setup") for _ in range(1 if smoke else SETUP_REPS)]
    spans = None
    if trace:
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        spans = ROOT / ".perfbench" / f"spans-{workload}.json"
    plain, traced = measure(run, seconds, trace, 1 if smoke else MIN_REPS, spans)
    problems, attempted, errors, unexpected, digests = gate(workload, plain + traced, smoke)
    problems += [s["error"] for s in setups if "error" in s]

    walls = [r["wall_s"] for r in plain if "wall_s" in r]
    print(f"# {environment()}")
    print(f"# {workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced repetitions")
    for key in ("raw_wall_s", "scale", "wall_s"):
        print(f"# untraced {key}: " + " ".join(f"{r[key]:.4f}" for r in plain if key in r))
    print(f"# output digest: {' '.join(sorted(map(str, digests)))}")
    print(f"# verdict errors: {errors} of {attempted} checks attempted, "
          f"{unexpected} outside the known defect")

    if trace:
        metrics, trace_problems = layer_metrics(plain, traced)
        problems += trace_problems
        metrics["verdict_errors"] = errors // len(plain + traced)
    else:
        setup_all = [r["setup_s"] for r in setups + plain if "setup_s" in r]
        rss = [r["rss_mb"] for r in plain if "rss_mb" in r]
        metrics = {"wall_s": statistics.median(walls) if walls else 0.0,
                   "setup_s": statistics.median(setup_all) if setup_all else 0.0,
                   "peak_rss_mb": statistics.median(rss) if rss else 0.0}
    for p in problems:  # also on stderr, which a caller may keep when stdout is lost
        print(f"# problem: {p}")
        print(f"problem: {workload} seed {seed}: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=child.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly on reduced inputs, untraced and traced")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contactgeo").is_dir():
        print(f"error: no contactgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        results = {f"{w} trace {t}": benchmark(w, args.seed, 0.0, bool(t), smoke=True)
                   for w in child.WORKLOADS for t in (0, 1)}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
