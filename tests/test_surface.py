"""The library's public surface is what the CLI commands reach.

Each command of ``cli.main`` runs once, small, under ``sys.setprofile``, which
records every Python code object entered.  Every function in a module's
``__all__`` and every public method and property of an exported class must be
among them, except the few names in ``UNREACHED``, each kept for the reason
given there.  A public name that no command enters is dead code: delete it,
or move it into the tests if only they use it.
"""

import contextlib
import inspect
import io
import os
import shlex
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from contactgeo import (_config, calculus, cli, equilibrium, expr, hamiltonian, metrics,
                        phase_space, structures, tables)

MODULES = (expr, phase_space, hamiltonian, structures, metrics, calculus, equilibrium,
           tables, cli, _config)

# public names no command enters, each with the reason it stays
UNREACHED = {
    "metrics.compatibility_pairs":
        "the paper's compatibility identity g(phi X, phi Y) = +-(g(X, Y) - eta(X) eta(Y)); "
        "it becomes a verify check once perfbench/run.py's fixed list of check ids takes it",
    "metrics.associated_pairs":
        "the paper's associated-metric identity g(X, phi Y) = d_eta(X, Y); "
        "waits for the same change of check ids",
    "equilibrium.TransformedRelation.hessian":
        "the Hessian of the potential in the new polarization, for a check of the "
        "paper's Hessian-metric statement; verify's checks only embed the transform",
    "expr.evaluate": "one expression by variable name, for tests and perfbench's "
                     "expr.evaluate span; verify runs compiled tapes",
    "expr.to_string": "printing, the inverse of parse; no report prints an expression",
}


def _function_of(member):
    """The plain function behind a public member, or None for data."""
    if isinstance(member, property):
        return member.fget
    if isinstance(member, cached_property):
        return member.func
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    return member if inspect.isfunction(member) else None


def _public_functions():
    """``(qualified name, code object)`` for every public function, method and property."""
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = None if attr.startswith("_") else _function_of(member)
                    if fn is not None:
                        yield f"{short}.{name}.{attr}", fn.__code__
            else:
                fn = _function_of(obj)
                if fn is not None:
                    yield f"{short}.{name}", fn.__code__


def _commands(tmp):
    config = tmp / "run.cfg"
    config.write_text('suite = "structures"\nn = 2\npoints = 2\n\n'
                      'lambda.1 = "q1*p1 + 3"\nlambda.2 = "q2*p2 + 3"\n')
    catalog = tmp / "extra.cat"
    catalog.write_text('id = "square"\npotential = "G"\ncoords = ["x"]\n'
                       'wbar = "x^2"\ndomain = [[0.5, 2]]\n')
    point1 = ["--point", "0.5,1.2,0.7"]
    point2 = ["--point", "0.1,1,2,3,4"]
    flow = ["flow", *point1, "--t", "0.3", "--steps", "10", "--hamiltonian"]
    return [
        ["verify", "--suite", "all", "--n", "2", "--points", "2"],
        ["verify", "--config", str(config)],
        ["verify", "--suite", "equilibrium", "--points", "2", "--catalog", str(catalog)],
        ["curvature", *point2],
        ["curvature", *point2, "--fit"],
        [*flow, "hL"],
        [*flow, "hS"],
        [*flow, "q1*p1 + sin(w) - cos(q1)/2"],
        ["pullback", *point2, "--map", "legendre", "--indices", "1,2"],
        ["pullback", *point2, "--map", "scaling", "--t", "0.2"],
        ["table", "--n", "2", "--points", "2"],
    ]


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """The code objects every command together enters, and each command's exit code."""
    codes: set = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exits = {}
    for argv in _commands(tmp_path_factory.mktemp("surface")):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                exits[" ".join(argv)] = cli.main(argv)
            finally:
                sys.setprofile(None)
    return codes, exits


def test_every_all_name_exists():
    missing = [f"{m.__name__}.{name}" for m in MODULES for name in m.__all__
               if not hasattr(m, name)]
    assert missing == []


def test_commands_succeed(entered):
    _, exits = entered
    assert exits and all(code == 0 for code in exits.values()), exits


def test_every_public_function_is_reached(entered):
    codes, _ = entered
    unreached = sorted(name for name, code in _public_functions()
                       if code not in codes and name not in UNREACHED)
    assert unreached == []


def test_exceptions_are_real_and_unreached(entered):
    codes, _ = entered
    public = dict(_public_functions())
    assert set(UNREACHED) <= set(public)
    assert sorted(name for name in UNREACHED if public[name] in codes) == []


def test_the_readme_library_sketch_runs():
    # the first python block under "## Library sketch", against this checkout's src/
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Library sketch\n")[1]
    sketch = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", sketch], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_the_readme_commands_run(tmp_path, monkeypatch, capsys):
    # each "contactgeo" line of the first fenced block under "## Command line", with
    # lines that end in a backslash joined to the next, run where it may write files
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n")[1].split("```\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("contactgeo ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    exits = {" ".join(argv): cli.main(argv) for argv in commands}
    capsys.readouterr()
    assert all(code == 0 for code in exits.values()), exits
