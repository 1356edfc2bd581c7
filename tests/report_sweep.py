"""Byte-identity sweep of ``verify --suite all`` over a range of n and seeds.

    python tests/report_sweep.py 1-8 0-39

prints one line per ``(n, seed)``: n, seed, the exit code and the sha256 of
stdout.  Every run is in one process, under ``PYTHONHASHSEED=0``, against the
``src/`` of this checkout; two checkouts compare by diffing their output.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path


def _span(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from contactgeo.cli import main

    for n in _span(sys.argv[1]):
        for seed in _span(sys.argv[2]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["verify", "--suite", "all", "--n", str(n), "--seed", str(seed)])
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(n, seed, code, digest, flush=True)
