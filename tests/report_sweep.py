"""Byte-identity sweep of ``verify --suite all`` over a range of n and seeds.

    python tests/report_sweep.py 1-8 0-39 > sweep.txt
    python tests/report_sweep.py 1-8 0-39 --against sweep.txt

prints one line per ``(n, seed)``: n, seed, the exit code and the sha256 of
stdout.  Every run is in one process, under ``PYTHONHASHSEED=0``, against the
``src/`` of this checkout.  With ``--against FILE``, a sweep saved from another
checkout, it also prints to stderr each swept line that differs from the line
of its ``(n, seed)`` in FILE, or that FILE lacks, and exits 1 if there is one.
Its last line on stderr counts the runs by exit code, e.g. ``172 exit 0, 148
exit 1``.
"""

import argparse
import collections
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
    parser = argparse.ArgumentParser(description="byte-identity sweep of verify --suite all")
    parser.add_argument("n", type=_span, help="n or a range of n, e.g. 1-8")
    parser.add_argument("seeds", type=_span, help="a seed or a range of seeds, e.g. 0-39")
    parser.add_argument("--against", type=Path, help="a saved sweep to compare with")
    args = parser.parse_args()
    saved = None
    if args.against is not None:
        lines = args.against.read_text().splitlines()
        saved = {tuple(line.split()[:2]): line for line in lines if line.strip()}
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from contactgeo.cli import main

    differing = []
    codes = collections.Counter()
    for n in args.n:
        for seed in args.seeds:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["verify", "--suite", "all", "--n", str(n), "--seed", str(seed)])
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            line = f"{n} {seed} {code} {digest}"
            codes[code] += 1
            print(line, flush=True)
            if saved is not None and saved.get((str(n), str(seed))) != line:
                differing.append((saved.get((str(n), str(seed)), "(none)"), line))
    for was, now in differing:
        print(f"differs: {args.against}: {was}\n         this checkout: {now}", file=sys.stderr)
    if saved is not None:
        print(f"{len(differing)} of {len(args.n) * len(args.seeds)} lines differ from "
              f"{args.against}", file=sys.stderr)
    print(", ".join(f"{codes[code]} exit {code}" for code in sorted(codes)), file=sys.stderr)
    sys.exit(1 if differing else 0)
