"""Smoke test of the benchmark: every workload once on reduced inputs, untraced and traced."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_reports_every_declared_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(results) == {f"{w} trace {t}" for w in workloads for t in (0, 1)}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        declared = spec["per_layer" if name.endswith("1") else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in declared}, name
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"], name
