"""Batch front-end: suites, report format, determinism, exit codes."""

import gc
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import index_mask, live_nodes
from contactgeo import cli, equilibrium, expr, hamiltonian, metrics, structures, tables
from contactgeo.cli import CheckRecord, RunConfig, run_suite
from contactgeo.expr import EvalError
from contactgeo.metrics import MetricKind
from contactgeo.phase_space import CoordinateMap, TensorField
from contactgeo.structures import StructureKind

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "all", "--n", "2",
                                     "--seed", "7", "--points", "10"])
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        summary = records[-1]
        assert summary["check"] == "summary"
        assert summary["failures"] == 0
        assert summary["checks"] == len(records) - 1
        assert all(r["passed"] for r in records)

    def test_records_carry_anchor_and_tolerance(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "heisenberg",
                                     "--seed", "1", "--points", "5"])
        assert code == 0
        for record in map(json.loads, out.strip().splitlines()):
            if record["check"] == "summary":
                continue
            assert record["anchor"]
            assert record["tolerance"] >= 0.0
            assert record["points"] > 0
            assert "wall" not in " ".join(record)  # timing never serialized

    @staticmethod
    def _assert_golden(capsys, n, suite="all"):
        # byte for byte: a refactor that changes the report must say which bytes and why
        golden = GOLDEN / f"verify_{suite}_n{n}_seed7.jsonl"
        code, out, _ = _run(capsys, ["verify", "--suite", suite, "--n", str(n), "--seed", "7"])
        assert code == 0
        assert out.encode("utf-8") == golden.read_bytes()

    def test_golden_report(self, capsys):
        self._assert_golden(capsys, 2)

    def test_golden_report_n4(self, capsys):
        # the symbolic sums grow as dim^3 and dim^4, so n = 2 alone barely exercises them
        self._assert_golden(capsys, 4)

    @pytest.mark.parametrize("suite", ["legendre", "flows"])
    def test_golden_report_n8_subset_sweeps(self, capsys, suite):
        # the index-set sweeps reach all 255 sets at n = 8, but only 3 and 15 at n = 2 and 4
        self._assert_golden(capsys, 8, suite)

    @staticmethod
    def _assert_golden_failing(n):
        # the whole report in a fresh process under the hash seed perfbench sets.  Exit 1
        # is the known float defect: hamiltonian.eta_of_field and hamiltonian.lie_eta
        # miss their 1e-12 gates
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "contactgeo.cli", "verify", "--suite", "all", "--n", str(n),
             "--seed", "7"], capture_output=True, timeout=600,
            env={**os.environ, "PYTHONHASHSEED": "601", "PYTHONPATH": path})
        assert done.returncode == 1
        assert done.stdout == (GOLDEN / f"verify_all_n{n}_seed7.jsonl").read_bytes()

    def test_golden_report_n8(self):
        # n = 8, where the index-set sweeps reach all 255 sets
        self._assert_golden_failing(8)

    def test_golden_report_n10(self):
        # n = 10, the first run over two-digit coordinate names (q10, p10)
        self._assert_golden_failing(10)

    def test_golden_report_custom_lambda(self, capsys):
        # every other golden uses the product family (q^a p_a)^k; this one reaches the
        # nablaxi guard, the connection and the Table 1 rows through user expressions.
        # Exit 1: structures.scaling_pde holds only for the product family
        argv = ["verify", "--suite", "all", "--n", "3", "--m", "3", "--seed", "4",
                "--lambda", "q1*p1+3;1.7*q2*p2;0.3*exp(q3)*p3"]
        code, out, _ = _run(capsys, argv)
        assert code == 1
        assert out.encode("utf-8") == (GOLDEN / "verify_all_n3_m3_custom_seed4.jsonl").read_bytes()

    def test_report_sweep_prints_exit_code_and_digest(self, capsys):
        # the sweep compares two checkouts; its line must be the run's own code and bytes
        sweep = Path(__file__).parent / "report_sweep.py"
        done = subprocess.run([sys.executable, str(sweep), "1", "0"], capture_output=True,
                              text=True, check=True, timeout=120)
        code, out, _ = _run(capsys, ["verify", "--suite", "all", "--n", "1", "--seed", "0"])
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert done.stdout == f"1 0 {code} {digest}\n"
        assert done.stderr == f"1 exit {code}\n"

    def test_report_sweep_tallies_exit_codes_in_increasing_order(self):
        # n = 1..2, seeds 0..1 exit 0; --n 0 is refused with exit 2; the tally is
        # the last stderr line and leaves stdout as it was
        sweep = [sys.executable, str(Path(__file__).parent / "report_sweep.py")]
        done = subprocess.run([*sweep, "0-2", "0-1"], capture_output=True, text=True,
                              timeout=120)
        lines = done.stdout.splitlines()
        assert [line.split()[:3] for line in lines] == [
            [str(n), str(seed), "2" if n == 0 else "0"] for n in range(3) for seed in range(2)]
        assert done.stderr == "4 exit 0, 2 exit 2\n"

    def test_report_sweep_against_a_saved_sweep(self, tmp_path):
        sweep = [sys.executable, str(Path(__file__).parent / "report_sweep.py"), "1", "0-1"]
        saved = subprocess.run(sweep, capture_output=True, text=True, check=True,
                               timeout=120).stdout
        path = tmp_path / "saved.txt"
        path.write_text(saved)
        same = subprocess.run([*sweep, "--against", str(path)], capture_output=True,
                              text=True, timeout=120)
        assert (same.returncode, same.stdout) == (0, saved)
        assert same.stderr == f"0 of 2 lines differ from {path}\n2 exit 0\n"
        # one digest changed and one line missing: both are printed, and the exit is 1
        first, second = saved.splitlines()
        path.write_text(first[:-1] + ("0" if first[-1] != "0" else "1") + "\n")
        changed = subprocess.run([*sweep, "--against", str(path)], capture_output=True,
                                 text=True, timeout=120)
        assert (changed.returncode, changed.stdout) == (1, saved)
        assert f"this checkout: {first}\n" in changed.stderr
        assert f"differs: {path}: (none)\n         this checkout: {second}\n" in changed.stderr
        assert changed.stderr.endswith(f"2 of 2 lines differ from {path}\n2 exit 0\n")

    def test_report_sweep_matches_its_golden(self):
        # exit codes and report bytes of verify --suite all for n = 1..4, seeds 0..4
        golden = GOLDEN / "sweep_1-4_0-4.txt"
        done = subprocess.run([sys.executable, str(Path(__file__).parent / "report_sweep.py"),
                               "1-4", "0-4", "--against", str(golden)],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == golden.read_text()

    @pytest.mark.parametrize("points", ["100000000000000000", "1000000000000000000"])
    def test_points_too_many_to_hold_is_an_error(self, capsys, points):
        # the sample block cannot be allocated: numpy refuses it at once
        code, out, err = _run(capsys, ["verify", "--points", points])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_byte_identical_reports(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code, _, _ = _run(capsys, ["verify", "--suite", "structures", "--n", "2",
                                       "--seed", "42", "--points", "8",
                                       "--json", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stdout_matches_json_file(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        code, out, _ = _run(capsys, ["verify", "--suite", "einstein", "--n", "1",
                                     "--seed", "3", "--points", "5",
                                     "--json", str(path)])
        assert code == 0
        assert out == path.read_text()

    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "structures",
                                     "--seed", "5", "--points", "5"])
        assert code == 0
        # full 17-digit rendering where the double needs it, exact round trip always
        assert '"tolerance":9.9999999999999998e-13' in out
        for record in map(json.loads, out.strip().splitlines()):
            if "tolerance" in record:
                assert record["tolerance"] == 1e-12

    def test_failing_check_sets_exit_code(self, capsys):
        # q^a is not scaling invariant, so the scaling condition check fails
        code, out, _ = _run(capsys, ["verify", "--suite", "structures", "--n", "2",
                                     "--seed", "1", "--points", "5",
                                     "--lambda", "q1;q2"])
        assert code == 1
        records = [json.loads(line) for line in out.strip().splitlines()]
        failed = [r["check"] for r in records if not r.get("passed", True)]
        assert failed == ["structures.scaling_pde", "summary"]

    def test_negative_control_uses_lower_bound_mode(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "legendre", "--n", "2",
                                     "--seed", "2", "--points", "5"])
        assert code == 0
        records = {r["check"]: r for r in map(json.loads, out.strip().splitlines())}
        control = records["legendre.even_family_control"]
        assert control["mode"] == "min"
        assert control["max_residual"] > control["tolerance"]

    def test_einstein_constants_at_n_three(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "einstein", "--n", "3",
                                     "--seed", "0", "--points", "10"])
        assert code == 0
        records = {r["check"]: r for r in map(json.loads, out.strip().splitlines())}
        # fitted constants match lambda = 2n + 2 = 8, nu = -2 within 1e-8
        assert records["einstein.fitted_constants"]["passed"]
        assert records["einstein.fitted_constants"]["max_residual"] < 1e-8
        assert records["einstein.acs"]["max_residual"] < 1e-8

    def test_m_out_of_range_is_config_error(self, capsys):
        # m is checked before --lambda is parsed against n
        for argv, n, m in ((["--suite", "table1", "--n", "1", "--m", "2", "--seed", "0"], 1, 2),
                           (["--n", "2", "--m", "3", "--lambda", "q1*p1"], 2, 3)):
            code, out, err = _run(capsys, ["verify", *argv])
            assert (code, out, err) == (2, "", f"error: m={m} must satisfy 1 <= m <= n={n}\n")

    def test_bad_lambda_is_config_error(self, capsys):
        code, _, err = _run(capsys, ["verify", "--suite", "structures", "--n", "2",
                                     "--seed", "0", "--lambda", "q1*p1"])
        assert code == 2
        assert "lambda" in err

    def test_non_finite_residual_exits_two(self, capsys):
        # inf * q1 * p1: phi_L o phi_L is NaN, which a plain max(worst, nan) would drop
        code, out, err = _run(capsys, ["verify", "--suite", "structures", "--n", "2",
                                       "--seed", "1", "--points", "5",
                                       "--lambda", "1e200*1e200*q1*p1;q2*p2"])
        assert code == 2
        assert out == ""
        assert err == "error: check structures.lambda: non-finite residual in case 1\n"

    @pytest.mark.parametrize("n, extra", [
        pytest.param("0", [], id="0"),
        pytest.param("-1", [], id="-1"),
        # and before --lambda is parsed against it or --catalog is read
        pytest.param("-2", ["--lambda", "q1*p1;q2*p2"], id="-2-lambda"),
        pytest.param("0", ["--catalog", "missing.cat"], id="0-catalog"),
    ])
    def test_n_below_one_is_config_error(self, capsys, n, extra):
        # n is checked before m, whose range it bounds
        code, out, err = _run(capsys, ["verify", "--n", n, *extra])
        assert (code, out, err) == (2, "", f"error: n={n} must be at least 1\n")

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_is_config_error(self, capsys, points):
        code, out, err = _run(capsys, ["verify", "--suite", "legendre", "--points", points])
        assert code == 2
        assert out == ""
        assert err == f"error: points={points} must be at least 1\n"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out_path = tmp_path / "report.jsonl"
        cfg.write_text(
            'suite = "structures"\n'
            "n = 2\n"
            "seed = 9\n"
            "points = 6\n"
            'lambda.1 = "q1*p1"\n'
            'lambda.2 = "q2*p2"\n'
            f'output = "{out_path}"\n'
        )
        code, out, _ = _run(capsys, ["verify", "--config", str(cfg)])
        assert code == 0
        assert out_path.exists()
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["suite"] == "structures"
        assert summary["seed"] == 9

    def test_options_given_override_the_config_file(self, tmp_path, capsys):
        # RunConfig's defaults, under the --config values, under the options given
        cfg = tmp_path / "run.cfg"
        cfg_out, cli_out = tmp_path / "config.jsonl", tmp_path / "option.jsonl"
        cfg.write_text('suite = "structures"\nn = 1\nseed = 9\npoints = 6\n'
                       f'lambda.1 = "q1"\noutput = "{cfg_out}"\n')
        code, out, _ = _run(capsys, ["verify", "--config", str(cfg), "--seed", "3",
                                     "--lambda", "q1*p1", "--json", str(cli_out)])
        assert code == 0  # the option's family, not the config's q1, which fails
        assert json.loads(out.splitlines()[-1]) == {
            "check": "summary", "suite": "structures", "n": 1, "m": 1, "seed": 3,
            "points": 6, "checks": 7, "failures": 0, "passed": True}
        assert cli_out.read_text() == out and not cfg_out.exists()
        code, out, _ = _run(capsys, ["verify", "--config", str(cfg), "--suite", "heisenberg"])
        assert code == 0 and cfg_out.read_text() == out
        assert json.loads(out.splitlines()[-1])["suite"] == "heisenberg"

    def test_negative_seed_names_the_seed(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" named nothing
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        for argv in (["verify", "--seed", "-1"], ["verify", "--config", str(cfg)]):
            assert _run(capsys, argv) == (2, "", "error: seed=-1 must be at least 0\n")

    @pytest.mark.parametrize("text, message", [
        # misspelt seed and points used to run with the defaults and exit 0
        ("seeds = 3", "unknown config key 'seeds'"),
        ("n = 1\npoint = 4", "unknown config key 'point'"),
        ('lambda = "q1*p1"', "unknown config key 'lambda'"),
        ('lambda.x = "q1*p1"', "config key 'lambda.x': the lambda index must be an integer"),
        ('lambda.-1 = "q1*p1"', "config key 'lambda.-1': the lambda index must be an integer"),
        ('lambda.1 = "q1*p1"\nlambda.01 = "q2*p2"',
         "config keys 'lambda.1' and 'lambda.01' set the same lambda entry"),
        # a repeated key used to keep its last value and exit 0
        ("seed = 3\n\nseed = 5", "line 3: key 'seed' is already set on line 1"),
        ("n = 1\n# n = 2 below\nn = 2", "line 3: key 'n' is already set on line 1"),
        ('lambda.1 = "q1*p1"\n\nlambda.1 = "q2*p2"',
         "line 3: key 'lambda.1' is already set on line 1"),
    ])
    def test_bad_config_key_is_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code, out, err = _run(capsys, ["verify", "--suite", "heisenberg", "--points", "2",
                                       "--config", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_lambda_keys_are_ordered_by_index(self, tmp_path):
        # lambda.10 comes after lambda.9, not between lambda.1 and lambda.2
        path = tmp_path / "run.cfg"
        path.write_text("".join(f'lambda.{k} = "q{k}"\n' for k in (10, 9, 1)))
        lam = cli._read_config(str(path))["lam"]
        assert [str(e) for e in lam] == ["q1", "q9", "q10"]

    def test_extra_catalog(self, tmp_path, capsys):
        path = tmp_path / "extra.cfg"
        path.write_text(
            'potential = "Phi"\n'
            'coords = ["x"]\n'
            'wbar = "x^4 + x^2"\n'
            'domain = [[0.5, 2.0]]\n'
        )
        code, out, _ = _run(capsys, ["verify", "--suite", "equilibrium",
                                     "--seed", "4", "--points", "5",
                                     "--catalog", str(path)])
        assert code == 0

    def test_potential_undefined_on_its_domain_is_an_error(self, tmp_path, capsys):
        # only wbar itself is undefined; the pulled-back tensors read its derivatives alone
        path = tmp_path / "bad.cfg"
        path.write_text('potential = "Phi"\ncoords = ["x"]\nwbar = "x^2 + log(x - 10)"\n'
                        'domain = [[0.5, 1.5]]\n')
        code, out, err = _run(capsys, ["verify", "--suite", "equilibrium", "--points", "2",
                                       "--catalog", str(path)])
        assert (code, out, err) == (2, "", "error: log of a non-positive value\n")

    @pytest.mark.parametrize("coords, wbar, domain, error", [
        ('["x"]', "log(x - 1.3)", "[[1, 2]]", "log of a non-positive value"),
        ('["x", "y"]', "y*exp(800*x)", "[[0, 1], [1, 2]]",
         "exp(736.4197710011798): math range error"),
        ('["x"]', "1e306*x^2", "[[0, 100]]", "non-finite potential value or gradient"),
    ])
    def test_a_sampled_row_that_fails_names_its_own_error(self, tmp_path, capsys, coords, wbar,
                                                          domain, error):
        # the sampled rows are checked in one batch; the first failing row still
        # names its error, the operand of the failing call included
        path = tmp_path / "bad.cfg"
        path.write_text(f'potential = "G"\ncoords = {coords}\nwbar = "{wbar}"\n'
                        f'domain = {domain}\n')
        code, out, err = _run(capsys, ["verify", "--suite", "equilibrium",
                                       "--catalog", str(path)])
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_hostile_coordinate_name_is_only_data(self, tmp_path, monkeypatch, capsys):
        # a catalog coordinate is any string; it must reach tapes only as data
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "hostile.cfg"
        path.write_text(
            'potential = "Phi"\n'
            'coords = ["x", "x\'] or __import__(\'os\').system(\'touch PWNED\') or b[\'"]\n'
            'wbar = "x^4 + x^2"\n'
            'domain = [[0.5, 2.0], [0.5, 2.0]]\n'
        )
        code, out, _ = _run(capsys, ["verify", "--suite", "equilibrium",
                                     "--seed", "4", "--points", "5",
                                     "--catalog", str(path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hostile.cfg"]

    @pytest.mark.parametrize("coords, domain, message", [
        ('["x", "x"]', "[[0.1, 1.0], [0.1, 1.0]]", "duplicate coordinate"),
        ('["x", "y"]', "[[0.1, 1.0], [1.0, 0.1]]", "lo < hi"),
        pytest.param("5", "[[0.1, 1.0]]", "'coords' must be a list of strings",
                     id="coords-number"),
        pytest.param('"SV"', "[[0.1, 1.0], [0.1, 1.0]]", "'coords' must be a list of strings",
                     id="coords-string"),
        *(pytest.param('["x"]', domain, "'domain' must be a list of [lo, hi] number pairs",
                       id=f"domain-{name}")
          for name, domain in (("number", "7"), ("string-bound", '[[0.1, "1"]]'),
                               ("bool-bound", "[[true, 1.0]]"), ("triple", "[[0.1, 1.0, 2.0]]"))),
    ])
    def test_malformed_catalog_is_config_error(self, tmp_path, capsys, coords, domain, message):
        # duplicate names used to pass, evaluating both slots at the last value
        path = tmp_path / "bad.cfg"
        path.write_text(f'potential = "Phi"\ncoords = {coords}\nwbar = "x^2"\n'
                        f'domain = {domain}\n')
        code, out, err = _run(capsys, ["verify", "--suite", "equilibrium", "--points", "2",
                                       "--catalog", str(path)])
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        # a repeated key used to keep its last value and an unknown one to be ignored
        ('potential = "Phi"\ncoords = ["x"]\nwbar = "x^2"\nwbar = "x^4"\ndomain = [[0.5, 2]]',
         "line 4: key 'wbar' is already set on line 3"),
        ('potential = "Phi"\ncoords = ["x"]\nwbar = "x^2"\ndomain = [[0.5, 2]]\ncolour = "red"',
         "unknown catalog key 'colour'"),
        ('id = "a"\npotential = "Phi"\ncoords = ["x"]\nwbar = "x^2"\ndomain = [[0.5, 2]]\n\n'
         'id = "b"\npotential = "Psi"\ncoords = ["y"]\nwbar = "y^2"\ndomain = [[0.5, 2]]\n'
         'coords = ["z"]', "line 12: key 'coords' is already set on line 9"),
    ])
    def test_repeated_or_unknown_catalog_key_is_config_error(self, tmp_path, capsys, text,
                                                             message):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code, out, err = _run(capsys, ["verify", "--suite", "equilibrium", "--points", "2",
                                       "--catalog", str(path)])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("option, text, key", [
        *(pytest.param("--config", f"{key} = {value}", key, id=f"config-{key}-{value}")
          for key, value in (("n", "[1]"), ("n", "true"), ("m", "1.0"), ("seed", "1.5"),
                             ("points", '"5"'), ("suite", "3"), ("lambda.1", "5"),
                             ("output", "1"))),
        *(pytest.param("--catalog", "\n".join(f"{k} = {5 if k == key else v}" for k, v in {
            "potential": '"P"', "coords": '["x"]', "wbar": '"x^2"', "domain": "[[0.1, 1.0]]",
            "id": '"e"'}.items()), key, id=f"catalog-{key}-5")
          for key in ("potential", "wbar", "id")),
    ])
    def test_value_of_wrong_type_is_config_error(self, tmp_path, capsys, option, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code, out, err = _run(capsys, ["verify", "--suite", "equilibrium", "--points", "2",
                                       option, str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: '{key}' must be ") and err.count("\n") == 1

    def test_catalog_is_loaded_once_per_run(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "extra.cfg"
        path.write_text('potential = "Phi"\ncoords = ["x"]\nwbar = "x^4 + x^2"\n'
                        "domain = [[0.5, 2.0]]\n")
        argv = ["verify", "--suite", "equilibrium", "--seed", "4", "--points", "3",
                "--catalog", str(path)]
        want = _run(capsys, argv)[:2]  # exit code and stdout
        calls = []
        load = equilibrium.load_catalog
        monkeypatch.setattr(equilibrium, "load_catalog", lambda p: calls.append(p) or load(p))
        assert _run(capsys, argv)[:2] == want
        assert calls == [str(path)]
        # the catalog is an input of the run, read before any check: a missing file
        # exits 2 even for a suite that walks no catalog
        missing = str(tmp_path / "missing.cat")
        code, out, err = _run(capsys, ["verify", "--suite", "heisenberg", "--points", "2",
                                       "--catalog", missing])
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        assert calls == [str(path), missing]


class TestRunSuiteApi:
    def test_runs_leave_no_expression_nodes_alive(self):
        # symbolic work lives on nodes owned by the run, so it all dies with the run.
        # exp(S) holds itself through its derivative memo; the intern table holds
        # no node strongly, so one collection frees such a cycle and its parent
        # together, also after runs that paused the collector.  The table keeps
        # dead entries until a sweep, so live ones count.
        while gc.collect():
            pass
        before = live_nodes()
        collecting = gc.isenabled()
        try:
            for lam in (None, "exp(q1*p1);exp(q2*p2)"):
                for caller_collects in (True, False):
                    (gc.enable if caller_collects else gc.disable)()
                    run_suite(RunConfig(suite="all", n=2, points=2,
                                        lam=cli._parse_lambda(lam, 2)))
                    assert gc.isenabled() is caller_collects
        finally:
            (gc.enable if collecting else gc.disable)()
        gc.collect()
        assert live_nodes() == before

    @pytest.mark.parametrize("n, builds", [(2, 10), (3, 13)])
    def test_a_run_builds_each_metric_once(self, monkeypatch, n, builds):
        keys = []
        build = cli.metric_from_structure

        def counting(n, kind, lam=None):
            keys.append((n, kind, lam))
            return build(n, kind, lam)

        monkeypatch.setattr(cli, "metric_from_structure", counting)
        run_suite(RunConfig(n=n, points=2, seed=7))
        assert len(keys) == len(set(keys)) == builds

    def test_families_built_apart_key_one_metric(self):
        # interned nodes make two product families one key while the first lives
        cfg = RunConfig(n=2, points=2, seed=7)
        first = cfg.metric(MetricKind.LAMBDA, 2, structures.product_lambda(2))
        assert cfg.metric(MetricKind.LAMBDA, 2, structures.product_lambda(2)) is first

    def test_wall_time_tracked_in_memory_only(self):
        report = run_suite(RunConfig(suite="flows", seed=1, points=4))
        assert all(c.wall_time >= 0.0 for c in report.checks)
        for line in report.lines(RunConfig(suite="flows", seed=1, points=4)):
            assert "wall" not in line

    def test_check_record_modes(self):
        assert CheckRecord("x", "a", 1e-13, 1e-12, 1).passed
        assert not CheckRecord("x", "a", 1e-11, 1e-12, 1).passed
        assert CheckRecord("x", "a", 0.5, 1e-2, 1, mode="min").passed
        assert not CheckRecord("x", "a", 1e-3, 1e-2, 1, mode="min").passed

    def test_records_sorted_by_check_id(self):
        cfg = RunConfig(suite="heisenberg", seed=0, points=4)
        lines = run_suite(cfg).lines(cfg)
        ids = [json.loads(line)["check"] for line in lines[:-1]]
        assert ids == sorted(ids)

    def test_runner_reduces_each_case_to_one_residual(self):
        # case j of a block is its item j: a number or a flat array of numbers
        blocks = [[0.25], [(-0.5, 0.1, -0.3)], np.array([[0.0, 0.2], [0.1, -0.4]])]
        for mode, want in (("max", 0.5), ("min", 0.2)):
            check = cli.Check("demo.cases", "a", 1.0, lambda cfg, rng: blocks, mode=mode)
            record = cli._run_check(check, RunConfig())
            assert (record.max_residual, record.points, record.mode) == (want, 4, mode)

    @pytest.mark.parametrize("case", [math.nan, (0.5, math.nan), np.array([0.5, -math.inf])])
    def test_non_finite_residual_names_the_check(self, case):
        check = cli.Check("demo.nan", "a", 1.0, lambda cfg, rng: [[0.5], [case]])
        with pytest.raises(EvalError, match="check demo.nan: non-finite residual in case 2"):
            cli._run_check(check, RunConfig())

    @staticmethod
    def _block_and_rows(block, mode="max"):
        """The records of a check yielding ``block`` between two blocks of one case,
        and of one yielding the same rows one by one."""
        ends = [0.25], [(0.5, 0.1)]
        blocked = cli.Check("demo.block", "a", 1.0, lambda cfg, rng: [ends[0], block, ends[1]],
                            mode)
        single = cli.Check("demo.block", "a", 1.0, lambda cfg, rng: [
            ends[0], *([row] for row in block), ends[1]], mode)
        return [cli._run_check(check, RunConfig()) for check in (blocked, single)]

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_a_block_reduces_as_its_rows_one_by_one(self, mode):
        block = np.random.default_rng(4).standard_normal((6, 7))
        blocked, single = self._block_and_rows(block, mode)
        assert blocked.to_record() == single.to_record()
        assert blocked.points == 8

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 3, 5])
    def test_a_non_finite_row_of_a_block_names_its_case(self, bad, row):
        block = np.ones((6, 4))
        block[row, 2] = bad
        for check in (lambda cfg, rng: [[0.25], block],
                      lambda cfg, rng: [[0.25], *([r] for r in block)]):
            with pytest.raises(EvalError) as err:
                cli._run_check(cli.Check("demo.nan", "a", 1.0, check), RunConfig())
            assert str(err.value) == f"check demo.nan: non-finite residual in case {row + 2}"

    def test_an_array_yielded_alone_is_one_case_per_row(self):
        check = cli.Check("demo.rows", "a", 1.0, lambda cfg, rng: [np.full((6, 4), 0.5)])
        assert cli._run_check(check, RunConfig()).points == 6

    def test_unknown_suite_rejected(self):
        with pytest.raises(cli.ConfigError):
            run_suite(RunConfig(suite="bogus"))

    def test_positional_tapes_equal_name_keyed_evaluation(self, monkeypatch):
        # every tape verify compiles against a coordinate order at n=3 reads a
        # point by position exactly as expr.evaluate reads it by name
        compiled = {}
        compile_ = expr.compile

        def recording(exprs, coords):
            exprs = tuple(exprs)
            tape = compile_(exprs, coords)
            compiled.setdefault((exprs, tuple(coords)), (sys._getframe(1).f_code.co_qualname, tape))
            return tape

        monkeypatch.setattr(expr, "compile", recording)
        run_suite(RunConfig(n=3, m=2, seed=5, points=2))
        monkeypatch.undo()
        assert {"TensorField.tape", "CoordinateMap.tape", "Metric.ricci_tape",
                "_legendre_conditions",
                "_hamiltonian_eta", "_differences", "FundamentalRelation._value_tape",
                "FundamentalRelation._gradient_tape", "FundamentalRelation._hessian_tape",
                } <= {caller for caller, _ in compiled.values()}

        def outcome(fn):
            try:
                return [v.hex() for v in fn()]
            except EvalError as err:
                return str(err)

        rng = np.random.default_rng(8)

        def coordinate(name):
            # phase coordinates as sample_points draws them; relation
            # coordinates inside every built-in domain
            if name == "w":
                return float(rng.uniform(-1.0, 1.0))
            if name[0] in "qp" and name[1:].isdigit():
                return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
            return float(rng.uniform(1.6, 1.9))

        values_compared = 0
        for (exprs, coords), (_, tape) in compiled.items():
            for _ in range(2):
                point = [coordinate(c) for c in coords]
                named = dict(zip(coords, point))
                want = outcome(lambda: [expr.evaluate(e, named) for e in exprs])
                for positional in (tape, compile_(exprs, coords)):
                    assert outcome(lambda: positional.run(point)) == want, coords
                values_compared += isinstance(want, list)
        assert values_compared == 2 * len(compiled)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_legendre_order_points_are_the_per_point_draws(monkeypatch, n):
    # one (20, 2n + 1) draw reads the stream twenty per-point draws read
    starts = []
    monkeypatch.setattr(cli, "legendre_rows", lambda masks, image: starts.append(image) or image)
    # one start row per point
    monkeypatch.setattr(cli, "_subset_masks", lambda n: np.zeros((1, n), dtype=bool))
    cfg = RunConfig(suite="flows", n=n)
    for seed in range(100):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        starts.clear()
        for block in cli._flows_legendre_order(cfg, rng):
            assert not block.any()
        want = [(1.0, *(2.0,) * n, *(3.0,) * n)]
        want += [tuple(ref.integers(-9, 10, size=2 * n + 1).astype(float).tolist())
                 for _ in range(20)]
        assert [tuple(row) for image in starts[::4] for row in image.tolist()] == want
        assert rng.bit_generator.state == ref.bit_generator.state


def test_subset_masks_are_the_index_subsets_masks():
    # both are the non-empty index sets of 1..n by size, each size in combinations order
    for n in range(1, 13):
        subsets = [hamiltonian.IndexSubset.of(c) for r in range(1, n + 1)
                   for c in itertools.combinations(range(1, n + 1), r)]
        want = np.array([index_mask(I, n) for I in subsets])
        got = cli._subset_masks(n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n
        assert cli._subsets(n) == subsets, n


class _OverflowingDraws:
    """A generator whose integer draws hold q1 = 1e300 and p1 = 1e10 in row 4,
    so the sweep's point 5 is not finite under a map that takes index 1."""

    def __init__(self, rng):
        self._rng = rng

    def integers(self, *args, **kwargs):
        draws = self._rng.integers(*args, **kwargs).astype(float)
        n = draws.shape[1] // 2
        draws[4, 1], draws[4, n + 1] = 1e300, 1e10
        return draws


def _outcome(check, cfg):
    """The check's record without its wall time, or the text of its error."""
    try:
        return replace(cli._run_check(check, cfg), wall_time=0.0)
    except EvalError as err:
        return str(err)


@pytest.mark.parametrize("check_id", ["legendre.lambda_conditions", "flows.legendre_order_four"])
def test_sweeps_do_not_depend_on_their_block_length(monkeypatch, check_id):
    # the runner reduces each case alone, so cutting the cases into other
    # blocks moves no residual, count or case number
    (check,) = [c for c in cli._CHECKS[check_id.split(".")[0]] if c.id == check_id]
    runs = [RunConfig(n=n, points=points, seed=seed)
            for n, points, seed in ((1, 3, 0), (4, 6, 1), (8, 5, 2))]
    broken, broken_cfg, family = check, RunConfig(n=3, points=20, seed=13), None
    if check_id.startswith("flows"):
        broken = cli.Check(check.id, check.anchor, check.tolerance,
                           lambda cfg, rng: check.residuals(cfg, _OverflowingDraws(rng)))
    else:  # 7e307 q1 p1 overflows at the points where q1 p1 > 2.57
        family = tuple(map(expr.parse, ["7e307*q1*p1", "q2*p2", "q3*p3"]))

    def outcomes():
        seen = [_outcome(check, cfg) for cfg in runs]
        with monkeypatch.context() as patched:
            if family is not None:
                patched.setattr(cli, "product_lambda", lambda n, power=1: family)
            seen.append(_outcome(broken, broken_cfg))
        return seen

    whole = outcomes()
    monkeypatch.setattr(cli, "_SWEEP_ROWS", 7)
    assert outcomes() == whole
    assert all(isinstance(seen, CheckRecord) for seen in whole[:-1])
    # the non-finite case lies past the first block of 7
    assert int(whole[-1].rsplit(" ", 1)[1]) > 7, whole[-1]


@pytest.mark.parametrize("argv", [
    ["flow", "--config", "run.cfg", "--hamiltonian", "hL", "--t", "1", "--point", "1,2,3"],
    ["curvature", "--seed", "1", "--metric", "acs", "--n", "1", "--point", "1,2,3"],
    ["pullback", "--points", "5", "--n", "1", "--point", "1,2,3"],
])
def test_commands_reject_options_they_would_ignore(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command, option, value, rest", [
    ("flow", "--point", "-1,2,3", ["--hamiltonian", "hS", "--t", "0.5", "--n", "1"]),
    ("curvature", "--point", "-1,2,3", ["--n", "1"]),
    ("flow", "--t", "-1e-3", ["--hamiltonian", "hS", "--n", "1", "--point", "1,2,3"]),
    ("pullback", "--t", "-2e-1", ["--map", "scaling", "--n", "1", "--point", "1,2,3"]),
    ("flow", "--hamiltonian", "-q1*p1", ["--t", "0.5", "--n", "1", "--point", "1,2,3"]),
    ("verify", "--lambda", "-q1*p1", ["--suite", "legendre", "--n", "1", "--points", "2"]),
])
def test_an_option_value_may_begin_with_a_minus(capsys, command, option, value, rest):
    # argparse alone takes each value for an option and exits 2: "argument
    # --point: expected one argument"
    code, out, _ = _run(capsys, [command, f"{option}={value}", *rest])
    assert code == 0
    assert _run(capsys, [command, option, value, *rest])[:2] == (0, out)


def test_an_abbreviated_option_may_take_a_value_that_begins_with_a_minus(capsys):
    # argparse accepts --poin for --point, but it was joined to its value only
    # when spelt in full: "argument --point: expected one argument"
    rest = ["--hamiltonian", "hS", "--t", "0.5", "--n", "1"]
    code, out, _ = _run(capsys, ["flow", *rest, "--point=-1,2,3"])
    assert code == 0
    assert _run(capsys, ["flow", *rest, "--poin", "-1,2,3"]) == (0, out, "")


def test_an_ambiguous_option_prefix_is_still_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pullback", "--point", "0.1,1,2,3,4", "--m", "-1"])
    assert exc.value.code == 2
    assert "ambiguous option: --m could match --map, --metric" in capsys.readouterr().err


def test_an_option_without_its_value_is_still_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "--hamiltonian", "hS", "--t", "0.5", "--point"])
    assert exc.value.code == 2
    assert "argument --point: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["flow --hamiltonian", "verify --lambda", "config lambda.1",
                                   "catalog wbar"])
@pytest.mark.parametrize("text, message", [
    # these raised IndexError, ValueError or OverflowError, or parsed 1e999 to inf
    ("q1^", "expected a number (offset 3)"),
    ("2^(", "expected a number (offset 3)"),
    ("(x^", "unbalanced '(' (offset 0)"),
    ("\u00b2", "unexpected character '\u00b2' (offset 0)"),
    ("1e999", "number out of range (offset 0)"),
    ("q1^1e999", "number out of range (offset 3)"),
])
def test_malformed_expression_is_config_error(tmp_path, capsys, entry, text, message):
    path = tmp_path / "run.cfg"
    verify = ["verify", "--suite", "structures", "--n", "1", "--points", "1"]
    if entry == "config lambda.1":
        path.write_text(f"lambda.1 = {json.dumps(text)}\n")
    elif entry == "catalog wbar":
        path.write_text(f'potential = "P"\ncoords = ["x"]\nwbar = {json.dumps(text)}\n'
                        "domain = [[0.5, 2.0]]\n")
        verify = ["verify", "--suite", "equilibrium", "--points", "2"]
    argv = {"flow --hamiltonian": ["flow", "--hamiltonian", text, "--t", "0.1", "--steps", "2",
                                   "--point", "1,2,3"],
            "verify --lambda": [*verify, "--lambda", text],
            "config lambda.1": [*verify, "--config", str(path)],
            "catalog wbar": [*verify, "--catalog", str(path)]}[entry]
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


class TestDeclaredResiduals:
    """The checks declared as ``(lhs, rhs)`` residual pairs give verdicts and errors."""

    def test_a_flipped_structure_sign_fails_its_check(self, monkeypatch):
        build = structures.build_structure

        def flipped(n, kind, lam=None):
            # phi(Q_1) = -P^1 becomes +P^1 for the quarter turn alone
            phi = build(n, kind, lam)
            if kind != StructureKind.ALMOST_CONTACT:
                return phi
            comps = phi.comps.copy()
            comps[n + 1, 1] = expr.ONE
            return TensorField((1, 1), comps)

        monkeypatch.setattr(structures, "build_structure", flipped)
        report = run_suite(RunConfig(suite="structures", n=2, seed=3, points=5))
        monkeypatch.undo()
        failed = [c for c in report.checks if not c.passed]
        assert [c.check for c in failed] == ["structures.phi"] and failed[0].max_residual >= 2.0
        assert structures.build_structure is build

    def test_a_flipped_closed_form_coefficient_fails_its_row(self, monkeypatch):
        closed_form = tables.lie_derivative_closed_form

        def flipped(n, kind, generator, m=None, lam=None):
            # L_{X_S} g has -dq^1 (x) dq^1; the flip makes it +dq^1 (x) dq^1
            field = closed_form(n, kind, generator, m=m, lam=lam)
            if (kind, generator) != (MetricKind.ACS, "scaling"):
                return field
            comps = field.comps.copy()
            comps[1, 1] = expr.ONE
            return TensorField((0, 2), comps)

        monkeypatch.setattr(tables, "lie_derivative_closed_form", flipped)
        report = run_suite(RunConfig(suite="table1", n=2, seed=3, points=5))
        monkeypatch.undo()
        failed = [c for c in report.checks if not c.passed]
        assert [c.check for c in failed] == ["table1.acs"] and failed[0].max_residual >= 2.0
        assert tables.lie_derivative_closed_form is closed_form

    @pytest.mark.parametrize("kind, suite, failing", [
        (MetricKind.LAMBDA, "nablaxi", ["nabla_reeb.lambda", "nabla_reeb.duality"]),
        (MetricKind.ACS, "einstein", ["einstein.acs", "einstein.fitted_constants"]),
    ])
    def test_a_scaled_inverse_coefficient_fails_the_connection_checks(
            self, monkeypatch, kind, suite, failing):
        inverse = metrics._inverse_components

        def scaled(n, k, family):
            # one entry, g^{q1 p1} or g^{q1 q1}, times 1.5; the metric tensor is untouched
            inv = inverse(n, k, family)
            if k == kind:
                j = n + 1 if k == MetricKind.LAMBDA else 1
                inv[1, j] = expr.mul(expr.const(1.5), inv[1, j])
            return inv

        lam = structures.product_lambda(2)
        clean = metrics.metric_from_structure(2, kind, lam)
        monkeypatch.setattr(metrics, "_inverse_components", scaled)
        patched = metrics.metric_from_structure(2, kind, lam)
        report = run_suite(RunConfig(suite=suite, n=2, seed=3, points=5))
        monkeypatch.undo()
        assert (patched.tensor.comps == clean.tensor.comps).all()  # so the guard passes
        assert [c.check for c in report.checks if not c.passed] == failing
        assert metrics._inverse_components is inverse

    def test_a_flipped_legendre_w_shift_fails_the_map_checks(self, monkeypatch):
        def flipped(n, I):
            # w - sum q^i p_i becomes w + sum q^i p_i
            mapping = hamiltonian.legendre_map(n, I)
            exprs = mapping.exprs.copy()
            exprs[0] = expr.const(2.0) * expr.var("w") - exprs[0]
            return CoordinateMap(exprs, mapping.coords, mapping.label)

        monkeypatch.setattr(cli, "legendre_map", flipped)
        report = run_suite(RunConfig(suite="all", n=2, seed=3, points=5))
        monkeypatch.undo()
        assert [c.check for c in report.checks if not c.passed] == [
            "flows.eta_preserved", "legendre.invariance_qp", "legendre.invariance_qp_cubed"]
        assert cli.legendre_map is hamiltonian.legendre_map

    def test_the_connection_guard_does_not_scale_with_the_dimension(self, capsys):
        # the determinant of the lambda metric at n = 10 falls below 1e-12 at
        # well-conditioned points, which made this exit 2 as "metric is singular"
        code, _, err = _run(capsys, ["verify", "--suite", "nablaxi", "--n", "10",
                                     "--seed", "0"])
        assert code == 0 and "3 checks, 0 failures" in err

    @pytest.mark.parametrize("lam, message", [
        ("q1-q1", "metric is singular at the point"),
        ("log(q1)", "metric undefined at point: log of a non-positive value"),
        ("q1^(1/2)", "metric undefined at point: negative base with even-root exponent"),
    ])
    def test_the_connection_guard_names_a_singular_metric(self, capsys, lam, message):
        code, out, err = _run(capsys, ["verify", "--suite", "nablaxi", "--n", "1",
                                       "--points", "5", "--lambda", lam])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("lam, points, message", [
        # q1 < 0 at the first point: L = exp(-1000 |q1|) is 0, so phi_Lbar divides by it
        ("exp(q1*1000)", "2", "division by zero"),
        ("log(q1)", "5", "log of a non-positive value"),
    ])
    def test_first_failing_point_raises_the_scalar_error(self, capsys, lam, points, message):
        code, out, err = _run(capsys, ["verify", "--suite", "structures", "--n", "1",
                                       "--lambda", lam, "--points", points])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_failed_conjugate_solve_is_an_error_line(self, capsys, monkeypatch):
        # a RootFindError is a RuntimeError, and main let it out as a traceback with exit 1
        def failing(rel, I, qvals):
            raise equilibrium.RootFindError("could not bracket the conjugate-variable root")

        monkeypatch.setattr(equilibrium, "involution_check", failing)
        code, out, err = _run(capsys, ["verify", "--suite", "equilibrium", "--points", "2"])
        assert (code, out, err) == (
            2, "", "error: could not bracket the conjugate-variable root\n")


@pytest.mark.parametrize("command", [
    ["curvature"], ["curvature", "--metric", "lambda", "--lambda", "qp"],
    ["flow", "--hamiltonian", "hS", "--t", "1"], ["flow", "--hamiltonian", "hL", "--t", "1"],
    ["pullback"], ["pullback", "--map", "scaling"],
])
@pytest.mark.parametrize("point", ["1,2,3", "not,a,point"])
def test_n_zero_is_named_before_anything_is_parsed_against_it(capsys, command, point):
    code, out, err = _run(capsys, [*command, "--n", "0", "--point", point])
    assert (code, out, err) == (2, "", "error: phase space needs n >= 1 conjugate pairs\n")


class TestCurvatureCommand:
    def test_frozen_ricci(self, capsys):
        code, out, _ = _run(capsys, ["curvature", "--metric", "acs", "--n", "1",
                                     "--point", "1,2,3"])
        assert code == 0
        record = json.loads(out)
        assert record["ricci"] == [[2, -6, 0], [-6, 17, 0], [0, 0, -1]]
        assert record["lambda"] == 4 and record["nu"] == -2
        assert record["eta_einstein_residual"] < 1e-12

    def test_fit_flag(self, capsys):
        code, out, _ = _run(capsys, ["curvature", "--metric", "acs", "--n", "2",
                                     "--point", "0.2,1.0,-0.8,0.7,1.1", "--fit"])
        assert code == 0
        record = json.loads(out)
        assert record["fitted"]
        assert record["lambda"] == pytest.approx(6.0, abs=1e-8)

    def test_a_tensor_that_is_no_metric_is_named_by_its_value(self, capsys):
        code, out, err = _run(capsys, ["curvature", "--metric", "alpha_pi",
                                       "--point", "0.1,1,2,3,4"])
        assert (code, out, err) == (2, "", "error: alpha_pi is not a metric; no connection\n")

    @pytest.mark.parametrize("point, message", [
        # these said "could not convert string to float" and "phase point has
        # non-finite entries"
        ("0.1,a,2,3,4", "--point must be comma-separated numbers, got '0.1,a,2,3,4'"),
        ("0.1,1,2,3,inf", "--point must be finite, got '0.1,1,2,3,inf'"),
    ])
    def test_a_bad_point_names_the_option(self, capsys, point, message):
        code, out, err = _run(capsys, ["curvature", "--point", point])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("metric, point, message", [
        # g_qq = p^2 overflows: this wrote "cannot write the non-finite value nan as JSON"
        ("acs", "1,1,1e160", "metric is not finite at the point"),
        # the same entry of g_s: numpy's least squares then did not converge
        ("s", "1,1,1e160", "metric is not finite at the point"),
        # L = q1 p1 = 1e160 is finite, L^2 in the determinant is not: this exited 0
        # with a Ricci tensor of rounding noise
        ("lambda", "1,1e160,1", "metric determinant is not finite at the point"),
    ])
    def test_a_metric_that_is_not_finite_at_the_point(self, capsys, metric, point, message):
        code, out, err = _run(capsys, ["curvature", "--metric", metric, "--n", "1",
                                       "--point", point])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_wrong_point_length(self, capsys):
        code, _, err = _run(capsys, ["curvature", "--metric", "acs", "--n", "2",
                                     "--point", "1,2,3"])
        assert code == 2
        assert "point" in err


class TestFlowCommand:
    def test_rotation_flow_with_closed_form(self, capsys):
        code, out, _ = _run(capsys, ["flow", "--hamiltonian", "hL",
                                     "--t", str(math.pi / 2), "--steps", "10000",
                                     "--point", "1,2,3"])
        assert code == 0
        record = json.loads(out)
        assert record["closed_form"] == [-5, -3, 2]
        assert record["deviation"] < 1e-8

    def test_scaling_flow(self, capsys):
        code, out, _ = _run(capsys, ["flow", "--hamiltonian", "hS",
                                     "--t", str(math.log(2)), "--steps", "10000",
                                     "--point", "1,2,3"])
        assert code == 0
        record = json.loads(out)
        assert record["closed_form"] == [1, 1, 6]
        assert record["deviation"] < 1e-8

    def test_custom_expression(self, capsys):
        code, out, _ = _run(capsys, ["flow", "--hamiltonian", "q1*p1",
                                     "--t", "0.25", "--steps", "100",
                                     "--point", "1,2,3"])
        assert code == 0
        assert "closed_form" not in json.loads(out)

    def test_small_decimal_exponent_is_not_rounded_away(self, capsys):
        # q1^1e-13 once parsed as the constant 1, so p stayed 3 and w grew as for H = 1
        argv = ["flow", "--t", "0.1", "--steps", "2", "--point", "1,2,3", "--hamiltonian"]
        code, out, _ = _run(capsys, [*argv, "q1^1e-13"])
        assert code == 0
        w, q, p = json.loads(out)["endpoint"]
        assert q == 2.0 and p > 3.0
        assert json.loads(_run(capsys, [*argv, "1"])[1])["endpoint"] != [w, q, p]

    def test_deeply_nested_hamiltonian(self, capsys):
        # 1500 nested parentheses used to exhaust the recursive parser
        argv = ["flow", "--t", "0.25", "--steps", "100", "--point", "1,2,3", "--hamiltonian"]
        code, out, _ = _run(capsys, [*argv, "(" * 1500 + "q1*p1" + ")" * 1500])
        assert code == 0
        plain = json.loads(_run(capsys, [*argv, "q1*p1"])[1])
        assert json.loads(out)["endpoint"] == plain["endpoint"]

    def test_parse_error_is_config_error(self, capsys):
        code, _, err = _run(capsys, ["flow", "--hamiltonian", "q1*(",
                                     "--t", "1", "--point", "1,2,3"])
        assert code == 2

    def test_variable_outside_the_coordinates_exits_two(self, capsys):
        # the field's tape is compiled against (w, q1, p1), which has no q2
        code, out, err = _run(capsys, ["flow", "--hamiltonian", "q1*p1 + q2",
                                       "--t", "1", "--point", "1,2,3"])
        assert (code, out, err) == (2, "", "error: unbound variable 'q2'\n")

    def test_point_of_another_dimension_exits_two(self, capsys, monkeypatch):
        # a 5-coordinate point reaching the 3-coordinate field's tape is an
        # evaluation error, not an IndexError and not a silent partial binding
        monkeypatch.setattr(cli, "_parse_point", lambda csv, n: [1.0, 2.0, 3.0, 4.0, 5.0])
        code, out, err = _run(capsys, ["flow", "--hamiltonian", "hS", "--n", "1",
                                       "--t", "1", "--point", "1,2,3,4,5"])
        assert (code, out, err) == (2, "", "error: expected 3 coordinate values, got 5\n")

    @pytest.mark.parametrize("hamiltonian, message", [
        # these printed the bare "math range error" and "math domain error"
        ("exp(q1*1000)", "exp(2000.0): math range error"),
        ("sin(1e200*1e200*q1)", "sin(inf): math domain error"),
    ])
    def test_math_error_names_its_call(self, capsys, hamiltonian, message):
        code, out, err = _run(capsys, ["flow", "--hamiltonian", hamiltonian, "--t", "0.1",
                                       "--steps", "2", "--point", "1,2,3"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("hamiltonian, t, message", [
        # these said "math domain error", "phase point has non-finite entries" and
        # "math range error"
        ("hL", "inf", "--t must be finite, got inf"),
        ("hL", "nan", "--t must be finite, got nan"),
        ("hS", "1000", "--t must keep the scaling factor exp(|t|) finite, got 1000.0"),
    ])
    def test_a_bad_time_names_the_option(self, capsys, hamiltonian, t, message):
        code, out, err = _run(capsys, ["flow", "--hamiltonian", hamiltonian, "--t", t,
                                       "--point", "1,2,3"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("hamiltonian, t, steps", [
        # these said "pow(-1.4999999999999999e+296, 2.0): math range error" and
        # "non-finite state at step 1"
        pytest.param("hL", "1e300", "10", id="hL"),
        pytest.param("q1*p1", "1e300", "10", id="q1*p1"),
        # wdot = w^3/3 blows up at t = 1.5: "pow(8.426334048822159e+234, 3.0): math range error"
        pytest.param("w^3/3", "2", "10", id="w^3/3"),
        # exp overflows in step 5, and sin of an infinity fails in step 1
        pytest.param("exp(w)", "1", "10", id="exp(w)"),
        pytest.param("1e300*w + sin(w)", "0.1", "2", id="1e300*w + sin(w)"),
    ])
    def test_an_overflowing_flow_names_t_and_steps(self, capsys, hamiltonian, t, steps):
        code, out, err = _run(capsys, ["flow", "--hamiltonian", hamiltonian, "--t", t,
                                       "--steps", steps, "--point", "1,2,3"])
        message = f"the flow is not finite for --t {float(t)} and --steps {steps}"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("hamiltonian, t, point", [
        # these said "phase point has non-finite entries": the closed form overflows
        ("hS", "10", "1,2,1e305"),
        ("hL", "1", "1,1e200,1e200"),
    ])
    def test_a_closed_form_that_overflows_names_t_and_point(self, capsys, hamiltonian, t, point):
        code, out, err = _run(capsys, ["flow", "--hamiltonian", hamiltonian, "--t", t,
                                       "--point", point])
        message = f"the closed-form flow is not finite for --t {float(t)} and --point {point}"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("hamiltonian", [
        # these said "non-finite state at step 1": no math call fails, but the field
        # is already inf, and nan, at --point
        "1e200*1e200*q1*p1",
        "1e200*1e200*q1 - 1e200*1e200*p1",
    ])
    def test_a_field_not_finite_at_the_point_names_the_point(self, capsys, hamiltonian):
        code, out, err = _run(capsys, ["flow", "--hamiltonian", hamiltonian, "--t", "0.1",
                                       "--steps", "2", "--point", "1,2,3"])
        message = "the Hamiltonian vector field is not finite at --point"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_names_the_option(self, capsys, steps):
        # these said "steps must be >= 1"
        code, out, err = _run(capsys, ["flow", "--hamiltonian", "hL", "--t", "1",
                                       "--steps", steps, "--point", "1,2,3"])
        assert (code, out, err) == (2, "", f"error: --steps must be at least 1, got {steps}\n")

    @pytest.mark.parametrize("m", [3, 0, -1])
    def test_m_above_n_is_config_error(self, capsys, m):
        # the words verify uses, not the closed form's "index out of range" or
        # the generator's "m must be >= 1"
        code, out, err = _run(capsys, ["flow", "--n", "2", "--m", str(m), "--hamiltonian", "hL",
                                       "--t", "1", "--point", "1,2,3,4,5"])
        assert (code, out, err) == (2, "", f"error: m={m} must satisfy 1 <= m <= n=2\n")

    @pytest.mark.parametrize("hamiltonian", ["hS", "q1*p1"])
    def test_m_is_read_by_hl_alone(self, capsys, hamiltonian):
        argv = ["flow", "--n", "1", "--hamiltonian", hamiltonian, "--t", "0.5", "--steps", "10",
                "--point", "1,2,3"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert _run(capsys, [*argv, "--m", "3"]) == (0, out, "")

    def test_evaluation_error_exits_two(self, capsys):
        # w goes negative along the flow of log(w), where log is undefined
        code, out, err = _run(capsys, ["flow", "--hamiltonian", "log(w)",
                                       "--point", "0.5,1,1", "--t", "5", "--steps", "10"])
        assert code == 2
        assert out == ""
        assert err == "error: log of a non-positive value\n"


class TestPullbackCommand:
    def test_invariant_case(self, capsys):
        code, out, _ = _run(capsys, ["pullback", "--map", "legendre", "--indices", "1,2",
                                     "--metric", "lambda", "--lambda", "qp",
                                     "--n", "2", "--point", "0.5,1,2,3,4"])
        assert code == 0
        assert json.loads(out)["max_residual"] < 1e-9

    def test_broken_case(self, capsys):
        code, out, _ = _run(capsys, ["pullback", "--map", "legendre", "--indices", "1",
                                     "--metric", "r", "--n", "1", "--point", "1,2,3"])
        assert code == 0
        assert json.loads(out)["max_residual"] == pytest.approx(1.0)

    def test_scaling_map(self, capsys):
        code, out, _ = _run(capsys, ["pullback", "--map", "scaling", "--t", "0.4",
                                     "--metric", "acs", "--n", "1", "--point", "1,2,3"])
        assert code == 0
        assert json.loads(out)["max_residual"] > 0.1  # scalings do not preserve g

    def test_indices_that_are_not_integers_name_the_option(self, capsys):
        code, out, err = _run(capsys, ["pullback", "--point", "0.1,1,2,3,4",
                                       "--indices", "1,a"])
        assert (code, out, err) == (
            2, "", "error: --indices must be comma-separated integers, got '1,a'\n")

    @pytest.mark.parametrize("option, message", [
        # an empty list ran as index 1 and exited 0; index 3 said "index out of range"
        (["--indices", ""], "--indices must be comma-separated integers, got ''"),
        (["--indices", "3"], "--indices must satisfy 1 <= index <= n=2, got '3'"),
        # these said "phase point has non-finite entries" and "math range error"
        (["--map", "scaling", "--t", "nan"], "--t must be finite, got nan"),
        (["--map", "scaling", "--t", "1000"],
         "--t must keep the scaling factor exp(|t|) finite, got 1000.0"),
        # ran as legendre(1,) and exited 0
        (["--indices", "1,1"], "--indices must not repeat an index, got '1,1'"),
        # these said "cannot write the non-finite value nan as JSON" and "phase point has
        # non-finite entries": exp(700)^2 overflows in the pulled-back acs components
        (["--map", "scaling", "--t", "700"],
         "the pulled-back components are not finite for --t 700.0"),
        (["--map", "scaling", "--t", "709"],
         "the pulled-back components are not finite for --t 709.0"),
    ])
    def test_a_bad_map_option_is_named(self, capsys, option, message):
        code, out, err = _run(capsys, ["pullback", "--point", "0.1,1,2,3,4", *option])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_finite_value_is_not_printed(self, capsys):
        code, out, err = _run(capsys, ["pullback", "--map", "legendre", "--indices", "1",
                                       "--metric", "lambda", "--lambda", "1e200*1e200*q1*p1;q2*p2",
                                       "--n", "2", "--point", "0.5,1,2,3,4"])
        assert code == 2
        assert out == ""
        assert err == ("error: the pulled-back components are not finite for "
                       "--metric lambda through legendre(1,)\n")


class TestTableCommand:
    def test_six_rows(self, capsys):
        code, out, _ = _run(capsys, ["table", "--n", "2", "--m", "1",
                                     "--seed", "11", "--points", "10"])
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        rows = [r for r in records if r["check"].startswith("table1.")]
        assert len(rows) == 6
        assert all(r["max_residual"] < 1e-9 for r in rows)
        assert out.encode("utf-8") == (GOLDEN / "table_n2_m1_seed11_p10.jsonl").read_bytes()

    def test_config_file(self, tmp_path, capsys):
        # table is verify with the suite fixed to table1: the config's suite is overridden
        cfg = tmp_path / "run.cfg"
        cfg.write_text('suite = "structures"\nseed = 11\npoints = 10\n')
        code, out, _ = _run(capsys, ["table", "--config", str(cfg), "--n", "2"])
        assert code == 0
        assert out.encode("utf-8") == (GOLDEN / "table_n2_m1_seed11_p10.jsonl").read_bytes()


_POINT = ["--point", "0.2,1.0,-0.8,0.7,1.1"]


@pytest.mark.parametrize("name, argv", [
    ("flow_hL_n2_m1", ["flow", "--n", "2", "--m", "1", "--hamiltonian", "hL", "--t", "0.7",
                       "--steps", "1000", *_POINT]),
    ("flow_hS_n2", ["flow", "--n", "2", "--hamiltonian", "hS", "--t", "0.3", "--steps", "1000",
                    *_POINT]),
    ("flow_parsed_n2", ["flow", "--n", "2", "--hamiltonian", "q1*p2 + sin(w) - cos(q1)/2",
                        "--t", "0.3", "--steps", "500", *_POINT]),
    ("pullback_legendre_n2", ["pullback", "--n", "2", "--map", "legendre", "--indices", "1,2",
                              "--metric", "lambda", "--lambda", "qp", *_POINT]),
    ("pullback_scaling_n2", ["pullback", "--n", "2", "--map", "scaling", "--t", "0.2",
                             "--metric", "acs", *_POINT]),
    ("curvature_acs_n2", ["curvature", "--n", "2", "--metric", "acs", *_POINT]),
    ("curvature_lambda_n2_fit", ["curvature", "--n", "2", "--metric", "lambda", "--lambda",
                                 "q1*p1+3;1.7*q2*p2", "--fit", *_POINT]),
])
def test_command_report_is_golden(capsys, name, argv):
    # byte for byte, like verify's goldens: the commands' option handling is rewritten
    # around the same computations
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.jsonl").read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "commutator", "--n", "1", "--points", "2", "--json", "{missing}"],
    ["verify", "--suite", "commutator", "--n", "1", "--points", "2", "--config", "{config}"],
    ["table", "--n", "1", "--points", "2", "--json", "{missing}"],
    ["curvature", "--point", "0.1,1,2,3,4", "--json", "{missing}"],
    ["flow", "--hamiltonian", "hL", "--t", "0.1", "--steps", "2", "--point", "1,2,3",
     "--json", "{missing}"],
    ["pullback", "--point", "0.1,1,2,3,4", "--json", "{missing}"],
], ids=["verify", "verify_config_output", "table", "curvature", "flow", "pullback"])
def test_an_unwritable_report_path_prints_no_report(tmp_path, capsys, argv):
    # the file is written before stdout, so exit 2 leaves stdout empty
    missing = tmp_path / "no_such_dir" / "report.jsonl"
    config = tmp_path / "run.cfg"
    config.write_text(f"output = {json.dumps(str(missing))}\n")
    argv = [a.format(missing=missing, config=config) for a in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
