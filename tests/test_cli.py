"""Batch front-end: suites, report format, determinism, exit codes."""

import gc
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contactgeo import cli, equilibrium, expr
from contactgeo.cli import CheckRecord, RunConfig, run_suite
from contactgeo.expr import EvalError
from contactgeo.phase_space import PhasePoint

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
    def _assert_golden(capsys, n):
        # byte for byte: a refactor that changes the report must say which bytes and why
        golden = GOLDEN / f"verify_all_n{n}_seed7.jsonl"
        code, out, _ = _run(capsys, ["verify", "--suite", "all", "--n", str(n), "--seed", "7"])
        assert code == 0
        assert out.encode("utf-8") == golden.read_bytes()

    def test_golden_report(self, capsys):
        self._assert_golden(capsys, 2)

    def test_golden_report_n4(self, capsys):
        # the symbolic sums grow as dim^3 and dim^4, so n = 2 alone barely exercises them
        self._assert_golden(capsys, 4)

    def test_report_sweep_prints_exit_code_and_digest(self, capsys):
        # the sweep compares two checkouts; its line must be the run's own code and bytes
        sweep = Path(__file__).parent / "report_sweep.py"
        done = subprocess.run([sys.executable, str(sweep), "1", "0"], capture_output=True,
                              text=True, check=True, timeout=120)
        code, out, _ = _run(capsys, ["verify", "--suite", "all", "--n", "1", "--seed", "0"])
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert done.stdout == f"1 0 {code} {digest}\n"

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
        code, _, err = _run(capsys, ["verify", "--suite", "table1", "--n", "1",
                                     "--m", "2", "--seed", "0"])
        assert code == 2
        assert "error" in err

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
        assert [str(e) for e in lam.exprs] == ["q1", "q9", "q10"]

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
        # a suite that walks no catalog never reads the file
        code, _, _ = _run(capsys, ["verify", "--suite", "heisenberg", "--points", "2",
                                   "--catalog", str(tmp_path / "missing.cfg")])
        assert code == 0 and calls == [str(path)]


class TestRunSuiteApi:
    def test_runs_leave_no_expression_nodes_alive(self):
        # symbolic work lives on nodes owned by the run, so it all dies with the run.
        # exp(S) holds itself through its derivative memo; the intern table keys
        # hold no node, so one collection frees such a cycle and its parent together.
        while gc.collect():
            pass
        before = len(expr._NODES)
        for _ in range(2):
            run_suite(RunConfig(suite="all", n=2, points=2))
        gc.collect()
        assert len(expr._NODES) == before

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
        cases = [0.25, (-0.5, np.array([0.1, -0.3])), np.array([[0.0, 0.2]])]
        for mode, want in (("max", 0.5), ("min", 0.2)):
            check = cli.Check("demo.cases", "a", 1.0, lambda cfg, rng: cases, mode=mode)
            record = cli._run_check(check, RunConfig())
            assert (record.max_residual, record.points, record.mode) == (want, 3, mode)

    @pytest.mark.parametrize("case", [math.nan, (0.5, math.nan), np.array([0.5, -math.inf])])
    def test_non_finite_residual_names_the_check(self, case):
        check = cli.Check("demo.nan", "a", 1.0, lambda cfg, rng: [0.5, case])
        with pytest.raises(EvalError, match="check demo.nan: non-finite residual in case 2"):
            cli._run_check(check, RunConfig())

    def test_unknown_suite_rejected(self):
        with pytest.raises(cli.ConfigError):
            run_suite(RunConfig(suite="bogus"))

    def test_positional_tapes_equal_name_keyed_evaluation(self, monkeypatch):
        # every tape verify compiles against a coordinate order at n=3 reads a
        # point by position exactly as expr.evaluate reads it by name, cold and hot
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
        assert {"TensorField.tape", "CoordinateMap.tape", "CoordinateMap.jacobian_tape",
                "Metric.gamma_tape", "Metric.ricci_tape",
                "LambdaFamily.tape", "LambdaFamily.scaling_tape",
                "_hamiltonian_eta", "_hamiltonian_lie_eta", "FundamentalRelation._value_tape",
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
            hot = compile_(exprs, coords)
            hot._runs = expr._HOT_RUNS  # the next run generates the kernel
            for _ in range(2):
                point = [coordinate(c) for c in coords]
                named = dict(zip(coords, point))
                want = outcome(lambda: [expr.evaluate(e, named) for e in exprs])
                for positional in (tape, compile_(exprs, coords), hot):
                    assert outcome(lambda: positional.run(point)) == want, coords
                values_compared += isinstance(want, list)
            assert hot._kernel is not None
        assert values_compared == 2 * len(compiled)


@pytest.mark.parametrize("argv", [
    ["flow", "--config", "run.cfg", "--hamiltonian", "hL", "--t", "1", "--point", "1,2,3"],
    ["curvature", "--seed", "1", "--metric", "acs", "--n", "1", "--point", "1,2,3"],
    ["pullback", "--points", "5", "--n", "1", "--point", "1,2,3"],
])
def test_commands_reject_options_they_would_ignore(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


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
        monkeypatch.setattr(cli, "_parse_point",
                            lambda csv, n: PhasePoint(1.0, (2.0, 3.0), (4.0, 5.0)))
        code, out, err = _run(capsys, ["flow", "--hamiltonian", "hS", "--n", "1",
                                       "--t", "1", "--point", "1,2,3,4,5"])
        assert (code, out, err) == (2, "", "error: expected 3 coordinate values, got 5\n")

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

    def test_non_finite_value_is_not_printed(self, capsys):
        code, out, err = _run(capsys, ["pullback", "--map", "legendre", "--indices", "1",
                                       "--metric", "lambda", "--lambda", "1e200*1e200*q1*p1;q2*p2",
                                       "--n", "2", "--point", "0.5,1,2,3,4"])
        assert code == 2
        assert out == ""
        assert err == "error: cannot write the non-finite value nan as JSON\n"


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
