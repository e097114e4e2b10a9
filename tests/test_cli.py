"""End-to-end CLI runs: exit codes 0/1/2/3 and byte-identical output."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import CYCLOID

CMD = [sys.executable, "-m", "dualcurves"]
HELIX = "[2*cos(t), 2*sin(t), t]"
DUAL_HELIX = "[(1 + eps)*cos(t), (1 + eps)*sin(t), t]"
CIRCLE = "[cos(t), sin(t), 0]"
TWO_PI = str(2 * math.pi)


def run(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "DUALCURVE_TOL"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=env, timeout=300)


def test_sample_csv_exit_zero():
    r = run("sample", "--curve", CIRCLE, "--from", "0", "--to", TWO_PI,
            "--n", "5", "--format", "csv")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "t,re_x,re_y,re_z,du_x,du_y,du_z"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_sample_json_schema():
    r = run("sample", "--curve", "[t, t^2, t^3]", "--from", "0", "--to", "2",
            "--n", "2")
    assert r.returncode == 0
    records = json.loads(r.stdout)
    assert records[1]["t"] == 2.0
    assert records[1]["pos"]["re"] == [2.0, 4.0, 8.0]


def test_frenet_json_exit_zero():
    r = run("frenet", "--curve", DUAL_HELIX, "--from", "0.5", "--to", "1.5",
            "--n", "3")
    assert r.returncode == 0, r.stderr
    records = json.loads(r.stdout)
    assert len(records) == 3
    for rec in records:
        assert set(rec) == {"t", "T", "N", "B", "kappa", "tau"}
        assert abs(rec["kappa"]["re"] - 0.5) <= 1e-10
        assert abs(rec["kappa"]["du"]) <= 1e-10
        assert abs(rec["tau"]["re"] - 0.5) <= 1e-10
        assert abs(rec["tau"]["du"] + 0.5) <= 1e-10


def test_parse_error_exit_one_with_caret():
    r = run("sample", "--curve", "[cos(t), sin(t)", "--from", "0", "--to", "1",
            "--n", "2")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "expected ',' or ']'" in r.stderr
    assert "^" in r.stderr


def test_usage_error_exit_one():
    r = run("frenet", "--curve", CIRCLE)
    assert r.returncode == 1
    assert "--from" in r.stderr


def test_bad_lambda_exit_one():
    r = run("bertrand", "check", "--curve", HELIX, "--lambda", "1+",
            "--from", "0", "--to", "6", "--n", "8")
    assert r.returncode == 1
    assert "^" in r.stderr


def test_numeric_error_exit_two_names_parameter():
    r = run("frenet", "--curve", "[t, 0, 0]", "--from", "0", "--to", "1",
            "--n", "3")
    assert r.returncode == 2
    assert "PureDualCurvature" in r.stderr
    assert "t = 0" in r.stderr


def test_involute_cusp_exit_two():
    r = run("involute", "--curve", CIRCLE, "--c", "3", "--from", "0",
            "--to", TWO_PI, "--n", "10")
    assert r.returncode == 2
    assert "CuspPoint" in r.stderr


def test_involute_pure_dual_string_difference_exit_two():
    r = run("involute", "--curve", "[(1 + eps*0.5)*cos(t), (1 + eps*0.5)*sin(t), 0]",
            "--from", "0", "--to", TWO_PI, "--c", "4", "--c2", "4+eps*0.3")
    assert r.returncode == 2
    assert "PureDualVector" in r.stderr
    assert "c1 = 4+eps*0" in r.stderr and "c2 = 4+eps*0.3" in r.stderr


def test_involute_near_cusp_error_names_parameter():
    r = run("involute", "--curve", CIRCLE, "--from", "0", "--to", "6",
            "--c", "0.001", "--c2", "5", "--n", "8")
    assert r.returncode == 2
    assert "PureDualCurvature" in r.stderr and "t = " in r.stderr


@pytest.mark.parametrize("args,env", [
    (("sample", "--curve", "[t, t, t]", "--from", "0", "--to", "inf", "--n", "3"), None),
    (("study", "to-dual", "--point", "inf,0,0", "--dir", "1,0,0"), None),
    (("study", "to-line", "--re", "nan,0,0", "--du", "0,0,0"), None),
    (("bertrand", "check", "--curve", HELIX, "--lambda", "0.5", "--from", "0",
      "--to", "6", "--n", "4", "--tol", "inf"), None),
    (("bertrand", "check", "--curve", HELIX, "--lambda", "0.5", "--from", "0",
      "--to", "6", "--n", "4"), {"DUALCURVE_TOL": "inf"}),
], ids=["range", "point", "re", "tol", "env_tol"])
def test_non_finite_numbers_are_usage_errors(args, env):
    r = run(*args, env_extra=env)
    assert r.returncode == 1
    assert r.stdout == ""
    assert "dualcurve: error:" in r.stderr and "finite" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("sample", "--curve", "[1e999*t, t, t]", "--from", "0", "--to", "1", "--n", "2"),
    ("involute", "--curve", CIRCLE, "--c", "1e999", "--from", "0", "--to", "1"),
], ids=["curve", "string_constant"])
def test_overflowing_literal_is_parse_error(args):
    r = run(*args)
    assert r.returncode == 1
    assert "parse error: number 1e999 overflows a float" in r.stderr
    assert "^" in r.stderr and "Traceback" not in r.stderr


def test_derivative_overflow_exit_two_names_parameter():
    r = run("frenet", "--curve", "[exp(t), t, 0]", "--from", "799", "--to", "801",
            "--n", "2")
    assert r.returncode == 2
    assert "error at t = 799: NonFiniteError" in r.stderr
    assert "Traceback" not in r.stderr


def test_study_not_dual_unit_exit_two():
    r = run("study", "to-line", "--re", "1,0,0", "--du", "1,0,0")
    assert r.returncode == 2
    assert "NotDualUnit" in r.stderr


def test_check_failure_exit_three():
    r = run("bertrand", "check", "--curve", HELIX, "--curve2",
            "[cos(t), sin(t), 3*t]", "--from", "0.3", "--to", "6", "--n", "8")
    assert r.returncode == 3
    report = json.loads(r.stdout)
    assert report["pass"] is False
    assert "normal_alignment" in r.stderr


def test_not_planar_exit_three():
    r = run("involute", "--curve", "[cos(t), sin(t), t]", "--c", "3",
            "--c2", "5", "--from", "0", "--to", TWO_PI, "--n", "8")
    assert r.returncode == 3
    assert "NotPlanar" in r.stderr


def test_bertrand_offset_pass_exit_zero():
    r = run("bertrand", "check", "--curve", HELIX, "--lambda", "1+eps*0",
            "--from", "0", "--to", "12.5", "--n", "12")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["pass"] is True
    names = {c["name"] for c in report["criteria"]}
    assert {"normal_alignment", "distance_constant", "angle_constant",
            "linear_relation"} <= names


def test_involute_pair_exit_zero():
    r = run("involute", "--curve", CIRCLE, "--c", "3", "--c2", "5",
            "--from", "0", "--to", TWO_PI, "--n", "10")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["pass"] is True


def test_involute_pair_parallel_tangents_exit_zero():
    r = run("involute", "--curve", CYCLOID, "--c", "5.9105",
            "--c2", "6.4205+eps*0.1534", "--from", "0.5", "--to", "5.5",
            "--n", "3")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["pass"] is True and report["angles"] is None


def test_study_to_dual_exact_output():
    r = run("study", "to-dual", "--point", "0,0,0", "--dir", "1,0,0")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"re": [1.0, 0.0, 0.0],
                                    "du": [0.0, 0.0, 0.0]}


def test_study_to_line_includes_closest_point():
    r = run("study", "to-line", "--re", "0,1,0", "--du", "-1,0,0")
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert rec["direction"] == [0.0, 1.0, 0.0]
    assert rec["moment"] == [-1.0, 0.0, 0.0]
    assert rec["closest_point"] == [0.0, 0.0, 1.0]


def test_study_roundtrip_exit_zero():
    r = run("study", "--roundtrip", "--n", "100")
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert rec["samples"] == 100 and rec["pass"] is True
    assert rec["max_error"] <= 1e-12


def test_reruns_are_byte_identical():
    args = ("frenet", "--curve", DUAL_HELIX, "--from", "0.2", "--to", "2.2",
            "--n", "9")
    a, b = run(*args), run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    args = ("bertrand", "check", "--curve", HELIX, "--lambda", "1+eps",
            "--from", "0", "--to", "12.5", "--n", "10")
    a, b = run(*args), run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "frame.json"
    r = run("frenet", "--curve", DUAL_HELIX, "--from", "0.5", "--to", "1.5",
            "--n", "2", "--out", str(target))
    assert r.returncode == 0 and r.stdout == ""
    records = json.loads(target.read_text())
    assert len(records) == 2


def test_curve_file_input(tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text(CIRCLE + "\n", encoding="utf-8")
    r = run("sample", "--file", str(path), "--from", "0", "--to", "1",
            "--n", "2", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout.splitlines()[1].startswith("0,1,")


def test_env_tolerance_override():
    # a pair that fails at the default tolerance passes when loosened
    args = ("bertrand", "check", "--curve", HELIX, "--curve2",
            "[2*cos(t) + 1e-4, 2*sin(t), t]", "--from", "0.3", "--to", "6",
            "--n", "8")
    strict = run(*args)
    loose = run(*args, env_extra={"DUALCURVE_TOL": "1e-1"})
    assert strict.returncode == 3
    assert loose.returncode == 0, loose.stderr


def test_bad_env_tolerance_exit_one():
    r = run("sample", "--curve", CIRCLE, "--from", "0", "--to", "1", "--n",
            "2", env_extra={"DUALCURVE_TOL": "abc"})
    # sample never reads the tolerance, so this must still succeed
    assert r.returncode == 0
    r = run("bertrand", "check", "--curve", HELIX, "--lambda", "0",
            "--from", "0", "--to", "6", "--n", "6",
            env_extra={"DUALCURVE_TOL": "abc"})
    assert r.returncode == 1
    assert "DUALCURVE_TOL" in r.stderr


def test_cli_runs_without_scipy():
    code = "import sys, dualcurves.cli; print('scipy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
    src = Path(__file__).resolve().parents[1] / "src"
    scipy_import = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    assert [p.name for p in src.rglob("*.py")
            if scipy_import.search(p.read_text(encoding="utf-8"))] == []
