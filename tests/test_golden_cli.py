"""CLI stdout compared byte for byte with committed golden files.

The curves are polynomials with dual coefficients, so every number comes
from + - * / and sqrt, which IEEE 754 rounds correctly: the bytes do not
depend on the platform's libm or BLAS.  Checks that fit with lstsq and
transcendental curves are left out for that reason.
"""

from pathlib import Path

import pytest

from dualcurves.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CUBIC = "[t, (1+eps)*t^2, t^3]"
TWIST = "[(2-eps)*t, t^2 + eps*t, (1+eps)*t^3/3]"

CASES = {
    "sample_cubic.json": ["sample", "--curve", CUBIC, "--from", "-1", "--to", "2",
                          "--n", "7"],
    "sample_twist.csv": ["sample", "--curve", TWIST, "--from", "-1", "--to", "2",
                         "--n", "7", "--format", "csv"],
    "frenet_cubic.json": ["frenet", "--curve", CUBIC, "--from", "-1", "--to", "1",
                          "--n", "5"],
    "frenet_twist.json": ["frenet", "--curve", TWIST, "--from", "-1", "--to", "1",
                          "--n", "4"],
    "offset_cubic.json": ["bertrand", "offset", "--curve", CUBIC, "--lambda",
                          "0.5+eps*2", "--from", "-1", "--to", "1", "--n", "5"],
    "offset_twist.csv": ["bertrand", "offset", "--curve", TWIST, "--lambda", "-1+eps",
                         "--from", "-1", "--to", "1", "--n", "5", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == (GOLDEN / name).read_text(encoding="utf-8")
