"""Smoke tests: each script in scripts/ runs on small arguments and prints its summary."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, last_line",
    [
        (
            "coefficient_survey.py",
            ["--max", "7"],
            "  r =   7:     -6  (at p = 5), upper bound held at 6",
        ),
        (
            "theta_kernel_probe.py",
            ["--q", "7", "--p", "3", "--r", "5"],
            "least k with exponent | n^k  = 1  (n^k = 15)",
        ),
    ],
)
def test_script_runs(script, args, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line
