"""The command line and its scripts, run as separate processes the way a user runs them."""

import os
import pathlib
import subprocess
import sys

import pytest

import accordion_tau

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(accordion_tau.__file__).resolve().parents[1]


def run_python(*argv):
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def run_exhaustive(*argv):
    return run_python(str(ROOT / "scripts" / "run_exhaustive.py"), *argv)


def test_run_exhaustive_rejects_polygons_without_diagonals():
    result = run_exhaustive("--min-m", "2")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--min-m must be at least 4" in result.stderr
    assert "Traceback" not in result.stderr


def test_run_exhaustive_runs_every_registered_driver():
    # consistency takes no structural flag; the shared registry absorbs that
    result = run_exhaustive("--max-m", "5", "--theorem", "consistency", "--structural")
    assert result.returncode == 0, result.stderr
    rows = [line.split()[:5] for line in result.stdout.splitlines()[1:-1]]
    assert rows == [
        ["consistency", "4", "2", "2", "0"],
        ["consistency", "5", "20", "20", "0"],
    ]


def test_run_exhaustive_rejects_sizes_above_the_theorem_ceiling():
    # main stops at m=10 whatever --max-m says, so an m=11 request has no sizes
    result = run_exhaustive("--min-m", "11", "--max-m", "11", "--theorem", "main")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "nothing to run" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--exhaustive", "5", "--theorem", "all"],
        ["--m", "6", "--diagonals", "0-2,0-3,0-4", "--seed", "3"],
    ],
    ids=["exhaustive", "single"],
)
def test_verify_is_the_same_under_python_O(argv):
    # -O strips assert statements; the package's invariants must not need them
    plain = run_python("-m", "accordion_tau", "verify", *argv)
    optimized = run_python("-O", "-m", "accordion_tau", "verify", *argv)
    assert plain.returncode == 0, plain.stderr
    assert '"status": "pass"' in plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_python_m_accordion_tau_runs_the_command_line():
    result = run_python("-m", "accordion_tau", "verify", "--m", "5", "--diagonals", "0-2")
    assert result.returncode == 0, result.stderr
    assert '"status": "pass"' in result.stdout
    for m in ("x", "2"):
        bad = run_python("-m", "accordion_tau", "verify", "--m", m, "--diagonals", "0-2")
        assert bad.returncode == 2
        assert bad.stdout == ""
        assert "Traceback" not in bad.stderr
