"""Import cost follows the command: numpy loads only for a command that computes.

The import checks run in a fresh interpreter each, since this one already
holds numpy.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gatecover import coords
from gatecover.coords import CHAMBER_VERTICES_FRAC, PI, canonicalize, random_chamber_point
from gatecover.qlr import QLR_TABLE_SHA256

SRC = str(Path(__file__).resolve().parents[1] / "src")

# run gatecover.cli's main on argv; print its exit and whether numpy loaded
_MAIN = """
import json, sys
from gatecover.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = f"SystemExit({exc.code})"
print(json.dumps([code, "numpy" in sys.modules]))
"""

# the malformed invocations of the benchmark's cli workload, a --secondary on
# a gate that is not a family, and how each exits
_BAD_INPUTS = (
    (["coverage", "--coord", "pi/4,pi/8"], 2),
    (["analyze", "not_a_gate"], 2),
    (["analyze", "--coord", "pi/0,0,0"], 2),
    (["synth", "b", "fsim:pi/3"], 2),
    (["synth", "cnot", "swap", "--secondary", "pi/4"], 2),
    (["synth", "b"], "SystemExit(2)"),
    (["sweep", "no_family"], "SystemExit(2)"),
    (["sweep", "b_alpha", "--points", "x"], "SystemExit(2)"),
    (["qlr", "--format", "xml"], "SystemExit(2)"),
)


def _python(cwd, *args) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.stdout


def _main(cwd, argv) -> tuple:
    """(exit code or SystemExit, whether numpy loaded) of ``main(argv)``."""
    return tuple(json.loads(_python(cwd, "-c", _MAIN, *argv).splitlines()[-1]))


def test_importing_the_cli_loads_no_numpy(tmp_path):
    out = _python(tmp_path, "-c", "import gatecover.cli, sys; print('numpy' in sys.modules)")
    assert out.split() == ["False"]


def test_qlr_writes_its_table_without_numpy(tmp_path):
    path = tmp_path / "qlr.txt"
    assert _main(tmp_path, ["qlr", "--out", str(path)]) == (0, False)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == QLR_TABLE_SHA256


@pytest.mark.parametrize("argv, code", _BAD_INPUTS, ids=[" ".join(a) for a, _ in _BAD_INPUTS])
def test_usage_errors_exit_without_numpy(tmp_path, argv, code):
    assert _main(tmp_path, argv) == (code, False)


def test_analyze_loads_numpy(tmp_path):
    assert _main(tmp_path, ["analyze", "b"]) == (0, True)


def test_random_chamber_point_draws_as_the_numpy_form():
    vertices = np.array(CHAMBER_VERTICES_FRAC, dtype=float) * PI
    assert np.array_equal(np.array(coords._CHAMBER_VERTICES_RAD), vertices)
    plain, numpy_form = np.random.default_rng(2026), np.random.default_rng(2026)
    for _ in range(500):
        want = canonicalize(tuple(numpy_form.dirichlet(np.ones(4)) @ vertices))
        assert random_chamber_point(plain).astuple() == want.astuple()
    assert plain.random() == numpy_form.random()
