"""The CSV tables of small sweeps are byte-identical to committed ones.

Each table in tests/data was written by `helmtrefftz run` with one BLAS
and OpenMP thread; the same bytes came out with two.  A change that keeps
behaviour keeps these bytes: any change to the arithmetic of assembly,
kernels, preconditioners, LU or error norms moves the last digits of
some error.  A change meant to alter the numbers regenerates the tables
with the commands below and says why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
SRC = DATA.parent.parent / "src"

CONFIGS = {
    "sinsin": ["--experiment", "sinsin", "--p", "2,3,4"],
    "hankel": ["--experiment", "hankel", "--p", "3", "--levels", "1"],
    "varomega": ["--experiment", "varomega", "--p", "3", "--levels", "1"],
    "planewave": [
        "--experiment", "planewave", "--omega", "20", "--p", "2", "--levels", "2",
    ],
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_matches_golden_bytes(name, tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / f"{name}.csv"
    result = subprocess.run(
        [sys.executable, "-m", "helmtrefftz", "run", *CONFIGS[name], "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (DATA / f"golden_{name}.csv").read_bytes()
