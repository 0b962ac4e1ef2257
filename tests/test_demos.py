"""Every demo runs to completion against the current library.

The local-space tour takes about a second and runs always; its output
(kernels, particular solution and the three constant diagnostics) must
match tests/data/golden_local_space_diagnostics.txt byte for byte at one
BLAS and OpenMP thread, like the CSV tables of test_golden_csv.py.  The
four sweep demos take about 90 s together and carry the slow marker.
Each runs in a fresh interpreter inside a temporary directory, because
the sweep demos write their CSV tables to the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def run_demo(name, cwd):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


def test_local_space_diagnostics_demo(tmp_path):
    result = run_demo("local_space_diagnostics.py", tmp_path)
    assert result.returncode == 0, result.stderr
    for p in range(2, 7):
        assert f"kernel dim = {2 * p + 1:2d} (= 2p+1)" in result.stdout
    assert "moments residual" in result.stdout
    golden = (DATA / "golden_local_space_diagnostics.txt").read_text()
    assert result.stdout == golden


@pytest.mark.slow
@pytest.mark.parametrize(
    "name",
    [
        "hankel_h_convergence.py",
        "sinsin_p_convergence.py",
        "disk_large_wavenumber.py",
        "variable_wavenumber.py",
    ],
)
def test_sweep_demo(name, tmp_path):
    result = run_demo(name, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "rows written to" in result.stdout
