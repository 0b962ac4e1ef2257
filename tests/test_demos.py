"""Every demo, and the README's library quickstart, runs to completion
against the current library.

The local-space tour takes about a second and runs always; its output
(kernels, particular solution and the three constant diagnostics) must
match tests/data/golden_local_space_diagnostics.txt byte for byte at one
BLAS and OpenMP thread, like the CSV tables of test_golden_csv.py.  The
four sweep demos take about 90 s together and carry the slow marker;
the quickstart takes about two seconds and runs always.
Each runs in a fresh interpreter inside a temporary directory, because
the sweep demos write their CSV tables to the working directory.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
DATA = Path(__file__).resolve().parent / "data"


def run_demo(name, cwd):
    return run_python([str(DEMOS / name)], cwd)


def run_python(args, cwd):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
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


def test_readme_quickstart(tmp_path):
    readme = (DEMOS.parent / "README.md").read_text()
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    result = run_python(["-c", code.group(1)], tmp_path)
    assert result.returncode == 0, result.stderr
    dofs, l2, dg = result.stdout.splitlines()
    assert dofs == "4608 7680"  # 512 elements, 2p+1 = 9 and dim P^4 = 15
    for line in (l2, dg):
        assert all(0.0 < float(e) < 1e-3 for e in line.split())


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
