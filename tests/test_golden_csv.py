"""The CSV tables of small sweeps are byte-identical to committed ones.

Each table in tests/data was written by `helmtrefftz run` with one BLAS
and OpenMP thread, and the test runs with one.  The four small tables
come out the same with two threads, which a second test checks;
sinsin_high does not: its dgvol p=8 row and both p=12 rows
(orthonormalized kernels, errors at the round-off floor) follow the BLAS
thread count, and with two threads its etvol p=12 L2 error reads
1.174949570693772e-10 instead of 9.408449654907525e-11.  A change
that keeps behaviour keeps these bytes: any change to the arithmetic of
assembly, kernels, preconditioners, LU or error norms moves the last
digits of some error.  A change meant to alter the numbers regenerates
the tables it moves, with the test's own commands, environment and
thread count, and says why:

    python tests/test_golden_csv.py NAME [NAME ...]
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
    "sinsin_high": ["--experiment", "sinsin", "--p", "8,12"],
    "hankel": ["--experiment", "hankel", "--p", "3", "--levels", "1"],
    "varomega": ["--experiment", "varomega", "--p", "3", "--levels", "1"],
    "planewave": [
        "--experiment", "planewave", "--omega", "20", "--p", "2", "--levels", "2",
    ],
}


def _run(name: str, out: Path, threads: str = "1") -> subprocess.CompletedProcess:
    """Write table name to out with `helmtrefftz run` at the given number
    of BLAS and OpenMP threads."""
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "helmtrefftz", "run", *CONFIGS[name], "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_matches_golden_bytes(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    result = _run(name, out)
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (DATA / f"golden_{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(set(CONFIGS) - {"sinsin_high"}))
def test_small_tables_do_not_follow_the_thread_count(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    result = _run(name, out, threads="2")
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (DATA / f"golden_{name}.csv").read_bytes()


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = sorted(set(names) - set(CONFIGS))
    if not names or unknown:
        sys.exit(f"usage: {sys.argv[0]} NAME... with NAME in {sorted(CONFIGS)}")
    for name in names:
        result = _run(name, DATA / f"golden_{name}.csv")
        if result.returncode:
            sys.exit(result.stderr)
        print(f"wrote {DATA / f'golden_{name}.csv'}")
