"""The benchmark's output contract, as far as the library can break it.

perfbench/run.py reads the last stdout line of each sweep process as the
result JSON, so any text the library writes to stdout during a sweep,
even without a newline, leaves run.py without a result line.  The
per-layer metrics come from perfbench/tracer.py, which patches names
that helmtrefftz.harness imports; a rename there drops metrics with a
note instead of failing, so the traced sweep is checked here too.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from helmtrefftz.harness import RunConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def strict_json(line):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=reject)


def run_smoke_sweep(mode):
    config = runpy.run_path(str(PERFBENCH / "run.py"))["WORKLOADS"]["smoke"]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "sweep.py"), json.dumps(config), mode],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ready, line, tail = proc.stdout.split("\n", 2)
    assert ready == "ready" and tail == ""
    result = strict_json(line)
    assert result["error"] is None
    assert result["rows"]
    return result


def test_sweep_prints_ready_and_one_strict_json_line():
    run_smoke_sweep("plain")


def test_traced_sweep_records_every_layer():
    layers = runpy.run_path(str(PERFBENCH / "tracer.py"))["HARNESS_LAYERS"]
    expected = set(layers.values())
    expected |= {"solve_pipeline.lu_factor", "solve_pipeline.lu_solve"}
    result = run_smoke_sweep("traced")
    assert result["notes"] == []
    assert expected <= {span["name"] for span in result["spans"]}


def test_run_experiment_writes_nothing_to_stdout(capsys):
    reports = run_experiment(RunConfig(experiment="hankel", degrees=(2,), levels=1))
    assert reports
    assert capsys.readouterr().out == ""
