"""Smoke test of the benchmark itself, on a tiny hankel sweep (p=3, one level).

Usage: python3 perfbench/smoke.py      (about 20 s; exits 1 on any failed check)

Checks that
  * untraced and traced runs print every metric BENCHMARK.json names, each
    with a unit, plus fail_frac;
  * a perturbed reference row makes fail_frac nonzero and the exit code 1;
  * a directory holding only BENCHMARK.json and perfbench/ exits nonzero
    without printing a result;
  * a harness binding the tracer cannot find drops its metrics with a note.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import Counter

from run import HERE, OUT_DIR, ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seconds", "1"]
    proc = subprocess.run(
        cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def printed(lines):
    """{metric: (value, unit)} from the 'name value unit' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "{")):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def main() -> int:
    errors = []

    def expect(ok, what):
        if not ok:
            print(f"FAIL {what}")
            errors.append(what)

    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines, err = run("--trace", trace)
        expect(code == 0, f"--trace {trace} exits 0 ({err.strip()[-300:]})")
        result = json.loads(lines[-1])
        shown = printed(lines)
        tag = f"--trace {trace}:"
        for m in BENCH[key]:
            name, unit = m["name"], m["unit"]
            got = result["metrics"].get(name, {}).get("unit")
            expect(got == unit, f"{tag} {name} in result with unit {unit}")
            expect(shown.get(name, (0, ""))[1] == unit, f"{tag} {name} printed")
        expect("fail_frac" in shown, f"{tag} fail_frac printed")
        expect(result["correct"] and not result["failed"], f"{tag} rows pass")

    ref = json.loads((HERE / "reference" / "smoke.json").read_text())
    ref["rows"][0]["l2error"] *= 1.5
    OUT_DIR.mkdir(exist_ok=True)
    perturbed = OUT_DIR / "smoke-perturbed.json"
    perturbed.write_text(json.dumps(ref))
    code, lines, _ = run("--trace", "0", "--reference", str(perturbed))
    result = json.loads(lines[-1])
    expect(code == 1, "perturbed reference row: exit code 1")
    expect(
        printed(lines)["fail_frac"][0] > 0 and not result["correct"],
        "perturbed reference row: fail_frac > 0, correct false",
    )

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, bare / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, _ = run("--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(
        code != 0 and not any(ln.startswith("{") for ln in lines),
        "no library: exits nonzero without a result",
    )

    from sweep import harness, layer_metrics
    from tracer import HARNESS_LAYERS, Tracer

    fake = types.SimpleNamespace(
        **{a: getattr(harness, a) for a in HARNESS_LAYERS if a != "_direct_solve"}
    )
    tracer = Tracer()
    tracer.install(fake, types.SimpleNamespace())
    layers, notes = layer_metrics(tracer, 1.0, [], Counter())
    expect(
        "solve_pipeline.direct_other_s" not in layers
        and "solve_pipeline.lu_factor_s" not in layers
        and "mesh.build_s" in layers
        and any("_direct_solve" in n for n in notes),
        "missing binding: dependent metrics dropped with a note",
    )

    print(f"{len(errors)} failed check(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
