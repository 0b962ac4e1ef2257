"""Every exported or re-exported name resolves, so deletions leave no stale
exports, and every third-party module the tests import is declared."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import helmtrefftz

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(helmtrefftz.__path__)
    if info.name != "__main__"  # importing it would run the CLI
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"helmtrefftz.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"helmtrefftz.{name}.__all__ names {attr!r}"


def test_package_imports_resolve():
    tree = ast.parse(Path(helmtrefftz.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        source = importlib.import_module(f"helmtrefftz.{module}")
        assert hasattr(source, attr), f"helmtrefftz.{module} has no {attr!r}"
        assert getattr(helmtrefftz, attr) is getattr(source, attr)


TESTS = Path(__file__).resolve().parent


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in requirements
    }
    local = {"helmtrefftz", "helpers"}
    test_modules = {path.stem for path in TESTS.glob("*.py")}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.split(".")[0] for name in names):
                if top in local or top in sys.stdlib_module_names:
                    continue
                assert top not in test_modules, f"{path.name} imports test module {top}"
                assert top in declared, f"{path.name} imports undeclared {top!r}"


def test_package_import_leaves_scipy_special_out():
    # scipy.special costs tens of milliseconds of import time; only
    # hankel_case reads it, and imports it when called
    env = dict(os.environ)
    src = str(Path(helmtrefftz.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, helmtrefftz; print('scipy.special' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
