"""Every exported or re-exported name resolves, so deletions leave no stale exports."""

import ast
import importlib
import pkgutil
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
