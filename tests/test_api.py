"""The public surface: every name a module exports exists, and the package
re-exports only names that its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import evobeam

MODULES = sorted(m.name for m in pkgutil.iter_modules(evobeam.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"evobeam.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(evobeam.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"evobeam.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
