"""The public surface: every name a module exports exists, the package
re-exports only names that its modules export, and the README's Python
example runs as written."""

import ast
import importlib
import pkgutil
import re
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


def test_readme_python_example(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "0.6 1.6666666666666667",
        "0.25 0.14329199163303613",
    ]
