"""The public surface: every name a module exports exists and is defined
in that module, so each name has one import path; the package itself binds
only its version; every exported class and function has a docstring of its
own; the README's Python example runs as written; and every
module name the README mentions exists, with as many arguments as it takes;
every scenario's manufactured-solution family has the documented form; and
no module under src/ imports a name it never uses or keeps a private
module-level name that nothing reads."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evobeam
from evobeam.core import build_grid
from evobeam.scenarios import SCENARIOS

MODULES = sorted(m.name for m in pkgutil.iter_modules(evobeam.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"evobeam.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"evobeam.{name}")
    objs = {n: getattr(module, n) for n in module.__all__}
    assert [n for n, obj in objs.items() if getattr(obj, "__module__", module.__name__) != module.__name__] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_class_and_function_has_a_docstring(name):
    # a class's own __doc__, not one it inherits; a dataclass without one
    # gets its signature text, "Name(field: type, ...)", which says nothing
    module = importlib.import_module(f"evobeam.{name}")
    undocumented = []
    for n in module.__all__:
        obj = getattr(module, n)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
        if not doc or (dataclasses.is_dataclass(obj) and doc.startswith(f"{obj.__name__}(")):
            undocumented.append(n)
    assert undocumented == []


def test_package_binds_only_its_version():
    bound = [n for n, v in vars(evobeam).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert bound == []
    assert evobeam.__version__


def test_readme_python_example(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "0.6 1.6666666666666667",
        "0.25 0.14329199163308304",
    ]


def _sh_output(readme, command):
    """The lines a README ```sh block prints after ``$ <command>``."""
    block = re.search(rf"```sh\n(?:.*\n)*?\$ {re.escape(command)}\n((?:[^$`].*\n)*)", readme).group(1)
    return block.splitlines()


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    from evobeam.cli import main

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (tmp_path / "beam.cfg").write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    monkeypatch.chdir(tmp_path)
    assert main(["check", "beam.cfg"]) == 0
    assert capsys.readouterr().out.splitlines() == _sh_output(readme, "evobeam check beam.cfg")
    assert main(["run", "beam.cfg"]) == 0
    head = _sh_output(readme, "head -3 out.csv")
    assert (tmp_path / "out.csv").read_text().splitlines()[:2] == head[:2]


def test_readme_module_names_resolve():
    # every `module.name` the README mentions is an attribute of that module
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"`(core|discretize|scenarios|wellposed|integrate|cli)\.([A-Za-z_]\w*)", readme))
    assert len(named) >= 25
    missing = [f"{m}.{n}" for m, n in sorted(named) if not hasattr(importlib.import_module(f"evobeam.{m}"), n)]
    assert missing == []
    # and every mention written with an argument list, `module.name(a, b=1)`,
    # gives as many arguments as the function has positional parameters
    calls = re.findall(r"`(core|discretize|scenarios|wellposed|integrate|cli)\.(\w+)\(([^`]*)\)`", readme)
    assert len(calls) >= 8
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    mismatched = []
    for m, n, args in calls:
        params = inspect.signature(getattr(importlib.import_module(f"evobeam.{m}"), n)).parameters.values()
        if len(args.split(",")) != sum(p.kind in positional for p in params):
            mismatched.append(f"{m}.{n}({args})")
    assert mismatched == []


@pytest.mark.parametrize("scenario", sorted(n for n, spec in SCENARIOS.items() if spec.mms is not None))
def test_every_mms_family_is_sampled_fields_of_its_layout(scenario):
    # a family is a pair of dicts block -> field(x), with field(x)(t) of x's shape
    spec = SCENARIOS[scenario]
    layout = spec.make(build_grid(8), spec.defaults).layout
    fields, rates = spec.mms()
    assert fields.keys() == rates.keys()
    assert set(fields) <= set(layout.field_names())
    for family in (fields, rates):
        for name, field in family.items():
            for x in (layout.points_of(name), np.asarray([0.5])):
                at = field(x)
                assert callable(at)
                assert np.shape(at(0.37)) == x.shape


SRC = Path(evobeam.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree):
    """Every name a module reads, and every attribute name it looks up."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    # __all__ read from the source, not by an import: importing __main__
    # would run the process entry in this process
    exported = set().union(*(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]
    ))
    assert sorted(imported - _loaded_names(tree) - exported) == []


def test_every_private_module_name_is_referenced():
    # a module-level _name that nothing under src/ reads is dead code
    referenced = set().union(*map(_loaded_names, TREES.values()))
    referenced |= {
        alias.name for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    defined = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{name}.{t}" for t in targets if t.startswith("_") and not t.startswith("__")]
    assert [d for d in defined if d.split(".")[1] not in referenced] == []


SOLVER_MODULES = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")
_IMPORT_PROBE = f"""\
import sys
import evobeam
from evobeam.cli import cmd_check, cmd_run, parse_config

def loaded():
    return ",".join(m for m in {SOLVER_MODULES!r} if m in sys.modules)

cfg = parse_config(open(sys.argv[1]).read())
print(loaded())
cmd_check(cfg)
print(loaded())
cmd_run(cfg)
print(loaded())
"""


# each scenario at n = 8, and the beam at n = 5 with sigma0 = 0.7, a grid where
# scaling by w[j] before dividing by w[i] would leave sym(M1) a rounding
# residue off the diagonal
@pytest.mark.parametrize(
    "scenario,n,extra",
    [(name, 8, "") for name in sorted(SCENARIOS)] + [("timoshenko_damped", 5, "sigma0 = 0.7\n")],
    ids=sorted(SCENARIOS) + ["timoshenko_damped-n5-sigma0.7"],
)
def test_check_leaves_the_solver_stack_unloaded(scenario, n, extra, tmp_path):
    # a fresh interpreter, since this one has long loaded every module: the
    # config and the coercivity check need no factorisation, a run does
    path = tmp_path / "cfg.ini"
    path.write_text(
        f"[grid]\nn_cells = {n}\n\n[scenario]\nname = {scenario}\n{extra}\n[output]\ncsv = {tmp_path / 'out.csv'}\n"
    )
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(path)], capture_output=True, text=True, env=env, check=True
    )
    after_parse, after_check, after_run = proc.stdout.split("\n")[:3]
    assert after_parse == after_check == ""
    assert "scipy.sparse.linalg" in after_run.split(",")


@pytest.mark.parametrize("I_tilde,solves", [(0.1, False), (0.0, True)])
def test_consistent_initial_state_loads_the_solver_stack_only_to_solve(I_tilde, solves):
    # with I_tilde = 0.1 every slot has inertia and the state is returned as
    # given; with I_tilde = 0 the trace slot tau_plus is algebraic
    code = f"""\
import sys
import numpy as np
from evobeam.core import build_grid
from evobeam.scenarios import TimoshenkoParams, consistent_initial_state, make_timoshenko_damped

model = make_timoshenko_damped(build_grid(8), TimoshenkoParams(c=0.5, I_tilde={I_tilde}))
print(",".join(m for m in {SOLVER_MODULES!r} if m in sys.modules))
consistent_initial_state(model, np.ones(model.layout.dim))
print(",".join(m for m in {SOLVER_MODULES!r} if m in sys.modules))
"""
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    before, after = proc.stdout.split("\n")[:2]
    assert before == ""
    assert ("scipy.sparse.linalg" in after.split(",")) == solves
