"""Each layer imports only the layers below it, and the package root
imports none: importing one module loads exactly the modules it builds on.
Every name has one home, the module that defines it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CORE = {"core"}
VOTING = CORE | {"voting"}
SIM = {"sim"}
TRANSPORT = CORE | SIM | {"transport"}
VOTER = TRANSPORT | VOTING | {"voter"}
CLIENT = VOTER | {"client"}
HARNESS = CLIENT | {"harness"}
CLI = HARNESS | {"cli"}

LAYERS = {
    "core": CORE,
    "voting": VOTING,
    "sim": SIM,
    "transport": TRANSPORT,
    "voter": VOTER,
    "client": CLIENT,
    "harness": HARNESS,
    "cli": CLI,
}

LOADED = (
    "import importlib, sys\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(' '.join(m.partition('.')[2] for m in sys.modules if m.startswith('votefarm.')))\n"
)


def loaded_by(module: str) -> set[str]:
    """The modules of the votefarm package that a fresh interpreter has
    loaded after importing `module`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, module],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    return set(proc.stdout.split())


def test_the_package_root_loads_no_module():
    assert loaded_by("votefarm") == set()


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_a_module_loads_only_the_layers_beneath_it(module):
    assert loaded_by(f"votefarm.{module}") == LAYERS[module]


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at top level other than by importing them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    """A `from votefarm.M import x` in scripts/ or tests/, and a relative
    import in src/, names the module that defines x, not one that
    re-imports it; from the package itself only modules are imported."""
    package = ROOT / "src" / "votefarm"
    homes = {
        path.stem: defined_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in package.glob("*.py")
        if path.stem != "__init__"
    }
    homes["votefarm"] = set(homes)
    misplaced = []
    dirs = (package, ROOT / "scripts", ROOT / "tests")
    for path in sorted(path for d in dirs for path in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                module = node.module or "votefarm"
            elif (node.module or "").partition(".")[0] == "votefarm":
                module = node.module.rpartition(".")[2]
            else:
                continue
            misplaced += [
                (str(path.relative_to(ROOT)), node.lineno, module, alias.name)
                for alias in node.names
                if alias.name not in homes[module]
            ]
    assert misplaced == []
