"""Each layer imports only the layers below it, and the package root
imports none: importing one module loads exactly the modules it builds on.
Every name has one home, the module that defines it."""

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
