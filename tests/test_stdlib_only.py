"""The library has no runtime dependencies: each of its modules imports
only the standard library and its own package.  The measurement scripts
import only the standard library and the library itself, so they run on
a bare Python."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "votefarm"
SCRIPTS = ROOT / "scripts"


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def outside_imports(paths: list[Path], first_party: set[str]) -> list[tuple[str, str]]:
    """(file, module) for each import of neither the standard library nor
    `first_party`."""
    return [
        (path.name, name)
        for path in paths
        for name in absolute_imports(path)
        if name != "__future__" and name not in sys.stdlib_module_names | first_party
    ]


def test_library_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    assert outside_imports(paths, set()) == []


def test_scripts_import_only_the_standard_library_and_votefarm():
    paths = sorted(SCRIPTS.glob("*.py"))
    assert paths, f"no scripts under {SCRIPTS}"
    assert outside_imports(paths, {"votefarm"}) == []
