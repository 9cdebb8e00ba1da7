"""The README's Python examples run as written against this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def run_block(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    proc = run_block(BLOCKS[index])
    assert proc.returncode == 0, proc.stderr


def test_first_readme_example_prints_its_trailing_comment():
    code = BLOCKS[0]
    expected = code.rstrip().splitlines()[-1].split("# ", 1)[1]
    assert run_block(code).stdout == expected + "\n"
