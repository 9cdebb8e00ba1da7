"""No line of the library, the scripts or the tests is longer than 100
characters, so a count of `src/` lines is not shortened by packing more
code onto each line."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 100


def test_no_line_is_longer_than_the_limit():
    paths = sorted(
        path for folder in ("src", "scripts", "tests") for path in (ROOT / folder).rglob("*.py")
    )
    assert paths, f"no Python files under {ROOT}"
    long_lines = [
        (str(path.relative_to(ROOT)), number, len(line))
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > LIMIT
    ]
    assert long_lines == []
