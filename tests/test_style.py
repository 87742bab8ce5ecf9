"""Style limits that every source file of the package keeps."""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_LINE = 100


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_line_exceeds_the_limit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [n for n, line in enumerate(lines, start=1) if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: lines over {MAX_LINE} characters: {long}"
