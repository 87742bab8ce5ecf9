"""The README's library example runs and shows entropy being produced."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_produces_entropy(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.horizon == 20.0
    assert report.e_telescoped > 0.0
    assert any(abs(f) > 1e-6 for f in report.fluxes.values())
    assert capsys.readouterr().out
