"""The README's documented library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library use'"
    namespace = {}
    exec(compile(block.group(1), f"{README}:Library use", "exec"), namespace)
    assert len(namespace["records"]) == 20
    assert "->" in capsys.readouterr().out
