"""The README's documented examples run as written."""

import json
import re
import shlex
from pathlib import Path

import fedsplit.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    return README.read_text(encoding="utf-8").split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(capsys):
    section = readme_section("Library use")
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library use'"
    namespace = {}
    exec(compile(block.group(1), f"{README}:Library use", "exec"), namespace)
    assert len(namespace["records"]) == 20
    assert "->" in capsys.readouterr().out


def quick_start_transcript(section):
    """(argv, expected stdout lines) for each ``$ fedsplit`` line, in order."""
    steps = []
    for block in re.findall(r"```bash\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                words = shlex.split(line[2:])
                assert words[0] == "fedsplit", line
                steps.append((words[1:], []))
            else:
                steps[-1][1].append(line)
    return steps


def test_readme_quick_start_transcript_matches(tmp_path, monkeypatch, capsys):
    section = readme_section("Quick start")
    config = re.search(r"```json\n(.*?)```", section, re.S)
    assert config is not None, "README has no json block under 'Quick start'"
    json.loads(config.group(1))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEDSPLIT_OUTPUT_DIR", raising=False)
    monkeypatch.delenv("FEDSPLIT_ENDPOINT", raising=False)
    (tmp_path / "config.json").write_text(config.group(1))
    steps = quick_start_transcript(section)
    assert [argv[0] for argv, _ in steps] == [
        "train", "generate", "eval", "comm-report", "grid"]
    for argv, expected in steps:
        assert cli.main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        # the README shows no output for some commands (the grid's table)
        if expected:
            assert printed == expected, argv
    assert sum(len(expected) for _, expected in steps) == 7
