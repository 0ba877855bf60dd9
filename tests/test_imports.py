"""Every module in the package uses every name it imports, and none rebinds
a module-level name from inside a function.

No linter ships with the project, so deleted code can leave imports behind
unnoticed, and a ``global`` statement makes state that every caller in the
process shares; these guards read each module with the stdlib ``ast`` module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedsplit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    source = "import os\nfrom typing import Sequence, field\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["line 2: field"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def global_statements(source: str) -> list[str]:
    return [
        f"line {node.lineno}: global {', '.join(node.names)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    ]


def test_guard_flags_a_global_statement():
    source = "LIMIT = 1\n\ndef raise_limit():\n    global LIMIT\n    LIMIT = 2\n"
    assert global_statements(source) == ["line 4: global LIMIT"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_global_statement(module):
    assert global_statements(module.read_text(encoding="utf-8")) == []
