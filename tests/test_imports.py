"""Every module in the package uses every name it imports, every name it
defines is used somewhere, every module-level function and class has a caller
outside the tests, and none rebinds a module-level name from inside a
function.

No linter ships with the project, so deleted code can leave imports and
callerless definitions behind unnoticed, and a ``global`` statement makes
state that every caller in the process shares; these guards read each module
with the stdlib ``ast`` module.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedsplit"
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


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Every function and class, at any depth, and every module-level name."""
    found = [
        (node.name, node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if not (name[:2] == name[-2:] == "__")]


def references(tree: ast.AST) -> Counter:
    """Names, attribute names and identifier strings (``getattr`` and
    ``monkeypatch`` targets) under ``tree``."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen[node.value] += 1
    return seen


def module_level(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Every function and class at module level."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(node.name, node) for node in tree.body if isinstance(node, kinds)]


def dead_definitions(
    defining: dict[str, str], referencing: list[str], listed=definitions
) -> list[str]:
    """Definitions (as ``listed`` finds them) in the ``defining`` sources (by
    label) that nothing in ``defining`` or ``referencing`` names outside the
    definition itself."""
    trees = {label: ast.parse(source) for label, source in defining.items()}
    seen = Counter()
    for tree in [*trees.values(), *map(ast.parse, referencing)]:
        seen += references(tree)
    dead = [
        (label, node.lineno, name)
        for label, tree in trees.items()
        for name, node in listed(tree)
        if seen[name] <= references(node)[name]
    ]
    return [f"{label} line {line}: {name}" for label, line, name in sorted(dead)]


def test_guard_flags_a_dead_definition():
    source = (
        "LIMIT = 3\nSPARE = LIMIT\n\n"
        "class Segment:\n"
        "    def __init__(self):\n        self.grad = None\n\n"
        "    def take_input_grad(self):\n        return self.take_input_grad()\n\n"
        "    def backward(self):\n        return self.grad\n\n"
        "def walk(n):\n    return walk(n - 1)\n"
    )
    # an import alone is no use, and neither is a call from inside the body
    caller = "from m import Segment, walk\nSegment().backward()\n"
    assert dead_definitions({"m": source}, [caller]) == [
        "m line 2: SPARE",
        "m line 8: take_input_grad",
        "m line 14: walk",
    ]
    assert dead_definitions({"m": source}, [caller + "walk(SPARE)\n"]) == [
        "m line 8: take_input_grad",
    ]


def test_package_has_no_dead_definition():
    others = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
    defining = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    referencing = [
        p.read_text(encoding="utf-8")
        for folder in others
        for p in sorted(folder.rglob("*.py"))
        if p.parent != PACKAGE or p.name == "__init__.py"
    ]
    assert dead_definitions(defining, referencing) == []


# Module-level names only tests call, each kept because an acceptance
# criterion checks the package against it.
TEST_ONLY = {
    "causal_attention": "03",  # the masked attention op under finite differences
    "compress_mask": "07",  # a dense mask round-trips through its compact form
    "noise_gradient_propagation_check": "08",  # gradient perturbation grows with noise
}


def test_guard_flags_test_only_api():
    source = (
        "def step():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def reference():\n    return step()\n\n"
        "class Probe:\n    def unused(self):\n        return 2\n"
    )
    # ``caller`` stands for the benchmark; tests are not read, so
    # ``reference`` and ``Probe`` are flagged, and the method ``unused`` is
    # left to the dead-definition guard
    caller = "from m import step\nstep()\n"
    assert dead_definitions({"m": source}, [caller], listed=module_level) == [
        "m line 7: reference",
        "m line 10: Probe",
    ]


def test_package_has_no_test_only_api():
    """Every module-level function and class is named by the package or by
    ``perfbench``, except the ``TEST_ONLY`` names, which must still be
    test-only and still named by the acceptance suite, so the list cannot go
    stale."""
    defining = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    referencing = [
        p.read_text(encoding="utf-8")
        for p in [PACKAGE / "__init__.py", *sorted((ROOT / "perfbench").rglob("*.py"))]
    ]
    flagged = dead_definitions(defining, referencing, listed=module_level)
    names = {entry.rsplit(" ", 1)[1] for entry in flagged}
    assert [entry for entry in flagged if entry.rsplit(" ", 1)[1] not in TEST_ONLY] == []
    assert sorted(set(TEST_ONLY) - names) == []
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    named = references(ast.parse(acceptance))
    assert [name for name in TEST_ONLY if not named[name]] == []
