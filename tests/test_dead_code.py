"""No public helper that nothing calls.

Every public top-level function and class in the package and in scripts/
must be named somewhere other than its own definition. The benchmark
harness under perfbench/ drives the package's public API, so the names it
uses count as calls too; tests do not.
"""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFINING = [*sorted((REPO / "src" / "wcdscan").rglob("*.py")),
            *sorted((REPO / "scripts").glob("*.py"))]
CALLING = DEFINING + sorted((REPO / "perfbench").glob("*.py"))
# The paper's incidence test, pinned by acceptance criterion 7 before any
# report calls it (ROADMAP item 6 gives it a caller).
ALLOWED = {"chi_square_2x2"}


def _names(tree: ast.AST):
    """Every identifier ``tree`` refers to: plain names, attributes and the
    last part of each imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _uncalled(defining: list[Path], calling: list[Path]) -> list[tuple[Path, int, str]]:
    """(file, line, name) of each public top-level function or class in
    ``defining`` that no file in ``calling`` names outside its own body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in calling}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    uncalled = []
    for path in defining:
        for node in trees[path].body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and named[node.name] == Counter(_names(node))[node.name]
            ):
                uncalled.append((path, node.lineno, node.name))
    return uncalled


def test_every_public_helper_has_a_caller():
    uncalled = [
        f"{path.relative_to(REPO)}:{line} {name}"
        for path, line, name in _uncalled(DEFINING, CALLING)
        if name not in ALLOWED
    ]
    assert uncalled == []


def test_the_check_finds_a_helper_that_only_calls_itself(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Unused:\n    pass\n",
        encoding="utf-8",
    )
    assert _uncalled([module], [module]) == [(module, 4, "recursive"), (module, 7, "Unused")]
