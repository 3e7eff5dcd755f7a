"""No public helper that nothing calls, and no attribute that nothing reads.

Every public top-level function and class in the package and in scripts/
must be named somewhere other than its own definition, and every field,
``self.x`` attribute and method of a class in the package must be read. The
benchmark harness under perfbench/ drives the package's public API, so the
names it uses count as calls and reads too; tests do not.
"""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = sorted((REPO / "src" / "wcdscan").rglob("*.py"))
DEFINING = [*PACKAGE, *sorted((REPO / "scripts").glob("*.py"))]
CALLING = DEFINING + sorted((REPO / "perfbench").glob("*.py"))
# The paper's incidence test, pinned by acceptance criterion 7 before any
# report calls it (ROADMAP item 6 gives it a caller).
ALLOWED = {"chi_square_2x2"}
# Attributes that no load in the program names, and why each stays. The
# three fields that only tests read wait for a reader or their removal
# (ROADMAP small follow-ups).
ALLOWED_ATTRIBUTES = {
    "_Handler.handle": "socketserver's request handler calls it for each connection",
    "CacheDecision.reason": "tests pin why a response was or was not stored",
    "AttackSurface.truncated": "tests pin whether the crawl stopped at its budget",
    "HttpExchange.history": "tests pin the redirects that fetch followed",
}


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


def _attribute_reads(tree: ast.AST):
    """Every attribute name ``tree`` loads, and every string constant that
    could name one, since ``getattr(self, "no_store")`` reads ``no_store``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _defined_attributes(cls: ast.ClassDef):
    """(line, name) of each field, method and ``self.x`` attribute ``cls``
    defines. A NamedTuple's fields are read as a tuple (unpacked, hashed,
    walked through ``_fields``) and a dunder method by the language, so
    neither is listed."""
    named_tuple = any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if not named_tuple:
                yield node.lineno, node.target.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.lineno, node.name
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.lineno, node.attr


def _unread_attributes(
    defining: list[Path], reading: list[Path]
) -> list[tuple[Path, int, str]]:
    """(file, line, "Class.name") of each attribute that a class in
    ``defining`` defines and no file in ``reading`` reads. Reads are matched
    by name alone, so an attribute that shares its name with one read on
    another class passes (``CacheControlDirectives.render`` does)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in reading}
    read = {name for tree in trees.values() for name in _attribute_reads(tree)}
    unread = {}
    for path in defining:
        for cls in ast.walk(trees[path]):
            if isinstance(cls, ast.ClassDef):
                for line, name in _defined_attributes(cls):
                    if name not in read:
                        unread.setdefault(f"{cls.name}.{name}", (path, line))
    return sorted((path, line, name) for name, (path, line) in unread.items())


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


def test_every_attribute_is_read():
    found = _unread_attributes(PACKAGE, CALLING)
    unread = [
        f"{path.relative_to(REPO)}:{line} {name}"
        for path, line, name in found
        if name not in ALLOWED_ATTRIBUTES
    ]
    assert unread == []
    # An entry whose attribute has since gained a reader goes too.
    assert set(ALLOWED_ATTRIBUTES) <= {name for _, _, name in found}


def test_the_check_finds_an_attribute_that_nothing_reads(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import NamedTuple\n\n"
        "class Planted:\n"
        "    used: int\n"
        "    unused: int\n\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "        self.dropped = 2\n\n"
        "    def called(self):\n"
        "        return self.used + self.kept + getattr(self, 'by_name')\n\n"
        "    def uncalled(self):\n"
        "        self.by_name = 3\n\n"
        "class Row(NamedTuple):\n"
        "    field: int\n\n"
        "Planted().called()\n",
        encoding="utf-8",
    )
    assert _unread_attributes([module], [module]) == [
        (module, 5, "Planted.unused"),
        (module, 9, "Planted.dropped"),
        (module, 14, "Planted.uncalled"),
    ]
