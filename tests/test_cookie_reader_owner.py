"""Cookies are read by RFC 6265's own split, on both ends of the wire.

No module under src/wcdscan imports ``http.cookies`` or ``http.cookiejar``.
``SimpleCookie`` reads a Set-Cookie value by the Cookie-header grammar with
RFC 2109 quoting and gets real sites' cookies wrong, and ``http.cookiejar``
pulls ``urllib.request`` and ``http.client`` into the scanner. The scanner
reads Set-Cookie in ``Identity.store_set_cookie`` and the lab reads Cookie
in ``lab.server.serve``.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "wcdscan"
FORBIDDEN = {"http.cookies", "http.cookiejar"}


def _cookie_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of each import of a forbidden module in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found += [(node.lineno, module) for module in modules if module in FORBIDDEN]
    return sorted(found)


def test_no_module_imports_a_stdlib_cookie_reader():
    found = [
        f"{path.relative_to(REPO)}:{line} {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in _cookie_imports(path)
    ]
    assert found == []


def test_the_check_finds_each_kind_of_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import json\n"
        "from http.cookies import SimpleCookie\n"
        "import http.cookiejar as jar\n"
        "from http import HTTPStatus, cookies\n"
        "def late():\n"
        "    from http import cookiejar\n"
        "from email.utils import formatdate\n",
        encoding="utf-8",
    )
    assert _cookie_imports(module) == [
        (2, "http.cookies"), (3, "http.cookiejar"), (4, "http.cookies"), (6, "http.cookiejar")
    ]
