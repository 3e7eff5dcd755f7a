"""HTTP/1.1 messages are written in one module.

No module under src/wcdscan but http1.py holds a string that writes a start
line (a status line, or the version that ends a request line) or that joins
header lines with CRLF. A module that did would frame messages by a rule of
its own, beside the one ``http1`` keeps for both ends of the wire.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "wcdscan"
OWNER = PACKAGE / "http1.py"
_WIRE = re.compile(r"\AHTTP/1\.\d |\sHTTP/1\.\d(?:\r\n|\Z)|\r\n")


def _writers(path: Path) -> list[tuple[int, str]]:
    """(line, text) of each str or bytes literal in ``path``, f-string parts
    included, that writes a start line or holds a CRLF."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            text = node.value if isinstance(node.value, str) else node.value.decode("latin-1")
            if _WIRE.search(text):
                found.append((node.lineno, text))
    return sorted(found)


def test_only_http1_writes_the_wire_format():
    found = [
        f"{path.relative_to(REPO)}:{line} {text!r}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != OWNER
        for line, text in _writers(path)
    ]
    assert found == []


def test_the_check_finds_each_kind_of_writer(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Speaks HTTP/1.1 with keep-alive."""\n'
        "def response(code, fields):\n"
        '    lines = [f"HTTP/1.0 {code} OK", *fields]\n'
        '    return "\\r\\n".join(lines)\n'
        "def request(method, target):\n"
        '    return f"{method} {target} HTTP/1.1"\n'
        "RAW = b'GET / HTTP/1.1\\r\\nHost: a\\r\\n\\r\\n'\n",
        encoding="utf-8",
    )
    assert [line for line, _ in _writers(module)] == [3, 4, 6, 7]
