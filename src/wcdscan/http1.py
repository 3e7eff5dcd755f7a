"""HTTP/1.1 messages (RFC 9112) for both ends of the wire: the one module
that writes them and the one that frames them.

The scanner writes each request with :func:`render_request` and reads the
response with :func:`read_response`; the lab reads each request with
:func:`read_request` and writes the response with :func:`render_response`.
The readers read straight from a buffered binary file over the socket (or
over bytes in memory), and both take their header section from
:func:`read_fields`, their ``Content-Length`` from one parser and their
keep-alive decision from one reading of ``Connection``. A header section is
indexed once, by :func:`index_fields`, as each lowercase name's values in
wire order, and every later lookup reads that index; a request's headers
are handed on as a plain dict of each name's first value.

:func:`render_request` writes the bytes ``http.client`` sends for a URL
that names the host it connects to: the request line, ``Host`` always first
(RFC 9110 section 7.2), then a ``Content-Length`` for a body or for PATCH,
POST and PUT, then the fields in order. :func:`render_response` alone
decides which responses carry no body: a response to HEAD, and a 1xx, 204
or 304 response. It writes the ``Content-Length`` of the body, which a HEAD
response announces without sending, and none on a 1xx, 204 or 304 response
(RFC 9110 section 8.6).

Field values are kept as ``http.client`` keeps them: leading blanks and the
line ending are removed, trailing blanks stay. Limits are ``http.client``'s
as well: 65,536 bytes a line and 100 lines in a header or trailer section.
Where ``http.client`` departs from RFC 9112 or RFC 9110, mostly by
following its e-mail parser, this module follows the RFC:

- an obs-fold line continues the previous value after one space;
- a line with no colon, or whose name is not printable ASCII without
  blanks, is skipped (the e-mail parser ends the header section there);
- a header or trailer section that EOF cuts off before its empty line is
  incomplete (section 8) and raises :class:`FramingError`, where
  ``http.client`` reads the message as whole;
- ``Connection`` is a list of options (RFC 9110 section 7.6.1): a ``close``
  option ends the connection, an option such as ``foo-close`` does not, and
  an HTTP/1.0 message is kept only with a ``keep-alive`` option (or, on a
  response, a ``Keep-Alive`` field or a ``Proxy-Connection`` holding
  ``keep-alive``, as ``http.client`` reads them);
- every 1xx response ahead of the final one is skipped with its fields,
  and a ``101 Switching Protocols`` raises :class:`FramingError`, since
  the bytes after it are not HTTP/1.1 (RFC 9110 section 15.2), where
  ``http.client`` skips only ``100`` and reads any other 1xx as the final
  response, leaving that response on the connection for the next request;
- a 204 or 304 response has no body even with ``Transfer-Encoding:
  chunked``; when it announces one (any ``Transfer-Encoding``, or a
  ``Content-Length`` other than 0) the connection is not kept, so bytes the
  server may send after it never reach the next response;
- a chunk size must be ``1*HEXDIG``, optionally followed by spaces or tabs
  and then extensions or the line end; ``int(..., 16)`` would also read
  ``0x5``, ``1_0``, ``+5`` or a leading blank;
- a ``Content-Length`` that is not ``1*DIGIT`` (``+5``, ``1_0``, ``12abc``,
  blank) frames no body, which is then read to EOF and the connection not
  kept, where ``int()`` would read the first two as numbers;
- ``Content-Length`` lines whose values differ raise :class:`FramingError`,
  whatever the method or status, where http.client uses the first;
- a ``Transfer-Encoding`` overrides ``Content-Length``: the body is chunked
  when the last coding across all its lines is ``chunked``, and is otherwise
  read to EOF and the connection not kept, where http.client reads its
  first line alone and frames by ``Content-Length`` unless that line is
  exactly ``chunked``.

A request whose end cannot be found is refused instead (section 6.3), by
:class:`RequestRefused` and the status a server answers it with: a request
line over the limit (414), not three words or not ``HTTP/x.y`` (400), a
version from 2 up (505), a header section over the limits (431), a method
the server does not serve (501), and a header section or body that EOF cuts
off, a ``Content-Length`` that is not ``1*DIGIT`` or lines that differ, a
final coding other than ``chunked`` or a malformed chunked body (400). A
request with both ``Transfer-Encoding`` and ``Content-Length`` is framed by
the former and its connection not kept (section 6.1).
"""

from __future__ import annotations

import re
from http import HTTPStatus
from typing import BinaryIO, NamedTuple

MAX_LINE = 65536
MAX_HEADERS = 100

_END_OF_FIELDS = (b"\r\n", b"\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;.*)?\r?\n?", re.DOTALL)
_DIGITS = re.compile(r"[0-9]+")
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_REASONS = {status.value: status.phrase for status in HTTPStatus}
# http.client sends Content-Length: 0 for these methods when there is no body.
_METHODS_WITH_BODY = ("PATCH", "POST", "PUT")
# RFC 9110 section 5.6.2: a field name is a token.
FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
# A field value holding one of these would end its line early and let the
# rest pass as further fields or another message (http.client refuses CR
# and LF).
UNSENDABLE_IN_VALUE = re.compile(r"[\x00\r\n]")

Headers = dict[str, list[str]]  # lowercase name -> values in wire order


class FramingError(Exception):
    """A message that does not frame as HTTP/1.1 or breaks a size limit;
    ``status`` is the answer a server gives a request with this fault."""

    def __init__(self, reason: str, status: int = 400):
        super().__init__(reason)
        self.status = status


class RequestRefused(FramingError):
    """A request that cannot be served; ``status`` is the answer to it."""


class Request(NamedTuple):
    """One request as :func:`read_request` frames it."""

    method: str
    target: str
    headers: dict[str, str]  # lowercase name -> its first value
    body: bytes
    keep_alive: bool


def _bodiless(status: int) -> bool:
    """A 1xx, 204 or 304 response, which has no body whatever its fields say."""
    return status < 200 or status in (204, 304)


def render_request(
    method: str, target: str, host: str, fields: list[tuple[str, str]], body: bytes
) -> bytes:
    """A request as ``http.client`` writes it: the request line, ``Host:
    host``, a ``Content-Length`` for a body or for PATCH, POST and PUT, the
    fields in order, and the body. With ``("Transfer-Encoding", "chunked")``
    among the fields, the body goes as one chunk and no ``Content-Length``
    is written."""
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}"]
    if ("Transfer-Encoding", "chunked") in fields:
        body = (b"%x\r\n%s\r\n" % (len(body), body) if body else b"") + b"0\r\n\r\n"
    elif body or method in _METHODS_WITH_BODY:
        lines.append(f"Content-Length: {len(body)}")
    lines += map(": ".join, fields)
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1") + body


def render_response(
    status: int, fields: list[tuple[str, str]], body: bytes, method: str
) -> bytes:
    """The response to a ``method`` request: the status line, the fields in
    order, the ``Content-Length`` of ``body`` and the body. A 1xx, 204 or
    304 response gets neither, and a response to HEAD gets no body."""
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}"]
    lines += map(": ".join, fields)
    if _bodiless(status):
        body = b""
    else:
        lines.append(f"Content-Length: {len(body)}")
    lines.append("\r\n")
    head = "\r\n".join(lines).encode("latin-1")
    return head if method == "HEAD" else head + body


def _readline(fp: BinaryIO, what: str, status: int = 400) -> bytes:
    line = fp.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError(f"{what} longer than {MAX_LINE} bytes", status)
    return line


def read_fields(fp: BinaryIO) -> list[tuple[str, str]]:
    """The header (or trailer) section up to its empty line, as (name,
    value) pairs in wire order. A section that EOF cuts off raises
    :class:`FramingError`, and so does one over the limits (status 431)."""
    fields: list[tuple[str, str]] = []
    for _ in range(MAX_HEADERS):  # the empty line counts, as in http.client
        line = fp.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(f"header line longer than {MAX_LINE} bytes", 431)
        if line in _END_OF_FIELDS:
            return fields
        if not line:
            raise FramingError("header section cut off by EOF")
        text = line.decode("latin-1")
        if text[0] in " \t":
            if fields:  # obs-fold
                name, value = fields[-1]
                fields[-1] = (name, value + " " + text.strip(" \t\r\n"))
            continue
        name, colon, value = text.partition(":")
        if colon and name and name.isascii() and name.isprintable() and " " not in name:
            fields.append((name, value.lstrip(" \t").rstrip("\r\n")))
    raise FramingError(f"more than {MAX_HEADERS} lines in a header section", 431)


def _status_line(fp: BinaryIO) -> tuple[str, int]:
    line = _readline(fp, "status line")
    if not line:
        raise FramingError("connection closed before a status line")
    words = line.decode("latin-1").split(None, 2)
    try:
        version, status = words[0], int(words[1])
    except (IndexError, ValueError):
        raise FramingError(f"bad status line {line!r}") from None
    if not version.startswith("HTTP/") or not 100 <= status <= 999:
        raise FramingError(f"bad status line {line!r}")
    return version, status


def _read_exactly(fp: BinaryIO, size: int) -> bytes:
    data = fp.read(size)
    if len(data) < size:
        raise FramingError(f"body ended {size - len(data)} bytes short")
    return data


def read_chunked(fp: BinaryIO) -> bytes:
    """Read a chunked body and its trailer section; return the body, with
    chunk extensions and trailers dropped."""
    chunks = []
    while True:
        line = _readline(fp, "chunk size line")
        match = _CHUNK_SIZE.fullmatch(line)  # extensions dropped
        if match is None:
            raise FramingError(f"bad chunk size line {line!r}")
        size = int(match[1], 16)
        if size == 0:
            break
        chunks.append(_read_exactly(fp, size))
        _read_exactly(fp, 2)  # the CRLF after the chunk data
    read_fields(fp)  # the trailers
    return b"".join(chunks)


def index_fields(fields: list[tuple[str, str]]) -> Headers:
    """The fields by lowercase name, in first-seen order, with each name's
    values in wire order."""
    index: Headers = {}
    for name, value in fields:
        index.setdefault(name.lower(), []).append(value)
    return index


def final_coding(values: list[str]) -> str:
    """The last transfer coding that ``Transfer-Encoding`` lines with these
    values list, lowercased; "" when they list none."""
    codings = [c.strip(" \t") for value in values for c in value.split(",")]
    return next((c.lower() for c in reversed(codings) if c), "")


def _first(headers: Headers, name: str, default: str = "") -> str:
    values = headers.get(name)
    return values[0] if values else default


def _content_length(headers: Headers) -> int | None:
    """The body length ``Content-Length`` gives, or None when the field is
    absent or not ``1*DIGIT``; lines whose values differ raise
    :class:`FramingError`."""
    lines = headers.get("content-length")
    if lines is None:
        return None
    values = {value.strip(" \t") for value in lines}
    if len(values) > 1:
        raise FramingError(f"differing Content-Length values {sorted(values)}")
    (value,) = values
    return int(value) if _DIGITS.fullmatch(value) else None


def _persistent(headers: Headers, http11: bool) -> bool:
    """Whether the ``Connection`` options let the connection outlive this
    message (RFC 9112 section 9.3): never with ``close`` among them, and
    otherwise from HTTP/1.1 on or with ``keep-alive`` among them."""
    values = headers.get("connection")
    if values is None:
        return http11
    options = {o.strip(" \t").lower() for value in values for o in value.split(",")}
    return "close" not in options and (http11 or "keep-alive" in options)


def read_response(fp: BinaryIO, method: str) -> tuple[int, Headers, bytes, bool]:
    """Read one response to ``method``: (status, header index as
    :func:`index_fields` builds it, body, keep-alive).

    Every 1xx interim response ahead of the final one is skipped, and a
    ``101 Switching Protocols`` raises :class:`FramingError` (RFC 9110
    section 15.2). The body is chunked,
    ``Content-Length`` bytes, or everything up to EOF (and then the
    connection is not kept); a ``Transfer-Encoding`` overrides
    ``Content-Length`` (RFC 9112 section 6.3). Any framing fault raises
    :class:`FramingError`.
    """
    version, status = _status_line(fp)
    while status < 200:
        if status == 101:
            raise FramingError("101 Switching Protocols: the connection leaves HTTP/1.1")
        read_fields(fp)
        version, status = _status_line(fp)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        http11 = False
    elif version.startswith("HTTP/1."):
        http11 = True
    else:
        raise FramingError(f"unsupported protocol {version!r}")
    headers = index_fields(read_fields(fp))
    length = _content_length(headers)
    # An HTTP/1.0 response is also kept on the fields http.client reads.
    keep_alive = _persistent(headers, http11) or (not http11 and (
        bool(_first(headers, "keep-alive"))
        or "keep-alive" in _first(headers, "proxy-connection").lower()
    ))

    if method == "HEAD":
        return status, headers, b"", keep_alive
    if _bodiless(status):
        announced = (
            "transfer-encoding" in headers
            or _first(headers, "content-length", "0").strip() != "0"
        )
        return status, headers, b"", keep_alive and not announced
    codings = headers.get("transfer-encoding")
    if codings is not None:
        if final_coding(codings) == "chunked":
            return status, headers, read_chunked(fp), keep_alive
        return status, headers, fp.read(), False
    if length is None:
        return status, headers, fp.read(), False
    return status, headers, _read_exactly(fp, length), keep_alive


def read_request(fp: BinaryIO, methods: tuple[str, ...]) -> Request | None:
    """Read one request whose method is one of ``methods``; None at EOF or
    at an empty request line. A request that cannot be served raises
    :class:`RequestRefused`, after which the bytes left on the connection
    do not frame and it must end."""
    try:
        line = _readline(fp, "request line", 414)
        words = line.decode("latin-1").split()
        if not words:
            return None
        match = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if match is None:
            raise FramingError(f"bad request line {line!r}")
        method, target, _ = words
        version = int(match[1]), int(match[2])
        if version >= (2, 0):
            raise FramingError(f"unsupported protocol {words[2]!r}", 505)
        headers = index_fields(read_fields(fp))
        if method not in methods:
            raise FramingError(f"method {method!r} not served", 501)
        length = _content_length(headers)
        codings = headers.get("transfer-encoding")
        if codings is not None:
            if final_coding(codings) != "chunked":
                raise FramingError(f"final transfer coding of {codings} is not chunked")
            body = read_chunked(fp)
        elif length is None and "content-length" in headers:
            raise FramingError(f"bad Content-Length {headers['content-length']}")
        else:
            body = _read_exactly(fp, length) if length else b""
    except FramingError as exc:
        raise RequestRefused(str(exc), exc.status) from None
    # A Transfer-Encoding overrides Content-Length; both at once may be a
    # smuggling attempt, so that connection is not kept (section 6.1).
    keep_alive = _persistent(headers, version >= (1, 1)) and not (
        codings and "content-length" in headers
    )
    first = {key: values[0] for key, values in headers.items()}
    return Request(method, target, first, body, keep_alive)
