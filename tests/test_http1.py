"""HTTP/1.1 framing and writing. Responses are framed against
``http.client.HTTPResponse`` as the reference: both read the same raw bytes
and must agree on what ``fetch`` keeps. The differences chosen on purpose
are pinned one by one below. Requests are framed as the lab reads them, and
each writer's output is read back by the matching reader."""

import http.client
import io
import string
from http import HTTPStatus

import pytest
from hypothesis import example, given, settings, strategies as st

from wcdscan.http1 import (
    MAX_LINE,
    FramingError,
    Request,
    RequestRefused,
    index_fields,
    read_request,
    read_response,
    render_request,
    render_response,
)
from wcdscan.url_toolkit import PathConfusionTechnique, make_attack_url, parse_url


class _EofRecorder(io.BufferedReader):
    """Notes whether a line read ever met EOF. http.client reads each line
    of a header or trailer section this way and ends the section at EOF;
    where it reads a status or chunk size line, EOF is already an error."""

    eof_in_a_line = False

    def readline(self, size=-1):
        line = super().readline(size)
        self.eof_in_a_line |= not line
        return line


class _FakeSocket:
    def __init__(self, data: bytes):
        self.reader = _EofRecorder(io.BytesIO(data))

    def makefile(self, *_args, **_kwargs):
        return self.reader


def _stored(headers) -> tuple[tuple[str, str], ...]:
    """A header index as ``HttpExchange.header`` reads it: each lowercase
    name with its values joined, in first-seen order."""
    return tuple((name, ", ".join(values)) for name, values in headers.items())


def _http_client(raw: bytes, method: str):
    """(status, merged headers, body, keep-alive) as http.client reads them,
    or the exception class it raises; and whether it read a header or
    trailer section up to EOF."""
    sock = _FakeSocket(raw)
    response = http.client.HTTPResponse(sock, method=method)
    try:
        response.begin()
        body = response.read()
    except Exception as exc:  # every failure ends as NetworkError in fetch
        return type(exc), sock.reader.eof_in_a_line
    headers = _stored(index_fields(response.getheaders()))
    return (response.status, headers, body, not response.will_close), sock.reader.eof_in_a_line


def _reference(raw: bytes, method: str):
    return _http_client(raw, method)[0]


def _framed(raw: bytes, method: str):
    try:
        status, headers, body, keep_alive = read_response(
            io.BufferedReader(io.BytesIO(raw)), method
        )
    except FramingError as exc:
        return type(exc)
    return status, _stored(headers), body, keep_alive


def _agree(raw: bytes, method: str = "GET", interim: bytes = b""):
    """Both readers agree on ``raw``, which this module reads after the
    interim responses ``interim``, except that differing Content-Length
    values raise FramingError where http.client uses the first, a 204 or
    304 response that announces a body closes the connection where
    http.client keeps it, a header or trailer section cut off by EOF raises
    FramingError where http.client reads the message as whole, and a 1xx
    that http.client reads as the final response raises FramingError: a
    101 always, any other because no final response follows it here (all
    pinned in TestPinnedDifferences)."""
    (expected, cut_off), got = _http_client(raw, method), _framed(interim + raw, method)
    if not isinstance(expected, type):
        if _lengths_differ(expected) or cut_off or expected[0] < 200:
            expected = FramingError
        elif _announces_a_body(expected, method):
            expected = expected[:3] + (False,)
    if isinstance(expected, type):
        assert got is FramingError, (raw, expected)
    else:
        assert got == expected, raw
    return got


def _lengths_differ(result) -> bool:
    """The Content-Length lines of a response hold differing values."""
    _status, headers, _body, _keep_alive = result
    for name, joined in headers:
        if name.lower() == "content-length":
            return len({value.strip(" \t") for value in joined.split(", ")}) > 1
    return False


def _announces_a_body(result, method: str) -> bool:
    """A no-body status whose headers announce a body anyway: a
    Transfer-Encoding, or a first Content-Length value other than 0."""
    status, headers, _body, _keep_alive = result
    if method == "HEAD" or status not in (204, 304):
        return False
    fields = {name.lower(): value for name, value in headers}
    length = fields.get("content-length", "0").split(",")[0]
    return "transfer-encoding" in fields or length.strip() != "0"


_NAMES = st.sampled_from(
    ["Content-Type", "content-type", "X-Cache", "x-cache", "X-CACHE", "Set-Cookie", "Location",
     "Via", "Age", "Cache-Control", "Content-Encoding", "Keep-Alive", "Proxy-Connection",
     "X-Empty", "Server"]
)
# Field values as servers send them: any visible latin-1 text with inner
# blanks, plus leading and trailing spaces and tabs.
_VALUES = st.builds(
    lambda lead, text, trail: lead + text + trail,
    st.sampled_from(["", " ", "  ", "\t", " \t"]),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f"),
            max_size=20).map(str.strip),
    st.sampled_from(["", " ", "\t", " \t "]),
)
_BODIES = st.binary(max_size=64)


@st.composite
def _chunked(draw, body: bytes) -> bytes:
    out, rest = b"", body
    while rest:
        size = draw(st.integers(1, len(rest)))
        digits = f"{size:x}"
        digits = draw(st.sampled_from([digits, digits.upper(), digits.rjust(4, "0")]))
        extension = draw(st.sampled_from(["", ";ext", ";name=value", " ;a=1;b"]))
        out += f"{digits}{extension}\r\n".encode() + rest[:size] + b"\r\n"
        rest = rest[size:]
    last = draw(st.sampled_from(["0", "000", "0;done"]))
    trailers = draw(st.sampled_from(["", "Expires: never\r\n", "A: 1\r\nB: 2\r\n"]))
    return out + f"{last}\r\n{trailers}\r\n".encode()


@st.composite
def responses(draw):
    """(raw response bytes, request method, interim responses to read
    ahead of them)."""
    method = draw(st.sampled_from(["GET", "GET", "HEAD"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/0.9", "HTTP/1.2"]))
    status = draw(st.sampled_from([200, 200, 201, 204, 206, 301, 302, 304, 404, 500, 101, 199]))
    reason = draw(st.sampled_from(["", " ", " OK", " Some Reason"]))
    lines = [f"{version} {status}{reason}"]
    for name, value in draw(st.lists(st.tuples(_NAMES, _VALUES), max_size=6)):
        lines.append(f"{name}:{value}" if draw(st.booleans()) else f"{name}: {value}")
    # A body announced on these is a pinned difference.
    no_body = status < 200 or status in (204, 304)
    body = b"" if no_body else draw(_BODIES)
    framing = draw(st.sampled_from(
        ["length", "none", "two-lengths"] if no_body else
        ["length", "length", "none", "bad-length", "negative-length", "empty-length",
         "two-lengths", "chunked", "chunked", "Chunked"]
    ))
    if framing == "length":
        lines.append(f"Content-Length: {len(body)}")
    elif framing == "bad-length":
        lines.append("Content-Length: 12abc")
    elif framing == "negative-length":
        lines.append("Content-Length: -4")
    elif framing == "empty-length":
        lines.append("Content-Length:")
    elif framing == "two-lengths":
        lines += [f"content-length: {len(body)}", f"Content-Length: {len(body) + 3}"]
    elif framing in ("chunked", "Chunked"):
        lines.append(f"Transfer-Encoding: {framing}")
        body = draw(_chunked(body))
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Keep-Alive", "CLOSE"]))
    if connection:
        lines.insert(draw(st.integers(1, len(lines))), f"Connection: {connection}")
    raw = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    if draw(st.integers(0, 4)) == 0:  # truncated anywhere
        raw = raw[: draw(st.integers(0, len(raw)))]
    interim = b"".join(
        f"HTTP/1.1 {status} X\r\nX-Note: go on\r\n\r\n".encode()
        for status in draw(st.lists(st.sampled_from([100, 102, 103, 199]), max_size=2))
    )
    return raw, method, interim


@settings(max_examples=400, deadline=None)
@given(responses())
@example((b"HTTP/1.1 204 X\r\nContent-Length:", "GET", b""))
@example((b"HTTP/1.1 304 X\r\nContent-Length:", "GET", b""))
def test_framing_agrees_with_http_client(case):
    _agree(*case)


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        b"HTTP/1.1\r\n\r\n",
        b"HTTQ/1.1 200 OK\r\n\r\n",
        b"HTTP/1.1 20x OK\r\n\r\n",
        b"HTTP/1.1 99 Low\r\n\r\n",
        b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 99 + b"\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 100 + b"\r\n",
        b"HTTP/1.1 200 OK\r\nX: " + b"v" * 65531 + b"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX: " + b"v" * 65532 + b"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nabc",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n",
        b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nKeep-Alive: timeout=5\r\n\r\nok",
        b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nProxy-Connection: keep-alive\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
    ],
    ids=["empty", "no-status", "not-http", "bad-status", "status-below-100", "http2",
         "99-headers", "100-headers", "longest-line", "line-too-long", "bad-chunk-size",
         "chunk-cut-short", "trailer-cut-at-eof", "headers-cut-at-eof", "http10-keep-alive",
         "http10-proxy-connection", "close-in-a-list", "bare-newlines"],
)
def test_edge_cases_agree_with_http_client(raw):
    _agree(raw)


def _tail(raw: bytes):
    """(body, keep-alive) of a GET's response as ``read_response`` reads
    it, or FramingError."""
    framed = _framed(raw, "GET")
    return framed if framed is FramingError else framed[2:]


def _unless_101(status: int, tail):
    """``tail``, or FramingError for a 101: the bytes after a 101 speak
    another protocol (RFC 9110 section 15.2), so they frame nothing,
    whatever fields the 101 carries."""
    return FramingError if status == 101 else tail


class TestPinnedDifferences:
    """Where http.client follows its e-mail parser and this module follows
    RFC 9112 (sections 5.2, 6.3 and 8) and RFC 9110 (sections 7.6.1 and
    15.2). http.client reads a 101 as a final response without a body; here
    it is refused."""

    def test_obs_fold_continues_the_value_after_one_space(self):
        raw = b"HTTP/1.1 200 OK\r\nX-A: one\r\n  two\r\nContent-Length: 0\r\n\r\n"
        assert _framed(raw, "GET")[1] == (("x-a", "one two"), ("content-length", "0"))
        assert _reference(raw, "GET")[1] == (("x-a", "one\r\n  two"), ("content-length", "0"))

    @pytest.mark.parametrize("bad", [b"no colon here", b"Bad Name: x", b": no name"])
    def test_a_malformed_line_is_skipped(self, bad):
        raw = b"HTTP/1.1 200 OK\r\nX-A: 1\r\n" + bad + b"\r\nContent-Length: 2\r\n\r\nok"
        status, headers, body, keep_alive = _framed(raw, "GET")
        assert headers == (("x-a", "1"), ("content-length", "2")) and body == b"ok"
        assert keep_alive
        reference = _reference(raw, "GET")
        if bad.startswith(b":"):  # http.client drops just that line
            assert reference == (status, headers, body, keep_alive)
        else:  # http.client ends the header section there and reads to EOF
            assert reference == (200, (("x-a", "1"),), b"ok", False)

    @pytest.mark.parametrize("status", [204, 304, 101])
    def test_no_body_status_ignores_chunked(self, status):
        raw = (f"HTTP/1.1 {status} X\r\nTransfer-Encoding: chunked\r\n\r\n".encode()
               + b"2\r\nok\r\n0\r\n\r\n")
        assert _tail(raw) == _unless_101(status, (b"", False))  # the chunk stays unread: close
        assert _reference(raw, "GET")[2:] == (b"ok", True)

    @pytest.mark.parametrize("status", [204, 304, 101])
    @pytest.mark.parametrize("length", ["2", "x", " 2", ""])
    def test_no_body_status_with_a_length_is_not_kept(self, status, length):
        raw = f"HTTP/1.1 {status} X\r\nContent-Length: {length}\r\n\r\nok".encode()
        assert _tail(raw) == _unless_101(status, (b"", False))
        assert _reference(raw, "GET")[2:] == (b"", True)  # "ok" is left for the next response

    @pytest.mark.parametrize("status", [204, 304, 101])
    def test_no_body_status_with_length_0_is_kept(self, status):
        _agree(f"HTTP/1.1 {status} X\r\nContent-Length: 0\r\n\r\n".encode())

    @pytest.mark.parametrize("status", [102, 103, 199])
    def test_every_interim_response_is_skipped(self, status):
        final = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\npage"
        raw = f"HTTP/1.1 {status} X\r\nLink: </a.css>\r\n\r\n".encode() + final
        assert _framed(raw, "GET") == _framed(final, "GET") == (
            200, (("content-length", "4"),), b"page", True
        )
        # http.client reads the interim response as the final one and
        # leaves the real one on the connection for the next request.
        assert _reference(raw, "GET") == (status, (("link", "</a.css>"),), b"", True)

    @pytest.mark.parametrize("size, length", [(b"0x5", 5), (b"1_0", 16), (b"+5", 5), (b" 5", 5)])
    def test_chunk_size_must_be_hex_digits(self, size, length):
        raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               + size + b"\r\n" + b"x" * length + b"\r\n0\r\n\r\n")
        assert _framed(raw, "GET") is FramingError
        assert _reference(raw, "GET")[2:] == (b"x" * length, True)

    @pytest.mark.parametrize("size", [b"5 ;ext", b"5\t;a=1", b"5  ", b"5;"])
    def test_blanks_may_end_a_chunk_size(self, size):
        raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               + size + b"\r\nhello\r\n0\r\n\r\n")
        assert _agree(raw)[2:] == (b"hello", True)

    @pytest.mark.parametrize("length, read", [("+5", 5), ("1_0", 10)])
    def test_a_length_that_is_not_digits_frames_no_body(self, length, read):
        raw = f"HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n".encode() + b"y" * 12
        assert _framed(raw, "GET")[2:] == (b"y" * 12, False)  # read to EOF, not kept
        assert _reference(raw, "GET")[2:] == (b"y" * read, True)

    def test_connection_is_a_list_of_options(self):
        raw = b"HTTP/1.1 200 OK\r\nConnection: foo-close\r\nContent-Length: 2\r\n\r\nok"
        assert _framed(raw, "GET")[2:] == (b"ok", True)
        assert _reference(raw, "GET")[2:] == (b"ok", False)  # a substring match on "close"

    @pytest.mark.parametrize(
        "raw",
        [b"HTTP/1.1 200 OK", b"HTTP/1.1 204 X\r\nContent-Length: 0\r\n",
         b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r",
         b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\nA: 1\r\n"],
        ids=["status-line-only", "no-empty-line", "half-an-empty-line", "trailers"],
    )
    def test_a_section_cut_off_by_eof_raises(self, raw):
        assert _framed(raw, "GET") is FramingError
        assert not isinstance(_reference(raw, "GET"), type)  # http.client reads it as whole

    @pytest.mark.parametrize("method", ["GET", "HEAD"])
    @pytest.mark.parametrize("status", [200, 204])
    def test_differing_lengths_raise(self, method, status):
        raw = (f"HTTP/1.1 {status} X\r\nContent-Length: 0\r\ncontent-length: 5\r\n\r\n"
               .encode() + b"hello")
        assert _framed(raw, method) is FramingError
        assert not isinstance(_reference(raw, method), type)  # http.client reads the first

    def test_repeated_equal_lengths_frame_the_body(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length:  2 \r\n\r\nok"
        assert _agree(raw)[2:] == (b"ok", True)

    def test_a_final_chunked_coding_overrides_the_length(self):
        raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\nContent-Length: 3\r\n\r\n"
               b"5\r\nhello\r\n0\r\n\r\n")
        assert _framed(raw, "GET")[2:] == (b"hello", True)
        assert _reference(raw, "GET")[2:] == (b"5\r\n", True)  # framed by Content-Length

    def test_a_final_coding_other_than_chunked_reads_to_eof(self):
        raw = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: gzip\r\n\r\n"
               b"5\r\nhello\r\n0\r\n\r\n")
        assert _framed(raw, "GET")[2:] == (b"5\r\nhello\r\n0\r\n\r\n", False)
        assert _reference(raw, "GET")[2:] == (b"hello", True)  # reads the first line alone


# Request framing, as the lab reads it. The refusals are those that
# tests/test_lab.py::TestRequestFraming sends to the lab over a socket.

_METHODS = ("GET", "HEAD", "POST")


def _request(raw: bytes) -> Request | None:
    return read_request(io.BufferedReader(io.BytesIO(raw)), _METHODS)


def _refusal(raw: bytes) -> int:
    with pytest.raises(RequestRefused) as caught:
        _request(raw)
    assert isinstance(caught.value, FramingError)
    return caught.value.status


class TestReadRequest:
    @pytest.mark.parametrize(
        "request_line,status",
        [(b"GET /a b HTTP/1.1", 400), (b"PUT / HTTP/1.1", 501), (b"get / HTTP/1.1", 501),
         (b"GET / HTTP/1.x", 400), (b"GET / HTTP/2.0", 505), (b"GET /", 400),
         (b"GET / HTTP/1.1 x", 400)],
        ids=["malformed", "unknown-method", "lowercase-method", "bad-version", "version-2",
             "two-words", "four-words"],
    )
    def test_a_bad_request_line_is_refused(self, request_line, status):
        assert _refusal(request_line + b"\r\nHost: pacing.test\r\n\r\n") == status

    @pytest.mark.parametrize(
        "head,tail,status",
        [(b"GET /", b" HTTP/1.1\r\n", 414),
         (b"GET / HTTP/1.1\r\nHost: pacing.test\r\nX-Long: ", b"\r\n", 431)],
        ids=["long-request-line", "long-header-line"],
    )
    def test_a_line_longer_than_the_limit_is_refused(self, head, tail, status):
        last_line = len(head) - (head.rfind(b"\n") + 1) + len(tail)
        assert _refusal(head + b"a" * (MAX_LINE + 1 - last_line) + tail) == status

    def test_too_many_header_lines_are_refused(self):
        fields = b"".join(b"X-%d: 1\r\n" % i for i in range(100))
        assert _refusal(b"GET / HTTP/1.1\r\n" + fields + b"\r\n") == 431

    @pytest.mark.parametrize(
        "lengths",
        [["-5"], ["+3"], ["1_0"], ["3abc"], [""], ["3", "4"]],
        ids=["negative", "plus", "underscore", "trailing-junk", "empty", "differing"],
    )
    def test_a_length_that_is_not_digits_is_refused(self, lengths):
        head = b"POST / HTTP/1.1\r\nHost: pacing.test\r\n" + b"".join(
            b"Content-Length: %s\r\n" % length.encode() for length in lengths
        )
        assert _refusal(head + b"\r\nGET /smuggled HTTP/1.1\r\n\r\n") == 400

    @pytest.mark.parametrize(
        "codings",
        [[b"chunked, gzip"], [b"chunked", b"gzip"], [b"gzip"], [b" , "]],
        ids=["gzip-last", "gzip-on-a-later-line", "gzip-alone", "none-listed"],
    )
    def test_a_final_coding_other_than_chunked_is_refused(self, codings):
        head = b"POST / HTTP/1.1\r\nHost: pacing.test\r\n" + b"".join(
            b"Transfer-Encoding: %s\r\n" % coding for coding in codings
        )
        assert _refusal(head + b"\r\n3\r\nabc\r\n0\r\n\r\n") == 400

    @pytest.mark.parametrize(
        "body",
        [b"0x3\r\nabc\r\n0\r\n\r\n", b"5\r\nabc", b"3\r\nabc\r\n0\r\n",
         b"3\r\nabc\r\n0\r\nA: 1\r\n"],
        ids=["hex-prefix", "short", "no-trailer-end", "trailer-cut-at-eof"],
    )
    def test_a_malformed_chunked_body_is_refused(self, body):
        head = b"POST / HTTP/1.1\r\nHost: pacing.test\r\nTransfer-Encoding: chunked\r\n\r\n"
        assert _refusal(head + body) == 400

    def test_too_many_trailer_lines_are_refused(self):
        trailers = b"".join(b"X-%d: 1\r\n" % i for i in range(100))
        head = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        assert _refusal(head + b"0\r\n" + trailers + b"\r\n") == 431

    @pytest.mark.parametrize(
        "raw",
        [b"GET / HTTP/1.1\r\n", b"GET / HTTP/1.1\r\nHost: a", b"GET / HTTP/1.1\r\nHost: a\r\n"],
        ids=["no-fields", "line-cut", "no-empty-line"],
    )
    def test_a_header_section_cut_off_by_eof_is_refused(self, raw):
        assert _refusal(raw) == 400

    def test_a_body_cut_off_by_eof_is_refused(self):
        assert _refusal(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc") == 400

    @pytest.mark.parametrize("raw", [b"", b"\r\n", b" \t\r\n"], ids=["eof", "crlf", "blanks"])
    def test_eof_or_an_empty_line_reads_no_request(self, raw):
        assert _request(raw) is None

    def test_one_request_of_a_pipeline_is_read(self):
        fp = io.BufferedReader(io.BytesIO(
            b"POST /login HTTP/1.1\r\nHost: a.test\r\nHOST: b.test\r\nContent-Length: 3\r\n"
            b"\r\nabcGET / HTTP/1.1\r\n\r\n"
        ))
        assert read_request(fp, _METHODS) == Request(
            "POST", "/login", {"host": "a.test", "content-length": "3"}, b"abc", True
        )
        assert read_request(fp, _METHODS) == Request("GET", "/", {}, b"", True)
        assert read_request(fp, _METHODS) is None

    @pytest.mark.parametrize(
        "version,connection,keep_alive",
        [(b"HTTP/1.1", b"", True), (b"HTTP/1.1", b"close", False),
         (b"HTTP/1.1", b"Close", False), (b"HTTP/1.0", b"", False),
         (b"HTTP/1.0", b"keep-alive", True), (b"HTTP/1.0", b"Keep-Alive", True),
         (b"HTTP/1.1", b"keep-alive, close", False), (b"HTTP/1.1", b"te,\tCLOSE ", False),
         (b"HTTP/1.1", b"keep-alive\r\nConnection: close", False),
         (b"HTTP/1.1", b"foo-close", True), (b"HTTP/1.0", b"close, keep-alive", False),
         (b"HTTP/1.0", b"te, keep-alive", True)],
    )
    def test_keep_alive(self, version, connection, keep_alive):
        head = b"GET / " + version + b"\r\n"
        if connection:
            head += b"Connection: " + connection + b"\r\n"
        assert _request(head + b"\r\n").keep_alive is keep_alive

    def test_a_chunked_body_is_read_and_a_length_beside_it_ends_the_connection(self):
        head = (b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n"
                b"Content-Length: 40\r\n\r\n")
        request = _request(head + b"3;ext\r\nabc\r\n2\r\nde\r\n0\r\nTrailer: x\r\n\r\n")
        assert (request.body, request.keep_alive) == (b"abcde", False)


# The writers, read back by the readers: each message round-trips, and no
# strict prefix of one reads as a message.

_TOKEN = string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~"
_FRAMING_FIELDS = ("content-length", "transfer-encoding", "connection", "host")
_FIELD_NAMES = st.text(_TOKEN, min_size=1, max_size=12).filter(
    lambda name: name.lower() not in _FRAMING_FIELDS
)
# Values as the readers keep them: no leading blank, no line ending.
_FIELD_VALUES = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_characters="\x7f"),
    max_size=20,
).map(lambda value: value.lstrip(" \t"))
_FIELDS = st.lists(st.tuples(_FIELD_NAMES, _FIELD_VALUES), max_size=5)
_TARGET_TEXT = st.text(string.ascii_letters + string.digits + "-._~!$&'()*+,;=:@", max_size=8)
_ESCAPES = st.integers(0, 255).map(lambda byte: f"%{byte:02X}")


@st.composite
def _targets(draw) -> str:
    """A request target as ``fetch`` sends an attack URL: a path with one
    technique's separator before a bogus file name, and percent escapes."""
    base = parse_url("http://lab.test/" + draw(_TARGET_TEXT) + draw(_ESCAPES))
    technique = draw(st.sampled_from(list(PathConfusionTechnique)))
    path = parse_url(make_attack_url(base, technique, "n0nce" + draw(_TARGET_TEXT))).raw_path
    query = draw(st.lists(st.one_of(_TARGET_TEXT, _ESCAPES), max_size=3))
    return path + ("?" + "".join(query) if query else "")


@st.composite
def _rendered_requests(draw):
    """(request bytes, the Request that ``read_request`` must give back)."""
    method = draw(st.sampled_from(["GET", "HEAD", "POST"]))
    target = draw(_targets())
    host = draw(st.sampled_from(["lab.test", "lab.test:8080"]))
    fields = draw(_FIELDS)
    connection = draw(st.sampled_from([None, "close", "keep-alive", "te, Close"]))
    if connection:
        fields.insert(draw(st.integers(0, len(fields))), ("Connection", connection))
    body = draw(_BODIES) if method == "POST" or draw(st.booleans()) else b""
    chunked = draw(st.booleans())
    if chunked:
        fields.append(("Transfer-Encoding", "chunked"))
    sent = [("Host", host)]
    if not chunked and (body or method == "POST"):
        sent.append(("Content-Length", str(len(body))))
    first: dict[str, str] = {}
    for name, value in sent + fields:
        first.setdefault(name.lower(), value)
    keep_alive = not connection or "close" not in connection.lower()
    raw = render_request(method, target, host, fields, body)
    return raw, Request(method, target, first, body, keep_alive)


@settings(max_examples=200, deadline=None)
@given(_rendered_requests())
def test_a_rendered_request_reads_back(case):
    raw, request = case
    fp = io.BufferedReader(io.BytesIO(raw))
    assert read_request(fp, _METHODS) == request
    assert fp.read() == b""


@settings(max_examples=60, deadline=None)
@given(_rendered_requests())
def test_no_strict_prefix_of_a_request_reads_as_one(case):
    raw, _read_back = case
    assert _request(b"") is None
    for end in range(1, len(raw)):
        _refusal(raw[:end])


@st.composite
def _rendered_responses(draw):
    """(response bytes, request method, what ``read_response`` must give
    back as _framed gives it): a final response after up to two interim
    ones, which the reader skips."""
    method = draw(st.sampled_from(["GET", "HEAD"]))
    raw = b"".join(
        render_response(status, draw(_FIELDS), draw(_BODIES), method)
        for status in draw(st.lists(st.sampled_from([100, 102, 103, 199]), max_size=2))
    )
    status = draw(st.sampled_from([200, 201, 301, 404, 500, 204, 304]))
    fields, body = draw(_FIELDS), draw(_BODIES)
    raw += render_response(status, fields, body, method)
    bodiless = status in (204, 304)
    if not bodiless:
        fields = fields + [("Content-Length", str(len(body)))]
    sent = b"" if bodiless or method == "HEAD" else body
    return raw, method, (status, _stored(index_fields(fields)), sent, True)


@settings(max_examples=200, deadline=None)
@given(_rendered_responses())
def test_a_rendered_response_reads_back(case):
    raw, method, expected = case
    fp = io.BufferedReader(io.BytesIO(raw))
    status, headers, body, keep_alive = read_response(fp, method)
    assert (status, _stored(headers), body, keep_alive) == expected
    assert fp.read() == b""


@settings(max_examples=60, deadline=None)
@given(_rendered_responses())
def test_no_strict_prefix_of_a_response_reads_as_one(case):
    raw, method, _expected = case
    for end in range(len(raw)):
        assert _framed(raw[:end], method) is FramingError, raw[:end]


@pytest.mark.parametrize("status", [101, 204])
def test_no_length_on_a_1xx_or_204_response(status):
    raw = render_response(status, [("X-A", "1")], b"body", "GET")
    assert raw == f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nX-A: 1\r\n\r\n".encode()
