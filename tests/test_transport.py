"""The stdlib keep-alive transport: what goes on the wire, what comes back,
and how transport failures end. ``requests`` and ``http.client`` serve as
references where the transport must keep its observable behaviour."""

import gzip
import http.client
import http.server
import re
import shutil
import socket
import ssl
import string
import struct
import subprocess
import threading
import time
import zlib
from urllib.parse import quote, urlencode, urlsplit

import pytest
import requests
from hypothesis import assume, given, settings, strategies as st

from wcdscan.detector import MarkerSet, WcdTestConfig, run_wcd_test
from wcdscan.http_engine import (
    Cookie,
    Identity,
    LoginDescriptor,
    NetworkError,
    Role,
    Transport,
    _route,
    fetch,
    maintain_session,
)
from wcdscan.lab import catalog
from wcdscan.lab.server import LabServer
from wcdscan.url_toolkit import PathConfusionTechnique, RandomNameGenerator, parse_url

from conftest import fast_limiter, fast_settings

HOST = "edge.test"


def _response(body: bytes, *headers: str, status: str = "200 OK") -> bytes:
    head = [f"HTTP/1.1 {status}", *headers, f"Content-Length: {len(body)}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class ScriptedServer:
    """A one-connection-at-a-time TCP listener that answers each request
    with the reply ``script(connection_index, request_head)`` returns: the
    bytes to send and then "keep" (the connection open), "close" or
    "reset" (close with an RST)."""

    def __init__(self, script, address: str = "127.0.0.1"):
        self._script = script
        family = socket.AF_INET6 if ":" in address else socket.AF_INET
        self._listener = socket.create_server((address, 0), family=family)
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self.requests: list[tuple[int, bytes, bytes]] = []  # (connection, head, body)
        self.hung_up = threading.Event()  # set each time the server closes a connection
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            index = self.connections
            self.connections += 1
            with conn, conn.makefile("rb") as reader:
                while True:
                    head = b""
                    while not head.endswith(b"\r\n\r\n"):
                        line = reader.readline()
                        if not line:
                            break
                        head += line
                    if not head.endswith(b"\r\n\r\n"):
                        break  # the client hung up
                    length = re.search(rb"(?im)^content-length:\s*(\d+)", head)
                    body = reader.read(int(length.group(1))) if length else b""
                    self.requests.append((index, head, body))
                    reply, after = self._script(index, head)
                    conn.sendall(reply)
                    if after == "reset":
                        linger = struct.pack("ii", 1, 0)  # on, 0 s: close sends RST
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
                    if after != "keep":
                        break
            self.hung_up.set()

    def transport(self) -> Transport:
        return Transport(resolve_overrides={HOST: ("127.0.0.1", self.port)})

    def stop(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self._listener.close()
        self._thread.join(timeout=5)


@pytest.fixture()
def scripted():
    servers = []

    def start(script, address: str = "127.0.0.1") -> ScriptedServer:
        servers.append(ScriptedServer(script, address))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


def _always(reply: bytes, after: str = "keep"):
    return lambda _index, _head: (reply, after)


@pytest.fixture(scope="module")
def pacing_lab():
    server = LabServer([catalog.pacing_site()]).start()
    yield server
    server.stop()


class TestWireFormat:
    @pytest.mark.parametrize(
        "path",
        [
            "/account.php%0Anonexistent.css",
            "/account.php%3Bnonexistent.css",
            "/account.php%23nonexistent.css",
            "/account.php%3Fnonexistent.css",
            "/%0An0n3.css?x=%3F%41",
        ],
    )
    def test_attack_targets_arrive_byte_exact(self, pacing_lab, path):
        host = "pacing.test"
        transport = Transport(resolve_overrides=pacing_lab.resolve_overrides())
        fetch(Identity(role=Role.UNAUTHENTICATED), f"http://{host}{path}",
              fast_limiter(), transport)
        transport.close()
        assert pacing_lab.request_log(host)[-1].target == path

    def test_only_unsendable_characters_are_encoded(self, scripted):
        server = scripted(_always(_response(b"ok")))
        transport = server.transport()
        fetch(Identity(role=Role.UNAUTHENTICATED), f"http://{HOST}/a b/café?q=x y&r=%41",
              fast_limiter(), transport)
        transport.close()
        request_line = server.requests[0][1].split(b"\r\n", 1)[0]
        assert request_line == b"GET /a%20b/caf%C3%A9?q=x%20y&r=%41 HTTP/1.1"

    def test_post_form_is_urlencoded(self, scripted):
        server = scripted(_always(_response(b"ok")))
        transport = server.transport()
        form = {"username": "victim", "password": "p w&x=ü"}
        fetch(Identity(role=Role.VICTIM), f"http://{HOST}/login", fast_limiter(), transport,
              method="POST", data=form)
        transport.close()
        _, head, body = server.requests[0]
        reference = requests.Request("POST", f"http://{HOST}/login", data=form).prepare()
        assert body == reference.body.encode()
        assert b"\r\nContent-Type: application/x-www-form-urlencoded\r\n" in head

    def test_every_identity_sends_the_same_accept_encoding(self, scripted):
        server = scripted(_always(_response(b"ok")))
        transport = server.transport()
        for role in Role:
            fetch(Identity(role=role), f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        encodings = [re.search(rb"(?m)^Accept-Encoding: (.*)\r$", head).group(1)
                     for _, head, _ in server.requests]
        assert encodings == [b"gzip, deflate"] * 3


def _http_client_head(server: ScriptedServer, address: str, method: str, target: str,
                      headers: dict[str, str], body: bytes | None) -> bytes:
    """The request head ``http.client`` sends for the same request."""
    conn = http.client.HTTPConnection(address, server.port, timeout=5)
    try:
        conn.request(method, target, body=body, headers=headers)
        conn.getresponse().read()
    finally:
        conn.close()
    return server.requests[-1][1]


class TestRequestBytesMatchHttpClient:
    """Each request's head is what http.client sent for it, byte for byte."""

    @pytest.mark.parametrize("overridden", [True, False], ids=["host-override", "direct"])
    @pytest.mark.parametrize(
        "method,form,path,target",
        [
            ("GET", None, "/", "/"),
            ("GET", None, "/a b/café?q=x y&r=%41", "/a%20b/caf%C3%A9?q=x%20y&r=%41"),
            ("GET", None, "/account.php%3Bnonexistent.css", "/account.php%3Bnonexistent.css"),
            ("POST", {"username": "victim", "password": "p w&x=ü"}, "/login", "/login"),
            ("POST", None, "/login", "/login"),
        ],
        ids=["get", "escaped-target", "attack-target", "form-post", "empty-post"],
    )
    @pytest.mark.parametrize("with_cookie", [False, True], ids=["", "cookie"])
    def test_request_head(self, scripted, overridden, method, form, path, target, with_cookie):
        server = scripted(_always(_response(b"ok")))
        identity = Identity(role=Role.VICTIM)
        authority = HOST if overridden else f"127.0.0.1:{server.port}"  # a non-default port
        if with_cookie:
            identity.store_set_cookie(authority.split(":")[0], "sid=s0123456789abcde")
        transport = server.transport()
        fetch(identity, f"http://{authority}{path}", fast_limiter(), transport,
              method=method, data=form)
        transport.close()
        sent = server.requests[-1][1]
        headers = {"User-Agent": identity.user_agent, "Accept": "*/*",
                   "Accept-Encoding": "gzip, deflate"}
        if overridden:
            headers["Host"] = HOST
        if with_cookie:
            headers["Cookie"] = "sid=s0123456789abcde"
        body = None
        if form:
            body = urlencode(form).encode()
            headers["Content-Type"] = "application/x-www-form-urlencoded"
        assert sent == _http_client_head(server, "127.0.0.1", method, target, headers, body)

    def test_ipv6_host_is_bracketed(self, scripted):
        server = scripted(_always(_response(b"ok")), address="::1")
        identity = Identity(role=Role.UNAUTHENTICATED)
        transport = Transport()
        fetch(identity, f"http://[::1]:{server.port}/x", fast_limiter(), transport)
        transport.close()
        sent = server.requests[-1][1]
        headers = {"User-Agent": identity.user_agent, "Accept": "*/*",
                   "Accept-Encoding": "gzip, deflate"}
        assert b"\r\nHost: [::1]:" in sent
        assert sent == _http_client_head(server, "::1", "GET", "/x", headers, None)

    @pytest.mark.parametrize(
        "url,host_line",
        [
            ("http://edge.example/", "edge.example"),
            ("http://edge.example:80/", "edge.example"),
            ("https://edge.example:443/", "edge.example"),
            ("https://edge.example:8443/", "edge.example:8443"),
            ("http://[2001:db8::1]/", "[2001:db8::1]"),
            ("http://bücher.example/", "xn--bcher-kva.example"),
        ],
    )
    def test_host_header_matches_http_client(self, url, host_line):
        _, (scheme, host, port), _, host_value, overridden = _route(url, Transport())
        assert (host_value, overridden) == (host_line, False)
        sent = []

        class Capture:  # stands in for the socket http.client writes to
            sendall = sent.append

        reference = (http.client.HTTPSConnection if scheme == "https"
                     else http.client.HTTPConnection)(host, port)
        reference.sock = Capture()
        reference.putrequest("GET", "/", skip_accept_encoding=True)
        reference.endheaders()
        assert sent == [f"GET / HTTP/1.1\r\nHost: {host_line}\r\n\r\n".encode()]


def _urlsplit_route(url: str, transport: Transport):
    """_route's contract spelled out with urlsplit alone; a port of 0 here
    means the scheme's default port."""
    try:
        parts = urlsplit(url)
        host = (parts.hostname or "").lower()
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        target = quote(target, safe=string.punctuation)
        if host in transport.resolve_overrides:
            ip, port = transport.resolve_overrides[host]
            return host, ("http", ip, port), target, host, True
        scheme = parts.scheme.lower()
        if scheme not in ("http", "https"):
            raise ValueError(f"scheme {scheme!r} is not http or https")
        default_port = 443 if scheme == "https" else 80
        port = parts.port or default_port
        if not host or re.search(r"[\x00-\x20\x7f]", host):
            raise ValueError(f"bad host {host!r}")
        try:
            host_value = host.encode("ascii").decode()
        except UnicodeEncodeError:
            host_value = host.encode("idna").decode()
    except ValueError:
        return NetworkError
    if ":" in host:
        host_value = f"[{host_value}]"
    if port != default_port:
        host_value = f"{host_value}:{port}"
    return host, (scheme, host, port), target, host_value, False


def _routed(url: str, transport: Transport):
    try:
        return _route(url, transport)
    except NetworkError:
        return NetworkError


def _port_is_zero(url: str) -> bool:
    try:
        return urlsplit(url).port == 0
    except ValueError:
        return False


_ROUTE_TEXT = "aZ09-._~!$&'()*+,;=:@%/? \té"
_route_urls = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["http://", "https://", "HTTP://", "hTTps://", "ftp://", "//", ""]),
        st.sampled_from(["", "", "", "u@", "u:p@", "@"]),
        st.one_of(
            st.sampled_from(["edge.example", "EDGE.Example", "127.0.0.1", "[2001:db8::1]",
                             "[::1]", "[::1", "bücher.example", "BÜCHER.example",
                             "xn--bcher-kva.example", "a b.example", ""]),
            st.text(alphabet="azAZ09.-_é[]:% \x7f", max_size=10),
        ),
        st.sampled_from(["", "", "", ":", ":80", ":443", ":8080", ":65535", ":65536", ":x",
                         ":-1", ":0", ":00"]),
        st.one_of(st.just(""), st.text(alphabet=_ROUTE_TEXT, max_size=16).map(lambda p: "/" + p)),
        st.sampled_from(["", "", "?", "?a=1&b", "?q=x y&r=%41"]),
        st.sampled_from(["", "", "#", "#f", "#a?b"]),
    ),
)


@settings(max_examples=300)
@given(_route_urls)
def test_route_matches_urlsplit_reference(url):
    assume(not _port_is_zero(url))  # pinned below
    assert _routed(url, Transport()) == _urlsplit_route(url, Transport())


@pytest.mark.parametrize(
    "url,overrides",
    [
        ("http://edge.example:0/", {}),
        ("https://edge.example:00/x", {}),
        ("http://u@edge.example:0/x?q=1", {}),
        (f"http://{HOST}:0/", {HOST: ("127.0.0.1", 1)}),
        (f"ftp://{HOST}/x", {HOST: ("127.0.0.1", 1)}),
    ],
    ids=["port-0", "port-00", "userinfo", "overridden-port-0", "overridden-other-scheme"],
)
def test_a_url_parse_url_rejects_is_unroutable(url, overrides):
    """A deliberate difference from the urlsplit reference, which sends port 0
    to the scheme's default port and an overridden host of any scheme to its
    override."""
    transport = Transport(resolve_overrides=overrides)
    assert _urlsplit_route(url, transport) is not NetworkError
    with pytest.raises(NetworkError, match="cannot route"):
        _route(url, transport)


class TestResponseShape:
    PAGE = b"<html><body>account of victim@example.com</body></html>" * 20

    @pytest.mark.parametrize(
        "coding,encoded",
        [
            ("gzip", gzip.compress(PAGE)),
            ("deflate", zlib.compress(PAGE)),
            ("deflate", zlib.compress(PAGE, wbits=-zlib.MAX_WBITS)),  # raw, no zlib header
        ],
        ids=["gzip", "deflate", "raw-deflate"],
    )
    def test_content_encoding_is_decoded(self, scripted, coding, encoded):
        server = scripted(_always(_response(encoded, f"Content-Encoding: {coding}")))
        transport = server.transport()
        exchange = fetch(Identity(role=Role.VICTIM), f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        reference = requests.get(f"http://127.0.0.1:{server.port}/", timeout=5)
        assert exchange.body == reference.content == self.PAGE

    def test_chunked_body_is_read_whole(self, scripted):
        chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   b"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n")
        server = scripted(_always(chunked))
        transport = server.transport()
        first = fetch(Identity(role=Role.VICTIM), f"http://{HOST}/", fast_limiter(), transport)
        second = fetch(Identity(role=Role.VICTIM), f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        assert first.body == second.body == b"Wikipedia"
        assert server.connections == 1  # the chunked framing kept the socket usable

    def test_headers_keep_the_requests_shape(self, scripted):
        reply = _response(
            b"ok",
            "X-Cache: HIT",
            "Via: 1.1 varnish",
            "x-cache: MISS from edge",
            "Set-Cookie: a=1; Path=/",
            "Set-Cookie: b=2; Path=/",
        )
        server = scripted(_always(reply))
        transport = server.transport()
        victim = Identity(role=Role.VICTIM)
        exchange = fetch(victim, f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        reference = requests.get(f"http://127.0.0.1:{server.port}/", timeout=5)
        stored = tuple((name, ", ".join(values)) for name, values in exchange.headers.items())
        assert stored == tuple((name.lower(), value) for name, value in reference.headers.items())
        assert exchange.header("x-cache") == "HIT, MISS from edge"
        assert {(c.name, c.value) for c in victim.cookie_jar.values()} == {("a", "1"), ("b", "2")}

    def test_no_body_status_that_announces_a_body_is_not_reused(self, scripted, transport_limits):
        # The chunk after the 204 must not be read as the next status line.
        no_content = (b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n"
                      b"2\r\nok\r\n0\r\n\r\n")
        server = scripted(lambda index, _head: (no_content if index == 0 else _response(b"ok"),
                                                "keep"))
        transport_limits(retries=0)
        transport = server.transport()
        identity = Identity(role=Role.VICTIM)
        assert fetch(identity, f"http://{HOST}/", fast_limiter(), transport).status == 204
        assert fetch(identity, f"http://{HOST}/", fast_limiter(), transport).body == b"ok"
        transport.close()
        assert server.connections == 2


class TestHeaderInjection:
    """A value holding CR or LF would end its header line early; the rest
    would reach the server as headers or as another request on the shared
    socket."""

    EVIL = "Set-Cookie: sid=a\rX-Evil: 1; Path=/"  # a bare CR stays in the field value

    def test_set_cookie_with_crlf_is_not_stored(self, scripted, transport_limits):
        server = scripted(_always(_response(b"ok", self.EVIL, "Set-Cookie: good=1; Path=/")))
        transport_limits(retries=0)
        transport = server.transport()
        victim = Identity(role=Role.VICTIM)
        fetch(victim, f"http://{HOST}/", fast_limiter(), transport)
        fetch(victim, f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        assert [(c.name, c.value) for c in victim.cookie_jar.values()] == [("good", "1")]
        head = server.requests[1][1]
        assert b"X-Evil" not in head and b"\r\nCookie: good=1\r\n" in head
        assert len(server.requests) == 2

    def test_set_cookie_with_crlf_leaves_the_test_conclusive(self, scripted, transport_limits):
        # A body with a token to leak, so the test goes on to the attacker step.
        body = b'<input type="hidden" name="csrf_token" value="x">'
        server = scripted(_always(_response(body, self.EVIL)))
        transport_limits(retries=0)
        transport = server.transport()
        victim = Identity(role=Role.VICTIM)
        fetch(victim, f"http://{HOST}/", fast_limiter(), transport)  # the site sets the cookie
        verdict = run_wcd_test(
            parse_url(f"http://{HOST}/account.php"),
            PathConfusionTechnique.PATH_PARAMETER,
            victim,
            Identity(role=Role.ATTACKER),
            MarkerSet([]),
            WcdTestConfig(fast_settings(transport=transport), names=RandomNameGenerator(seed=1)),
        )
        transport.close()
        assert not verdict.inconclusive, verdict.error
        assert len(server.requests) > 2
        assert all(b"X-Evil" not in head for _, head, _ in server.requests)

    def test_an_escaped_crlf_goes_back_literally(self, scripted, transport_limits):
        # Quotes and backslashes are part of a cookie's value: nothing decodes
        # "\015\012" into CRLF, so the value stays inside the one Cookie line.
        server = scripted(_always(_response(b"ok", r'Set-Cookie: sid="a\015\012X-Evil: 1"')))
        transport_limits(retries=0)
        transport = server.transport()
        victim = Identity(role=Role.VICTIM)
        fetch(victim, f"http://{HOST}/", fast_limiter(), transport)
        fetch(victim, f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        lines = server.requests[1][1].split(b"\r\n")
        assert rb'Cookie: sid="a\015\012X-Evil: 1"' in lines
        assert not any(line.startswith(b"X-Evil") for line in lines)

    @pytest.mark.parametrize("value", ["a\r\nX-Evil: 1", "a\nb", "a\rb", "a\x00b"],
                             ids=["crlf", "lf", "cr", "nul"])
    def test_unsendable_cookie_in_the_jar_costs_one_test(self, scripted, value, transport_limits):
        server = scripted(_always(_response(b"ok")))
        transport_limits(retries=0)
        transport = server.transport()

        def victim() -> Identity:
            identity = Identity(role=Role.VICTIM)
            identity.cookie_jar[(HOST, "sid")] = Cookie(HOST, "sid", value)
            return identity

        with pytest.raises(NetworkError, match="CR, LF or NUL"):
            fetch(victim(), f"http://{HOST}/", fast_limiter(), transport)
        verdict = run_wcd_test(
            parse_url(f"http://{HOST}/account.php"),
            PathConfusionTechnique.PATH_PARAMETER,
            victim(),
            Identity(role=Role.ATTACKER),
            MarkerSet([]),
            WcdTestConfig(fast_settings(transport=transport), names=RandomNameGenerator(seed=1)),
        )
        transport.close()
        assert verdict.inconclusive and not verdict.vulnerable
        assert "CR, LF or NUL" in verdict.error
        assert server.requests == []  # nothing was sent


def test_a_login_that_clears_a_cookie_logs_in_once(scripted):
    """A login response may also clear a cookie (Max-Age=0). The cleared
    cookie is not stored, so the session stays fresh and later checks send
    nothing."""
    server = scripted(_always(_response(
        b"ok", "Set-Cookie: sid=s1; Path=/", "Set-Cookie: old=; Max-Age=0; Path=/"
    )))
    login = LoginDescriptor(url=f"http://{HOST}/login", fields={"username": "victim"})
    victim = Identity(role=Role.VICTIM, credentials=login)
    transport = server.transport()
    for _ in range(5):
        maintain_session(victim, fast_limiter(), transport)
    transport.close()
    assert len(server.requests) == 1
    assert [c.name for c in victim.cookie_jar.values()] == ["sid"]


class TestFailures:
    TRUNCATED = _response(b"x" * 50)[:-45]

    @pytest.mark.parametrize("after", ["close", "reset"])
    def test_body_cut_short_is_network_error(self, scripted, after, transport_limits):
        server = scripted(_always(self.TRUNCATED, after))
        transport_limits(retries=1)
        transport = server.transport()
        with pytest.raises(NetworkError):
            fetch(Identity(role=Role.VICTIM), f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        assert server.connections == 2  # the first try and one retry

    def test_body_cut_short_makes_the_test_inconclusive(self, scripted, transport_limits):
        server = scripted(_always(self.TRUNCATED, "close"))
        transport_limits(retries=0)
        transport = server.transport()
        verdict = run_wcd_test(
            parse_url(f"http://{HOST}/account.php"),
            PathConfusionTechnique.PATH_PARAMETER,
            Identity(role=Role.VICTIM),
            Identity(role=Role.ATTACKER),
            MarkerSet([]),
            WcdTestConfig(fast_settings(transport=transport), names=RandomNameGenerator(seed=1)),
        )
        transport.close()
        assert verdict.inconclusive and not verdict.vulnerable
        assert "failed after retries" in verdict.error

    def test_stale_socket_is_reconnected_without_spending_a_retry(
        self, scripted, transport_limits
    ):
        server = scripted(
            lambda index, _head: (_response(b"ok"), "close" if index == 0 else "keep")
        )
        transport_limits(retries=0)
        transport = server.transport()
        identity = Identity(role=Role.VICTIM)
        fetch(identity, f"http://{HOST}/", fast_limiter(), transport)
        assert server.hung_up.wait(5)  # the kept-alive socket is now dead
        assert fetch(identity, f"http://{HOST}/", fast_limiter(), transport).body == b"ok"
        transport.close()
        assert server.connections == 2

    def test_stale_socket_is_reconnected_only_once(self, scripted, transport_limits):
        # The first connection answers and is then closed by the server;
        # every later one hangs up without answering.
        server = scripted(
            lambda index, _head: (_response(b"ok"), "close") if index == 0 else (b"", "close")
        )
        transport_limits(retries=0)
        transport = server.transport()
        identity = Identity(role=Role.VICTIM)
        fetch(identity, f"http://{HOST}/", fast_limiter(), transport)
        assert server.hung_up.wait(5)
        with pytest.raises(NetworkError):
            fetch(identity, f"http://{HOST}/", fast_limiter(), transport)
        transport.close()
        assert server.connections == 2


def test_a_head_response_leaves_a_kept_alive_connection_in_step(pacing_lab, transport_limits):
    transport_limits(0)  # a retry on a new connection would hide a misread
    transport = Transport(resolve_overrides=pacing_lab.resolve_overrides())
    identity = Identity(role=Role.UNAUTHENTICATED)
    try:
        head = fetch(identity, "http://pacing.test/_lab/state", fast_limiter(), transport,
                     method="HEAD")
        (conn,) = transport._pool().values()
        get = fetch(identity, "http://pacing.test/", fast_limiter(), transport)
        assert transport._pool() == {("http", pacing_lab.address, pacing_lab.port): conn}
    finally:
        transport.close()
    assert (head.status, head.body) == (200, b"")
    assert head.header("Content-Type") == "application/json"
    assert get.status == 200 and b"pacing target" in get.body


def test_silent_server_times_out(transport_limits):
    listener = socket.create_server(("127.0.0.1", 0))  # the kernel accepts; nothing answers
    transport_limits(retries=0, timeout=0.3)
    transport = Transport(resolve_overrides={HOST: listener.getsockname()})
    started = time.monotonic()
    try:
        with pytest.raises(NetworkError):
            fetch(Identity(role=Role.VICTIM), f"http://{HOST}/", fast_limiter(), transport)
    finally:
        transport.close()
        listener.close()
    assert time.monotonic() - started < 2.0


@pytest.mark.parametrize(
    "location",
    ["ftp://other.test/x", "http://other.test:99999/x", "http://[::1/x"],
    ids=["other-scheme", "port-out-of-range", "broken-ipv6"],
)
def test_unroutable_redirect_costs_one_test(scripted, location, transport_limits):
    server = scripted(_always(_response(b"moved", f"Location: {location}", status="302 Found")))
    transport_limits(retries=0)
    transport = server.transport()
    with pytest.raises(NetworkError, match="cannot route"):
        fetch(Identity(role=Role.VICTIM), f"http://{HOST}/account.php", fast_limiter(),
              transport)
    verdict = run_wcd_test(
        parse_url(f"http://{HOST}/account.php"),
        PathConfusionTechnique.PATH_PARAMETER,
        Identity(role=Role.VICTIM),
        Identity(role=Role.ATTACKER),
        MarkerSet([]),
        WcdTestConfig(fast_settings(transport=transport), names=RandomNameGenerator(seed=1)),
    )
    transport.close()
    assert verdict.inconclusive and not verdict.vulnerable
    assert "cannot route" in verdict.error


def _self_signed_cert(directory) -> tuple[str, str]:
    """(certificate, key) files for a certificate valid for 127.0.0.1."""
    cert, key = str(directory / "cert.pem"), str(directory / "key.pem")
    if shutil.which("openssl"):
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
             "ec_paramgen_curve:prime256v1", "-nodes", "-keyout", key, "-out", cert,
             "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
            check=True, capture_output=True,
        )
        return cert, key
    try:
        import datetime
        import ipaddress

        from cryptography import x509
        from cryptography.hazmat.primitives import hashes, serialization
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.x509.oid import NameOID
    except ImportError:
        pytest.skip("needs the openssl command or the cryptography package")
    private = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    certificate = (
        x509.CertificateBuilder().subject_name(name).issuer_name(name)
        .public_key(private.public_key()).serial_number(x509.random_serial_number())
        .not_valid_before(now).not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName(
            [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
        .sign(private, hashes.SHA256())
    )
    with open(cert, "wb") as fh:
        fh.write(certificate.public_bytes(serialization.Encoding.PEM))
    with open(key, "wb") as fh:
        fh.write(private.private_bytes(serialization.Encoding.PEM,
                                       serialization.PrivateFormat.PKCS8,
                                       serialization.NoEncryption()))
    return cert, key


class _QuietTLSServer(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        pass  # refused handshakes are the point of the test


class _Hello(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Length", "5")
        self.end_headers()
        self.wfile.write(b"hello")

    def log_message(self, *args):
        pass


def test_https_certificates_are_verified(tmp_path, monkeypatch, transport_limits):
    cert, key = _self_signed_cert(tmp_path)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = _QuietTLSServer(("127.0.0.1", 0), _Hello)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"https://127.0.0.1:{server.server_address[1]}/"
    transport_limits(retries=0, timeout=5)
    transport = Transport()
    try:
        with pytest.raises(NetworkError, match="CERTIFICATE_VERIFY_FAILED"):
            fetch(Identity(role=Role.UNAUTHENTICATED), url, fast_limiter(), transport)
        monkeypatch.setenv("SSL_CERT_FILE", cert)  # trust the test certificate only
        exchange = fetch(Identity(role=Role.UNAUTHENTICATED), url, fast_limiter(), transport)
        assert (exchange.status, exchange.body) == (200, b"hello")
    finally:
        transport.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
