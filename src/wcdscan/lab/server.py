"""Local HTTP listener exposing SimSites as name-based virtual hosts.

The scanner talks to the lab over real sockets: it connects to the listener
address while sending the site's logical Host header (see
``Transport.resolve_overrides``). The listener speaks HTTP/1.1 with
keep-alive, so a worker sends all of its requests over one connection; it
reads requests with :mod:`wcdscan.http1` and writes each response in one
``sendall``.
Requests are serialized per site, arrival times are logged per host for
pacing checks, and ``/_lab/*`` control endpoints allow deterministic clock
advancement from tests.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.cookies import SimpleCookie
from urllib.parse import parse_qsl, urlsplit

from ..errors import ScenarioError
from ..http1 import MAX_LINE, FramingError, final_coding, read_chunked, read_fields
from .sim import LabRequest, RequestLogEntry, SimSite, SiteRuntime, proxy_handle


class _VhostServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    runtimes: dict[str, SiteRuntime]

    def __init__(self, *args, **kwargs):
        # Set before the base class binds: when binding fails, it calls
        # server_close, which reads them.
        self.connections: set[socket.socket] = set()
        self.connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self.connections_lock:
            self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.connections_lock:
            self.connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        # Handler threads are daemons and are never joined, so a kept-alive
        # connection would outlive the listener: its handler thread, parked
        # in a read, would go on answering requests after stop(). Shutting
        # the open connections down ends them with the listener.
        with self.connections_lock:
            for conn in self.connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        super().server_close()


# The status line and the Server header as http.server writes them.
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"
_METHODS = ("GET", "HEAD", "POST")
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_DIGITS = re.compile(r"[0-9]+")


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


class _Handler(socketserver.StreamRequestHandler):
    """Reads each request's line and headers itself (RFC 9112) and writes
    each response in one ``sendall``; keeps the connection open as HTTP/1.1
    does unless the request asks to close it."""

    # Small writes go out at once instead of waiting for the client's
    # delayed ACK (about 40 ms a request).
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except ConnectionError:
            pass  # the client reset or went away mid-request

    def _send(
        self,
        status: int,
        headers: list[tuple[str, str]],
        body: bytes,
        head_only: bool = False,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
            f"Server: {_SERVER}",
            f"Date: {_http_date(int(time.time()))}",
        ]
        if not any(k.lower() == "content-type" for k, _ in headers):
            lines.append("Content-Type: text/html; charset=utf-8")
        lines += [f"{key}: {value}" for key, value in headers]
        lines.append(f"Content-Length: {len(body)}")
        lines.append("\r\n")
        head = "\r\n".join(lines).encode("latin-1")
        self.connection.sendall(head if head_only else head + body)

    def _refuse(self, status: int) -> bool:
        """Answer a request that cannot be served, and end the connection."""
        body = f"<html><body>{status} {_REASONS[status]}</body></html>".encode()
        self._send(status, [("Connection", "close")], body)
        return False

    def _handle_one(self) -> bool:
        """Serve one request; whether to keep the connection for another."""
        line = self.rfile.readline(MAX_LINE + 1)
        arrival = time.monotonic()
        if len(line) > MAX_LINE:
            return self._refuse(HTTPStatus.REQUEST_URI_TOO_LONG)
        words = line.decode("latin-1").split()
        if not words:
            return False  # EOF or an empty line: end the connection quietly
        if len(words) != 3:
            return self._refuse(HTTPStatus.BAD_REQUEST)
        method, target, version = words
        match = _VERSION.fullmatch(version)
        if match is None:
            return self._refuse(HTTPStatus.BAD_REQUEST)
        version_number = int(match[1]), int(match[2])
        if version_number >= (2, 0):
            return self._refuse(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED)
        if target.startswith("//"):  # as http.server does against open redirects
            target = "/" + target.lstrip("/")
        try:
            fields = read_fields(self.rfile)
        except FramingError:
            return self._refuse(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE)
        headers: dict[str, str] = {}
        lengths: set[str] = set()
        codings: list[str] = []
        for name, value in fields:
            key = name.lower()
            headers.setdefault(key, value)
            if key == "content-length":
                lengths.add(value.strip(" \t"))
            elif key == "transfer-encoding":
                codings.append(value)
        keep_alive = version_number >= (1, 1)
        connection = headers.get("connection", "").lower()
        if connection == "close":
            keep_alive = False
        elif connection == "keep-alive":
            keep_alive = True
        if method not in _METHODS:
            return self._refuse(HTTPStatus.NOT_IMPLEMENTED)
        # Read the body before any early return: on a kept-alive connection
        # unread body bytes would be parsed as the next request. A
        # Transfer-Encoding overrides Content-Length. A final coding other
        # than chunked, a length that is not 1*DIGIT, or lengths that
        # disagree leave the end of the body unknown, so the connection ends
        # (RFC 9112 section 6.3). Both fields at once may be a smuggling
        # attempt, so that connection ends after the response (section 6.1).
        if codings:
            if final_coding(codings) != "chunked":
                return self._refuse(HTTPStatus.BAD_REQUEST)
            try:
                raw = read_chunked(self.rfile)
            except FramingError:
                return self._refuse(HTTPStatus.BAD_REQUEST)
            keep_alive = keep_alive and not lengths
        elif len(lengths) > 1 or not all(map(_DIGITS.fullmatch, lengths)):
            return self._refuse(HTTPStatus.BAD_REQUEST)
        else:
            length = int(lengths.pop()) if lengths else 0
            raw = self.rfile.read(length) if length else b""
        self._handle(method, target, headers, raw, arrival)
        return keep_alive

    def _runtime(self, headers: dict[str, str]) -> SiteRuntime | None:
        host = headers.get("host", "").split(":", 1)[0].lower()
        return self.server.runtimes.get(host)  # type: ignore[attr-defined]

    def _control(self, runtime: SiteRuntime, target: str) -> None:
        parts = urlsplit(target)
        params = dict(parse_qsl(parts.query))
        status = 200
        with runtime.lock:
            if parts.path == "/_lab/advance":
                try:
                    payload = {"now": runtime.advance(float(params.get("seconds", "0")))}
                except ValueError as exc:  # not a number, negative, NaN or infinite
                    status, payload = 400, {"error": str(exc)}
            elif parts.path == "/_lab/reset":
                runtime.reset()
                payload = {"reset": True}
            elif parts.path == "/_lab/requests":
                payload = {
                    "requests": [
                        {"t": e.t, "method": e.method, "target": e.target,
                         "has_cookie": e.has_cookie}
                        for e in runtime.log
                    ]
                }
            elif parts.path == "/_lab/state":
                payload = {
                    "now": runtime.now,
                    "entries": len(runtime.entries),
                    "origin_requests": runtime.origin_requests,
                }
            else:
                status, payload = 404, {"error": "unknown control endpoint"}
        self._send(status, [("Content-Type", "application/json")], json.dumps(payload).encode())

    def _handle(
        self, method: str, target: str, headers: dict[str, str], raw: bytes, arrival: float
    ) -> None:
        runtime = self._runtime(headers)
        if runtime is None:
            self._send(404, [], b"<html><body>unknown lab host</body></html>")
            return
        if target.startswith("/_lab/"):
            self._control(runtime, target)
            return

        cookie_header = headers.get("cookie", "")
        cookies: dict[str, str] = {}
        if cookie_header:
            jar = SimpleCookie()
            try:
                jar.load(cookie_header)
                cookies = {name: morsel.value for name, morsel in jar.items()}
            except Exception:
                cookies = {}

        form: dict[str, str] | None = None
        if method == "POST":
            form = dict(parse_qsl(raw.decode("utf-8", errors="replace")))

        request = LabRequest(method=method, target=target, cookies=cookies, form=form)
        with runtime.lock:
            runtime.log.append(
                RequestLogEntry(
                    t=arrival,
                    method=method,
                    target=target,
                    has_cookie=bool(cookie_header),
                )
            )
            response, event = proxy_handle(runtime, request)
        self._send(
            response.status,
            [*response.headers, ("X-Lab-Event", event.value)],
            response.body,
            head_only=(method == "HEAD"),
        )


class LabServer:
    """Serves a list of SimSites on one local port, dispatching by Host; two
    sites with one host raise ScenarioError before the port is bound."""

    def __init__(self, sites: list[SimSite], address: str = "127.0.0.1", port: int = 0):
        self.runtimes: dict[str, SiteRuntime] = {}
        for site in sites:
            if site.host in self.runtimes:
                raise ScenarioError(f"two scenarios serve host {site.host!r}")
            self.runtimes[site.host] = SiteRuntime(site)
        self._httpd = _VhostServer((address, port), _Handler)
        self._httpd.runtimes = self.runtimes
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "LabServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def resolve_overrides(self) -> dict[str, tuple[str, int]]:
        return {host: (self.address, self.port) for host in self.runtimes}

    def request_log(self, host: str) -> list[RequestLogEntry]:
        return list(self.runtimes[host].log)
