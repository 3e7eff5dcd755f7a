"""Local HTTP listener exposing SimSites as name-based virtual hosts.

The scanner talks to the lab over real sockets: it connects to the listener
address while sending the site's logical Host header (see
``Transport.resolve_overrides``). The listener speaks HTTP/1.1 with
keep-alive, so a worker sends all of its requests over one connection.
:func:`serve` answers one parsed request without a socket, and
:func:`wcdscan.http1.render_response` writes its bytes; the listener's
handler only moves bytes: it reads each request with
:func:`wcdscan.http1.read_request` and writes the response in one
``sendall``. Requests are serialized per site, arrival times are logged per
host for pacing checks, and ``/_lab/*`` control endpoints allow
deterministic clock advancement from tests.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from urllib.parse import parse_qsl, urlsplit

from ..errors import ScenarioError
from ..http1 import Request, RequestRefused, read_request, render_response
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


# The Server header as http.server writes it.
_SERVER = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"
_METHODS = ("GET", "HEAD", "POST")


@lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


def _render(status: int, headers: list[tuple[str, str]], body: bytes, method: str) -> bytes:
    """The response with the lab's own fields ahead of ``headers``: Server,
    Date, and a Content-Type unless ``headers`` give one."""
    fields = [("Server", _SERVER), ("Date", _http_date(int(time.time())))]
    if not any(k.lower() == "content-type" for k, _ in headers):
        fields.append(("Content-Type", "text/html; charset=utf-8"))
    return render_response(status, [*fields, *headers], body, method)


def _control(runtime: SiteRuntime, target: str) -> tuple[int, dict]:
    parts = urlsplit(target)
    params = dict(parse_qsl(parts.query))
    with runtime.lock:
        if parts.path == "/_lab/advance":
            try:
                return 200, {"now": runtime.advance(float(params.get("seconds", "0")))}
            except ValueError as exc:  # not a number, negative, NaN or infinite
                return 400, {"error": str(exc)}
        if parts.path == "/_lab/reset":
            runtime.reset()
            return 200, {"reset": True}
        if parts.path == "/_lab/requests":
            return 200, {"requests": [vars(entry) for entry in runtime.log]}
        if parts.path == "/_lab/state":
            return 200, {
                "now": runtime.now,
                "entries": len(runtime.entries),
                "origin_requests": runtime.origin_requests,
            }
    return 404, {"error": "unknown control endpoint"}


def serve(runtimes: dict[str, SiteRuntime], request: Request, arrival: float) -> bytes:
    """The response to one request, as the listener sends it: dispatched by
    Host to the site's ``/_lab/*`` control endpoints or to its proxy, and
    logged at ``arrival`` (a ``time.monotonic()`` value). Touches no socket
    and changes nothing but the runtime it dispatches to."""
    method, target, headers, body, _ = request
    if target.startswith("//"):  # as http.server does against open redirects
        target = "/" + target.lstrip("/")
    runtime = runtimes.get(headers.get("host", "").split(":", 1)[0].lower())
    if runtime is None:
        return _render(404, [], b"<html><body>unknown lab host</body></html>", method)
    if target.startswith("/_lab/"):
        status, payload = _control(runtime, target)
        payload_bytes = json.dumps(payload).encode()
        return _render(status, [("Content-Type", "application/json")], payload_bytes, method)

    cookie_header = headers.get("cookie", "")
    cookies: dict[str, str] = {}
    for pair in cookie_header.split(";"):  # name=value pairs; the first of a name wins
        name, eq, value = pair.partition("=")
        name = name.strip(" \t")
        if eq and name:
            cookies.setdefault(name, value.strip(" \t"))

    form: dict[str, str] | None = None
    if method == "POST":
        form = dict(parse_qsl(body.decode("utf-8", errors="replace")))

    lab_request = LabRequest(method=method, target=target, cookies=cookies, form=form)
    with runtime.lock:
        runtime.log.append(
            RequestLogEntry(
                t=arrival,
                method=method,
                target=target,
                has_cookie=bool(cookie_header),
            )
        )
        response, event = proxy_handle(runtime, lab_request)
    return _render(
        response.status,
        [*response.headers, ("X-Lab-Event", event.value)],
        response.body,
        method,
    )


class _Handler(socketserver.StreamRequestHandler):
    """Moves bytes: reads each request with :func:`read_request`, writes
    what :func:`serve` answers in one ``sendall``, and keeps the connection
    open as HTTP/1.1 does unless the request asks to close it. A request
    that cannot be served is answered with its status and ends the
    connection."""

    # Small writes go out at once instead of waiting for the client's
    # delayed ACK (about 40 ms a request).
    disable_nagle_algorithm = True

    def handle(self) -> None:
        rfile, runtimes = self.rfile, self.server.runtimes  # type: ignore[attr-defined]
        try:
            # peek waits for the next request line to start arriving, the
            # time that the request log records; it is empty at EOF.
            while rfile.peek(1):
                arrival = time.monotonic()
                try:
                    request = read_request(rfile, _METHODS)
                except RequestRefused as exc:
                    # The request's method is not known here; the body goes
                    # whatever it was, since the connection ends after it.
                    status = f"{exc.status} {HTTPStatus(exc.status).phrase}"
                    body = f"<html><body>{status}</body></html>".encode()
                    self.connection.sendall(
                        _render(exc.status, [("Connection", "close")], body, "GET")
                    )
                    return
                if request is None:
                    return
                self.connection.sendall(serve(runtimes, request, arrival))
                if not request.keep_alive:
                    return
        except ConnectionError:
            pass  # the client reset or went away mid-request


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
        # Polls every 50 ms (not the default 500), so that stop() returns promptly.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(0.05,), daemon=True
        )
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
