"""Local HTTP listener exposing SimSites as name-based virtual hosts.

The scanner talks to the lab over real sockets: it connects to the listener
address while sending the site's logical Host header (see
``Transport.resolve_overrides``). The listener speaks HTTP/1.1 with
keep-alive, so a worker sends all of its requests over one connection.
Requests are serialized per site, arrival times are logged per host for
pacing checks, and ``/_lab/*`` control endpoints allow deterministic clock
advancement from tests.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.cookies import SimpleCookie
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .sim import LabRequest, SimClock, SimSite, advance_clock, proxy_handle


@dataclass
class RequestLogEntry:
    t: float  # time.monotonic() at arrival
    method: str
    target: str
    has_cookie: bool


@dataclass
class SiteRuntime:
    site: SimSite
    clock: SimClock = field(default_factory=SimClock)
    lock: threading.Lock = field(default_factory=threading.Lock)
    log: list[RequestLogEntry] = field(default_factory=list)


class _VhostServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    runtimes: dict[str, SiteRuntime]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connections: set[socket.socket] = set()
        self.connections_lock = threading.Lock()

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


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK (about 40 ms a request).
    disable_nagle_algorithm = True

    def log_message(self, *args):  # keep test output clean
        pass

    def _runtime(self) -> SiteRuntime | None:
        host = self.headers.get("Host", "").split(":", 1)[0].lower()
        return self.server.runtimes.get(host)  # type: ignore[attr-defined]

    def _send(self, status: int, headers: list[tuple[str, str]], body: bytes, head_only=False):
        self.send_response(status)
        has_type = any(k.lower() == "content-type" for k, _ in headers)
        if not has_type:
            self.send_header("Content-Type", "text/html; charset=utf-8")
        for key, value in headers:
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if not head_only:
            self.wfile.write(body)

    def _control(self, runtime: SiteRuntime) -> None:
        parts = urlsplit(self.path)
        params = dict(parse_qsl(parts.query))
        with runtime.lock:
            if parts.path == "/_lab/advance":
                advance_clock(runtime.clock, float(params.get("seconds", "0")))
                payload = {"now": runtime.clock.now}
            elif parts.path == "/_lab/reset":
                runtime.site.reset()
                runtime.log.clear()
                runtime.clock.now = 0.0
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
                    "now": runtime.clock.now,
                    "entries": len(runtime.site.entries),
                    "origin_requests": runtime.site.origin_requests,
                }
            else:
                self._send(404, [], b'{"error": "unknown control endpoint"}')
                return
        self._send(200, [("Content-Type", "application/json")], json.dumps(payload).encode())

    def _handle(self, method: str) -> None:
        # Read the body before any early return: on a kept-alive connection
        # unread body bytes would be parsed as the next request.
        length = int(self.headers.get("Content-Length", "0") or 0)
        raw = self.rfile.read(length) if length > 0 else b""
        runtime = self._runtime()
        if runtime is None:
            self._send(404, [], b"<html><body>unknown lab host</body></html>")
            return
        if self.path.startswith("/_lab/"):
            self._control(runtime)
            return

        cookie_header = self.headers.get("Cookie", "")
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

        request = LabRequest(
            method=method,
            target=self.path,
            cookies=cookies,
            region=self.headers.get("X-Lab-Region", "default"),
            form=form,
        )
        with runtime.lock:
            runtime.log.append(
                RequestLogEntry(
                    t=time.monotonic(),
                    method=method,
                    target=self.path,
                    has_cookie=bool(cookie_header),
                )
            )
            response, event = proxy_handle(runtime.site, request, runtime.clock)
        headers = list(response.headers)
        headers.append(("X-Lab-Event", event.value))
        self._send(response.status, headers, response.body, head_only=(method == "HEAD"))

    def do_GET(self):
        self._handle("GET")

    def do_HEAD(self):
        self._handle("HEAD")

    def do_POST(self):
        self._handle("POST")


class LabServer:
    """Serves a list of SimSites on one local port, dispatching by Host."""

    def __init__(self, sites: list[SimSite], address: str = "127.0.0.1", port: int = 0):
        self.runtimes = {site.host: SiteRuntime(site=site) for site in sites}
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

    def site(self, host: str) -> SimSite:
        return self.runtimes[host].site

    def clock(self, host: str) -> SimClock:
        return self.runtimes[host].clock

    def request_log(self, host: str) -> list[RequestLogEntry]:
        return list(self.runtimes[host].log)
