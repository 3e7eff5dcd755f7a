"""Victim/attacker/unauthenticated HTTP identities, pacing, and fetching.

Every network interaction in the scanner flows through :func:`fetch`, which
keeps per-identity cookie jars authoritative, follows redirects hop by hop,
and takes a pacing token per request. Requests travel over HTTP/1.1
keep-alive sockets that :class:`Transport` pools per worker thread: each
request goes out in one write and each response is framed by
:mod:`wcdscan.http1`. Proxy settings in the environment (``HTTP_PROXY`` and
the like) are not used. Identities are confined to one worker at a time; the
rate limiter is shared and internally synchronized; exchanges, header index
included, are never modified once produced.
"""

from __future__ import annotations

import gzip
import logging
import re
import socket
import ssl
import string
import threading
import time
import zlib
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import timezone
from enum import Enum
from email.utils import parsedate_to_datetime
from urllib.parse import quote, urlencode, urljoin

from .http1 import UNSENDABLE_IN_VALUE, FramingError, Headers, read_response, render_request
from .url_toolkit import DEFAULT_PORTS, parse_url

log = logging.getLogger(__name__)

DEFAULT_USER_AGENT = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/124.0.0.0 Safari/537.36"
)

# Matched on word boundaries against path+query, case-insensitive.
DEFAULT_LOGOUT_PATTERNS = ("logout", "signout", "sign-out", "log-out", "session/destroy")
_LOGOUT_RE = re.compile(
    r"(?<![a-z0-9])(?:"
    + "|".join(map(re.escape, DEFAULT_LOGOUT_PATTERNS))
    + r")(?![a-z0-9])",
    re.IGNORECASE,
)

_REDIRECT_STATUSES = {301, 302, 303, 307, 308}
MAX_REDIRECTS = 10  # hops a fetch follows before TooManyRedirects

# Every identity advertises the same codings, so all three land on the same
# cache variant; bodies are decoded before marker search.
ACCEPT_ENCODING = "gzip, deflate"

# Characters http.client refuses in a host name.
_UNSENDABLE_HOST = re.compile(r"[\x00-\x20\x7f]")

# What RFC 6265 §5.2 trims from a cookie's name, value and attributes, and
# the one form of Max-Age it reads.
_WSP = " \t"
_DELTA_SECONDS = re.compile(r"-?[0-9]+")

# A kept-alive socket the server already closed fails like this before any
# response arrives; such a request is sent again once on a new connection.
_STALE_SOCKET_ERRORS = (FramingError, ConnectionResetError, BrokenPipeError)
TIMEOUT = 10.0  # seconds a connect or a read may take
RETRIES = 2  # further tries of a failed request
RETRY_BACKOFF = 0.1  # seconds between the tries of a failed request

Endpoint = tuple[str, str, int]  # (scheme, connect host, port)


class NetworkError(Exception):
    """Transport-level failure after bounded retries; the page is skipped."""


class TooManyRedirects(NetworkError):
    """Redirect chain exceeded the configured depth; the page is skipped."""


class AuthFailure(Exception):
    """Login descriptor did not produce a session; aborts the site scan."""


class Role(Enum):
    VICTIM = "victim"
    ATTACKER = "attacker"
    UNAUTHENTICATED = "unauthenticated"


@dataclass
class Cookie:
    """A stored cookie. ``domain`` is the setting host for a host-only cookie
    and the Domain attribute with a leading dot otherwise (RFC 6265 §5.3)."""

    domain: str
    name: str
    value: str
    expiry: float | None = None  # absolute epoch seconds; None = session cookie

    def expired(self, now: float) -> bool:
        return self.expiry is not None and self.expiry <= now

    def sent_to(self, host: str) -> bool:
        """A host-only cookie goes to its host alone, a domain cookie also to
        the subdomains of its domain; an IP address matches only itself
        (RFC 6265 §5.1.3)."""
        if host == self.domain.lstrip("."):
            return True
        is_ip = ":" in host or host.replace(".", "").isdigit()
        return self.domain.startswith(".") and not is_ip and host.endswith(self.domain)


@dataclass
class LoginDescriptor:
    """Declarative login: POST ``fields`` to ``url`` and check the outcome."""

    url: str
    fields: dict[str, str]
    method: str = "POST"
    success_statuses: tuple[int, ...] = (200,)
    success_marker: str | None = None


@dataclass
class Identity:
    """One browsing persona with its own cookie jar.

    The unauthenticated persona never sends nor stores cookies, so its jar is
    empty at every request.
    """

    role: Role
    cookie_jar: dict[tuple[str, str], Cookie] = field(default_factory=dict)
    credentials: LoginDescriptor | None = None
    user_agent: str = DEFAULT_USER_AGENT

    def cookie_header(self, host: str) -> str | None:
        if self.role is Role.UNAUTHENTICATED:
            return None
        now = time.time()
        pairs = [
            f"{c.name}={c.value}"
            for c in self.cookie_jar.values()
            if c.sent_to(host) and not c.expired(now)
        ]
        return "; ".join(pairs) if pairs else None

    def store_set_cookie(self, host: str, header_value: str) -> None:
        """Store one Set-Cookie value from ``host`` as RFC 6265 §5.2 reads it.

        The name and value are the text before the first ``;``, split at the
        first ``=`` and trimmed of spaces and tabs; quotes stay part of the
        value. A pair without ``=`` or with an empty name is ignored.
        Attributes are split the same way, and of each name the last valid
        one counts. Only ``Domain``, ``Max-Age`` (as ``-?DIGIT+``; it wins
        over ``Expires``) and ``Expires`` (as a UTC date, whatever zone it
        names) are read; every other attribute is ignored. A cookie whose
        ``Domain`` does not cover ``host``, or whose name or value holds CR,
        LF or NUL, is not stored. One that arrives already expired is not
        stored either: it removes the stored cookie of its domain and name
        (§5.3). Never raises.
        """
        if self.role is Role.UNAUTHENTICATED:
            return
        pair, *attributes = header_value.split(";")
        name, eq, value = pair.partition("=")
        name, value = name.strip(_WSP), value.strip(_WSP)
        if not eq or not name or UNSENDABLE_IN_VALUE.search(name + value):
            log.debug("Set-Cookie from %s not stored: %r", host, header_value)
            return
        domain = ""
        max_age: str | None = None
        expires: float | None = None
        for attribute in attributes:
            key, _, arg = attribute.partition("=")
            key, arg = key.strip(_WSP).lower(), arg.strip(_WSP)
            if key == "domain" and arg:
                domain = arg.removeprefix(".").lower()
            elif key == "max-age" and _DELTA_SECONDS.fullmatch(arg):
                max_age = arg
            elif key == "expires":
                try:
                    # Every cookie date is UTC (§5.1.1), whatever zone it
                    # names; timestamp() would read a date that parses
                    # without one ("-0000", asctime) as local time.
                    date = parsedate_to_datetime(arg).replace(tzinfo=timezone.utc)
                    expires = date.timestamp()
                except (TypeError, ValueError, OverflowError):
                    pass
        now = time.time()
        expiry = expires if max_age is None else now + float(max_age)
        cookie = Cookie(f".{domain}" if domain else host, name, value, expiry)
        if not cookie.sent_to(host):  # its Domain does not cover the setting host
            return
        if cookie.expired(now):
            self.cookie_jar.pop((domain or host, name), None)
        else:
            self.cookie_jar[(domain or host, name)] = cookie


@dataclass(frozen=True)
class HttpExchange:
    """One request/response pair. The body is kept verbatim (bytes) because
    marker search depends on exact content; ``headers`` is the response's
    header index as :func:`wcdscan.http1.index_fields` builds it."""

    url: str
    status: int
    headers: Headers
    body: bytes
    history: tuple[tuple[str, int], ...] = ()

    def header(self, name: str) -> str | None:
        """The field's values joined with ", ", or None when it is absent."""
        values = self.headers.get(name.lower())
        return None if values is None else ", ".join(values)


# Added to the pacing window so that network jitter downstream of the limiter
# cannot compress two boundary requests into the same observed second.
WINDOW_SLACK = 0.05


class RateLimiter:
    """Per-host pacing: at most ``rate`` requests in any trailing 1 s window
    (widened by ``WINDOW_SLACK``). Thread-safe."""

    def __init__(self, rate: float = 2.0, time_fn=time.monotonic, sleep_fn=time.sleep):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._max_in_window = max(1, int(rate))
        self.window = (1.0 if rate >= 1 else 1.0 / rate) + WINDOW_SLACK
        self._time = time_fn
        self._sleep = sleep_fn
        self._lock = threading.Lock()
        self._sent: dict[str, deque[float]] = {}

    def acquire(self, host: str) -> None:
        while True:
            with self._lock:
                now = self._time()
                sent = self._sent.setdefault(host, deque())
                while sent and sent[0] <= now - self.window:
                    sent.popleft()
                if len(sent) < self._max_in_window:
                    sent.append(now)
                    return
                wait = sent[0] + self.window - now
            self._sleep(max(wait, 0.001))


class _Connection:
    """One socket with its buffered reader. HTTPS verifies the certificate
    and the host name against the default trust store."""

    __slots__ = ("sock", "reader")

    def __init__(self, endpoint: Endpoint):
        scheme, host, port = endpoint
        sock = socket.create_connection((host, port), TIMEOUT)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class Transport:
    """Host routing and the keep-alive connections of a run.

    ``resolve_overrides`` maps a logical hostname to a concrete (ip, port) to
    connect to over plain HTTP while still sending the logical Host header;
    this is how the scanner reaches lab vhosts without DNS. Connections are
    pooled per thread and keyed by endpoint (scheme, connect host, port), so
    a worker reuses one socket per endpoint for every identity and every
    site without locking; :meth:`close` closes the calling thread's
    connections, or those that its next site will not use. HTTPS
    certificates and hostnames are verified against the default trust store.
    Proxy settings in the environment are not used.
    """

    resolve_overrides: dict[str, tuple[str, int]] = field(default_factory=dict)
    _local: threading.local = field(
        default_factory=threading.local, init=False, repr=False, compare=False
    )

    def _pool(self) -> dict[Endpoint, _Connection]:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        return pool

    def _discard(self, endpoint: Endpoint) -> None:
        """Close and forget the calling thread's connection to ``endpoint``."""
        conn = self._pool().pop(endpoint, None)
        if conn is not None:
            conn.close()

    def issue(
        self, method: str, endpoint: Endpoint, target: str, message: bytes
    ) -> tuple[int, Headers, bytes]:
        """Send one request message in one write and read the response:
        (status, header index, decoded body).

        Any failure up to the end of the body (refused or reset connection,
        timeout, framing fault, truncated or undecodable body) is retried
        ``RETRIES`` times and then raised as :class:`NetworkError`. A
        reused socket that turns out to be closed before any response
        arrives is replaced once without spending a retry.
        """
        pool = self._pool()
        last_exc: Exception | None = None
        may_reconnect = True
        attempt = 0
        while attempt <= RETRIES:
            conn = pool.get(endpoint)
            reused = conn is not None
            answered = False
            try:
                if conn is None:
                    conn = pool[endpoint] = _Connection(endpoint)
                conn.sock.sendall(message)
                answered = bool(conn.reader.peek(1))  # waits for the reply's first byte
                status, headers, body, keep_alive = read_response(conn.reader, method)
                if not keep_alive:
                    self._discard(endpoint)
                coding = headers.get("content-encoding")
                return status, headers, _decode(body, coding and ", ".join(coding))
            except (OSError, FramingError, zlib.error, EOFError) as exc:
                self._discard(endpoint)
                last_exc = exc
                stale = reused and not answered and isinstance(exc, _STALE_SOCKET_ERRORS)
                if stale and may_reconnect:
                    may_reconnect = False
                    continue
            attempt += 1
            if attempt <= RETRIES:
                time.sleep(RETRY_BACKOFF)
        scheme, host, port = endpoint
        raise NetworkError(
            f"{method} {scheme}://{host}:{port}{target} failed after retries: {last_exc}"
        )

    def close(self, keep: Iterable[str] = ()) -> None:
        """Close the calling thread's connections, except those to the
        endpoints that the URLs in ``keep`` route to. A URL that cannot be
        routed keeps nothing."""
        kept = set()
        for url in keep:
            try:
                kept.add(_route(url, self)[1])
            except NetworkError:
                pass
        pool = self._pool()
        for endpoint in [e for e in pool if e not in kept]:
            pool.pop(endpoint).close()


def _route(url: str, transport: Transport) -> tuple[str, Endpoint, str, str]:
    """Where to send a request for ``url``: (host, endpoint, request target,
    Host header value).

    The target keeps existing ``%XX`` escapes and reserved characters byte for
    byte (attack payloads depend on it) and percent-encodes only spaces,
    control characters and non-ASCII. A URL that ``parse_url`` rejects
    (another scheme, no host, a bad or zero port, a broken IPv6 literal) or
    whose host cannot be sent raises :class:`NetworkError`.
    """
    try:
        parsed = parse_url(url)
        host = parsed.host
        target = parsed.raw_path or "/"
        if parsed.raw_query:
            target += "?" + parsed.raw_query
        target = quote(target, safe=string.punctuation)
        if host in transport.resolve_overrides:
            ip, port = transport.resolve_overrides[host]
            return host, ("http", ip, port), target, host
        if _UNSENDABLE_HOST.search(host):
            raise ValueError(f"bad host {host!r}")
        try:
            host_value = host.encode("ascii").decode()
        except UnicodeEncodeError:
            host_value = host.encode("idna").decode()
    except ValueError as exc:  # MalformedUrl and UnicodeError are ValueErrors
        raise NetworkError(f"cannot route {url!r}: {exc}") from None
    if ":" in host:
        host_value = f"[{host_value}]"
    if parsed.port != DEFAULT_PORTS[parsed.scheme]:
        host_value = f"{host_value}:{parsed.port}"
    return host, (parsed.scheme, host, parsed.port), target, host_value


def _decode(body: bytes, content_encoding: str | None) -> bytes:
    """Undo gzip and deflate content codings, last applied first."""
    if not body or not content_encoding:
        return body
    for coding in reversed(content_encoding.lower().split(",")):
        coding = coding.strip()
        if coding in ("gzip", "x-gzip"):
            body = gzip.decompress(body)
        elif coding == "deflate":
            try:
                body = zlib.decompress(body)
            except zlib.error:  # raw deflate without the zlib wrapper
                body = zlib.decompress(body, -zlib.MAX_WBITS)
        elif coding not in ("", "identity"):
            break  # a coding we never asked for: leave the body as sent
    return body


def fetch(
    identity: Identity,
    url: str,
    rate_limiter: RateLimiter,
    transport: Transport,
    method: str = "GET",
    data: dict[str, str] | None = None,
) -> HttpExchange:
    """Fetch a URL as the given identity, following redirects hop by hop.

    Cookies are sent/stored per the identity's jar (never for the
    unauthenticated role), every hop takes a pacing token, and the full hop
    chain is recorded on the returned exchange. A redirect keeps the method
    and form, except that a POST becomes a GET without a form on a 301 or
    302, and so does every method but HEAD on a 303 (RFC 9110 section 15.4).
    A hop that cannot be routed
    raises :class:`NetworkError` without taking a token, and so does a
    ``User-Agent`` or ``Cookie`` value holding CR, LF or NUL (a stored
    cookie never does: ``store_set_cookie`` drops such values).
    """
    history: list[tuple[str, int]] = []
    current = url
    for _hop in range(MAX_REDIRECTS + 1):
        host, endpoint, target, host_value = _route(current, transport)
        cookie = identity.cookie_header(host)
        for value in (identity.user_agent, cookie or ""):
            if UNSENDABLE_IN_VALUE.search(value):
                raise NetworkError(f"header value for {host} holds CR, LF or NUL: {value!r}")
        rate_limiter.acquire(host)
        payload = urlencode(data).encode() if data else b""
        fields = [("User-Agent", identity.user_agent), ("Accept", "*/*"),
                  ("Accept-Encoding", ACCEPT_ENCODING)]
        if cookie:
            fields.append(("Cookie", cookie))
        if payload:
            fields.append(("Content-Type", "application/x-www-form-urlencoded"))
        message = render_request(method, target, host_value, fields, payload)
        status, headers, body = transport.issue(method, endpoint, target, message)
        for value in headers.get("set-cookie", ()):
            identity.store_set_cookie(host, value)
        redirect = status in _REDIRECT_STATUSES
        location = ", ".join(headers.get("location", ())) if redirect else ""
        if location:
            history.append((current, status))
            try:
                current = urljoin(current, location)
            except ValueError as exc:
                raise NetworkError(f"cannot route redirect to {location!r}: {exc}") from None
            if status == 303 and method != "HEAD" or status in (301, 302) and method == "POST":
                method, data = "GET", None
            continue
        return HttpExchange(current, status, headers, body, tuple(history))
    raise TooManyRedirects(f"more than {MAX_REDIRECTS} redirects from {url}")


def maintain_session(
    identity: Identity, rate_limiter: RateLimiter, transport: Transport
) -> Identity:
    """Re-run the login descriptor when the jar is empty or holds expired
    cookies; a fresh jar triggers no network activity."""
    if identity.credentials is None:
        raise AuthFailure("identity has no login descriptor")
    now = time.time()
    expired = [key for key, cookie in identity.cookie_jar.items() if cookie.expired(now)]
    if identity.cookie_jar and not expired:
        return identity
    for key in expired:
        del identity.cookie_jar[key]
    login = identity.credentials
    exchange = fetch(
        identity,
        login.url,
        rate_limiter,
        transport,
        method=login.method,
        data=login.fields,
    )
    ok = exchange.status in login.success_statuses
    if ok and login.success_marker is not None:
        ok = login.success_marker.encode() in exchange.body
    if not ok or not identity.cookie_jar:
        raise AuthFailure(
            f"login to {login.url} failed for {identity.role.value} "
            f"(status {exchange.status}, cookies {len(identity.cookie_jar)})"
        )
    return identity


def is_logout_link(path: str, query: str) -> bool:
    """True when a logout pattern matches a URL's path or query on word
    boundaries, case-insensitively."""
    return _LOGOUT_RE.search(f"{path}?{query}" if query else path) is not None
