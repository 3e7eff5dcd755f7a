"""Deterministic origin server + caching proxy pair with a controllable clock.

A SimSite is a scenario: origin URL semantics, a cache rules profile,
resources with per-account template slots, and login accounts. Nothing in the
lab modifies it. Everything that changes while a site serves (the simulated
clock, the cache entries, the sessions, the counters and the request log)
lives in its SiteRuntime. ``proxy_handle`` is the cache in front of
``origin_resolve``; entries live and die by the runtime's clock, so expiry
scenarios replay identically every run. One SiteRuntime is single-threaded by
contract (its ``lock`` serializes callers); independent runtimes, of the same
scenario or not, may run concurrently.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from string import Template
from urllib.parse import unquote

from ..cache_policy import (
    CdnProfile,
    builtin_profile,
    parse_cache_control,
    profile_from_dict,
    profile_to_dict,
    decide,
)
from .origin import OriginSemantics, route

GENERIC_404_BODY = (
    "<html><head><title>Not Found</title></head>"
    "<body><h1>404 Not Found</h1>"
    "<p>The requested resource was not found on this server.</p></body></html>"
)
LOGIN_REQUIRED_BODY = (
    '<html><body><p>Sign in required.</p><a href="/login">Sign in</a></body></html>'
)
FORBIDDEN_BODY = "<html><body><h1>403 Forbidden</h1></body></html>"
BAD_LOGIN_BODY = "<html><body><p>Invalid credentials.</p></body></html>"
SIGNED_IN_BODY = '<html><body><p>Signed in.</p><a href="/">Continue</a></body></html>'


class CacheEvent(Enum):
    HIT = "hit"
    MISS_STORED = "miss_stored"
    MISS_NOT_STORED = "miss_not_stored"
    EXPIRED = "expired"


@dataclass
class CacheEntry:
    body: bytes
    status: int
    headers: tuple[tuple[str, str], ...]
    stored_at: float
    ttl: float

    def fresh(self, now: float) -> bool:
        return self.stored_at + self.ttl > now


@dataclass
class LabRequest:
    method: str = "GET"
    target: str = "/"  # path[?query], percent-encoding exactly as on the wire
    cookies: dict[str, str] = field(default_factory=dict)
    form: dict[str, str] | None = None


@dataclass
class LabResponse:
    status: int
    headers: list[tuple[str, str]]
    body: bytes

    def header(self, name: str) -> str | None:
        lowered = name.lower()
        for key, value in self.headers:
            if key.lower() == lowered:
                return value
        return None


@dataclass
class LabResource:
    """One origin resource; the body template may carry ``$field`` slots that
    render from the requesting account's values."""

    path: str
    body_template: str
    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    protected: bool = False
    content_type: str = "text/html; charset=utf-8"

    def render(self, values: dict[str, str] | None) -> bytes:
        return Template(self.body_template).safe_substitute(values or {}).encode()


@dataclass
class LabAccount:
    username: str
    password: str
    values: dict[str, str] = field(default_factory=dict)
    is_victim: bool = False


@dataclass
class LabAuth:
    """Login configuration for one site; its sessions live in the runtime."""

    accounts: dict[str, LabAccount]
    marker_labels: tuple[str, ...] = ()
    cookie_name: str = "sid"
    mode: str = "redirect"  # or "forbid"
    login_path: str = "/login"
    rotate: bool = False

    def victim(self) -> LabAccount:
        for account in self.accounts.values():
            if account.is_victim:
                return account
        raise LookupError("site has no victim account")


def _string(value, what: str) -> str:
    """A scenario value that the lab renders or encodes: a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _strings(mapping, what: str) -> dict[str, str]:
    """A scenario mapping of strings to strings, such as a resource's headers."""
    mapping = dict(mapping)
    for k, v in mapping.items():
        _string(k, f"{what} name")
        _string(v, f"{what} {k!r}")
    return mapping


@dataclass
class SimSite:
    """One simulated site: origin semantics + cache profile + resources."""

    name: str
    host: str
    origin: OriginSemantics
    cache_profile: CdnProfile
    resources: dict[str, LabResource]
    proxy_decodes_percent: bool = False
    auth: LabAuth | None = None
    ttl_overrides: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for path, resource in self.resources.items():
            if path != resource.path:
                raise ValueError(f"resource {resource.path!r} is filed under {path!r}")

    def marker_pages(self) -> list[str]:
        """Protected resource paths whose victim rendering embeds a marker."""
        if not self.auth or not self.auth.marker_labels:
            return []
        victim = self.auth.victim()
        out = []
        for path in sorted(self.resources):
            res = self.resources[path]
            if not res.protected:
                continue
            body = res.render(victim.values)
            if any(victim.values[l].encode() in body for l in self.auth.marker_labels):
                out.append(path)
        return out

    def to_dict(self) -> dict:
        data: dict = {
            "name": self.name,
            "host": self.host,
            "origin": self.origin.to_dict(),
            "cache_profile": profile_to_dict(self.cache_profile),
            "proxy_decodes_percent": self.proxy_decodes_percent,
            "resources": [
                {
                    "path": r.path,
                    "body": r.body_template,
                    "status": r.status,
                    "headers": r.headers,
                    "protected": r.protected,
                    "content_type": r.content_type,
                }
                for r in self.resources.values()
            ],
        }
        if self.ttl_overrides:
            data["ttl_overrides"] = self.ttl_overrides
        if self.auth:
            data["auth"] = {
                "cookie_name": self.auth.cookie_name,
                "mode": self.auth.mode,
                "login_path": self.auth.login_path,
                "rotate": self.auth.rotate,
                "marker_labels": list(self.auth.marker_labels),
                "accounts": [
                    {
                        "username": a.username,
                        "password": a.password,
                        "values": a.values,
                        "is_victim": a.is_victim,
                    }
                    for a in self.auth.accounts.values()
                ],
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimSite":
        profile_data = data["cache_profile"]
        if isinstance(profile_data, str):
            profile = builtin_profile(profile_data)
        else:
            profile = profile_from_dict(profile_data)
        auth = None
        if "auth" in data:
            ad = data["auth"]
            accounts = [
                LabAccount(
                    username=_string(a["username"], "account username"),
                    password=_string(a["password"], "account password"),
                    values=_strings(a.get("values", {}), "account value"),
                    is_victim=bool(a.get("is_victim", False)),
                )
                for a in ad["accounts"]
            ]
            victim_values = next((a.values for a in accounts if a.is_victim), {})
            marker_labels = tuple(ad.get("marker_labels", ()))
            for label in marker_labels:
                if label not in victim_values:
                    raise ValueError(f"marker label {label!r} names no victim value")
            mode = ad.get("mode", "redirect")
            if mode not in ("redirect", "forbid"):
                raise ValueError(f"auth mode must be 'redirect' or 'forbid', got {mode!r}")
            auth = LabAuth(
                accounts={account.username: account for account in accounts},
                marker_labels=marker_labels,
                cookie_name=_string(ad.get("cookie_name", "sid"), "auth cookie_name"),
                mode=mode,
                login_path=_string(ad.get("login_path", "/login"), "auth login_path"),
                rotate=bool(ad.get("rotate", False)),
            )
        resources: dict[str, LabResource] = {}
        for r in data["resources"]:
            path = _string(r["path"], "resource path")
            if path in resources:
                raise ValueError(f"resource path {path!r} appears twice")
            resources[path] = LabResource(
                path=path,
                body_template=_string(r["body"], "resource body"),
                status=int(r.get("status", 200)),
                headers=_strings(r.get("headers", {}), "resource header"),
                protected=bool(r.get("protected", False)),
                content_type=_string(
                    r.get("content_type", "text/html; charset=utf-8"), "resource content_type"
                ),
            )
        return cls(
            name=_string(data["name"], "name"),
            host=_string(data["host"], "host").lower(),
            origin=OriginSemantics.from_dict(data["origin"]),
            cache_profile=profile,
            resources=resources,
            proxy_decodes_percent=bool(data.get("proxy_decodes_percent", False)),
            auth=auth,
            ttl_overrides=dict(data.get("ttl_overrides", {})),
        )


@dataclass
class RequestLogEntry:
    t: float  # time.monotonic() when the request line arrived
    method: str
    target: str
    has_cookie: bool


class SiteRuntime:
    """The state of one scenario while it serves: simulated clock, cache
    entries, sessions, login and origin request counts, and the request log.
    Only ``reset`` and the lab's own calls change it; ``site`` is read."""

    def __init__(self, site: SimSite):
        self.site = site
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.now = 0.0
        self.entries: dict[str, CacheEntry] = {}
        self.sessions: dict[str, str] = {}
        self.logins = 0
        self.origin_requests = 0
        self.log: list[RequestLogEntry] = []

    def advance(self, seconds: float) -> float:
        if not 0 <= seconds < math.inf:  # NaN fails both comparisons
            raise ValueError("clock can only move forward by a finite number of seconds")
        self.now += seconds
        return self.now

    def log_in(self, username: str) -> str:
        """A session token for ``username``: the same one on every login
        unless the site rotates sessions."""
        self.logins += 1
        basis = f"{self.site.name}|{username}"
        if self.site.auth.rotate:
            basis += f"|{self.logins}"
        token = "s" + hashlib.sha1(basis.encode()).hexdigest()[:15]
        self.sessions[token] = username
        return token

    def user(self, cookies: dict[str, str]) -> str | None:
        auth = self.site.auth
        return self.sessions.get(cookies.get(auth.cookie_name, "")) if auth else None


def origin_resolve(site: SimSite, raw_target: str, user: str | None = None) -> LabResponse:
    """Resolve a wire target through the site's URL semantics and render it.

    Unauthenticated access to a protected resource yields a login redirect or
    403 per the site's auth mode; unmatched paths yield a generic 404. Total:
    every input produces a response.
    """
    raw_path = raw_target.partition("?")[0]
    resolved = route(site.origin, raw_path, site.resources.keys())
    if resolved is None:
        return LabResponse(
            404, [("Content-Type", "text/html; charset=utf-8")], GENERIC_404_BODY.encode()
        )
    res = site.resources[resolved]
    if res.protected:
        if site.auth is None or user is None:
            if site.auth is not None and site.auth.mode == "redirect":
                return LabResponse(
                    302,
                    [
                        ("Content-Type", "text/html; charset=utf-8"),
                        ("Location", site.auth.login_path),
                    ],
                    LOGIN_REQUIRED_BODY.encode(),
                )
            return LabResponse(
                403, [("Content-Type", "text/html; charset=utf-8")], FORBIDDEN_BODY.encode()
            )
        values = site.auth.accounts[user].values
    else:
        values = None
        if site.auth and user in site.auth.accounts:
            values = site.auth.accounts[user].values
    headers = {"Content-Type": res.content_type}
    headers.update(res.headers)
    return LabResponse(res.status, list(headers.items()), res.render(values))


def handle_login(runtime: SiteRuntime, form: dict[str, str]) -> LabResponse:
    """POST login flow: valid credentials set the session cookie and redirect
    to the home page."""
    site = runtime.site
    if site.auth is None:
        return LabResponse(404, [("Content-Type", "text/html")], GENERIC_404_BODY.encode())
    account = site.auth.accounts.get(form.get("username", ""))
    if account is None or account.password != form.get("password", ""):
        return LabResponse(403, [("Content-Type", "text/html")], BAD_LOGIN_BODY.encode())
    token = runtime.log_in(account.username)
    return LabResponse(
        303,
        [
            ("Content-Type", "text/html"),
            ("Location", "/"),
            ("Set-Cookie", f"{site.auth.cookie_name}={token}; Max-Age=3600; Path=/"),
        ],
        SIGNED_IN_BODY.encode(),
    )


def _proxy_view(site: SimSite, target: str) -> tuple[str, str]:
    """(cache key, rule-matching path) for the proxy's view of the target."""
    if site.proxy_decodes_percent:
        decoded = unquote(target).split("#", 1)[0]
        return decoded, decoded.partition("?")[0]
    return target, target.partition("?")[0]


_VENDOR_HEADERS = {
    "akamai_default": lambda hit, tag: [
        ("Server", "AkamaiGHost"),
        ("X-Cache", f"TCP_{'HIT' if hit else 'MISS'} from cache-lab (AkamaiGHost)"),
    ],
    "cloudflare_default": lambda hit, tag: [
        ("Server", "cloudflare"),
        ("CF-Cache-Status", "HIT" if hit else "MISS"),
        ("CF-Ray", f"{tag}-LAB"),
    ],
    "cloudfront_default": lambda hit, tag: [
        ("Via", f"1.1 {tag}.cloudfront.net (CloudFront)"),
        ("X-Amz-Cf-Id", tag),
        ("X-Amz-Cf-Pop", "LAB50-C1"),
        ("X-Cache", f"{'Hit' if hit else 'Miss'} from cloudfront"),
    ],
    "fastly_default": lambda hit, tag: [
        ("X-Served-By", "cache-lab-LAB"),
        ("X-Fastly-Request-Id", tag),
        ("X-Cache", "HIT" if hit else "MISS"),
    ],
}


def _proxy_headers(site: SimSite, hit: bool, key: str) -> list[tuple[str, str]]:
    tag = hashlib.sha1(f"{site.name}|{key}".encode()).hexdigest()[:16]
    make = _VENDOR_HEADERS.get(site.cache_profile.name)
    if make is None:
        return [("X-Cache", "HIT" if hit else "MISS"), ("Via", "1.1 cache-lab")]
    return make(hit, tag)


def proxy_handle(runtime: SiteRuntime, request: LabRequest) -> tuple[LabResponse, CacheEvent]:
    """Serve one request through the caching proxy.

    The cache key is the proxy-visible URL (decoded only when the proxy
    decodes percent-encoding). Fresh entries are served without contacting
    the origin; otherwise the response is forwarded and stored or not per the
    profile decision.
    """
    site = runtime.site
    if request.method == "POST":
        if site.auth and request.target.partition("?")[0] == site.auth.login_path:
            response = handle_login(runtime, request.form or {})
        else:
            runtime.origin_requests += 1
            response = origin_resolve(site, request.target, runtime.user(request.cookies))
        response.headers.extend(_proxy_headers(site, False, request.target))
        return response, CacheEvent.MISS_NOT_STORED

    key, rule_path = _proxy_view(site, request.target)
    now = runtime.now
    event: CacheEvent | None = None

    entry = runtime.entries.get(key)
    if entry is not None:
        if entry.fresh(now):
            headers = list(entry.headers)
            headers.append(("Age", str(int(now - entry.stored_at))))
            headers.extend(_proxy_headers(site, True, key))
            return LabResponse(entry.status, headers, entry.body), CacheEvent.HIT
        del runtime.entries[key]
        event = CacheEvent.EXPIRED

    runtime.origin_requests += 1
    response = origin_resolve(site, request.target, runtime.user(request.cookies))
    directives = parse_cache_control(response.header("Cache-Control") or "")
    decision = decide(site.cache_profile, rule_path, response.status, directives)
    ttl = decision.ttl
    if decision.store:
        for suffix, seconds in site.ttl_overrides.items():
            if rule_path.endswith(suffix):
                ttl = seconds
                break
        runtime.entries[key] = CacheEntry(
            body=response.body,
            status=response.status,
            headers=tuple(response.headers),
            stored_at=now,
            ttl=ttl,
        )
    if event is None:
        event = CacheEvent.MISS_STORED if decision.store else CacheEvent.MISS_NOT_STORED
    response.headers.extend(_proxy_headers(site, False, key))
    return response, event
