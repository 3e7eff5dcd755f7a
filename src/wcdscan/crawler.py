"""Attack-surface discovery: seed pool ingestion and per-domain crawling.

The crawl walks same-site anchors breadth-first as the victim identity,
groups URLs structurally as it goes, and fetches only one page per group so
that large parameterized sections cost a handful of requests. Logout-looking
links are never requested. Per-domain crawls may run concurrently; within a
domain fetches are sequential.
"""

from __future__ import annotations

import json
import logging
import re
import urllib.robotparser
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urljoin, urlsplit

from .detector import HtmlSurfaces, MarkerSet, scan_body
from .errors import ConfigError
from .http_engine import (
    Identity,
    LoginDescriptor,
    NetworkError,
    RateLimiter,
    Role,
    Transport,
    fetch,
    is_logout_link,
)
from .url_toolkit import (
    MalformedUrl,
    ParsedUrl,
    UrlGroupKey,
    group_key,
    parse_url,
    pick_per_group,
    registrable_domain,
)

log = logging.getLogger(__name__)

RAW_PAGE_CAP_FACTOR = 10

# What HTML strips from around a URL attribute value; str.strip() would also
# take Unicode spaces such as U+00A0, which a browser keeps and percent-encodes.
_HTML_SPACE = " \t\n\f\r"

# An href that urljoin resolves to scheme://netloc + href unchanged: one
# leading slash, and no backslash, dot segment, ";", "#", tab, newline or
# empty trailing query for urljoin to rewrite.
_PLAIN_ROOTED_HREF = re.compile(r"(?!.*/\.\.?(?:[/?]|$))/(?!/)[^\\;#\t\n\r]*(?<!\?)")
# An absolute href that urljoin returns unchanged: a lowercase http(s)
# scheme, a host, and then printable ASCII with no space, "#", ";", "@",
# "[", "\" or "]", and no empty trailing query. urljoin resolves no dot
# segment in a URL that names its host.
_PLAIN_ABSOLUTE_HREF = re.compile(r"https?://(?![/?])[!\"$-:<-?A-Z^-~]+(?<!\?)")


@dataclass
class SiteConfig:
    """One seed-pool site: its hosts plus login/marker references."""

    primary_domain: str
    subdomains: tuple[str, ...] = ()
    scheme: str = "http"
    victim_login: LoginDescriptor | None = None
    attacker_login: LoginDescriptor | None = None
    markers: MarkerSet = field(default_factory=lambda: MarkerSet([]))
    budget: int | None = None  # overrides the scan-wide page-group budget

    @property
    def site(self) -> str:
        return registrable_domain(self.primary_domain)


@dataclass
class SeedPool:
    sites: tuple[SiteConfig, ...]


@dataclass
class AttackSurface:
    """Representative pages selected for one domain, with the victim bodies
    of the pages the crawl fetched (keyed by URL text) for marker gating."""

    domain: str
    pages: tuple[ParsedUrl, ...]
    pages_seen: int
    truncated: bool
    victim_bodies: dict[str, bytes] = field(default_factory=dict)


def _login_descriptor(scheme: str, host: str, login: dict, role: str) -> LoginDescriptor:
    creds = login.get(role)
    if not creds:
        raise ConfigError(f"login config missing {role!r} credentials")
    missing = [key for key in ("username", "password") if key not in creds]
    if missing:
        raise ConfigError(f"login config {role!r} credentials lack {', '.join(missing)}")
    fields = {
        login.get("username_field", "username"): creds["username"],
        login.get("password_field", "password"): creds["password"],
    }
    return LoginDescriptor(
        url=f"{scheme}://{host}{login.get('path', '/login')}",
        fields=fields,
        method=login.get("method", "POST"),
        success_statuses=tuple(login.get("success_statuses", [200])),
        success_marker=login.get("success_marker"),
    )


def site_config_from_dict(primary: str, subdomains: tuple[str, ...], data: dict) -> SiteConfig:
    scheme = data.get("scheme", "http")
    victim_login = attacker_login = None
    if "login" in data:
        victim_login = _login_descriptor(scheme, primary, data["login"], "victim")
        attacker_login = _login_descriptor(scheme, primary, data["login"], "attacker")
    try:
        markers = MarkerSet([(m["label"], m["value"]) for m in data.get("markers") or ()])
    except KeyError as exc:
        raise ConfigError(f"bad markers: an entry lacks {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad markers: {exc}") from exc
    budget = data.get("budget")
    if "budget" in data and (type(budget) is not int or budget < 1):
        raise ConfigError(f"site budget must be a positive integer, got {budget!r}")
    return SiteConfig(
        primary_domain=primary,
        subdomains=subdomains,
        scheme=scheme,
        victim_login=victim_login,
        attacker_login=attacker_login,
        markers=markers,
        budget=budget,
    )


def probe_host(scheme: str, host: str, transport: Transport, rate_limiter: RateLimiter) -> bool:
    """True when the host answers HTTP at all (HEAD first, then GET)."""
    probe_identity = Identity(role=Role.UNAUTHENTICATED)
    for method in ("HEAD", "GET"):
        try:
            fetch(probe_identity, f"{scheme}://{host}/", rate_limiter, transport, method=method)
            return True
        except NetworkError:
            continue
    return False


def ingest_domains(
    path: str, transport: Transport, rate_limiter: RateLimiter, probe: bool = True
) -> SeedPool:
    """Load a seed file (one host per line, optional site-config reference)
    into a pool, keeping only hosts that answer HTTP(S). The calling thread's
    connections on ``transport`` are closed before it returns.

    Hosts sharing a registrable domain form one site; the config reference of
    the first such line applies to the whole site. Malformed lines raise
    ConfigError before any scanning starts.
    """
    seed_path = Path(path)
    if not seed_path.is_file():
        raise ConfigError(f"seed file not found: {path}")

    entries: list[tuple[str, str | None, str | None]] = []
    for lineno, line in enumerate(seed_path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) > 2:
            raise ConfigError(f"{path}:{lineno}: expected 'host [config]', got {line!r}")
        host = tokens[0]
        scheme = None
        if "://" in host:
            try:
                parsed = parse_url(host)
            except MalformedUrl as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            host, scheme = parsed.host, parsed.scheme
        if not re.fullmatch(r"[a-z0-9.-]+", host, re.IGNORECASE):
            raise ConfigError(f"{path}:{lineno}: invalid host {host!r}")
        config_ref = tokens[1] if len(tokens) == 2 else None
        entries.append((host.lower(), config_ref, scheme))

    by_site: dict[str, list[tuple[str, str | None, str | None]]] = {}
    for host, config_ref, scheme in entries:
        by_site.setdefault(registrable_domain(host), []).append((host, config_ref, scheme))

    # Every site's config is built, and so checked, before the first probe.
    planned = []
    for site_key, rows in by_site.items():
        hosts: list[str] = []
        for host, _, _ in rows:
            if host not in hosts:
                hosts.append(host)
        primary = next((h for h in hosts if h == site_key), hosts[0])
        config_ref = next((ref for _, ref, _ in rows if ref), None)
        data: dict = {"scheme": next((s for _, _, s in rows if s), None) or "http"}
        if config_ref:
            config_path = Path(config_ref)
            if not config_path.is_absolute():
                config_path = seed_path.parent / config_path
            try:
                data.update(json.loads(config_path.read_text(encoding="utf-8")))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"bad site config {config_ref!r}: {exc}") from exc
        site_config_from_dict(primary, (), data)
        planned.append((site_key, hosts, primary, data))

    sites = []
    for site_key, hosts, primary, data in planned:
        try:
            live = [
                h for h in hosts
                if not probe or probe_host(data["scheme"], h, transport, rate_limiter)
            ]
        finally:
            transport.close()  # what the probes opened
        if not live:
            log.info("seed site %s: no live hosts, skipping", site_key)
            continue
        # Built again: the login URLs name the live primary host.
        primary = primary if primary in live else live[0]
        subdomains = tuple(h for h in live if h != primary)
        sites.append(site_config_from_dict(primary, subdomains, data))
    return SeedPool(sites=tuple(sites))


def extract_links(body: bytes, base_url: str, scan: HtmlSurfaces | None = None) -> list[str]:
    """Absolute http(s) URLs from anchor hrefs, in document order, without
    their fragments (a fragment names a part of the same page, RFC 3986
    section 3.5); character references such as ``&amp;`` are decoded before
    resolving, and an href that urljoin cannot read is skipped. ``scan`` is
    ``scan_body(body)`` when the caller already has it."""
    if scan is None:
        scan = scan_body(body)
    base = urlsplit(base_url)
    root = f"{base.scheme}://{base.netloc}" if base.scheme in ("http", "https") else None
    out = []
    for href in scan.anchor_hrefs:
        href = href.strip(_HTML_SPACE)
        if root is not None and _PLAIN_ROOTED_HREF.fullmatch(href):
            out.append(root + href)
            continue
        if _PLAIN_ABSOLUTE_HREF.fullmatch(href):
            out.append(href)
            continue
        try:
            absolute = urljoin(base_url, href)
        except ValueError:  # an unbalanced IPv6 bracket, say
            continue
        if absolute.startswith(("http://", "https://")):
            out.append(absolute.partition("#")[0])
    return out


def _load_robots(
    start_url: str,
    identity: Identity,
    rate_limiter: RateLimiter,
    transport: Transport,
) -> urllib.robotparser.RobotFileParser | None:
    robots_url = urljoin(start_url, "/robots.txt")
    try:
        exchange = fetch(identity, robots_url, rate_limiter, transport)
    except NetworkError:
        return None
    if exchange.status != 200:
        return None
    parser = urllib.robotparser.RobotFileParser()
    parser.parse(exchange.body.decode("utf-8", errors="replace").splitlines())
    return parser


def crawl_domain(
    site: SiteConfig,
    identity: Identity,
    budget: int = 500,
    *,
    rate_limiter: RateLimiter,
    transport: Transport,
    seed: int = 0,
    respect_robots: bool = False,
    html_scans: dict[bytes, HtmlSurfaces] | None = None,
) -> AttackSurface:
    """Breadth-first crawl of one domain up to ``budget`` structural groups.

    The crawl ends, ``truncated``, at the first page of a group past the
    budget or at the page past ``budget * RAW_PAGE_CAP_FACTOR`` pages; that
    page is not counted in ``pages_seen``.

    Only the first page of each group is fetched, for link discovery: one
    request per group, plus ``robots.txt`` when asked. The returned victim
    bodies are those of the fetched pages, which need not be the groups'
    seeded representatives. Each distinct fetched body is tokenized once,
    and its ``scan_body`` result kept in ``html_scans`` (when given) under
    the body itself, for the secret sweep of the same site's tests to read.
    """
    start = f"{site.scheme}://{site.primary_domain}/"
    site_scope = site.site
    raw_cap = budget * RAW_PAGE_CAP_FACTOR

    robots = None
    if respect_robots:
        robots = _load_robots(start, identity, rate_limiter, transport)

    queue: deque[str] = deque([start])
    seen: set[str] = {start}  # every URL ever queued
    in_scope: dict[str, bool] = {}  # host -> same registrable domain as the site
    members: dict[UrlGroupKey, list[ParsedUrl]] = {}
    victim_bodies: dict[str, bytes] = {}
    html_scans = {} if html_scans is None else html_scans
    pages_seen = 0
    truncated = False

    while queue:
        raw_url = queue.popleft()
        try:
            page = parse_url(raw_url)
        except MalformedUrl:
            log.debug("skipping malformed link %s", raw_url)
            continue
        if is_logout_link(page.raw_path, page.raw_query):
            continue
        if robots is not None and not robots.can_fetch(identity.user_agent, raw_url):
            continue
        scoped = in_scope.get(page.host)
        if scoped is None:
            scoped = in_scope[page.host] = registrable_domain(page.host) == site_scope
        if not scoped:
            continue

        key = group_key(page)
        group = members.get(key)
        if group is None and len(members) >= budget:
            truncated = True
            break
        if pages_seen == raw_cap:
            truncated = True
            break
        pages_seen += 1
        if group is None:
            members[key] = [page]
        else:
            group.append(page)
        if group is not None:
            continue
        try:
            exchange = fetch(identity, raw_url, rate_limiter, transport)
        except NetworkError as exc:
            log.warning("crawl fetch failed for %s: %s", raw_url, exc)
            continue
        victim_bodies[page.text()] = exchange.body
        scan = html_scans.get(exchange.body)
        if scan is None:
            scan = html_scans[exchange.body] = scan_body(exchange.body)
        for link in extract_links(exchange.body, exchange.url, scan):
            if link not in seen:
                seen.add(link)
                queue.append(link)

    representatives = pick_per_group(members, seed)
    return AttackSurface(
        domain=site.primary_domain,
        pages=tuple(representatives),
        pages_seen=pages_seen,
        truncated=truncated,
        victim_bodies=victim_bodies,
    )


def filter_marked_pages(
    surface: AttackSurface, markers: MarkerSet, victim: Identity,
    *, rate_limiter: RateLimiter, transport: Transport,
) -> AttackSurface:
    """Keep only pages whose victim-rendered body embeds at least one marker
    (the marker-gated scan mode). A page whose body the crawl did not fetch
    is fetched here as ``victim``; a failed fetch counts as an empty body.
    Without markers no page can qualify, so nothing is fetched."""
    values = [m.value.encode() for m in markers]
    if not values:
        return replace(surface, pages=())
    kept = []
    for page in surface.pages:
        body = surface.victim_bodies.get(page.text())
        if body is None:
            try:
                body = fetch(victim, page.text(), rate_limiter, transport).body
            except NetworkError as exc:
                log.warning("representative fetch failed for %s: %s", page.text(), exc)
                body = b""
        if any(v in body for v in values):
            kept.append(page)
    return replace(surface, pages=tuple(kept))
