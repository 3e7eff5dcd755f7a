"""Shipped scenario catalog.

The core of it is the matrix: every subset of size <= 2 of the five origin
URL semantics, crossed with the four CDN default profiles, crossed with
presence/absence of ``Cache-Control: no-store`` on the protected page
(16 x 4 x 2 = 128 sites). Support sites cover the classic path-parameter
replay, a large sitemap for grouping tests, session rotation, TTL expiry,
and pacing. Markers and session secrets are derived deterministically from
the site name so the oracle and a live scan always agree on content.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from ..cache_policy import builtin_profile
from ..entropy import shannon_entropy
from ..errors import ScenarioError
from .origin import OriginSemantics, OriginVariant
from .sim import LabAccount, LabAuth, LabResource, SimSite

VICTIM_PASSWORD = "victim-pass"
ATTACKER_PASSWORD = "attacker-pass"

_VARIANT_SLUGS = (
    ("pp", OriginVariant.PATH_PARAMETER_FALLBACK),
    ("nl", OriginVariant.TRUNCATE_AT_NEWLINE),
    ("sc", OriginVariant.SEMICOLON_PARAMS),
    ("fr", OriginVariant.TRUNCATE_AT_FRAGMENT),
    ("qm", OriginVariant.TRUNCATE_AT_QUESTION),
)

_PROFILE_SLUGS = (
    ("akamai", "akamai_default"),
    ("cloudflare", "cloudflare_default"),
    ("cloudfront", "cloudfront_default"),
    ("fastly", "fastly_default"),
)

_TRUNCATION_VARIANTS = frozenset(
    v for v in OriginVariant if v is not OriginVariant.PATH_PARAMETER_FALLBACK
)

HOME_BODY = (
    "<html><head><title>Lab site</title></head><body>"
    "<h1>Welcome</h1>"
    '<p><a href="/account.php">Your account</a></p>'
    '<p><a href="/login">Sign in</a></p>'
    '<p><a href="/logout">Sign out</a></p>'
    "</body></html>"
)

ACCOUNT_BODY_TEMPLATE = (
    "<html><head><title>Your account</title></head><body>"
    "<h1>Account</h1>"
    "<p>Name: $name</p>"
    "<p>Email: $email</p>"
    '<form method="post" action="/update">'
    '<input type="hidden" name="csrf_token" value="$csrf">'
    '<input type="text" name="display" value="">'
    '<input type="submit" value="Save">'
    "</form>"
    '<p><a href="/">Home</a> <a href="/logout">Sign out</a></p>'
    "</body></html>"
)

LOGIN_BODY = (
    "<html><head><title>Sign in</title></head><body>"
    "<h1>Sign in</h1>"
    '<form method="post" action="/login">'
    '<input type="text" name="username">'
    '<input type="password" name="password">'
    '<input type="submit" value="Sign in">'
    "</form>"
    "</body></html>"
)


def _derived_token(prefix: str, basis: str, min_entropy: float = 3.0) -> str:
    """Deterministic 16-char token with enough entropy to act as a marker."""
    for salt in itertools.count():
        value = prefix + hashlib.sha1(f"{basis}|{salt}".encode()).hexdigest()[: 16 - len(prefix)]
        if shannon_entropy(value) >= min_entropy:
            return value
    raise AssertionError("unreachable")


def victim_markers(site_name: str) -> dict[str, str]:
    return {
        "name": _derived_token("mk", f"{site_name}|name"),
        "email": _derived_token("mk", f"{site_name}|email"),
    }


def _auth_for(site_name: str, rotate: bool = False) -> LabAuth:
    markers = victim_markers(site_name)
    return LabAuth(
        accounts={
            "victim": LabAccount(
                username="victim",
                password=VICTIM_PASSWORD,
                values={
                    "name": markers["name"],
                    "email": markers["email"],
                    "csrf": _derived_token("ct", f"{site_name}|victim-csrf"),
                },
                is_victim=True,
            ),
            "attacker": LabAccount(
                username="attacker",
                password=ATTACKER_PASSWORD,
                values={
                    "name": "Attacker User",
                    "email": "attacker@example.test",
                    "csrf": _derived_token("ct", f"{site_name}|attacker-csrf"),
                },
            ),
        },
        marker_labels=("name", "email"),
        rotate=rotate,
    )


def _standard_resources(protected_headers: dict[str, str]) -> dict[str, LabResource]:
    return {
        "/": LabResource(path="/", body_template=HOME_BODY),
        "/login": LabResource(path="/login", body_template=LOGIN_BODY),
        "/logout": LabResource(
            path="/logout",
            body_template='<html><body><a href="/">Signed out</a></body></html>',
            status=302,
            headers={"Location": "/"},
        ),
        "/account.php": LabResource(
            path="/account.php",
            body_template=ACCOUNT_BODY_TEMPLATE,
            protected=True,
            headers=dict(protected_headers),
        ),
    }


def _account_site(
    name: str,
    variants: frozenset[OriginVariant],
    profile_name: str,
    no_store: bool,
    rotate: bool = False,
) -> SimSite:
    decode = bool(variants & _TRUNCATION_VARIANTS)
    headers = {"Cache-Control": "no-store"} if no_store else {}
    return SimSite(
        name=name,
        host=f"{name}.test",
        origin=OriginSemantics(variants=variants, decode_before_route=decode),
        cache_profile=builtin_profile(profile_name),
        resources=_standard_resources(headers),
        auth=_auth_for(name, rotate=rotate),
    )


def matrix_sites() -> list[SimSite]:
    """The 128-site scenario matrix (semantics subsets x profiles x no-store)."""
    subsets: list[tuple[tuple[str, OriginVariant], ...]] = [()]
    subsets += [(entry,) for entry in _VARIANT_SLUGS]
    subsets += list(itertools.combinations(_VARIANT_SLUGS, 2))

    sites = []
    for subset in subsets:
        slug = "-".join(s for s, _ in subset) or "none"
        variants = frozenset(v for _, v in subset)
        for profile_slug, profile_name in _PROFILE_SLUGS:
            for no_store in (False, True):
                name = f"{slug}-{profile_slug}-{'ns' if no_store else 'std'}"
                sites.append(_account_site(name, variants, profile_name, no_store))
    return sites


def classic_site() -> SimSite:
    """Path-parameter fallback origin behind an extension-list cache: the
    textbook scenario where /account.php/<bogus>.jpg gets stored."""
    return _account_site(
        "classic-pp",
        frozenset({OriginVariant.PATH_PARAMETER_FALLBACK}),
        "akamai_default",
        no_store=False,
    )


def rotation_site() -> SimSite:
    return _account_site(
        "rotation",
        frozenset({OriginVariant.PATH_PARAMETER_FALLBACK}),
        "akamai_default",
        no_store=False,
        rotate=True,
    )


def ttl_sites() -> list[SimSite]:
    return [
        _account_site(
            name,
            frozenset({OriginVariant.PATH_PARAMETER_FALLBACK}),
            "akamai_default",
            no_store=False,
        )
        for name in ("ttl-zero", "ttl-late")
    ]


def pacing_site() -> SimSite:
    return SimSite(
        name="pacing",
        host="pacing.test",
        origin=OriginSemantics(),
        cache_profile=builtin_profile("akamai_default"),
        resources={
            "/": LabResource(
                path="/", body_template="<html><body><p>pacing target</p></body></html>"
            )
        },
    )


def sitemap_site() -> SimSite:
    """1,200 crawlable pages falling into exactly 7 structural groups."""
    resources: dict[str, LabResource] = {}
    links: list[str] = []

    def page(path: str, title: str) -> None:
        resources[path] = LabResource(
            path=path,
            body_template=f"<html><head><title>{title}</title></head>"
            f"<body><h1>{title}</h1></body></html>",
        )

    for n in range(1, 501):
        page(f"/item/{n}", f"Item {n}")
        links.append(f"/item/{n}")
    for n in range(1, 401):
        page(f"/article/{n}", f"Article {n}")
        links.append(f"/article/{n}")
    page("/search", "Search results")
    links.extend(f"/search?q=term{n}" for n in range(150))
    page("/news", "News")
    links.extend(f"/news?id={n}&page={n % 7}" for n in range(100))
    page("/about", "About")
    links.append("/about")
    for n in range(1, 49):
        page(f"/tag/{n}", f"Tag {n}")
        links.append(f"/tag/{n}")
    links.append("/logout")  # matches the logout rule; the crawler must never request it
    page("/logout", "Signed out")

    home = (
        "<html><head><title>Sitemap lab</title></head><body><h1>Index</h1>"
        + "".join(f'<a href="{href}">{href}</a> ' for href in links)
        + "</body></html>"
    )
    resources["/"] = LabResource(path="/", body_template=home)
    return SimSite(
        name="sitemap",
        host="sitemap.test",
        origin=OriginSemantics(),
        cache_profile=builtin_profile("akamai_default"),
        resources=resources,
    )


def support_sites() -> list[SimSite]:
    return [classic_site(), rotation_site(), *ttl_sites(), pacing_site(), sitemap_site()]


def all_sites() -> list[SimSite]:
    return matrix_sites() + support_sites()


def seed_entry(site: SimSite) -> dict:
    """Scanner-side per-site config matching the site's accounts/markers."""
    entry: dict = {"scheme": "http"}
    if site.auth:
        victim = site.auth.victim()
        attacker = next(a for a in site.auth.accounts.values() if not a.is_victim)
        entry["login"] = {
            "path": site.auth.login_path,
            "method": "POST",
            "success_statuses": [200],
            "victim": {"username": victim.username, "password": victim.password},
            "attacker": {"username": attacker.username, "password": attacker.password},
        }
        entry["markers"] = [
            {"label": label, "value": victim.values[label]}
            for label in site.auth.marker_labels
        ]
    return entry


def load_scenarios(path: str) -> list[SimSite]:
    """The sites of a scenario file: a JSON array of ``SimSite.to_dict()``
    objects. A file that is not one raises ScenarioError, naming the entry
    that cannot be read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ScenarioError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(data, list):
        raise ScenarioError(f"{path}: want a JSON array of sites, got {type(data).__name__}")
    sites = []
    for index, item in enumerate(data):
        try:
            sites.append(SimSite.from_dict(item))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            name = item.get("name") if isinstance(item, dict) else None
            entry = f"entry {index}" + (f" ({name!r})" if isinstance(name, str) else "")
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ScenarioError(f"{path}: {entry}: {reason}") from None
    return sites


def dump_scenarios(sites: list[SimSite], path: str) -> None:
    """Writes the sites as a JSON array with one compact site object per
    line, encoding and writing one site at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for index, site in enumerate(sites):
            fh.write(",\n" if index else "\n")
            fh.write(json.dumps(site.to_dict(), separators=(",", ":")))
        fh.write("\n]\n")
