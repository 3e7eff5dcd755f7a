"""Seeded input generators for the four benchmark workloads.

Everything here is input: scenario lists for the lab, the scanner-side site
configs that match them, and synthetic verdicts. The same seed always gives
the same inputs. The scanner code under test never sees a seed; it receives
only what these functions build.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from dataclasses import dataclass

from wcdscan.cache_policy import builtin_profile
from wcdscan.crawler import SeedPool, site_config_from_dict
from wcdscan.detector import (
    DEFAULT_KEYWORDS,
    MIN_MARKER_ENTROPY,
    ScanVerdict,
    SecretCandidate,
    SecretSource,
    SecretTrigger,
    shannon_entropy,
)
from wcdscan.lab import catalog
from wcdscan.lab.origin import OriginSemantics, OriginVariant
from wcdscan.lab.sim import LabAccount, LabAuth, LabResource, SimSite
from wcdscan.url_toolkit import NONCE_ALPHABET, PathConfusionTechnique
from wcdscan.words import COMMON_WORDS

PROFILES = ("akamai_default", "cloudflare_default", "cloudfront_default", "fastly_default")
TRUNCATION_VARIANTS = frozenset(OriginVariant) - {OriginVariant.PATH_PARAMETER_FALLBACK}

# Dictionary words that can never form a secret-candidate name on their own.
PUBLIC_WORDS = tuple(
    sorted(
        {
            w.lower()
            for w in COMMON_WORDS
            if len(w) >= 3 and w.isalpha() and not any(k in w.lower() for k in DEFAULT_KEYWORDS)
        }
    )
)


def pool_for(sites: list[SimSite]) -> SeedPool:
    """Scanner-side seed pool whose logins and markers match the lab sites."""
    return SeedPool(
        sites=tuple(
            site_config_from_dict(site.host, (), catalog.seed_entry(site)) for site in sites
        )
    )


# ---------------------------------------------------------------- matrix-scan


def matrix_catalog() -> list[SimSite]:
    """The 129-site selfcheck catalog: 128 matrix sites plus ``classic-pp``."""
    return catalog.matrix_sites() + [catalog.classic_site()]


def matrix_shards(sites: list[SimSite], shards: int, seed: int) -> list[list[SimSite]]:
    """Split the catalog into ``shards`` seeded, near-equal scan batches."""
    order = list(sites)
    random.Random(seed).shuffle(order)
    return [order[i::shards] for i in range(shards)]


# ------------------------------------------------------------ large-page-scan


def _semantics_classes() -> list[list[frozenset[OriginVariant]]]:
    """The matrix's origin-semantics subsets (size <= 2), grouped by how many
    attack URLs reach a page: exact routing, path-parameter fallback alone,
    one truncation variant, two truncation variants, fallback plus one."""
    pp = OriginVariant.PATH_PARAMETER_FALLBACK
    truncations = sorted(TRUNCATION_VARIANTS, key=lambda v: v.value)
    return [
        [frozenset()],
        [frozenset({pp})],
        [frozenset({v}) for v in truncations],
        [frozenset(pair) for pair in itertools.combinations(truncations, 2)],
        [frozenset({pp, v}) for v in truncations],
    ]


def _safe_name(rng: random.Random, words: int, joiner: str) -> str:
    """A dictionary-word name that contains no secret keyword."""
    while True:
        parts = rng.sample(PUBLIC_WORDS, words)
        if joiner == "camel":
            name = parts[0] + "".join(p.capitalize() for p in parts[1:])
        else:
            name = joiner.join(parts)
        if not any(k in name.lower() for k in DEFAULT_KEYWORDS):
            return name


def _public_value(rng: random.Random) -> str:
    # Whole words joined by '-': the dictionary stripper removes each word,
    # leaving at most three separators, far below the residual-length cut.
    return "-".join(rng.sample(PUBLIC_WORDS, rng.randint(1, 4)))


def filler_html(rng: random.Random, target_bytes: int) -> str:
    """Real-world-shaped page body: off-site anchors with query strings,
    hidden inputs, inline script variables and script tags, all public.

    Anchors point off-site so the crawler's group budget stays at the
    site's own pages; names avoid the secret keywords and values are
    dictionary words, so the secret sweep finds nothing here.
    """
    parts: list[str] = []
    size = 0
    while size < target_bytes:
        kind = rng.randrange(5)
        if kind == 0:
            text = " ".join(rng.choices(PUBLIC_WORDS, k=rng.randint(20, 60)))
            chunk = f"<p>{text}</p>\n"
        elif kind == 1:
            query = "&amp;".join(
                f"{_safe_name(rng, 1, '')}={_public_value(rng)}" for _ in range(rng.randint(1, 3))
            )
            label = " ".join(rng.choices(PUBLIC_WORDS, k=3))
            chunk = (
                f'<li><a href="https://{_safe_name(rng, 1, "")}.example.org/'
                f'{_safe_name(rng, 2, "/")}?{query}">{label}</a></li>\n'
            )
        elif kind == 2:
            chunk = (
                f'<input type="hidden" name="{_safe_name(rng, 2, "_")}" '
                f'value="{_public_value(rng)}">\n'
            )
        elif kind == 3:
            body = "".join(
                f'var {_safe_name(rng, 2, "camel")} = "{_public_value(rng)}"; '
                for _ in range(rng.randint(1, 4))
            )
            chunk = f"<script>{body}</script>\n"
        else:
            chunk = f'<script src="/static/{_safe_name(rng, 2, "-")}.js"></script>\n'
        parts.append(chunk)
        size += len(chunk)
    return "".join(parts)


def _token(rng: random.Random, prefix: str) -> str:
    """16-character per-user value with enough entropy to act as a marker."""
    while True:
        value = prefix + "".join(rng.choice(NONCE_ALPHABET) for _ in range(16 - len(prefix)))
        if shannon_entropy(value) >= MIN_MARKER_ENTROPY:
            return value


NAV = (
    '<a href="/">Home</a> <a href="/account.php">Your account</a> '
    '<a href="/guide">Guide</a> <a href="/login">Sign in</a> <a href="/logout">Sign out</a>'
)


def _page(title: str, content: str) -> str:
    return (
        f"<html><head><title>{title}</title></head><body><h1>{title}</h1>"
        f"<nav>{NAV}</nav>\n<main>\n{content}</main></body></html>"
    )

ACCOUNT_SLOTS = (
    "<p>Name: $name</p><p>Email: $email</p>"
    '<form method="post" action="/update">'
    '<input type="hidden" name="csrf_token" value="$csrf">'
    '<input type="text" name="display" value=""></form>\n'
)


def large_page_site(index: int, axes, rng: random.Random, page_bytes: int) -> SimSite:
    """One matrix-axis site whose home, guide and account pages are large.

    Per-user tokens appear only through the account page's ``$`` slots.
    """
    variants, profile, no_store = axes
    slug = "-".join(sorted(v.value.split("_")[-1] for v in variants)) or "exact"
    name = f"lp{index}-{slug}-{profile.split('_')[0]}-{'ns' if no_store else 'std'}"
    protected_headers = {"Cache-Control": "no-store"} if no_store else {}
    resources = {
        "/": LabResource("/", _page("Welcome", filler_html(rng, page_bytes))),
        "/guide": LabResource("/guide", _page("Guide", filler_html(rng, page_bytes))),
        "/login": LabResource(
            "/login",
            '<html><body><form method="post" action="/login">'
            '<input type="text" name="username"><input type="password" name="password">'
            "</form></body></html>",
        ),
        "/logout": LabResource(
            "/logout", '<html><body><a href="/">Signed out</a></body></html>',
            status=302, headers={"Location": "/"},
        ),
        "/account.php": LabResource(
            "/account.php",
            _page("Your account", ACCOUNT_SLOTS + filler_html(rng, page_bytes)),
            protected=True,
            headers=protected_headers,
        ),
    }
    auth = LabAuth(
        accounts={
            "victim": LabAccount(
                "victim",
                catalog.VICTIM_PASSWORD,
                {"name": _token(rng, "mk"), "email": _token(rng, "mk"), "csrf": _token(rng, "ct")},
                is_victim=True,
            ),
            "attacker": LabAccount(
                "attacker",
                catalog.ATTACKER_PASSWORD,
                {"name": "Attacker User", "email": "attacker@example.test",
                 "csrf": _token(rng, "ct")},
            ),
        },
        marker_labels=("name", "email"),
    )
    return SimSite(
        name=name,
        host=f"{name}.test",
        origin=OriginSemantics(
            variants=variants, decode_before_route=bool(variants & TRUNCATION_VARIANTS)
        ),
        cache_profile=builtin_profile(profile),
        resources=resources,
        auth=auth,
    )


def large_page_batches(
    batches: int, per_batch: int, seed: int, page_bytes: int = 88_000
) -> list[list[SimSite]]:
    """Seeded large-page sites drawn from the matrix axes, in scan batches.

    Every batch holds one site from each of the first ``per_batch``
    origin-semantics classes, so batches (and seeds) carry the same amount
    of detector work; the seed draws the subset within each class, the CDN
    profile, the no-store flag and all page content.
    """
    rng = random.Random(seed)
    classes = _semantics_classes()[:per_batch]
    out: list[list[SimSite]] = []
    for b in range(batches):
        batch = []
        for c, members in enumerate(classes):
            axes = (rng.choice(members), rng.choice(PROFILES), rng.random() < 0.5)
            batch.append(large_page_site(b * len(classes) + c, axes, rng, page_bytes))
        out.append(batch)
    return out


# -------------------------------------------------------------- sitemap-crawl

_ANCHOR = re.compile(r'<a href="([^"]+)">')


def sitemap_copies(count: int, seed: int) -> list[SimSite]:
    """``count`` copies of the catalog's sitemap site, each on its own host,
    each with its home-page link order shuffled by the seed."""
    template = catalog.sitemap_site().to_dict()
    home = next(r for r in template["resources"] if r["path"] == "/")
    links = _ANCHOR.findall(home["body"])
    head, _, _ = home["body"].partition("<a href=")
    rng = random.Random(seed)
    sites = []
    for i in range(count):
        order = list(links)
        rng.shuffle(order)
        data = dict(template, name=f"sitemap-{i}", host=f"sitemap-{i}.test")
        body = head + "".join(f'<a href="{href}">{href}</a> ' for href in order) + "</body></html>"
        data["resources"] = [
            dict(r, body=body) if r["path"] == "/" else r for r in template["resources"]
        ]
        sites.append(SimSite.from_dict(data))
    return sites


# ----------------------------------------------------------- report-roundtrip


@dataclass(frozen=True)
class SyntheticVerdicts:
    verdicts: list[ScanVerdict]
    hosts: list[str]


_CACHE_CONTROL = (
    "", "no-store", "private", "no-cache", "max-age=0", "public, max-age=3600",
    "private, no-cache, no-store, must-revalidate", "max-age=600, public",
)
_EVIDENCE = ("age", "x-cache", "cf-cache-status", "via", "x-served-by")
_CDN = ("Akamai", "Cloudflare", "CloudFront", "Fastly", "Other")


def _outcome(rng: random.Random) -> dict:
    """Every verdict field except the page, technique and attack URL."""
    inconclusive = rng.random() < 0.02
    vulnerable = not inconclusive and rng.random() < 0.15
    markers = ("name", "email")[: rng.randint(0, 2)] if vulnerable else ()
    secrets = ()
    if vulnerable and (not markers or rng.random() < 0.5):
        secrets = tuple(
            SecretCandidate(
                name=rng.choice(("csrf_token", "state", "sessionKey", "app.js")),
                value="".join(rng.choices(NONCE_ALPHABET, k=20)),
                source=rng.choice(list(SecretSource)),
                trigger=rng.choice(list(SecretTrigger)),
                entropy_bits_per_char=rng.uniform(3.0, 4.4),
                residual_length=rng.randint(8, 20),
            )
            for _ in range(rng.randint(1, 2))
        )
    return dict(
        victim_status=0 if inconclusive else 200,
        attacker_status=0 if inconclusive else rng.choice((200, 200, 200, 404, 302)),
        unauth_status=0 if inconclusive else rng.choice((200, 302, 403)),
        markers_leaked=markers,
        secrets=secrets,
        responses_identical=vulnerable and not markers,
        unauth_exploitable=vulnerable and rng.random() < 0.3,
        vulnerable=vulnerable,
        inconclusive=inconclusive,
        error="connection reset" if inconclusive else None,
        cache_control=rng.choice(_CACHE_CONTROL),
        pragma=rng.choice(("", "", "no-cache")),
        expires=rng.choice(("", "", "0", "Thu, 01 Jan 1970 00:00:00 GMT")),
        cache_evidence=tuple(
            (h, rng.choice(("HIT", "MISS", "1.1 varnish")))
            for h in rng.sample(_EVIDENCE, rng.randint(0, 3))
        ),
        cdn_labels=tuple(rng.sample(_CDN, rng.randint(0, 2))),
    )


def synthetic_verdicts(count: int, seed: int, sites: int = 400) -> SyntheticVerdicts:
    """``count`` seeded verdicts over ``sites`` sites of two or three hosts.

    Outcomes are drawn from a seeded bank so that generation stays cheap
    next to the reporting work it feeds.
    """
    rng = random.Random(seed)
    hosts: list[str] = []
    for s in range(sites):
        base = f"{''.join(rng.choices(string.ascii_lowercase, k=8))}{s}.example"
        hosts += [f"{sub}.{base}" for sub in ("www", "shop", "account")[: rng.randint(2, 3)]]
    paths = ("/account.php", "/profile", "/settings", "/orders", "/cart", "/", "/search?q=1")
    pages = [f"https://{host}{path}" for host in hosts for path in paths]
    outcomes = [_outcome(rng) for _ in range(2000)]
    techniques = list(PathConfusionTechnique)
    out = [
        ScanVerdict(
            page=page,
            technique=technique,
            attack_url=f"{page.split('?')[0]}/{nonce:016x}.css",
            **outcome,
        )
        for page, technique, outcome, nonce in zip(
            rng.choices(pages, k=count),
            rng.choices(techniques, k=count),
            rng.choices(outcomes, k=count),
            (rng.getrandbits(64) for _ in range(count)),
        )
    ]
    return SyntheticVerdicts(verdicts=out, hosts=hosts)
