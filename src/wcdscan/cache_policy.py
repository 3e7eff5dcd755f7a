"""Cache-Control parsing and cacheability decisions under CDN-style rules.

The four built-in profiles model the default behavior of the big CDN vendors:
which objects they cache out of the box and which Cache-Control directives
they honor. All values here are immutable and decisions are pure functions,
so profiles can be shared freely across scan workers.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from enum import Enum

_KNOWN_FLAGS = {
    "no-store": "no_store",
    "no-cache": "no_cache",
    "private": "private_",
    "public": "public_",
    "must-revalidate": "must_revalidate",
    "no-transform": "no_transform",
}

HONORABLE_DIRECTIVES = ("no-store", "no-cache", "private")

# Extensions treated as static by default. Vendors publish only examples of
# their lists, so this set is configurable per profile.
DEFAULT_STATIC_EXTENSIONS = frozenset(
    {"css", "js", "jpg", "jpeg", "png", "gif", "ico", "svg",
     "woff", "woff2", "txt", "pdf", "exe", "zip"}
)

DEFAULT_TTL_SECONDS = 3600


class DefaultCached(Enum):
    """What a profile caches when no custom rule fires."""

    EXTENSION_LIST = "extension_list"
    ALL_OBJECTS = "all_objects"
    EXTENSION_LIST_OR_HEADER_OPT_IN = "extension_list_or_header_opt_in"


class DecisionReason(Enum):
    EXTENSION_MATCH = "extension_match"
    HEADER_OPT_IN = "header_opt_in"
    HEADER_FORBIDS = "header_forbids"
    DEFAULT_ALL = "default_all"
    NO_MATCH = "no_match"


@dataclass
class CacheControlDirectives:
    """Parsed Cache-Control header.

    Unknown directives are kept in ``extensions`` (never dropped) and
    ``raw_items`` preserves the original token order and spelling so the
    header can be re-rendered losslessly.
    """

    no_store: bool = False
    no_cache: bool = False
    private_: bool = False
    public_: bool = False
    max_age: int | None = None
    must_revalidate: bool = False
    no_transform: bool = False
    extensions: list[tuple[str, str | None]] = field(default_factory=list)
    raw_items: list[tuple[str, str | None]] = field(default_factory=list)

    def render(self) -> str:
        return ", ".join(
            name if value is None else f"{name}={value}"
            for name, value in self.raw_items
        )

    def flag(self, directive: str) -> bool:
        attr = _KNOWN_FLAGS.get(directive)
        return bool(getattr(self, attr)) if attr else False


def parse_cache_control(header_value: str) -> CacheControlDirectives:
    """Parse a raw comma-separated Cache-Control value.

    Directive names are matched case-insensitively; malformed or unknown
    tokens land in ``extensions`` rather than raising.
    """
    out = CacheControlDirectives()
    for token in header_value.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, value = token.partition("=")
        name = name.strip()
        val: str | None = value.strip() if sep else None
        out.raw_items.append((name, val))
        lowered = name.lower()
        if lowered == "max-age":
            if val is not None and val.isdigit():
                out.max_age = int(val)
            else:
                out.extensions.append((name, val))
        elif lowered in _KNOWN_FLAGS:
            setattr(out, _KNOWN_FLAGS[lowered], True)
        else:
            out.extensions.append((name, val))
    return out


def path_extension(path: str) -> str:
    """Lowercased extension of the last path segment, '' when there is none.

    Works on the cache's (possibly percent-encoded) view of the path, which is
    exactly why encoded separators leave a bogus .css suffix visible here.
    """
    last = path.rsplit("/", 1)[-1]
    if "." not in last:
        return ""
    return last.rsplit(".", 1)[-1].lower()


@dataclass(frozen=True)
class CacheRule:
    """One custom caching rule: match by extension set or by path glob.

    ``honor_headers`` lists the directives this rule respects;
    ``override_headers`` caches matched objects even when those directives
    forbid it. Exactly one of ``extensions``/``glob`` must be set.
    """

    extensions: frozenset[str] | None = None
    glob: str | None = None
    honor_headers: frozenset[str] = frozenset()
    ttl: int = DEFAULT_TTL_SECONDS
    override_headers: bool = False

    def __post_init__(self):
        if (self.extensions is None) == (self.glob is None):
            raise ValueError("exactly one of extensions/glob must be set")

    def matches(self, path: str) -> bool:
        if self.extensions is not None:
            return path_extension(path) in self.extensions
        return fnmatch.fnmatchcase(path, self.glob or "")


@dataclass(frozen=True)
class CdnProfile:
    """A cache rules engine configuration: default cacheability plus the set
    of Cache-Control directives honored before storing."""

    name: str
    default_cached: DefaultCached
    static_extensions: frozenset[str] = DEFAULT_STATIC_EXTENSIONS
    honored: frozenset[str] = frozenset()  # of HONORABLE_DIRECTIVES
    default_ttl: int = DEFAULT_TTL_SECONDS
    rules: tuple[CacheRule, ...] = ()


@dataclass(frozen=True)
class CacheDecision:
    store: bool
    ttl: int
    reason: DecisionReason

    def __post_init__(self):
        if not self.store and self.ttl != 0:
            raise ValueError("non-stored decisions must carry ttl=0")


def _no_store_decision(reason: DecisionReason) -> CacheDecision:
    return CacheDecision(store=False, ttl=0, reason=reason)


def decide(
    profile: CdnProfile,
    request_path: str,
    status: int,
    directives: CacheControlDirectives,
) -> CacheDecision:
    """Decide whether a response is stored, for the path as the cache sees it.

    Only 200 and 404 responses are candidates (negative caching of 404s is
    permitted cache behavior); profile-honored directives veto storage before
    any rule or default-policy match, so custom rules cannot override them.
    """
    if status not in (200, 404):
        return _no_store_decision(DecisionReason.NO_MATCH)

    for directive in HONORABLE_DIRECTIVES:
        if directive in profile.honored and directives.flag(directive):
            return _no_store_decision(DecisionReason.HEADER_FORBIDS)

    for rule in profile.rules:
        if not rule.matches(request_path):
            continue
        if not rule.override_headers and any(
            directives.flag(d) for d in rule.honor_headers
        ):
            return _no_store_decision(DecisionReason.HEADER_FORBIDS)
        reason = (
            DecisionReason.EXTENSION_MATCH
            if rule.extensions is not None
            else DecisionReason.DEFAULT_ALL
        )
        return CacheDecision(store=True, ttl=rule.ttl, reason=reason)

    ext_match = path_extension(request_path) in profile.static_extensions
    if profile.default_cached is DefaultCached.EXTENSION_LIST:
        if ext_match:
            return CacheDecision(True, profile.default_ttl, DecisionReason.EXTENSION_MATCH)
        return _no_store_decision(DecisionReason.NO_MATCH)
    if profile.default_cached is DefaultCached.ALL_OBJECTS:
        return CacheDecision(True, profile.default_ttl, DecisionReason.DEFAULT_ALL)
    # EXTENSION_LIST_OR_HEADER_OPT_IN
    if ext_match:
        return CacheDecision(True, profile.default_ttl, DecisionReason.EXTENSION_MATCH)
    if directives.public_ or (directives.max_age or 0) > 0:
        return CacheDecision(True, profile.default_ttl, DecisionReason.HEADER_OPT_IN)
    return _no_store_decision(DecisionReason.NO_MATCH)


def builtin_profiles() -> list[CdnProfile]:
    """The four vendor default profiles.

    akamai_default caches by extension list only and honors no headers (its
    behavior for non-extension objects carrying explicit caching headers is
    undocumented; this engine treats them as not stored). cloudflare_default
    adds the header opt-in (public or max-age > 0) and honors all three
    directives. cloudfront_default caches everything and honors all three.
    fastly_default caches everything and honors only private.
    """
    return [
        CdnProfile(
            name="akamai_default",
            default_cached=DefaultCached.EXTENSION_LIST,
        ),
        CdnProfile(
            name="cloudflare_default",
            default_cached=DefaultCached.EXTENSION_LIST_OR_HEADER_OPT_IN,
            honored=frozenset(HONORABLE_DIRECTIVES),
        ),
        CdnProfile(
            name="cloudfront_default",
            default_cached=DefaultCached.ALL_OBJECTS,
            honored=frozenset(HONORABLE_DIRECTIVES),
        ),
        CdnProfile(
            name="fastly_default",
            default_cached=DefaultCached.ALL_OBJECTS,
            honored=frozenset({"private"}),
        ),
    ]


def builtin_profile(name: str) -> CdnProfile:
    for profile in builtin_profiles():
        if profile.name == name:
            return profile
    raise ValueError(f"no builtin profile named {name!r}")


def profile_from_dict(data: dict) -> CdnProfile:
    """Build a profile from the declarative config schema (see README)."""
    rules = []
    for rd in data.get("rules", []):
        rules.append(
            CacheRule(
                extensions=frozenset(rd["extensions"]) if "extensions" in rd else None,
                glob=rd.get("glob"),
                honor_headers=frozenset(rd.get("honor_headers", [])),
                ttl=int(rd.get("ttl", DEFAULT_TTL_SECONDS)),
                override_headers=bool(rd.get("override_headers", False)),
            )
        )
    honored = data.get("honored", {})
    return CdnProfile(
        name=data["name"],
        default_cached=DefaultCached(data.get("default_cached", "extension_list")),
        static_extensions=frozenset(
            data.get("static_extensions", DEFAULT_STATIC_EXTENSIONS)
        ),
        honored=frozenset(d for d in HONORABLE_DIRECTIVES if honored.get(d, False)),
        default_ttl=int(data.get("default_ttl", DEFAULT_TTL_SECONDS)),
        rules=tuple(rules),
    )


def profile_to_dict(profile: CdnProfile) -> dict:
    out: dict = {
        "name": profile.name,
        "default_cached": profile.default_cached.value,
        "static_extensions": sorted(profile.static_extensions),
        "honored": {d: d in profile.honored for d in HONORABLE_DIRECTIVES},
        "default_ttl": profile.default_ttl,
    }
    if profile.rules:
        out["rules"] = [
            {
                **(
                    {"extensions": sorted(r.extensions)}
                    if r.extensions is not None
                    else {"glob": r.glob}
                ),
                "honor_headers": sorted(r.honor_headers),
                "ttl": r.ttl,
                "override_headers": r.override_headers,
            }
            for r in profile.rules
        ]
    return out
