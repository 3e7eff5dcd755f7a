"""URL parsing, structural grouping, and path-confusion payload crafting.

Everything in this module is a pure function over immutable values, so it is
safe to call from any number of concurrent scan workers.
"""

from __future__ import annotations

import random
import re
import string
from enum import Enum
from typing import NamedTuple
from urllib.parse import parse_qsl, urlsplit

NONCE_ALPHABET = string.ascii_lowercase + string.digits
NONCE_LENGTH = 16

DEFAULT_PORTS = {"http": 80, "https": 443}

# A plain URL, which this pattern splits exactly as urlsplit would: lowercase
# http(s) scheme and host, no port, userinfo or fragment, and only RFC 3986
# path and query characters. Any other URL goes through urlsplit.
_PLAIN_URL = re.compile(
    r"(https?)://([a-z0-9.-]+)"
    r"((?:/[A-Za-z0-9\-._~!$&'()*+,;=:@%/]*)?)"
    r"(?:\?([A-Za-z0-9\-._~!$&'()*+,;=:@%/?]*))?"
)

# Placeholder substituted for all-digit path segments when grouping.
NUMERIC_PLACEHOLDER = "<num>"

# A path segment of ASCII digits only, in a path that starts with "/";
# mixed segments like "item28" are not grouped.
_DIGIT_SEGMENT = re.compile(r"/[0-9]+(?=/|\Z)")
_SLASH_PLACEHOLDER = "/" + NUMERIC_PLACEHOLDER

# Country-code suffixes that take a third label for the registrable domain.
# Not a full public-suffix list; see README for the limitation.
_MULTI_PART_SUFFIXES = {
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
    "com.au", "net.au", "org.au",
    "co.jp", "ne.jp", "or.jp",
    "co.nz", "org.nz",
    "com.br", "com.cn", "com.mx", "com.tr", "com.ar", "com.sg",
    "co.in", "co.za", "co.kr",
}


class MalformedUrl(ValueError):
    """Raised for inputs that cannot be parsed as absolute http(s) URLs.

    Callers are expected to skip and log the offending input.
    """


class PathConfusionTechnique(Enum):
    """The five URL-crafting variants a scan can probe with."""

    PATH_PARAMETER = "path_parameter"
    ENCODED_NEWLINE = "encoded_newline"
    ENCODED_SEMICOLON = "encoded_semicolon"
    ENCODED_POUND = "encoded_pound"
    ENCODED_QUESTION = "encoded_question"


# Separator inserted between the base path and the bogus static file name.
_TECHNIQUE_SEPARATORS = {
    PathConfusionTechnique.PATH_PARAMETER: "/",
    PathConfusionTechnique.ENCODED_NEWLINE: "%0A",
    PathConfusionTechnique.ENCODED_SEMICOLON: "%3B",
    PathConfusionTechnique.ENCODED_POUND: "%23",
    PathConfusionTechnique.ENCODED_QUESTION: "%3F",
}


class ParsedUrl(NamedTuple):
    """Structural view of an absolute http(s) URL.

    ``raw_path`` keeps the path portion byte-for-byte as received so that it
    re-serializes exactly. A tuple, so building, hashing and comparing one
    runs in C; its fields cannot be assigned.
    """

    scheme: str
    host: str
    port: int
    raw_path: str
    fragment: str | None
    raw: str = ""
    raw_query: str = ""

    def origin(self) -> str:
        host = f"[{self.host}]" if ":" in self.host else self.host
        if self.port == DEFAULT_PORTS.get(self.scheme):
            return f"{self.scheme}://{host}"
        return f"{self.scheme}://{host}:{self.port}"

    def text(self) -> str:
        """Re-serialize; the path portion is byte-identical to the input."""
        out = self.origin() + self.raw_path
        if self.raw_query:
            out += "?" + self.raw_query
        if self.fragment is not None:
            out += "#" + self.fragment
        return out


class UrlGroupKey(NamedTuple):
    """Structure-only identity of a URL: query values and all-digit path
    segments are abstracted away. Keys sort by host, then abstract path,
    then parameter names."""

    host: str
    abstract_path: str
    param_names: tuple[str, ...]


class RandomNameGenerator:
    """Produces the bogus file stems (``[a-z0-9]{16}``) appended to attack
    URLs. Seedable so test runs are reproducible."""

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed)

    def next(self) -> str:
        return "".join(self._rng.choice(NONCE_ALPHABET) for _ in range(NONCE_LENGTH))


def parse_url(raw: str) -> ParsedUrl:
    """Parse an absolute http(s) URL, preserving the raw path and query order.

    Raises MalformedUrl for non-http(s) schemes, empty hosts, or invalid
    ports (port 0 included); the caller should skip the input and log it.
    """
    plain = _PLAIN_URL.fullmatch(raw)
    if plain is not None:
        scheme, host, path, query = plain.groups()
        return ParsedUrl(scheme, host, DEFAULT_PORTS[scheme], path, None, raw, query or "")
    try:
        parts = urlsplit(raw)
    except ValueError as exc:
        raise MalformedUrl(f"unparseable URL {raw!r}: {exc}") from exc
    if parts.scheme not in ("http", "https"):
        raise MalformedUrl(f"unsupported scheme in {raw!r}")
    if not parts.hostname:
        raise MalformedUrl(f"missing host in {raw!r}")
    try:
        port = parts.port
    except ValueError as exc:
        raise MalformedUrl(f"invalid port in {raw!r}") from exc
    if port == 0:
        raise MalformedUrl(f"invalid port in {raw!r}")
    return ParsedUrl(
        scheme=parts.scheme,
        host=parts.hostname.lower(),
        port=port or DEFAULT_PORTS[parts.scheme],
        raw_path=parts.path,
        fragment=parts.fragment or None,
        raw=raw,
        raw_query=parts.query,
    )


def make_attack_url(
    base: ParsedUrl,
    technique: PathConfusionTechnique,
    random_name: str,
    extension: str = "css",
    embed_query: str | None = None,
) -> str:
    """The base URL with a bogus ``<random_name>.<extension>`` appended after
    the given technique's separator.

    The base URL's query string and fragment are dropped. ``embed_query``
    switches the encoded-question variant to its embedded-parameter form
    (``%3F<embed_query><name>.<ext>``); it is ignored for other techniques.
    """
    prefix = base.raw_path or "/"
    sep = _TECHNIQUE_SEPARATORS[technique]
    if technique is PathConfusionTechnique.ENCODED_QUESTION and embed_query:
        sep = sep + embed_query
    rendered = f"{base.origin()}{prefix}{sep}{random_name}.{extension}"
    if rendered.count(random_name) != 1:
        raise ValueError(
            f"random name {random_name!r} collides with the base URL {base.raw!r}"
        )
    return rendered


def group_key(url: ParsedUrl) -> UrlGroupKey:
    """Structural group key: all-digit path segments are replaced with a
    placeholder and query values are discarded (names kept, sorted)."""
    abstract = _DIGIT_SEGMENT.sub(_SLASH_PLACEHOLDER, "/" + url.raw_path.lstrip("/"))
    query = url.raw_query
    if not query:
        names: tuple[str, ...] = ()
    elif "%" in query or "+" in query:
        pairs = parse_qsl(query, keep_blank_values=True)
        names = tuple(sorted({name for name, _ in pairs}))
    else:
        # Without escapes parse_qsl's names are each non-empty pair's text
        # before its first "=".
        names = tuple(sorted({pair.partition("=")[0] for pair in query.split("&") if pair}))
    return UrlGroupKey(url.host, abstract, names)


def pick_per_group(groups: dict[UrlGroupKey, list[ParsedUrl]], seed: int) -> list[ParsedUrl]:
    """The seeded pick of one member per group, ordered by group key.

    Members are deduplicated and sorted by their text, ties broken by the raw
    URL, before the draw, so neither input order nor the hash seed matters.
    """
    rng = random.Random(seed)
    chosen = []
    for key in sorted(groups):
        members = sorted(set(groups[key]), key=lambda u: (u.text(), u.raw))
        chosen.append(members[rng.randrange(len(members))])
    return chosen


def registrable_domain(host: str) -> str:
    """Approximate registrable domain ("site" identity).

    Uses a small built-in table of multi-part country suffixes rather than the
    full public-suffix list; IP addresses and single-label hosts map to
    themselves.
    """
    host = host.lower().rstrip(".")
    labels = host.split(".")
    if len(labels) <= 2 or all(part.isdigit() for part in labels):
        return host
    if ".".join(labels[-2:]) in _MULTI_PART_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])
