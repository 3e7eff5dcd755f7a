"""Per-page cache-deception probing, marker leakage, and secret extraction.

One test runs the three-step attack (victim, attacker, unauthenticated — in
that order) against a freshly crafted URL, then decides a verdict from the
attacker's response: an exact victim-marker hit is proof; otherwise identical
victim/attacker bodies gate a secret-token sweep by keyword and entropy. The
attacker step runs only after a victim body that holds a marker or a kept
candidate: the attacker fetches the victim's own URL, so its body can leak
nothing the victim's does not hold. The unauthenticated step runs only for a
vulnerable test: it says whether the leak also reaches a client with no
account, which no other verdict field reads.
"""

from __future__ import annotations

import html
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import product
from operator import attrgetter
from typing import Callable, NamedTuple, get_type_hints
from urllib.parse import parse_qsl, urlsplit

from .entropy import shannon_entropy
from .http_engine import (
    DEFAULT_USER_AGENT,
    HttpExchange,
    Identity,
    NetworkError,
    RateLimiter,
    Role,
    Transport,
    fetch,
)
from .url_toolkit import (
    ParsedUrl,
    PathConfusionTechnique,
    RandomNameGenerator,
    make_attack_url,
)
from .words import COMMON_WORDS

MIN_MARKER_LENGTH = 12
MIN_MARKER_ENTROPY = 3.0  # bits/char, makes accidental collisions negligible

# The randomness test: a value counts as random when, after dictionary words
# of at least MIN_WORD_LENGTH chars are stripped, at least MIN_RESIDUAL_LENGTH
# chars remain at MIN_RESIDUAL_ENTROPY bits/char or more.
MIN_WORD_LENGTH = 3
MIN_RESIDUAL_LENGTH = 8
MIN_RESIDUAL_ENTROPY = 3.0

DEFAULT_KEYWORDS = ("csrf", "xsrf", "token", "state", "client_id")
# Finds any keyword in a lowered name, case-sensitively as ``in`` does.
_KEYWORD = re.compile("|".join(map(re.escape, DEFAULT_KEYWORDS)))

# Printable ASCII less space, "[", "\" and "]". urlsplit neither strips,
# drops nor checks any character of such a URL, so each of its parts is a
# plain slice of the text; any other URL goes through urlsplit.
_SLICEABLE_URL = re.compile(r"[!-Z^-~]*")
# The path of a plain URL as urlsplit reads it: after an optional scheme and
# authority, up to the query or fragment.
_SLICEABLE_URL_PATH = re.compile(r"(?:[A-Za-z][A-Za-z0-9+.-]*:)?(?://[^/?#]*)?([^?#]*)")

# Headers that hint at cache involvement. Recorded for reporting only: they
# are an unreliable signal and never feed the vulnerable determination.
CACHE_EVIDENCE_HEADERS = (
    "age", "x-cache", "x-cache-status", "cf-cache-status", "x-served-by", "via",
)

_RFC1123_DATE = re.compile(
    rb"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d{2} "
    rb"(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) "
    rb"\d{4} \d{2}:\d{2}:\d{2} GMT"
)

_RE_JS_VAR = re.compile(
    r"\b(?:var|let|const)\s+([A-Za-z_$][\w$]*)\s*=\s*[\"']([^\"']*)[\"']"
)
# One attribute as html.parser reads it: the name, then an optional value in
# single quotes, double quotes or bare.
_HTML_ATTR = re.compile(
    r"""(?<=['"\s/])([^\s/>][^\s/=>]*)"""
    r"""(?:\s*=+\s*(?:'([^']*)'|"([^"]*)"|(?!['"])([^>\s]*)))?"""
)
_SEP = r"(?:\s|/(?!>))*"
# One token per comment, start tag, or other markup (end tag, doctype,
# processing instruction, bogus comment), split where html.parser splits them.
# Attributes are read once: the lookahead keeps their greedy match and the
# backreference consumes it, so an unclosed tag fails at once instead of trying
# the exponentially many splits of names that hold quotes. A <script> or <style>
# start tag not ending in "/>" takes its body up to the matching end tag. A tag
# name cut by a NUL opens nothing; whatever else never closes runs to the end
# of the text, so a broken page costs one pass.
_HTML_TOKEN = re.compile(
    r"<!--(?:.*?--\s*>|.*)"
    r"|<(?P<tag>(?ai:(?P<raw>script|style))(?=[\t\n\r\f />])"
    r"|[a-zA-Z][^\t\n\r\f />\x00]*(?![^\t\n\r\f />\x00]))"
    rf"(?=(?P<attrs>{_SEP}(?:{_HTML_ATTR.pattern}{_SEP})*))(?P=attrs)"
    r"(?:/>|>(?(raw)(?:(?P<body>.*?)</\s*(?ai:(?P=raw))\s*>|.*)))"
    r"|<(?:[a-zA-Z][^\t\n\r\f />\x00]*(?=\x00)|[!/?][^>]*>|(?=[a-zA-Z!/?]).*)",
    re.DOTALL,
)


@dataclass(frozen=True)
class Marker:
    """A sentinel value planted in a victim account field."""

    label: str
    value: str


class MarkerSet:
    """Validated collection of high-entropy victim markers.

    Values must be pairwise distinct, at least 12 characters, and carry at
    least 3 bits/char of entropy so a byte-exact hit is conclusive.
    """

    def __init__(self, markers: list[tuple[str, str]]):
        normalized = [Marker(label, value) for label, value in markers]
        values = [m.value for m in normalized]
        if len(set(values)) != len(values):
            raise ValueError("marker values must be pairwise distinct")
        for m in normalized:
            if len(m.value) < MIN_MARKER_LENGTH:
                raise ValueError(f"marker {m.label!r} shorter than {MIN_MARKER_LENGTH}")
            if shannon_entropy(m.value) < MIN_MARKER_ENTROPY:
                raise ValueError(f"marker {m.label!r} entropy below {MIN_MARKER_ENTROPY}")
        self.markers: tuple[Marker, ...] = tuple(normalized)

    def __iter__(self):
        return iter(self.markers)

    def __len__(self):
        return len(self.markers)


@dataclass
class RandomnessConfig:
    """The dictionary that the randomness test of the secret sweep strips."""

    dictionary: tuple[str, ...] = COMMON_WORDS

    def __post_init__(self):
        self._words, self._lengths = _dictionary_index(tuple(self.dictionary))


@lru_cache(maxsize=8)
def _dictionary_index(
    dictionary: tuple[str, ...],
) -> tuple[frozenset[str], dict[str, tuple[int, ...]]]:
    """The lowered words of at least MIN_WORD_LENGTH characters, and for each
    word's first MIN_WORD_LENGTH characters the lengths of the words that
    start with them, longest first. Built once per distinct dictionary and
    shared by every config that uses it; never mutated."""
    words = frozenset(w.lower() for w in dictionary if len(w) >= MIN_WORD_LENGTH)
    lengths: dict[str, set[int]] = {}
    for word in words:
        lengths.setdefault(word[:MIN_WORD_LENGTH], set()).add(len(word))
    return words, {
        prefix: tuple(sorted(found, reverse=True)) for prefix, found in lengths.items()
    }


def strip_dictionary_words(value: str, config: RandomnessConfig) -> str:
    """Remove dictionary words greedily (longest match first, left to right,
    case-insensitive); characters not starting a word are kept.

    Positions index both ``value`` and its lowered form, so where lowering
    lengthens a character (``"İ"`` lowers to two) the two drift apart; the
    reference the tests keep reads them the same way."""
    lowered = value.lower()
    words, by_prefix = config._words, config._lengths
    n = len(value)
    out: list[str] = []
    i = 0
    while i < n:
        for length in by_prefix.get(lowered[i : i + MIN_WORD_LENGTH], ()):
            if lowered[i : i + length] in words:
                i += length
                break
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


def randomness_score(value: str, config: RandomnessConfig) -> tuple[int, float]:
    """(residual length, Shannon entropy bits/char) after dictionary removal."""
    residual = strip_dictionary_words(value, config)
    return (len(residual), shannon_entropy(residual))


class SecretSource(Enum):
    HIDDEN_FORM_FIELD = "hidden_form_field"
    ANCHOR_QUERY_STRING = "anchor_query_string"
    INLINE_SCRIPT_VARIABLE = "inline_script_variable"
    SCRIPT_FILE_NAME = "script_file_name"


class SecretTrigger(Enum):
    KEYWORD_MATCH = "keyword_match"
    ENTROPY_MATCH = "entropy_match"


class _Mistyped(TypeError):
    """A JSON value of the wrong type where a record or an item belongs."""


class _FieldKind(NamedTuple):
    """How one record field is written, read back and checked."""

    json_types: tuple[type, ...]  # the types json.loads may give the field
    label: str  # what the field must hold, for the error message
    to_json: Callable | None = None  # None: JSON writes the value as it is
    from_json: Callable | None = None  # None: the JSON value is the value


_ONLY_STR = frozenset((str,))


def _strings(items: list) -> tuple[str, ...]:
    if not _ONLY_STR.issuperset(map(type, items)):
        raise _Mistyped
    return tuple(items)


def _string_pairs(mapping: dict) -> tuple[tuple[str, str], ...]:
    if not _ONLY_STR.issuperset(map(type, mapping.values())):
        raise _Mistyped
    return tuple(mapping.items())


def _enum_kind(kind: type[Enum]) -> _FieldKind:
    """A member is written as its string value and read back through a
    {value: member} table; a miss raises the ValueError ``kind(value)``
    raises."""
    members = {member.value: member for member in kind}

    def from_json(value: str) -> Enum:
        member = members.get(value)
        if member is None:
            raise ValueError(f"{value!r} is not a valid {kind.__qualname__}")
        return member

    return _FieldKind((str,), "a string", attrgetter("_value_"), from_json)


class _RecordCodec:
    """The JSON record of a NamedTuple class, built from its fields and type
    hints: one key per field, in field order. Only enum, cache-evidence and
    secret fields are converted; JSON writes every other value as it is, a
    tuple as an array.

    Reading checks each present key's JSON type against its field, and a
    mistyped value raises TypeError naming the field. A missing key takes the
    field's default, and a key that names no field is ignored.
    """

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        self.cls = cls
        self.names: tuple[str, ...] = cls._fields
        self.kinds = [
            _enum_kind(hint)
            if isinstance(hint, type) and issubclass(hint, Enum)
            else _FIELD_KINDS[hint]
            for hint in map(hints.__getitem__, self.names)
        ]
        self.encoders = [
            (name, kind.to_json) for name, kind in zip(self.names, self.kinds) if kind.to_json
        ]
        self.decoders = [
            (index, kind.from_json) for index, kind in enumerate(self.kinds) if kind.from_json
        ]
        # Every tuple of value types that a complete, well-typed record has.
        self.shapes = frozenset(product(*(kind.json_types for kind in self.kinds)))

    def encode(self, value: tuple) -> dict:
        record = dict(zip(self.names, value))
        for name, to_json in self.encoders:
            record[name] = to_json(record[name])
        return record

    def decode(self, record: dict):
        if type(record) is not dict:
            raise _Mistyped("a record must be a JSON object")
        try:
            values = list(map(record.__getitem__, self.names))
        except KeyError:
            pass
        else:
            if tuple(map(type, values)) in self.shapes:
                try:
                    for index, from_json in self.decoders:
                        values[index] = from_json(values[index])
                except _Mistyped:
                    pass
                else:
                    return self.cls._make(values)
        # A key is missing or a value is mistyped: read field by field.
        return self.cls(
            **{
                name: self._read(index, record[name])
                for index, name in enumerate(self.names)
                if name in record
            }
        )

    def _read(self, index: int, value):
        kind = self.kinds[index]
        if type(value) in kind.json_types:
            try:
                return kind.from_json(value) if kind.from_json else value
            except _Mistyped:
                pass
        raise TypeError(f"field {self.names[index]!r} must be {kind.label}")


class SecretCandidate(NamedTuple):
    name: str
    value: str
    source: SecretSource
    trigger: SecretTrigger
    entropy_bits_per_char: float
    residual_length: int

    def to_record(self) -> dict:
        return _SECRET_RECORDS.encode(self)

    @classmethod
    def from_record(cls, record: dict) -> SecretCandidate:
        return _SECRET_RECORDS.decode(record)


_FIELD_KINDS = {
    str: _FieldKind((str,), "a string"),
    int: _FieldKind((int,), "an integer"),  # type(True) is bool, not int
    float: _FieldKind((float, int), "a number"),
    bool: _FieldKind((bool,), "true or false"),
    str | None: _FieldKind((str, type(None)), "a string or null"),
    # to_record leaves a tuple a tuple, so from_record takes one as an array.
    tuple[str, ...]: _FieldKind((list, tuple), "an array of strings", None, _strings),
    tuple[tuple[str, str], ...]: _FieldKind(
        (dict,), "an object of strings", dict, _string_pairs
    ),
    tuple[SecretCandidate, ...]: _FieldKind(
        (list, tuple),
        "an array of secret objects",
        lambda secrets: [secret.to_record() for secret in secrets],
        lambda records: tuple(map(SecretCandidate.from_record, records)) if records else (),
    ),
}
_SECRET_RECORDS = _RecordCodec(SecretCandidate)


class HtmlSurfaces(NamedTuple):
    """The four secret-candidate surfaces of an HTML document, in document
    order; the crawler follows the anchor hrefs. Immutable, so one result
    serves both the crawl and the secret sweep of a body."""

    hidden_inputs: tuple[tuple[str, str], ...]
    anchor_hrefs: tuple[str, ...]
    script_srcs: tuple[str, ...]
    inline_scripts: tuple[str, ...]


def scan_html(text: str) -> HtmlSurfaces:
    """Hidden inputs (name, value), non-empty anchor hrefs and script srcs,
    and inline script bodies, read from one pass over the text.

    Comments and <style> bodies are skipped. Tag and attribute names match
    case-insensitively; when an attribute repeats, its last value counts.
    Attribute values have their character references decoded; a script body
    is kept as written. A comment, tag, attribute value or body that never
    closes hides the rest of the text, as it does in a browser.
    """
    hidden_inputs, anchor_hrefs, script_srcs, inline_scripts = [], [], [], []
    for token in _HTML_TOKEN.finditer(text):
        tag, raw_attrs, body = token.group("tag", "attrs", "body")
        if tag is None:  # end tag, comment, doctype or text the tag rule rejects
            continue
        tag = tag.lower()
        if tag not in ("a", "input", "script"):
            continue
        attrs = {
            name.lower(): html.unescape(single or double or bare)
            for name, single, double, bare in _HTML_ATTR.findall(raw_attrs)
        }
        if tag == "input":
            if attrs.get("type", "").lower() == "hidden" and attrs.get("name"):
                hidden_inputs.append((attrs["name"], attrs.get("value", "")))
        elif tag == "a":
            if attrs.get("href"):
                anchor_hrefs.append(attrs["href"])
        elif attrs.get("src"):
            script_srcs.append(attrs["src"])
        elif body:
            inline_scripts.append(body)
    return HtmlSurfaces(
        tuple(hidden_inputs), tuple(anchor_hrefs), tuple(script_srcs), tuple(inline_scripts)
    )


def scan_body(body: bytes) -> HtmlSurfaces:
    """:func:`scan_html` over a response body read as UTF-8, each byte that
    does not decode replaced."""
    return scan_html(body.decode("utf-8", errors="replace"))


def extract_markers(body: bytes, markers: MarkerSet) -> list[str]:
    """Labels of markers whose value appears byte-for-byte in the body."""
    return [m.label for m in markers if m.value.encode() in body]


def _url_query(url: str) -> str | None:
    """``urlsplit(url).query``, or None where urlsplit rejects the URL."""
    if _SLICEABLE_URL.fullmatch(url):
        return url.partition("#")[0].partition("?")[2]
    try:
        return urlsplit(url).query
    except ValueError:
        return None


def _url_path(url: str) -> str | None:
    """``urlsplit(url).path``, or None where urlsplit rejects the URL."""
    if _SLICEABLE_URL.fullmatch(url):
        return _SLICEABLE_URL_PATH.match(url)[1]
    try:
        return urlsplit(url).path
    except ValueError:
        return None


def _kept(
    name: str, value: str, config: RandomnessConfig
) -> tuple[SecretTrigger, float, int] | None:
    """(trigger, residual entropy, residual length) of a candidate the sweep
    keeps, or None: a name holding a keyword is kept whatever its value, any
    other when the value's residual after dictionary stripping is at least
    MIN_RESIDUAL_LENGTH characters at MIN_RESIDUAL_ENTROPY bits/char.

    Entropy is computed only for a value that can still be kept, and a value
    shorter than MIN_RESIDUAL_LENGTH under a name without a keyword is not
    stripped at all: its residual is never longer than the value."""
    if _KEYWORD.search(name.lower()):
        residual, entropy = randomness_score(value, config)
        return SecretTrigger.KEYWORD_MATCH, entropy, residual
    if len(value) < MIN_RESIDUAL_LENGTH:
        return None
    residual = strip_dictionary_words(value, config)
    if len(residual) < MIN_RESIDUAL_LENGTH:
        return None
    entropy = shannon_entropy(residual)
    if entropy < MIN_RESIDUAL_ENTROPY:
        return None
    return SecretTrigger.ENTROPY_MATCH, entropy, len(residual)


def extract_secrets(
    body: bytes, config: RandomnessConfig, scan: HtmlSurfaces | None = None
) -> list[SecretCandidate]:
    """Candidate leaked tokens from hidden form fields, anchor query strings,
    inline script variables, and script file names.

    A candidate is kept when its name contains a keyword, or its value still
    looks random after dictionary words are stripped. ``scan`` is
    :func:`scan_body`'s result for ``body`` when the caller already has it;
    without it the body is tokenized here.
    """
    if scan is None:
        scan = scan_body(body)

    script_files = []
    for path in filter(None, map(_url_path, scan.script_srcs)):
        basename = path.rsplit("/", 1)[-1]
        stem = basename.rsplit(".", 1)[0]
        if stem:
            script_files.append((basename, stem))

    by_source = (
        (SecretSource.HIDDEN_FORM_FIELD, scan.hidden_inputs),
        (
            SecretSource.ANCHOR_QUERY_STRING,
            [
                pair
                for query in map(_url_query, scan.anchor_hrefs)
                if query
                for pair in parse_qsl(query, keep_blank_values=True)
            ],
        ),
        (
            SecretSource.INLINE_SCRIPT_VARIABLE,
            [pair for block in scan.inline_scripts for pair in _RE_JS_VAR.findall(block)],
        ),
        (SecretSource.SCRIPT_FILE_NAME, script_files),
    )
    out: list[SecretCandidate] = []
    for source, pairs in by_source:
        seen: set[tuple[str, str]] = set()
        for pair in pairs:
            name, value = pair
            if not value or pair in seen:
                continue
            seen.add(pair)
            kept = _kept(name, value, config)
            if kept is not None:
                trigger, entropy, residual = kept
                out.append(SecretCandidate(name, value, source, trigger, entropy, residual))
    return out


def normalize_body(body: bytes, strip: tuple[str, ...] = ()) -> bytes:
    """Remove the given nonce strings and RFC 1123 dates before comparison."""
    for token in strip:
        body = body.replace(token.encode(), b"")
    return _RFC1123_DATE.sub(b"", body)


def responses_identical(
    a: HttpExchange, b: HttpExchange, strip: tuple[str, ...] = ()
) -> bool:
    """Byte-equality of the two bodies after nonce/date normalization;
    headers are deliberately excluded. Equal bodies stay equal under the
    normalization, so only differing ones are normalized."""
    return a.body == b.body or normalize_body(a.body, strip) == normalize_body(b.body, strip)


ALL_TECHNIQUES = tuple(PathConfusionTechnique)


@dataclass
class ScanSettings:
    """Everything a scan run needs beyond the seed pool itself: one object
    per run, shared by every site worker and by every attack step."""

    techniques: tuple[PathConfusionTechnique, ...] = ALL_TECHNIQUES
    budget: int = 500
    mode: str = "full"  # "full" or "marker-gated"
    rate: float = 2.0
    extension: str = "css"
    seed: int | None = None
    attacker_delay: float = 0.0
    delay_fn: Callable[[float], None] = time.sleep
    workers: int = 4
    user_agent: str = DEFAULT_USER_AGENT
    transport: Transport = field(default_factory=Transport)
    randomness: RandomnessConfig = field(default_factory=RandomnessConfig)
    respect_robots: bool = False
    embed_query: str | None = None
    # The run's one pacing state: probes, logins, the crawl and the attacks
    # all wait on it, so no host sees more than ``rate`` requests in any
    # window. Built from ``rate``; dataclasses.replace() builds a fresh one.
    rate_limiter: RateLimiter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be positive")
        self.rate_limiter = RateLimiter(rate=self.rate)


@dataclass
class WcdTestConfig:
    """The per-site part of an attack run; the run-level knobs are read from
    ``settings``."""

    settings: ScanSettings
    names: RandomNameGenerator = field(default_factory=RandomNameGenerator)
    # Optional HttpExchange -> vendor labels hook (reporting owns the tables).
    label_fn: Callable[[HttpExchange], list[str]] | None = None
    # Secret sweeps already run with this config, keyed by body, victim and
    # attacker bodies alike (extract_secrets is pure in body and randomness),
    # and the scan_body results of the bodies this site's crawl fetched: a
    # sweep of an equal body reads that result instead of tokenizing the body
    # again. Both live as long as the config, one site's scan. Not init
    # fields, so dataclasses.replace() starts with empty memos.
    sweeps: dict[bytes, tuple[SecretCandidate, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    html_scans: dict[bytes, HtmlSurfaces] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


class ScanVerdict(NamedTuple):
    """Outcome of one (page, technique) attack.

    ``vulnerable`` is true iff markers leaked, or the victim/attacker bodies
    were identical and secret candidates were found. ``inconclusive`` flags a
    test that could not finish (network failure, failed re-login), with the
    reason in ``error``; distinct from a clean negative. ``attacker_status``
    is 0 when the attacker step was not sent, because the victim body held no
    marker and no kept candidate; the cache fields and ``cdn_labels`` then
    come from the victim response. ``unauth_status`` is 0 when the
    unauthenticated step was not sent, because the test was not vulnerable or
    an earlier step failed. Cache-evidence fields are recorded for reporting
    only. A verdict is an immutable tuple: ``_replace`` gives a changed copy.
    """

    page: str
    technique: PathConfusionTechnique
    attack_url: str
    victim_status: int
    attacker_status: int
    unauth_status: int
    markers_leaked: tuple[str, ...]
    secrets: tuple[SecretCandidate, ...]
    responses_identical: bool
    unauth_exploitable: bool
    vulnerable: bool
    inconclusive: bool = False
    error: str | None = None
    cache_control: str = ""
    pragma: str = ""
    expires: str = ""
    cache_evidence: tuple[tuple[str, str], ...] = ()
    cdn_labels: tuple[str, ...] = ()


    def to_record(self) -> dict:
        return _VERDICT_RECORDS.encode(self)

    @classmethod
    def from_record(cls, record: dict) -> ScanVerdict:
        return _VERDICT_RECORDS.decode(record)


_VERDICT_RECORDS = _RecordCodec(ScanVerdict)


def inconclusive_verdict(
    page: ParsedUrl,
    technique: PathConfusionTechnique,
    error: str,
    attack_url: str = "",
    statuses: tuple[int, int, int] = (0, 0, 0),
) -> ScanVerdict:
    """A test that could not finish: recorded with its reason, never as a
    clean negative."""
    return ScanVerdict(
        page=page.text(),
        technique=technique,
        attack_url=attack_url,
        victim_status=statuses[0],
        attacker_status=statuses[1],
        unauth_status=statuses[2],
        markers_leaked=(),
        secrets=(),
        responses_identical=False,
        unauth_exploitable=False,
        vulnerable=False,
        inconclusive=True,
        error=error,
    )


def _evidence(exchange: HttpExchange) -> tuple[tuple[str, str], ...]:
    out = []
    for name in CACHE_EVIDENCE_HEADERS:
        value = exchange.header(name)
        if value is not None:
            out.append((name, value))
    return tuple(out)


def _sweep(body: bytes, config: WcdTestConfig) -> tuple[SecretCandidate, ...]:
    """:func:`extract_secrets` of ``body``, run at most once per distinct body
    per config and on the crawl's tokenization of the body when it has one."""
    secrets = config.sweeps.get(body)
    if secrets is None:
        secrets = config.sweeps[body] = tuple(
            extract_secrets(body, config.settings.randomness, config.html_scans.get(body))
        )
    return secrets


def run_wcd_test(
    page: ParsedUrl,
    technique: PathConfusionTechnique,
    victim: Identity,
    attacker: Identity,
    markers: MarkerSet,
    config: WcdTestConfig,
) -> ScanVerdict:
    """Execute one attack against one page with a fresh nonce.

    Order is fixed: victim fetch, attacker fetch, then the unauthenticated
    fetch. The attacker fetch, and the ``attacker_delay`` before it, is sent
    only when the victim body holds a marker or a candidate the secret sweep
    keeps; otherwise the test is a clean negative with ``attacker_status`` 0
    and cache fields read from the victim response. The unauthenticated fetch
    is sent only when the test is vulnerable; otherwise ``unauth_status`` is 0
    and ``unauth_exploitable`` false. The attacker body is swept for secrets
    only when the victim and attacker responses are identical or a marker
    already leaked. Each distinct body is swept at most once per config, and
    a body the site's crawl already tokenized is not tokenized again (see
    ``WcdTestConfig.html_scans``). Network failures yield an inconclusive
    verdict instead of aborting the scan.
    """
    settings = config.settings
    nonce = config.names.next()
    attack_url = make_attack_url(
        page, technique, nonce, settings.extension, embed_query=settings.embed_query
    )

    statuses = [0, 0, 0]
    leaked: tuple[str, ...] = ()
    secrets: tuple[SecretCandidate, ...] = ()
    identical = vulnerable = unauth_exploitable = False
    try:
        # ``last`` is the exchange the cache fields are read from.
        vex = last = fetch(victim, attack_url, settings.rate_limiter, settings.transport)
        statuses[0] = vex.status
        # The attacker fetches the victim's own URL, so it can leak only what
        # the victim body holds: with nothing there, the test ends here.
        if extract_markers(vex.body, markers) or _sweep(vex.body, config):
            if settings.attacker_delay:
                settings.delay_fn(settings.attacker_delay)
            aex = last = fetch(attacker, attack_url, settings.rate_limiter, settings.transport)
            statuses[1] = aex.status

            leaked = tuple(extract_markers(aex.body, markers))
            identical = responses_identical(vex, aex, strip=(nonce,))
            if identical or leaked:
                secrets = _sweep(aex.body, config)
            vulnerable = bool(leaked) or (identical and bool(secrets))

        if vulnerable:
            unauth = Identity(role=Role.UNAUTHENTICATED, user_agent=victim.user_agent)
            uex = fetch(unauth, attack_url, settings.rate_limiter, settings.transport)
            statuses[2] = uex.status
            unauth_exploitable = bool(extract_markers(uex.body, markers)) or (
                bool(secrets) and responses_identical(uex, aex, strip=(nonce,))
            )
    except NetworkError as exc:
        return inconclusive_verdict(
            page, technique, str(exc), attack_url, tuple(statuses)
        )

    return ScanVerdict(
        page=page.text(),
        technique=technique,
        attack_url=attack_url,
        victim_status=vex.status,
        attacker_status=statuses[1],
        unauth_status=statuses[2],
        markers_leaked=leaked,
        secrets=secrets,
        responses_identical=identical,
        unauth_exploitable=unauth_exploitable,
        vulnerable=vulnerable,
        cache_control=last.header("Cache-Control") or vex.header("Cache-Control") or "",
        pragma=last.header("Pragma") or "",
        expires=last.header("Expires") or "",
        cache_evidence=_evidence(last),
        cdn_labels=tuple(config.label_fn(last)) if config.label_fn else (),
    )
