"""Verdict aggregation, CDN labeling, and the incidence chi-square test.

Counts roll up page -> domain -> site (site = registrable domain), each
verdict counted once per dimension, so the output matrices match the usual
reporting shape: totals per technique, a technique-uniqueness matrix,
response-code and cache-header breakdowns, leak types, and CDN labels.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from itertools import count
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, TextIO
from urllib.parse import urlsplit

from .cache_policy import parse_cache_control
from .detector import ScanVerdict
from .http_engine import HttpExchange
from .url_toolkit import MalformedUrl, PathConfusionTechnique, parse_url, registrable_domain


class DegenerateTable(ValueError):
    """A 2x2 margin is zero; the chi-square statistic is undefined."""


def chi_square_2x2(a: int, b: int, c: int, d: int) -> tuple[float, float]:
    """Pearson chi-square (no continuity correction) and its df=1 p-value.

    The p-value uses the exact relation of the df=1 survival function to the
    complementary error function, so no numeric tables are needed.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("counts must be non-negative")
    r1, r2, c1, c2 = a + b, c + d, a + c, b + d
    if 0 in (r1, r2, c1, c2):
        raise DegenerateTable("all row/column margins must be positive")
    n = a + b + c + d
    statistic = n * (a * d - b * c) ** 2 / (r1 * r2 * c1 * c2)
    p_value = math.erfc(math.sqrt(statistic / 2.0))
    return statistic, p_value


# Each vendor with the (header, substring) pairs that give it away. A
# substring is lowercase and is looked for in the lowered header value; an
# empty one matches any value.
CDN_FINGERPRINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "Cloudflare": (("cf-ray", ""), ("cf-cache-status", ""), ("server", "cloudflare")),
    "Akamai": (("server", "akamaighost"), ("x-akamai-transformed", ""),
               ("x-akamai-request-id", ""), ("x-cache", "akamai")),
    "CloudFront": (("x-amz-cf-id", ""), ("x-amz-cf-pop", ""), ("via", "cloudfront"),
                   ("x-cache", "cloudfront")),
    "Fastly": (("x-fastly-request-id", ""), ("fastly-debug-digest", ""), ("x-served-by", "cache-")),
}

# Applied only when no named vendor matched: generic cache evidence.
OTHER_CDN_PATTERNS = (("x-cache", ""), ("x-cache-status", ""), ("via", ""), ("x-varnish", ""),
                      ("x-proxy-cache", ""))


def _matches(exchange: HttpExchange, patterns: tuple[tuple[str, str], ...]) -> bool:
    for header, substring in patterns:
        value = exchange.header(header)
        if value is not None and substring in value.lower():
            return True
    return False


def cdn_label(exchange: HttpExchange) -> list[str]:
    """All vendors whose fingerprint matches; multi-CDN setups return several
    labels, and an empty list means unlabeled."""
    labels = [vendor for vendor, patterns in CDN_FINGERPRINTS.items()
              if _matches(exchange, patterns)]
    if not labels and _matches(exchange, OTHER_CDN_PATTERNS):
        labels = ["Other"]
    return labels


@dataclass(frozen=True)
class Counts3:
    pages: int = 0
    domains: int = 0
    sites: int = 0

    def __str__(self):
        return f"{self.pages} / {self.domains} / {self.sites}"


@dataclass
class AggregateStats:
    tested: Counts3
    vulnerable: Counts3
    inconclusive_pages: int
    per_technique: dict[str, Counts3]
    uniqueness: dict[tuple[str, str], Counts3]
    response_codes: dict[int, Counts3]
    cache_control_combos: dict[str, Counts3]
    pragma_no_cache: Counts3
    expires_present: Counts3
    no_cache_headers: Counts3
    leak_types: dict[str, Counts3]
    unauth_exploitable: Counts3
    cdn_tested: dict[str, Counts3]
    cdn_vulnerable: dict[str, Counts3]
    quarantined: list[tuple[str, str]]


def canonical_cache_combo(cache_control: str) -> str:
    """Table-style canonical form: directive names sorted, values elided."""
    names = {
        name.lower() + ("" if value is None else "=")
        for name, value in parse_cache_control(cache_control).raw_items
    }
    return ", ".join(sorted(names)) if names else "(none)"


def _place_page(page: str, site_map: Mapping[str, str]) -> tuple[str, str] | str:
    """The page's (domain, site), or why it cannot be placed."""
    try:
        domain = parse_url(page).host
    except MalformedUrl:
        return "unparseable page URL"
    try:
        return domain, site_map[domain]
    except KeyError:  # indexing, not .get: a SiteMap fills itself on a miss
        return f"domain {domain!r} not in site map"


def aggregate(
    verdicts: Iterable[ScanVerdict], site_map: Mapping[str, str]
) -> AggregateStats:
    """Fold a verdict stream into the reporting dimensions.

    ``site_map`` resolves each page's host to its site; verdicts whose host
    is missing are quarantined with a diagnostic rather than dropped
    silently. Each cell is the set of pages it counts. A page has one
    (domain, site), so a cell's domains and sites, and the uniqueness
    differences, are derived from its pages once the fold ends. The fold is
    permutation-invariant.
    """
    techniques = [t.value for t in PathConfusionTechnique]
    tested: set[str] = set()
    vulnerable: set[str] = set()
    inconclusive_pages: set[str] = set()
    per_technique: dict[str, set[str]] = {t: set() for t in techniques}
    response_codes: defaultdict[int, set[str]] = defaultdict(set)
    combos: defaultdict[str, set[str]] = defaultdict(set)
    pragma_no_cache: set[str] = set()
    expires_present: set[str] = set()
    no_cache_headers: set[str] = set()
    leak_types: defaultdict[str, set[str]] = defaultdict(set)
    unauth: set[str] = set()
    cdn_tested: defaultdict[str, set[str]] = defaultdict(set)
    cdn_vulnerable: defaultdict[str, set[str]] = defaultdict(set)
    quarantined: list[tuple[str, str]] = []
    # page -> (domain, site), or the reason its verdicts are quarantined
    placed: dict[str, tuple[str, str] | str] = {}
    combo_of: dict[str, str] = {}  # Cache-Control value -> its canonical combo

    for verdict in verdicts:
        page = verdict.page
        place = placed.get(page)
        if place is None:
            place = placed[page] = _place_page(page, site_map)
        if isinstance(place, str):
            quarantined.append((page, place))
            continue

        if verdict.inconclusive:
            inconclusive_pages.add(page)
            continue
        tested.add(page)
        for label in verdict.cdn_labels:
            cdn_tested[label].add(page)
        if not verdict.vulnerable:
            continue

        vulnerable.add(page)
        per_technique[verdict.technique.value].add(page)
        response_codes[verdict.attacker_status].add(page)

        combo = combo_of.get(verdict.cache_control)
        if combo is None:
            combo = combo_of[verdict.cache_control] = canonical_cache_combo(
                verdict.cache_control
            )
        combos[combo].add(page)
        if "no-cache" in verdict.pragma.lower():
            pragma_no_cache.add(page)
        if verdict.expires:
            expires_present.add(page)
        if combo == "(none)" and not verdict.pragma and not verdict.expires:
            no_cache_headers.add(page)

        if verdict.markers_leaked:
            leak_types["markers"].add(page)
            for label in verdict.markers_leaked:
                leak_types[f"marker:{label}"].add(page)
        if verdict.secrets:
            leak_types["secrets"].add(page)
            for secret in verdict.secrets:
                leak_types[f"secret:{secret.source.value}"].add(page)
        if verdict.markers_leaked and verdict.secrets:
            leak_types["both"].add(page)
        if verdict.unauth_exploitable:
            unauth.add(page)
        for label in verdict.cdn_labels:
            cdn_vulnerable[label].add(page)

    def rolled_up(pages: set[str]) -> tuple[set[str], set[str], set[str]]:
        """The pages, their domains and their sites."""
        places = {placed[page] for page in pages}
        return pages, {domain for domain, _ in places}, {site for _, site in places}

    def counts(pages: set[str]) -> Counts3:
        return Counts3(*map(len, rolled_up(pages)))

    by_technique = {t: rolled_up(pages) for t, pages in per_technique.items()}
    uniqueness = {
        (ti, tj): Counts3(*(len(a - b) for a, b in zip(by_technique[ti], by_technique[tj])))
        for ti in techniques
        for tj in techniques
        if ti != tj
    }
    return AggregateStats(
        tested=counts(tested),
        vulnerable=counts(vulnerable),
        inconclusive_pages=len(inconclusive_pages),
        per_technique={t: Counts3(*map(len, sets)) for t, sets in by_technique.items()},
        uniqueness=uniqueness,
        response_codes={c: counts(pages) for c, pages in response_codes.items()},
        cache_control_combos={c: counts(pages) for c, pages in combos.items()},
        pragma_no_cache=counts(pragma_no_cache),
        expires_present=counts(expires_present),
        no_cache_headers=counts(no_cache_headers),
        leak_types={k: counts(pages) for k, pages in leak_types.items()},
        unauth_exploitable=counts(unauth),
        cdn_tested={k: counts(pages) for k, pages in cdn_tested.items()},
        cdn_vulnerable={k: counts(pages) for k, pages in cdn_vulnerable.items()},
        quarantined=quarantined,
    )


def build_site_map(hosts: Iterable[str]) -> dict[str, str]:
    return {host: registrable_domain(host) for host in hosts}


class SiteMap(dict):
    """A host -> site (registrable domain) map that fills itself on the first
    lookup of a host, so ``aggregate`` can fold a stream whose hosts are not
    known in advance. Its keys are then the hosts that ``aggregate`` placed."""

    def __missing__(self, host: str) -> str:
        site = self[host] = registrable_domain(host)
        return site


_TECH_TITLES = {
    "path_parameter": "Path Parameter",
    "encoded_newline": "Encoded \\n",
    "encoded_semicolon": "Encoded ;",
    "encoded_pound": "Encoded #",
    "encoded_question": "Encoded ?",
}


def render_table(stats: AggregateStats) -> str:
    """Human-readable report with the per-technique totals and uniqueness
    matrix as the centerpiece (cells are pages / domains / sites)."""
    lines: list[str] = []

    def section(title: str):
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    lines.append("SCAN REPORT")
    lines.append("===========")
    section("Summary (pages / domains / sites)")
    lines.append(f"  Tested:        {stats.tested}")
    lines.append(f"  Vulnerable:    {stats.vulnerable}")
    lines.append(f"  Inconclusive pages: {stats.inconclusive_pages}")
    if stats.quarantined:
        lines.append(f"  Quarantined verdicts: {len(stats.quarantined)}")

    section("Vulnerable targets per technique")
    for tech, counts in stats.per_technique.items():
        lines.append(f"  {_TECH_TITLES.get(tech, tech):<18} {counts}")

    section("Technique uniqueness: row exploits what column misses")
    order = [t.value for t in PathConfusionTechnique]
    header = " " * 20 + "".join(f"{_TECH_TITLES[t]:>18}" for t in order)
    lines.append(header)
    for ti in order:
        row = f"  {_TECH_TITLES[ti]:<18}"
        for tj in order:
            cell = "-" if ti == tj else str(stats.uniqueness[(ti, tj)])
            row += f"{cell:>18}"
        lines.append(row)

    section("Response codes on vulnerable pages")
    for code in sorted(stats.response_codes):
        lines.append(f"  {code:<6} {stats.response_codes[code]}")

    section("Cache headers on vulnerable pages")
    for combo in sorted(stats.cache_control_combos):
        lines.append(f"  {'Cache-Control: ' + combo:<68} {stats.cache_control_combos[combo]}")
    lines.append(f"  {'Pragma: no-cache':<68} {stats.pragma_no_cache}")
    lines.append(f"  {'Expires present':<68} {stats.expires_present}")
    lines.append(f"  {'(no caching headers at all)':<68} {stats.no_cache_headers}")

    section("Leak types")
    for kind in sorted(stats.leak_types):
        lines.append(f"  {kind:<28} {stats.leak_types[kind]}")
    lines.append(f"  {'unauthenticated exploitable':<28} {stats.unauth_exploitable}")

    section("CDN labels (tested -> vulnerable)")
    for vendor in sorted(set(stats.cdn_tested) | set(stats.cdn_vulnerable)):
        lines.append(
            f"  {vendor:<14} {stats.cdn_tested.get(vendor, Counts3())}"
            f"  ->  {stats.cdn_vulnerable.get(vendor, Counts3())}"
        )
    lines.append("")
    return "\n".join(lines)


def stats_to_records(stats: AggregateStats) -> dict:
    records = asdict(stats)
    records["uniqueness"] = {f"{ti}|{tj}": c for (ti, tj), c in records["uniqueness"].items()}
    return records


def write_records(verdicts: Iterable[ScanVerdict], fh: TextIO) -> None:
    """One line per verdict, ``json.dumps(verdict.to_record())`` and a
    newline, each written as soon as it is encoded. ``json.dumps`` builds a
    C encoder per call; this builds one, with the arguments its default
    ``JSONEncoder`` passes, and reuses it."""
    defaults = json.JSONEncoder()
    encode = c_make_encoder(
        {}, defaults.default, encode_basestring_ascii, None, defaults.key_separator,
        defaults.item_separator, False, False, True,
    )
    write = fh.write
    for verdict in verdicts:
        write("".join(encode(verdict.to_record(), 0)) + "\n")


class MalformedRecord(ValueError):
    """A record line that is not a JSON verdict; the message starts with
    its line number."""


def iter_records(lines: Iterable[str]) -> Iterator[ScanVerdict]:
    """The verdicts of JSON record lines, one at a time; blank lines are
    skipped. A line that is not a verdict raises MalformedRecord with its
    number once the verdicts before it have been yielded."""
    scan = json.JSONDecoder().scan_once
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            try:
                record, end = scan(line, 0)
            except StopIteration:
                end = -1
            if end != len(line):  # not one JSON value: json.loads raises its error
                record = json.loads(line)
            verdict = ScanVerdict.from_record(record)
        except (ValueError, TypeError, AttributeError) as exc:
            raise MalformedRecord(f"{number}: {exc}") from None
        yield verdict


def read_records(fh: Iterable[str]) -> list[ScanVerdict]:
    """Every verdict of ``fh``, read by ``iter_records``."""
    return list(iter_records(fh))


def _swap_host(url: str, mapping: Mapping[str, str]) -> str:
    """``url`` with the host of its netloc replaced through ``mapping``; any
    userinfo and port, and the path, query and fragment, are kept as is."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    alias = mapping.get(parts.hostname or "")
    if alias is None:
        return url
    userinfo, at, hostport = parts.netloc.rpartition("@")
    if hostport.startswith("["):
        port = hostport[hostport.find("]") + 1 :]
    else:
        port = hostport[len(hostport.partition(":")[0]) :]
    start = url.index("//") + 2
    return url[:start] + userinfo + at + alias + port + url[start + len(parts.netloc) :]


_PLACEHOLDER_SITE = re.compile(r"site-(\d+)\.redacted")
_PLACEHOLDER_HOST = re.compile(r"h(\d+)\.site-\d+\.redacted")


def _redaction_map(hosts: Iterable[str]) -> dict[str, str]:
    """Placeholder names for ``hosts`` that keep their site structure. The
    hosts of one site (registrable domain) share ``site-N.redacted``: the
    registrable domain itself is named that, and each other host of the
    site ``hK.site-N.redacted``, whose registrable domain is again
    ``site-N.redacted``. Sites are numbered in sorted order, and the hosts
    of a site too. Placeholders already present are kept, and new sites and
    hosts are numbered after the largest one present, so redacting a
    redacted stream changes nothing."""
    by_site: defaultdict[str, list[str]] = defaultdict(list)
    for host in sorted(set(hosts)):
        by_site[registrable_domain(host)].append(host)
    numbers = [int(m[1]) for site in by_site if (m := _PLACEHOLDER_SITE.fullmatch(site))]
    new_site = count(max(numbers, default=0) + 1)
    mapping = {}
    for site, members in sorted(by_site.items()):
        if _PLACEHOLDER_SITE.fullmatch(site):
            alias = site
            taken = [int(m[1]) for host in members if (m := _PLACEHOLDER_HOST.fullmatch(host))]
            members = [
                host for host in members
                if host != site and not _PLACEHOLDER_HOST.fullmatch(host)
            ]
        else:
            alias, taken = f"site-{next(new_site)}.redacted", []
        new_host = count(max(taken, default=0) + 1)
        for host in members:
            mapping[host] = alias if host == site else f"h{next(new_host)}.{alias}"
    return mapping


def redact_verdicts(verdicts: list[ScanVerdict]) -> list[ScanVerdict]:
    """Replace the host of each page and attack URL with its placeholder
    from ``_redaction_map``. Only the host of each URL is replaced; a host
    name inside a path or query stays. A page that is not an absolute
    http(s) URL adds no host to the mapping."""
    hosts = set()
    for page in {verdict.page for verdict in verdicts}:
        try:
            hosts.add(parse_url(page).host)
        except MalformedUrl:
            pass
    mapping = _redaction_map(hosts)
    return [
        verdict._replace(
            page=_swap_host(verdict.page, mapping),
            attack_url=_swap_host(verdict.attack_url, mapping),
        )
        for verdict in verdicts
    ]


def redact_stats(stats: AggregateStats, hosts: Iterable[str]) -> AggregateStats:
    """What ``aggregate`` gives for the redacted verdicts, from ``stats`` of
    the verdicts as they are and ``hosts``, the hosts ``aggregate`` placed
    (the keys of a ``SiteMap`` that started empty). Redaction keeps each
    host its own domain and each site its own site, so the counts stay; only
    the quarantined pages name a host."""
    mapping = _redaction_map(hosts)
    return replace(
        stats,
        quarantined=[(_swap_host(page, mapping), why) for page, why in stats.quarantined],
    )
