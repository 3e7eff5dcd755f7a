"""Aggregation roll-ups, CDN labeling, and the chi-square reference values."""

import io
import json
import random
from dataclasses import replace
from unittest import mock

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from wcdscan.detector import (
    _VERDICT_RECORDS, ScanVerdict, SecretCandidate, SecretSource, SecretTrigger,
)
from wcdscan.http1 import index_fields
from wcdscan import reporting
from wcdscan.http_engine import HttpExchange
from wcdscan.reporting import (
    Counts3,
    DegenerateTable,
    MalformedRecord,
    SiteMap,
    aggregate,
    build_site_map,
    canonical_cache_combo,
    cdn_label,
    chi_square_2x2,
    iter_records,
    read_records,
    redact_stats,
    redact_verdicts,
    render_table,
    write_records,
)
from wcdscan.url_toolkit import MalformedUrl, PathConfusionTechnique


class TestChiSquare:
    def test_reference_incidence_comparison(self):
        # 20/295 vulnerable in one group vs 5/45 in the other.
        statistic, p_value = chi_square_2x2(20, 275, 5, 40)
        assert statistic == pytest.approx(1.07, abs=0.01)
        assert p_value == pytest.approx(0.30, abs=0.01)

    def test_proportional_table_is_zero(self):
        statistic, p_value = chi_square_2x2(10, 90, 10, 90)
        assert statistic == 0.0
        assert p_value == 1.0

    def test_perfect_separation(self):
        statistic, p_value = chi_square_2x2(50, 0, 0, 50)
        expected = scipy.stats.chi2.sf(statistic, df=1)
        assert statistic == pytest.approx(100.0)
        assert p_value < 0.001
        assert p_value == pytest.approx(expected, abs=1e-6)

    def test_degenerate_margins(self):
        with pytest.raises(DegenerateTable):
            chi_square_2x2(0, 0, 5, 5)
        with pytest.raises(DegenerateTable):
            chi_square_2x2(5, 0, 5, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            chi_square_2x2(-1, 2, 3, 4)

    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 200), st.integers(1, 200))
    def test_symmetric_under_row_and_column_swap(self, a, b, c, d):
        assert chi_square_2x2(a, b, c, d)[0] == pytest.approx(
            chi_square_2x2(d, c, b, a)[0], rel=1e-12
        )

    @given(st.integers(1, 500), st.integers(1, 500), st.integers(1, 500), st.integers(1, 500))
    def test_p_value_matches_scipy(self, a, b, c, d):
        statistic, p_value = chi_square_2x2(a, b, c, d)
        assert p_value == pytest.approx(scipy.stats.chi2.sf(statistic, df=1), abs=1e-6)


def _exchange(headers: dict[str, str]) -> HttpExchange:
    return HttpExchange(
        url="http://x.test/",
        status=200,
        headers=index_fields(list(headers.items())),
        body=b"",
    )


class TestCdnLabel:
    def test_cloudflare_ray_header(self):
        assert cdn_label(_exchange({"cf-ray": "8a1b2c3d4e5f-LAB"})) == ["Cloudflare"]

    def test_no_matching_headers(self):
        assert cdn_label(_exchange({"content-type": "text/html"})) == []

    def test_multiple_vendors(self):
        labels = cdn_label(
            _exchange({"cf-ray": "x", "x-amz-cf-id": "y", "content-type": "text/html"})
        )
        assert labels == ["Cloudflare", "CloudFront"]

    def test_other_catch_all_only_without_named_match(self):
        assert cdn_label(_exchange({"x-varnish": "123"})) == ["Other"]
        assert cdn_label(_exchange({"x-varnish": "123", "cf-ray": "x"})) == ["Cloudflare"]

    def test_akamai_and_fastly_patterns(self):
        assert cdn_label(_exchange({"server": "AkamaiGHost"})) == ["Akamai"]
        assert cdn_label(_exchange({"x-served-by": "cache-bos4620-BOS"})) == ["Fastly"]


def _verdict(
    page: str,
    technique=PathConfusionTechnique.PATH_PARAMETER,
    vulnerable=True,
    status=200,
    markers=("email",),
    cache_control="no-store, max-age=0",
    unauth=True,
    cdn=("Cloudflare",),
    inconclusive=False,
) -> ScanVerdict:
    return ScanVerdict(
        page=page,
        technique=technique,
        attack_url=page + "/x.css",
        victim_status=200,
        attacker_status=status,
        unauth_status=status,
        markers_leaked=tuple(markers) if vulnerable else (),
        secrets=(),
        responses_identical=vulnerable,
        unauth_exploitable=vulnerable and unauth,
        vulnerable=vulnerable,
        inconclusive=inconclusive,
        cache_control=cache_control,
        cdn_labels=tuple(cdn),
    )


SITE_MAP = build_site_map(["a.x.test", "b.x.test", "y.test"])


class TestAggregate:
    def test_hierarchy_roll_up(self):
        verdicts = [
            _verdict("http://a.x.test/p1"),
            _verdict("http://a.x.test/p2"),
        ]
        stats = aggregate(verdicts, SITE_MAP)
        assert stats.vulnerable == Counts3(pages=2, domains=1, sites=1)

    def test_sites_collapse_subdomains(self):
        verdicts = [
            _verdict("http://a.x.test/p1"),
            _verdict("http://b.x.test/p2"),
        ]
        stats = aggregate(verdicts, SITE_MAP)
        assert stats.vulnerable == Counts3(pages=2, domains=2, sites=1)

    def test_uniqueness_matrix_set_difference(self):
        question_only = _verdict(
            "http://y.test/q", technique=PathConfusionTechnique.ENCODED_QUESTION
        )
        both = [
            _verdict("http://y.test/b", technique=PathConfusionTechnique.ENCODED_QUESTION),
            _verdict("http://y.test/b", technique=PathConfusionTechnique.PATH_PARAMETER),
        ]
        stats = aggregate([question_only] + both, SITE_MAP)
        cell = stats.uniqueness[("encoded_question", "path_parameter")]
        assert cell.pages == 1  # /q exploitable by ? but not by path parameter
        reverse = stats.uniqueness[("path_parameter", "encoded_question")]
        assert reverse.pages == 0

    def test_permutation_invariance(self):
        verdicts = [
            _verdict(f"http://a.x.test/p{i}", vulnerable=(i % 2 == 0)) for i in range(10)
        ] + [
            _verdict(f"http://y.test/p{i}", technique=PathConfusionTechnique.ENCODED_POUND)
            for i in range(5)
        ]
        shuffled = verdicts[:]
        random.Random(3).shuffle(shuffled)
        assert aggregate(verdicts, SITE_MAP) == aggregate(shuffled, SITE_MAP)

    def test_unmapped_domain_quarantined(self):
        stats = aggregate([_verdict("http://unknown.example/p")], SITE_MAP)
        assert stats.vulnerable.pages == 0
        assert len(stats.quarantined) == 1
        assert "unknown.example" in stats.quarantined[0][1]

    def test_each_distinct_page_is_parsed_once(self, monkeypatch):
        pages = ["http://a.x.test/p1", "http://a.x.test/p2", "http://y.test/q",
                 "http://unknown.example/p", "notaurl", "ftp://y.test/f"]
        rng = random.Random(5)
        techniques = list(PathConfusionTechnique)
        verdicts = [
            _verdict(rng.choice(pages), technique=rng.choice(techniques),
                     vulnerable=rng.random() < 0.5, inconclusive=rng.random() < 0.1)
            for _ in range(200)
        ]
        # The fold without the page memo: place every verdict on its own.
        placeable, quarantined = [], []
        for verdict in verdicts:
            try:
                domain = reporting.parse_url(verdict.page).host
            except MalformedUrl:
                quarantined.append((verdict.page, "unparseable page URL"))
                continue
            if domain in SITE_MAP:
                placeable.append(verdict)
            else:
                quarantined.append((verdict.page, f"domain {domain!r} not in site map"))
        expected = replace(aggregate(placeable, SITE_MAP), quarantined=quarantined)

        parsed = []
        real_parse = reporting.parse_url

        def counting_parse(page):
            parsed.append(page)
            return real_parse(page)

        monkeypatch.setattr(reporting, "parse_url", counting_parse)
        stats = aggregate(verdicts, SITE_MAP)
        assert sorted(parsed) == sorted({v.page for v in verdicts})
        assert stats.quarantined == quarantined
        assert stats == expected

    def test_inconclusive_not_counted_as_tested(self):
        stats = aggregate(
            [_verdict("http://y.test/p", inconclusive=True, vulnerable=False)], SITE_MAP
        )
        assert stats.tested.pages == 0
        assert stats.inconclusive_pages == 1

    def test_response_code_and_header_dimensions(self):
        verdicts = [
            _verdict("http://y.test/a", status=404, cache_control=""),
            _verdict("http://y.test/b", status=200, cache_control="max-age=600, public"),
        ]
        stats = aggregate(verdicts, SITE_MAP)
        assert stats.response_codes[404].pages == 1
        assert stats.response_codes[200].pages == 1
        assert stats.cache_control_combos["max-age=, public"].pages == 1
        assert stats.cache_control_combos["(none)"].pages == 1

    def test_skipped_unauthenticated_step_is_not_read(self):
        """A clean test sends no unauthenticated step and records status 0;
        the report reads only the victim and attacker statuses."""
        verdicts = [
            _verdict("http://y.test/a", status=404),
            _verdict("http://y.test/b"),
            _verdict("http://a.x.test/c", vulnerable=False),
            _verdict("http://a.x.test/d", vulnerable=False, status=403),
            _verdict("http://b.x.test/e", vulnerable=False,
                     technique=PathConfusionTechnique.ENCODED_POUND),
        ]
        skipped = [v if v.vulnerable else v._replace(unauth_status=0) for v in verdicts]
        sent = [v if v.vulnerable else v._replace(unauth_status=302) for v in verdicts]
        assert aggregate(skipped, SITE_MAP) == aggregate(sent, SITE_MAP)
        assert render_table(aggregate(skipped, SITE_MAP)) == render_table(
            aggregate(sent, SITE_MAP)
        )

    def test_cdn_dimension_counts_tested_and_vulnerable(self):
        verdicts = [
            _verdict("http://y.test/a", cdn=("Cloudflare", "Akamai")),
            _verdict("http://y.test/b", vulnerable=False, cdn=("Akamai",)),
        ]
        stats = aggregate(verdicts, SITE_MAP)
        assert stats.cdn_tested["Akamai"].pages == 2
        assert stats.cdn_vulnerable["Akamai"].pages == 1
        assert stats.cdn_vulnerable["Cloudflare"].pages == 1


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.booleans()),
                min_size=0, max_size=30))
def test_rollup_hierarchy_invariant(shape):
    """Every cell satisfies pages >= domains >= sites."""
    techniques = list(PathConfusionTechnique)
    hosts = ["a.x.test", "b.x.test", "y.test"]
    verdicts = [
        _verdict(
            f"http://{hosts[d]}/p{p}",
            technique=techniques[p % len(techniques)],
            vulnerable=v,
        )
        for p, d, v in shape
    ]
    stats = aggregate(verdicts, SITE_MAP)

    def ordered(c: Counts3) -> bool:
        return c.pages >= c.domains >= c.sites

    cells = [stats.tested, stats.vulnerable, stats.unauth_exploitable]
    cells += list(stats.per_technique.values())
    cells += list(stats.uniqueness.values())
    cells += list(stats.response_codes.values())
    cells += list(stats.cache_control_combos.values())
    cells += list(stats.leak_types.values())
    cells += list(stats.cdn_tested.values()) + list(stats.cdn_vulnerable.values())
    assert all(ordered(c) for c in cells)


def test_canonical_cache_combo():
    assert canonical_cache_combo("max-age=0, public") == "max-age=, public"
    assert canonical_cache_combo("Public, MAX-AGE=60") == "max-age=, public"
    assert canonical_cache_combo("") == "(none)"
    assert canonical_cache_combo(" , ,") == "(none)"
    assert canonical_cache_combo("max-age = 5") == "max-age="
    assert (
        canonical_cache_combo("must-revalidate, no-cache, no-store, post-check=0, pre-check=0")
        == "must-revalidate, no-cache, no-store, post-check=, pre-check="
    )


def test_records_round_trip():
    verdicts = [_verdict("http://y.test/a"), _verdict("http://y.test/b", vulnerable=False)]
    buffer = io.StringIO()
    write_records(verdicts, buffer)
    buffer.seek(0)
    assert read_records(buffer) == verdicts


GOLDEN_VERDICT = ScanVerdict(
    page="https://www.shop.example/account.php?id=7",
    technique=PathConfusionTechnique.ENCODED_SEMICOLON,
    attack_url="https://www.shop.example/account.php%3Bq7x2k9wz.css?id=7",
    victim_status=200,
    attacker_status=200,
    unauth_status=302,
    markers_leaked=("email", "name"),
    secrets=(
        SecretCandidate("csrf_token", "a8F3kLq9Zx", SecretSource.HIDDEN_FORM_FIELD,
                        SecretTrigger.KEYWORD_MATCH, 3.321928094887362, 10),
        SecretCandidate("app.9f8e7d6c5b4a.js", "app.9f8e7d6c5b4a",
                        SecretSource.SCRIPT_FILE_NAME, SecretTrigger.ENTROPY_MATCH, 3.75, 12),
    ),
    responses_identical=True,
    unauth_exploitable=False,
    vulnerable=True,
    # No scan sets both flags; every field differs from its default here.
    inconclusive=True,
    error="NetworkError: connection reset",
    cache_control="private, max-age=0",
    pragma="no-cache",
    expires="0",
    cache_evidence=(("x-cache", "HIT"), ("age", "12")),
    cdn_labels=("Akamai", "Other"),
)
GOLDEN_LINE = (
    '{"page": "https://www.shop.example/account.php?id=7", "technique": "encoded_semicolon", '
    '"attack_url": "https://www.shop.example/account.php%3Bq7x2k9wz.css?id=7", '
    '"victim_status": 200, "attacker_status": 200, "unauth_status": 302, '
    '"markers_leaked": ["email", "name"], "secrets": ['
    '{"name": "csrf_token", "value": "a8F3kLq9Zx", "source": "hidden_form_field", '
    '"trigger": "keyword_match", "entropy_bits_per_char": 3.321928094887362, '
    '"residual_length": 10}, '
    '{"name": "app.9f8e7d6c5b4a.js", "value": "app.9f8e7d6c5b4a", '
    '"source": "script_file_name", "trigger": "entropy_match", '
    '"entropy_bits_per_char": 3.75, "residual_length": 12}], '
    '"responses_identical": true, "unauth_exploitable": false, "vulnerable": true, '
    '"inconclusive": true, "error": "NetworkError: connection reset", '
    '"cache_control": "private, max-age=0", "pragma": "no-cache", "expires": "0", '
    '"cache_evidence": {"x-cache": "HIT", "age": "12"}, "cdn_labels": ["Akamai", "Other"]}\n'
)
OPTIONAL_KEYS = (
    "inconclusive", "error", "cache_control", "pragma", "expires", "cache_evidence", "cdn_labels"
)


def test_record_line_is_pinned():
    buffer = io.StringIO()
    write_records([GOLDEN_VERDICT], buffer)
    assert buffer.getvalue() == GOLDEN_LINE
    assert read_records(io.StringIO(GOLDEN_LINE)) == [GOLDEN_VERDICT]


def test_record_without_optional_keys_loads_with_defaults():
    record = GOLDEN_VERDICT.to_record()
    for key in OPTIONAL_KEYS:
        del record[key]
    loaded = ScanVerdict.from_record(record)
    assert loaded == GOLDEN_VERDICT._replace(
        inconclusive=False, error=None, cache_control="", pragma="",
        expires="", cache_evidence=(), cdn_labels=(),
    )


def test_record_with_an_unknown_key_loads():
    record = GOLDEN_VERDICT.to_record()
    record["cache_event"] = "hit"
    record["secrets"][0]["context"] = "form"
    assert ScanVerdict.from_record(record) == GOLDEN_VERDICT


def test_redaction_hides_hosts():
    verdicts = [_verdict("http://secret-site.example/account")]
    redacted = redact_verdicts(verdicts)
    assert "secret-site.example" not in redacted[0].page
    assert "secret-site.example" not in redacted[0].attack_url
    assert redacted[0].page.startswith("http://site-1.redacted/")


def test_redaction_replaces_only_the_url_host():
    verdicts = [
        _verdict("http://www.shop.example/go?next=shop.example"),
        _verdict("http://shop.example/www.shop.example/account"),
    ]
    redacted = redact_verdicts(verdicts)
    assert [v.page for v in redacted] == [
        "http://h1.site-1.redacted/go?next=shop.example",
        "http://site-1.redacted/www.shop.example/account",
    ]
    assert [v.attack_url for v in redacted] == [
        "http://h1.site-1.redacted/go?next=shop.example/x.css",
        "http://site-1.redacted/www.shop.example/account/x.css",
    ]


def test_redacting_a_redacted_stream_changes_nothing():
    # Twelve hosts: "site-10" sorts before "site-2" as a string.
    verdicts = [_verdict(f"http://host{i}.example/account") for i in range(12)]
    once = redact_verdicts(verdicts)
    assert {v.page for v in once} == {f"http://site-{n}.redacted/account" for n in range(1, 13)}
    assert redact_verdicts(once) == once


def test_redaction_numbers_new_hosts_after_existing_placeholders():
    verdicts = [
        _verdict("http://site-7.redacted/account"),
        _verdict("http://fresh.example/account"),
    ]
    assert [v.page for v in redact_verdicts(verdicts)] == [
        "http://site-7.redacted/account",
        "http://site-8.redacted/account",
    ]


def test_redaction_leaves_a_page_without_a_host():
    verdicts = [_verdict("notaurl"), _verdict("http://shop.example/account")]
    assert [v.page for v in redact_verdicts(verdicts)] == [
        "notaurl",
        "http://site-1.redacted/account",
    ]


def test_redaction_keeps_the_hosts_of_one_site_in_one_site():
    verdicts = [
        _verdict("http://www.example.com/account"),
        _verdict("http://shop.example.com/account"),
    ]
    redacted = redact_verdicts(verdicts)
    assert [v.page for v in redacted] == [
        "http://h2.site-1.redacted/account",
        "http://h1.site-1.redacted/account",
    ]
    for stream in (verdicts, redacted):
        stats = aggregate(stream, SiteMap())
        assert (stats.tested, stats.vulnerable) == (Counts3(2, 2, 1), Counts3(2, 2, 1))


def test_redaction_numbers_new_hosts_of_a_redacted_site_after_its_own():
    verdicts = [
        _verdict("http://h4.site-3.redacted/account"),
        _verdict("http://site-3.redacted/account"),
        _verdict("http://new.site-3.redacted/account"),
        _verdict("http://shop.example/account"),
    ]
    assert [v.page for v in redact_verdicts(verdicts)] == [
        "http://h4.site-3.redacted/account",
        "http://site-3.redacted/account",
        "http://h5.site-3.redacted/account",
        "http://site-4.redacted/account",
    ]


def test_render_table_smoke():
    verdicts = [
        _verdict("http://y.test/a"),
        _verdict("http://y.test/q", technique=PathConfusionTechnique.ENCODED_QUESTION),
        _verdict("http://a.x.test/c", vulnerable=False),
    ]
    text = render_table(aggregate(verdicts, SITE_MAP))
    assert "Vulnerable targets per technique" in text
    assert "Encoded ?" in text
    assert "row exploits what column misses" in text
    assert "Vulnerable:    2 / 1 / 1" in text  # both vulnerable pages live on y.test


# --- the JSONL format, pinned for a handful of verdicts ---

FIELD_ORDER = (
    "page", "technique", "attack_url", "victim_status", "attacker_status", "unauth_status",
    "markers_leaked", "secrets", "responses_identical", "unauth_exploitable", "vulnerable",
    "inconclusive", "error", "cache_control", "pragma", "expires", "cache_evidence",
    "cdn_labels",
)
S, G = SecretSource, SecretTrigger
HANDFUL = [
    ScanVerdict(
        page="https://café.example/compte?id=1",
        technique=PathConfusionTechnique.PATH_PARAMETER,
        attack_url="https://café.example/compte/n0nce.css?id=1",
        victim_status=200, attacker_status=200, unauth_status=200,
        markers_leaked=(), responses_identical=True, unauth_exploitable=True, vulnerable=True,
        secrets=(
            SecretCandidate("csrf", "k2Jf9QzX1pLw", S.HIDDEN_FORM_FIELD, G.KEYWORD_MATCH,
                            3.584962500721156, 12),
            SecretCandidate("sid", "Zq8Lm2Xw7Rt4", S.ANCHOR_QUERY_STRING, G.ENTROPY_MATCH,
                            3.584962500721156, 12),
            SecretCandidate("state", "b9Tq", S.INLINE_SCRIPT_VARIABLE, G.KEYWORD_MATCH, 2.0, 4),
            SecretCandidate("app.7f3a9c2e1b5d.js", "app.7f3a9c2e1b5d", S.SCRIPT_FILE_NAME,
                            G.ENTROPY_MATCH, 3.5, 16),
        ),
        cache_control="public, max-age=600", cache_evidence=(("age", "3"), ("x-cache", "HIT")),
        cdn_labels=("Fastly",),
    ),
    ScanVerdict(
        page="http://b.test/", technique=PathConfusionTechnique.ENCODED_NEWLINE,
        attack_url="http://b.test/%0An0nce.css", victim_status=200, attacker_status=404,
        unauth_status=0, markers_leaked=(), secrets=(), responses_identical=False,
        unauth_exploitable=False, vulnerable=False,
    ),
    ScanVerdict(
        page="http://b.test/x", technique=PathConfusionTechnique.ENCODED_QUESTION,
        attack_url="", victim_status=0, attacker_status=0, unauth_status=0,
        markers_leaked=(), secrets=(), responses_identical=False, unauth_exploitable=False,
        vulnerable=False, inconclusive=True, error="NetworkError: reset",
    ),
    ScanVerdict(
        page="http://a.test/account", technique=PathConfusionTechnique.ENCODED_POUND,
        attack_url="http://a.test/account%23n0nce.css", victim_status=200,
        attacker_status=200, unauth_status=302, markers_leaked=("email", "name"), secrets=(),
        responses_identical=False, unauth_exploitable=False, vulnerable=True,
        pragma="no-cache", expires="0", cdn_labels=("Akamai", "Other"),
    ),
]
HANDFUL_TEXT = (
    '{"page": "https://caf\\u00e9.example/compte?id=1", "technique": "path_parameter", '
    '"attack_url": "https://caf\\u00e9.example/compte/n0nce.css?id=1", "victim_status": 200, '
    '"attacker_status": 200, "unauth_status": 200, "markers_leaked": [], "secrets": ['
    '{"name": "csrf", "value": "k2Jf9QzX1pLw", "source": "hidden_form_field", '
    '"trigger": "keyword_match", "entropy_bits_per_char": 3.584962500721156, '
    '"residual_length": 12}, '
    '{"name": "sid", "value": "Zq8Lm2Xw7Rt4", "source": "anchor_query_string", '
    '"trigger": "entropy_match", "entropy_bits_per_char": 3.584962500721156, '
    '"residual_length": 12}, '
    '{"name": "state", "value": "b9Tq", "source": "inline_script_variable", '
    '"trigger": "keyword_match", "entropy_bits_per_char": 2.0, "residual_length": 4}, '
    '{"name": "app.7f3a9c2e1b5d.js", "value": "app.7f3a9c2e1b5d", '
    '"source": "script_file_name", "trigger": "entropy_match", '
    '"entropy_bits_per_char": 3.5, "residual_length": 16}], '
    '"responses_identical": true, "unauth_exploitable": true, "vulnerable": true, '
    '"inconclusive": false, "error": null, "cache_control": "public, max-age=600", '
    '"pragma": "", "expires": "", "cache_evidence": {"age": "3", "x-cache": "HIT"}, '
    '"cdn_labels": ["Fastly"]}\n'
    '{"page": "http://b.test/", "technique": "encoded_newline", '
    '"attack_url": "http://b.test/%0An0nce.css", "victim_status": 200, '
    '"attacker_status": 404, "unauth_status": 0, "markers_leaked": [], "secrets": [], '
    '"responses_identical": false, "unauth_exploitable": false, "vulnerable": false, '
    '"inconclusive": false, "error": null, "cache_control": "", "pragma": "", '
    '"expires": "", "cache_evidence": {}, "cdn_labels": []}\n'
    '{"page": "http://b.test/x", "technique": "encoded_question", "attack_url": "", '
    '"victim_status": 0, "attacker_status": 0, "unauth_status": 0, "markers_leaked": [], '
    '"secrets": [], "responses_identical": false, "unauth_exploitable": false, '
    '"vulnerable": false, "inconclusive": true, "error": "NetworkError: reset", '
    '"cache_control": "", "pragma": "", "expires": "", "cache_evidence": {}, '
    '"cdn_labels": []}\n'
    '{"page": "http://a.test/account", "technique": "encoded_pound", '
    '"attack_url": "http://a.test/account%23n0nce.css", "victim_status": 200, '
    '"attacker_status": 200, "unauth_status": 302, "markers_leaked": ["email", "name"], '
    '"secrets": [], "responses_identical": false, "unauth_exploitable": false, '
    '"vulnerable": true, "inconclusive": false, "error": null, "cache_control": "", '
    '"pragma": "no-cache", "expires": "0", "cache_evidence": {}, '
    '"cdn_labels": ["Akamai", "Other"]}\n'
)


def test_records_of_a_handful_are_pinned():
    buffer = io.StringIO()
    write_records(HANDFUL, buffer)
    assert buffer.getvalue() == HANDFUL_TEXT
    records = [json.loads(line) for line in HANDFUL_TEXT.splitlines()]
    assert all(tuple(record) == FIELD_ORDER for record in records)
    assert read_records(io.StringIO(HANDFUL_TEXT)) == HANDFUL

    required = FIELD_ORDER[: FIELD_ORDER.index("inconclusive")]
    bare = [{key: record[key] for key in required} for record in records]
    defaults = [
        ScanVerdict(**{name: getattr(verdict, name) for name in required})
        for verdict in HANDFUL
    ]
    assert read_records(json.dumps(record) for record in bare) == defaults
    assert all(v.error is None and v.cache_evidence == () and v.cdn_labels == () and
               not v.inconclusive and v.cache_control == v.pragma == v.expires == ""
               for v in defaults)


# --- a record field of the wrong JSON type is refused ---

def _line_with(**changes) -> str:
    record = json.loads(HANDFUL_TEXT.splitlines()[0])
    record.update(changes)
    return json.dumps(record)


def _line_with_secret(**changes) -> str:
    record = json.loads(HANDFUL_TEXT.splitlines()[0])
    record["secrets"][0].update(changes)
    return json.dumps(record)


MISTYPED = [
    ("vulnerable", "false", "true or false"),
    ("inconclusive", 0, "true or false"),
    ("victim_status", "200", "an integer"),
    ("unauth_status", True, "an integer"),
    ("attacker_status", 200.0, "an integer"),
    ("page", 7, "a string"),
    ("pragma", None, "a string"),
    ("technique", 1, "a string"),
    ("error", 404, "a string or null"),
    ("markers_leaked", "email", "an array of strings"),
    ("markers_leaked", ["email", 1], "an array of strings"),
    ("cdn_labels", "Akamai", "an array of strings"),
    ("cache_evidence", ["age"], "an object of strings"),
    ("cache_evidence", {"age": 3}, "an object of strings"),
    ("secrets", "csrf", "an array of secret objects"),
    ("secrets", [["csrf", "x"]], "an array of secret objects"),
]
MISTYPED_SECRET = [
    ("entropy_bits_per_char", "3.5", "a number"),
    ("entropy_bits_per_char", False, "a number"),
    ("residual_length", 12.0, "an integer"),
    ("value", None, "a string"),
]


def _case_id(case) -> str:
    return f"{case[0]}={json.dumps(case[1])}"


@pytest.mark.parametrize("field,value,label", MISTYPED, ids=map(_case_id, MISTYPED))
def test_a_mistyped_field_is_refused(field, value, label):
    """Without the type check these lines loaded: a string counted as a true
    flag, a string read letter by letter as labels, a string status kept."""
    good = HANDFUL_TEXT.splitlines()[1]
    with pytest.raises(reporting.MalformedRecord) as refused:
        read_records([good, _line_with(**{field: value})])
    assert str(refused.value) == f"2: field {field!r} must be {label}"


@pytest.mark.parametrize("field,value,label", MISTYPED_SECRET,
                         ids=map(_case_id, MISTYPED_SECRET))
def test_a_mistyped_secret_field_is_refused(field, value, label):
    with pytest.raises(reporting.MalformedRecord) as refused:
        read_records([_line_with_secret(**{field: value})])
    assert str(refused.value) == f"1: field {field!r} must be {label}"


def test_a_partial_record_is_checked_too():
    with pytest.raises(reporting.MalformedRecord) as refused:
        read_records(['{"page": "http://a.test/", "vulnerable": "false"}'])
    assert str(refused.value) == "1: field 'vulnerable' must be true or false"


def test_a_number_fills_a_float_field():
    loaded = read_records([_line_with_secret(entropy_bits_per_char=4)])
    assert loaded[0].secrets[0].entropy_bits_per_char == 4


@pytest.mark.parametrize(
    "line,message",
    [
        (_line_with(technique="bogus"), "'bogus' is not a valid PathConfusionTechnique"),
        (_line_with_secret(source="cookie"), "'cookie' is not a valid SecretSource"),
        (_line_with_secret(trigger=""), "'' is not a valid SecretTrigger"),
    ],
)
def test_an_unknown_enum_value_is_refused_as_enum_would(line, message):
    with pytest.raises(reporting.MalformedRecord) as refused:
        read_records([line])
    assert str(refused.value) == f"1: {message}"


# --- the writer refuses a verdict whose record the reader would refuse ---

_SECRET = HANDFUL[0].secrets[0]
UNWRITABLE = [
    ("victim_status", True, "field 'victim_status' must be an integer"),
    ("victim_status", 200.0, "field 'victim_status' must be an integer"),
    ("vulnerable", 1, "field 'vulnerable' must be true or false"),
    ("page", None, "field 'page' must be a string"),
    ("error", 404, "field 'error' must be a string or null"),
    ("technique", "path_parameter", "field 'technique' must be a PathConfusionTechnique"),
    ("markers_leaked", "email", "field 'markers_leaked' must be an array of strings"),
    ("cdn_labels", ("Akamai", None), "field 'cdn_labels' must be an array of strings"),
    ("cache_evidence", (("age", 3),), "field 'cache_evidence' must be an object of strings"),
    ("cache_evidence", (("age",),), "field 'cache_evidence' must be an object of strings"),
    ("secrets", "csrf", "field 'secrets' must be an array of secret objects"),
    ("secrets", ({"name": "csrf"},), "field 'secrets' must be an array of secret objects"),
    ("secrets", (_SECRET._replace(entropy_bits_per_char=False),),
     "field 'entropy_bits_per_char' must be a number"),
    ("secrets", (_SECRET._replace(residual_length=12.0),),
     "field 'residual_length' must be an integer"),
    ("secrets", (_SECRET._replace(source="hidden_form_field"),),
     "field 'source' must be a SecretSource"),
]


@pytest.mark.parametrize("field,value,message", UNWRITABLE,
                         ids=[f"{case[0]}-{index}" for index, case in enumerate(UNWRITABLE)])
def test_a_verdict_the_reader_would_refuse_is_not_written(field, value, message):
    buffer = io.StringIO()
    with pytest.raises(TypeError) as refused:
        write_records([HANDFUL[1], HANDFUL[0]._replace(**{field: value}), HANDFUL[1]], buffer)
    assert str(refused.value) == message
    assert buffer.getvalue() == HANDFUL_TEXT.splitlines(keepends=True)[1]


def test_a_list_in_a_tuple_field_is_written_as_the_tuple():
    verdict = HANDFUL[0]._replace(markers_leaked=("email",), cache_evidence=(("age", "3"),))
    listed = verdict._replace(
        markers_leaked=["email"], secrets=list(verdict.secrets),
        cache_evidence=[["age", "3"]], cdn_labels=list(verdict.cdn_labels),
    )
    buffer = io.StringIO()
    write_records([verdict, listed], buffer)
    first, second = buffer.getvalue().splitlines()
    assert first == second
    assert read_records([second]) == [verdict]


# --- records are read one line at a time, with the errors they always had ---

@pytest.mark.parametrize("k", [0, 1, 5])
def test_iter_records_yields_the_verdicts_before_a_malformed_line(k):
    good = HANDFUL_TEXT.splitlines()
    lines = iter([good[i % len(good)] for i in range(k)] + ["{not json", good[0]])
    records = iter_records(lines)
    assert [next(records) for _ in range(k)] == [HANDFUL[i % len(good)] for i in range(k)]
    with pytest.raises(MalformedRecord) as refused:
        next(records)
    assert str(refused.value).startswith(f"{k + 1}: Expecting property name")
    assert next(lines) == good[0]  # the line after the malformed one was not read


_GOOD_LINE = HANDFUL_TEXT.splitlines()[0]


@pytest.mark.parametrize(
    "line,message",
    [
        ("{not json",
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (_GOOD_LINE + " x",
         f"Extra data: line 1 column {len(_GOOD_LINE) + 2} (char {len(_GOOD_LINE) + 1})"),
        ("\ufeff" + _GOOD_LINE,
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("[]", "a record must be a JSON object"),
        ("null", "a record must be a JSON object"),
        # Only " \t\r\n" is JSON whitespace (RFC 8259 section 2); str.strip()
        # also strips these, and json.loads refuses them.
        ("\xa0" + _GOOD_LINE, "Expecting value: line 1 column 1 (char 0)"),
        (_GOOD_LINE + "\x1c",
         f"Extra data: line 1 column {len(_GOOD_LINE) + 1} (char {len(_GOOD_LINE)})"),
        ("\u2028", "Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["not-json", "trailing-data", "bom", "array", "null", "nbsp", "file-separator",
         "line-separator"],
)
def test_a_line_that_is_not_one_record_keeps_its_message(line, message):
    with pytest.raises(MalformedRecord) as refused:
        read_records([_GOOD_LINE, "", line])
    assert str(refused.value) == f"3: {message}"


# --- write_records against the json.dumps line it replaced ---

# Every JSON escape class: quotes, backslashes, control characters, DEL,
# line separators, non-ASCII, astral and lone surrogate code points.
_AWKWARD_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028é€\U0001f600\ud800'), st.characters()),
    max_size=12,
)
_FLOATS = st.one_of(
    st.sampled_from([1e-07, 1e16, -0.0, 5e-324, 3.321928094887362]), st.floats()
)
_SECRETS = st.builds(
    SecretCandidate, _AWKWARD_TEXT, _AWKWARD_TEXT, st.sampled_from(list(SecretSource)),
    st.sampled_from(list(SecretTrigger)), _FLOATS, st.integers(min_value=0),
)


def _texts():
    return st.lists(_AWKWARD_TEXT, max_size=3).map(tuple)


_VERDICTS = st.builds(
    ScanVerdict,
    page=_AWKWARD_TEXT,
    technique=st.sampled_from(list(PathConfusionTechnique)),
    attack_url=_AWKWARD_TEXT,
    victim_status=st.integers(),
    attacker_status=st.integers(),
    unauth_status=st.integers(),
    markers_leaked=_texts(),
    secrets=st.lists(_SECRETS, max_size=3).map(tuple),
    responses_identical=st.booleans(),
    unauth_exploitable=st.booleans(),
    vulnerable=st.booleans(),
    inconclusive=st.booleans(),
    error=st.none() | _AWKWARD_TEXT,
    cache_control=_AWKWARD_TEXT,
    pragma=_AWKWARD_TEXT,
    expires=_AWKWARD_TEXT,
    cache_evidence=st.lists(st.tuples(_AWKWARD_TEXT, _AWKWARD_TEXT), max_size=3).map(tuple),
    cdn_labels=_texts(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VERDICTS, max_size=4))
def test_write_records_writes_the_json_dumps_bytes(verdicts):
    buffer = io.StringIO()
    write_records(verdicts, buffer)
    assert buffer.getvalue() == "".join(json.dumps(v.to_record()) + "\n" for v in verdicts)


@settings(max_examples=100, deadline=None)
@given(st.lists(_VERDICTS, max_size=4))
def test_read_records_gives_back_what_write_records_wrote(verdicts):
    buffer = io.StringIO()
    write_records(verdicts, buffer)
    buffer.seek(0)
    # A record's cache_evidence is a JSON object, so a repeated name keeps its
    # first position and its last value. Compared by repr: a NaN entropy reads
    # back as a NaN, which equals nothing.
    folded = [v._replace(cache_evidence=tuple(dict(v.cache_evidence).items())) for v in verdicts]
    assert repr(read_records(buffer)) == repr(folded)


# --- the generated reader against the field-by-field path it falls back to ---

_ENUM_VALUES = [member.value for kind in (PathConfusionTechnique, SecretSource, SecretTrigger)
                for member in kind]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(_ENUM_VALUES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _mangled(data, record: dict) -> dict:
    """``record`` with up to two keys dropped, up to two given any JSON value,
    and up to two added that name no field."""
    keys = sorted(record)
    dropped = data.draw(st.sets(st.sampled_from(keys), max_size=2))
    changed = data.draw(st.dictionaries(st.sampled_from(keys), _JSON_VALUES, max_size=2))
    extra = data.draw(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=2))
    kept = {key: value for key, value in record.items() if key not in dropped}
    return {**extra, **kept, **changed}


def _outcome(read, record: dict):
    try:
        return read(record)
    except (TypeError, ValueError) as exc:  # iter_records reports these by message
        return f"raised: {exc}"


@settings(max_examples=200, deadline=None)
@given(_VERDICTS, st.data())
def test_the_generated_reader_matches_the_field_by_field_path(verdict, data):
    record = json.loads(verdict.to_line())
    record["secrets"] = [_mangled(data, secret) for secret in record["secrets"]]
    record = _mangled(data, record)
    assert _outcome(_VERDICT_RECORDS.read, record) == _outcome(_VERDICT_RECORDS.read_fields, record)

# --- the page-set fold against the per-cell id-set fold it replaced ---

class _IdSets:
    """Page/domain/site identifier sets feeding one roll-up cell."""

    def __init__(self):
        self.pages, self.domains, self.sites = set(), set(), set()

    def add(self, page, domain, site):
        self.pages.add(page)
        self.domains.add(domain)
        self.sites.add(site)

    def counts(self):
        return Counts3(len(self.pages), len(self.domains), len(self.sites))

    def minus(self, other):
        return Counts3(len(self.pages - other.pages), len(self.domains - other.domains),
                       len(self.sites - other.sites))


def _reference_aggregate(verdicts, site_map):
    """The fold that adds each verdict's page, domain and site to every cell."""
    techniques = [t.value for t in PathConfusionTechnique]
    tested, vulnerable, unauth = _IdSets(), _IdSets(), _IdSets()
    pragma_no_cache, expires_present, no_cache_headers = _IdSets(), _IdSets(), _IdSets()
    per_technique = {t: _IdSets() for t in techniques}
    response_codes, combos, leak_types, cdn_tested, cdn_vulnerable = {}, {}, {}, {}, {}
    inconclusive_pages, quarantined = set(), []
    for verdict in verdicts:
        page = verdict.page
        place = reporting._place_page(page, site_map)
        if isinstance(place, str):
            quarantined.append((page, place))
            continue
        ids = (page, *place)
        if verdict.inconclusive:
            inconclusive_pages.add(page)
            continue
        tested.add(*ids)
        for label in verdict.cdn_labels:
            cdn_tested.setdefault(label, _IdSets()).add(*ids)
        if not verdict.vulnerable:
            continue
        vulnerable.add(*ids)
        per_technique[verdict.technique.value].add(*ids)
        response_codes.setdefault(verdict.attacker_status, _IdSets()).add(*ids)
        combo = canonical_cache_combo(verdict.cache_control)
        combos.setdefault(combo, _IdSets()).add(*ids)
        if "no-cache" in verdict.pragma.lower():
            pragma_no_cache.add(*ids)
        if verdict.expires:
            expires_present.add(*ids)
        if combo == "(none)" and not verdict.pragma and not verdict.expires:
            no_cache_headers.add(*ids)
        if verdict.markers_leaked:
            leak_types.setdefault("markers", _IdSets()).add(*ids)
            for label in verdict.markers_leaked:
                leak_types.setdefault(f"marker:{label}", _IdSets()).add(*ids)
        if verdict.secrets:
            leak_types.setdefault("secrets", _IdSets()).add(*ids)
            for secret in verdict.secrets:
                leak_types.setdefault(f"secret:{secret.source.value}", _IdSets()).add(*ids)
        if verdict.markers_leaked and verdict.secrets:
            leak_types.setdefault("both", _IdSets()).add(*ids)
        if verdict.unauth_exploitable:
            unauth.add(*ids)
        for label in verdict.cdn_labels:
            cdn_vulnerable.setdefault(label, _IdSets()).add(*ids)

    def counted(cells):
        return {key: cell.counts() for key, cell in cells.items()}

    return reporting.AggregateStats(
        tested=tested.counts(),
        vulnerable=vulnerable.counts(),
        inconclusive_pages=len(inconclusive_pages),
        per_technique=counted(per_technique),
        uniqueness={(ti, tj): per_technique[ti].minus(per_technique[tj])
                    for ti in techniques for tj in techniques if ti != tj},
        response_codes=counted(response_codes),
        cache_control_combos=counted(combos),
        pragma_no_cache=pragma_no_cache.counts(),
        expires_present=expires_present.counts(),
        no_cache_headers=no_cache_headers.counts(),
        leak_types=counted(leak_types),
        unauth_exploitable=unauth.counts(),
        cdn_tested=counted(cdn_tested),
        cdn_vulnerable=counted(cdn_vulnerable),
        quarantined=quarantined,
    )


# Several hosts per site, a host outside the site map, and pages that are not
# http(s) URLs; few paths, so pages repeat.
FOLD_HOSTS = ("a.x.test", "b.x.test", "www.x.test", "y.test", "m.y.test", "unknown.example")
FOLD_SITE_MAP = build_site_map(FOLD_HOSTS[:-1])
FOLD_PAGES = [f"http://{host}/p{i}" for host in FOLD_HOSTS for i in range(3)]
FOLD_PAGES += ["notaurl", "ftp://y.test/f"]
FOLD_SECRET = {
    source: SecretCandidate("csrf", "k2Jf9QzX1pLw", source, SecretTrigger.KEYWORD_MATCH, 3.5, 12)
    for source in SecretSource
}


@st.composite
def fold_verdicts(draw):
    vulnerable, unauth, inconclusive = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    sources = draw(st.lists(st.sampled_from(list(SecretSource)), max_size=2, unique=True))
    verdict = _verdict(
        draw(st.sampled_from(FOLD_PAGES)),
        technique=draw(st.sampled_from(list(PathConfusionTechnique))),
        vulnerable=vulnerable,
        status=draw(st.sampled_from((200, 302, 404))),
        markers=draw(st.lists(st.sampled_from(("email", "name", "phone")), max_size=2,
                              unique=True)),
        cache_control=draw(st.sampled_from(("", "no-store", "public, max-age=60",
                                            "Max-Age=5, public"))),
        unauth=unauth,
        cdn=draw(st.lists(st.sampled_from(("Akamai", "Cloudflare", "Other")), max_size=2,
                          unique=True)),
        inconclusive=inconclusive,
    )
    return verdict._replace(
        secrets=tuple(FOLD_SECRET[source] for source in sources) if vulnerable else (),
        pragma=draw(st.sampled_from(("", "no-cache", "No-Cache"))),
        expires=draw(st.sampled_from(("", "0"))),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(fold_verdicts(), max_size=40), st.randoms(use_true_random=False))
def test_page_set_fold_matches_the_id_set_fold(verdicts, rng):
    calls = []

    def counting_combo(cache_control):
        calls.append(cache_control)
        return canonical_cache_combo(cache_control)

    with mock.patch.object(reporting, "canonical_cache_combo", counting_combo):
        stats = aggregate(verdicts, FOLD_SITE_MAP)
    expected = _reference_aggregate(verdicts, FOLD_SITE_MAP)
    assert stats == expected
    # The same keys in the same order, so ``report --format records`` prints the same.
    assert json.dumps(reporting.stats_to_records(stats)) == json.dumps(
        reporting.stats_to_records(expected)
    )
    counted = {
        v.cache_control for v in verdicts
        if v.vulnerable and not v.inconclusive
        and not isinstance(reporting._place_page(v.page, FOLD_SITE_MAP), str)
    }
    assert sorted(calls) == sorted(counted)  # once per distinct Cache-Control value

    shuffled = verdicts[:]
    rng.shuffle(shuffled)
    reordered = aggregate(shuffled, FOLD_SITE_MAP)
    assert sorted(reordered.quarantined) == sorted(stats.quarantined)
    assert replace(reordered, quarantined=[]) == replace(stats, quarantined=[])


# --- redaction against the counts of the unredacted stream ---

# Hosts of one site, a multi-part suffix, an IP address, a single label, and
# placeholders already present, among them a site's new host.
REDACT_HOSTS = (
    "example.com", "www.example.com", "shop.example.com", "a.example.co.uk",
    "b.example.co.uk", "10.0.0.1", "localhost", "site-2.redacted", "h3.site-2.redacted",
    "x.site-2.redacted", "h1.site-9.redacted", "site-10.redacted",
)
REDACT_PAGES = [f"http://{host}/p" for host in REDACT_HOSTS]
REDACT_PAGES += ["notaurl", "ftp://example.com/f", "ftp://localhost/f"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fold_verdicts(), st.sampled_from(REDACT_PAGES)), max_size=30))
def test_redaction_keeps_every_count_and_maps_a_redacted_stream_to_itself(drawn):
    verdicts = [verdict._replace(page=page, attack_url=page + "/x.css") for verdict, page in drawn]
    redacted = redact_verdicts(verdicts)
    assert redact_verdicts(redacted) == redacted
    site_map = SiteMap()
    stats = aggregate(verdicts, site_map)
    assert redact_stats(stats, site_map) == aggregate(redacted, SiteMap())
