"""Marker/secret extraction, randomness scoring, and the full attack step."""

import math
import random
import time
from dataclasses import replace
from html.parser import HTMLParser
from urllib.parse import urlsplit

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from wcdscan import detector
from wcdscan.cache_policy import CdnProfile, DefaultCached, builtin_profile
from wcdscan.crawler import extract_links
from wcdscan.detector import (
    DEFAULT_KEYWORDS,
    MAX_PATTERN_WORD_LENGTH,
    MIN_RESIDUAL_ENTROPY,
    MIN_RESIDUAL_LENGTH,
    MarkerSet,
    RandomnessConfig,
    SecretSource,
    SecretTrigger,
    WcdTestConfig,
    extract_markers,
    extract_secrets,
    normalize_body,
    randomness_score,
    responses_identical,
    run_wcd_test,
    scan_html,
    shannon_entropy,
    strip_dictionary_words,
)
from wcdscan.http1 import index_fields
from wcdscan.http_engine import (
    HttpExchange,
    Identity,
    LoginDescriptor,
    NetworkError,
    Role,
    Transport,
)
from wcdscan.lab import catalog
from wcdscan.lab.origin import OriginSemantics, OriginVariant
from wcdscan.lab.server import LabServer
from wcdscan.lab.sim import LabResource, SimSite
from wcdscan.url_toolkit import PathConfusionTechnique, RandomNameGenerator, parse_url
from wcdscan.words import COMMON_WORDS

from conftest import fast_settings


# --- independent reference implementations (kept deliberately separate) ---

def reference_entropy(text: str) -> float:
    n = len(text)
    if n == 0:
        return 0.0
    total = 0.0
    for ch in sorted(set(text)):
        p = text.count(ch) / n
        total += p * math.log2(1.0 / p)
    return total


def reference_strip(value: str, words, min_len: int = 3) -> str:
    vocab = sorted(
        {w.lower() for w in words if len(w) >= min_len}, key=len, reverse=True
    )
    lowered = value.lower()
    out = []
    i = 0
    while i < len(value):
        for word in vocab:
            if lowered.startswith(word, i):
                i += len(word)
                break
        else:
            out.append(value[i])
            i += 1
    return "".join(out)


class TestRandomnessScore:
    def test_single_symbol_distribution(self):
        assert randomness_score("aaaa", RandomnessConfig(dictionary=())) == (4, 0.0)

    def test_uniform_four_symbols(self):
        assert randomness_score("abcd", RandomnessConfig(dictionary=())) == (4, 2.0)

    def test_dictionary_strip_then_entropy(self):
        config = RandomnessConfig(dictionary=("token",))
        assert strip_dictionary_words("tokenx7qz", config) == "x7qz"
        residual, entropy = randomness_score("tokenx7qz", config)
        assert residual == 4
        assert entropy == pytest.approx(reference_entropy("x7qz"), abs=1e-12)
        assert entropy == pytest.approx(2.0)

    def test_empty_residual(self):
        config = RandomnessConfig(dictionary=("token",))
        assert randomness_score("tokentoken", config) == (0, 0.0)

    def test_prose_strips_to_short_residual(self):
        residual, _ = randomness_score("thecatsatonthemat", RandomnessConfig())
        assert residual < MIN_RESIDUAL_LENGTH

    def test_min_word_length_respected(self):
        config = RandomnessConfig(dictionary=("on", "the"))
        # "on" is below the 3-char minimum and must not be stripped.
        assert strip_dictionary_words("onthe", config) == "on"

    def test_default_thresholds_pass_hex_tokens_and_fail_prose(self):
        config = RandomnessConfig()
        residual, entropy = randomness_score("9f8e7d6c5b4a3210", config)
        assert residual >= MIN_RESIDUAL_LENGTH
        assert entropy >= MIN_RESIDUAL_ENTROPY
        residual, entropy = randomness_score("pleaseremembertosavethefile", config)
        assert residual < MIN_RESIDUAL_LENGTH or entropy < MIN_RESIDUAL_ENTROPY


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-.", max_size=32))
def test_entropy_matches_reference(value):
    assert shannon_entropy(value) == pytest.approx(reference_entropy(value), abs=1e-9)


def _mixed_case(word: str):
    flips = st.lists(st.booleans(), min_size=len(word), max_size=len(word))
    return flips.map(lambda up: "".join(c.upper() if u else c for c, u in zip(word, up)))


# Dictionary words in any case, and junk that holds "İ", whose lower() is
# two characters long, so positions in the value and its lowered form drift,
# and characters that lower to one character but not to themselves alone:
# the Kelvin sign lowers to an ASCII "k", "Σ" to "σ" or "ς" by context.
_stripper_values = st.lists(
    st.one_of(
        st.sampled_from(COMMON_WORDS).flatmap(_mixed_case),
        st.text(alphabet="xqzXQZ0123456789-_.İ\u212aΣſẞ", min_size=1, max_size=4),
    ),
    max_size=8,
).map("".join)


@settings(deadline=None, max_examples=300)
@given(_stripper_values)
@example("İthe")
@example("xİİtoken")
@example("\u212aeyTHEſ")
@example("ΣTHEΣ")
def test_stripper_matches_reference(value):
    config = RandomnessConfig()
    assert strip_dictionary_words(value, config) == reference_strip(value, COMMON_WORDS)


def test_configs_share_one_dictionary_index():
    first, second = RandomnessConfig(), RandomnessConfig()
    assert first._pattern is second._pattern
    other = RandomnessConfig(dictionary=("token",))
    assert other._pattern is not first._pattern


# Words that hold regex metacharacters, and words nested as prefixes of one
# another, in values of any case.
_TRICKY_WORDS = ("c++", "a.b", "(x)", "[x]", "\\d\\", "^$|", "the", "there", "therefore")
_lowercase_values = st.lists(
    st.one_of(
        st.sampled_from(_TRICKY_WORDS),
        st.text(alphabet="abcdefhort+.()[]\\^$|?*x9", min_size=1, max_size=4),
    ),
    max_size=8,
).map("".join)


@settings(deadline=None, max_examples=300)
@given(_lowercase_values | _lowercase_values.flatmap(_mixed_case))
@example("therefor")
@example("theretherefore")
@example("c+++a.ba-b(x)[x]")
@example("THEREfore(X)C++")
def test_stripper_matches_reference_on_metacharacters(value):
    config = RandomnessConfig(dictionary=_TRICKY_WORDS)
    assert config._pattern is not None
    assert strip_dictionary_words(value, config) == reference_strip(value, _TRICKY_WORDS)


@given(_lowercase_values)
def test_an_empty_dictionary_strips_nothing(value):
    assert strip_dictionary_words(value, RandomnessConfig(dictionary=())) == value


def _prefixes(length: int) -> tuple[str, ...]:
    word = "".join(random.Random(length).choice("abcdefgh") for _ in range(length))
    return tuple(word[:n] for n in range(1, length + 1))


def _under_frames(depth: int, build):
    return _under_frames(depth - 1, build) if depth else build()


def test_every_prefix_of_the_longest_word_builds_and_strips():
    words = _prefixes(MAX_PATTERN_WORD_LENGTH)
    config = RandomnessConfig(dictionary=words)
    assert config._pattern is not None
    word = words[-1]
    values = (word, word + "x" + word, "zz" + word[:57] + "9" + word[:2] + word[:80])
    for value in (*values, word[:90].upper() + "x" + word):
        assert strip_dictionary_words(value, config) == reference_strip(value, words)


def test_a_deep_callers_stack_does_not_change_whether_a_pattern_is_built():
    words = _prefixes(MAX_PATTERN_WORD_LENGTH)
    detector._dictionary_pattern.cache_clear()
    try:
        # Four hundred frames above the build, and the pattern is still built.
        config = _under_frames(400, lambda: RandomnessConfig(dictionary=words))
    finally:
        detector._dictionary_pattern.cache_clear()
    assert config._pattern is not None


def test_a_dictionary_with_a_longer_word_gets_a_pattern():
    words = _prefixes(MAX_PATTERN_WORD_LENGTH + 1)
    config = RandomnessConfig(dictionary=words)
    assert config._pattern is not None
    value = "q" + words[-1][:70] + "z" + words[-1][:3] + words[-1].upper()
    assert strip_dictionary_words(value, config) == reference_strip(value, words)


def _chain(stem: str, lengths: list[int]) -> list[str]:
    """Prefixes of one long word, so that the words are prefixes of each other."""
    word = (stem * (max(lengths) // len(stem) + 1))[: max(lengths)]
    return [word[:n] for n in lengths]


# Dictionaries that mix short words with words well past the trie's bound,
# some of them prefixes of one another, and values made of their pieces in
# any case, with "İ" among the junk between them.
_long_word_dictionaries = st.tuples(
    st.lists(st.text(alphabet="abc", min_size=3, max_size=6), max_size=6),
    st.lists(
        st.builds(
            _chain,
            st.text(alphabet="abc", min_size=1, max_size=5),
            st.lists(st.integers(3, 3 * MAX_PATTERN_WORD_LENGTH), min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=3,
    ),
).map(lambda drawn: (*drawn[0], *(w for chain in drawn[1] for w in chain)))


def _word_or_prefix(word: str):
    return st.one_of(st.just(word), st.integers(1, len(word)).map(lambda n: word[:n]))


@settings(deadline=None, max_examples=150)
@given(_long_word_dictionaries, st.data())
def test_a_dictionary_with_long_words_strips_as_the_reference(words, data):
    pieces = st.one_of(
        st.sampled_from(words).flatmap(_word_or_prefix),
        st.text(alphabet="abcxz9İ", min_size=1, max_size=3),
    )
    value = data.draw(st.lists(pieces.flatmap(_mixed_case), max_size=6).map("".join))
    config = RandomnessConfig(dictionary=words)
    assert strip_dictionary_words(value, config) == reference_strip(value, words)


def _reference_kept(name: str, value: str, config: RandomnessConfig):
    """The sweep's keep/skip decision from the full randomness score of the
    value and each keyword tested in turn, the reference for detector._kept."""
    residual, entropy = randomness_score(value, config)
    if any(k in name.lower() for k in DEFAULT_KEYWORDS):
        return SecretTrigger.KEYWORD_MATCH, entropy, residual
    if residual >= MIN_RESIDUAL_LENGTH and entropy >= MIN_RESIDUAL_ENTROPY:
        return SecretTrigger.ENTROPY_MATCH, entropy, residual
    return None


@settings(deadline=None, max_examples=400)
@given(
    name=st.one_of(
        st.sampled_from(["csrf_token", "CSRF", "xsrf", "State", "client_id", "İD", "q", ""]),
        st.text(alphabet="csrfTOKENidİ_.|xyab", max_size=12),
    ),
    value=st.one_of(
        _stripper_values,
        st.text(max_size=MIN_RESIDUAL_LENGTH - 1),
        st.text(alphabet="0123456789abcdefXYZİ-_", max_size=20),
    ),
)
@example(name="csrf", value="x7")
@example(name="CSRF", value="abc")
@example(name="client_İd", value="q7w8e9r0")
@example(name="name", value="İİİİİİİİ")
@example(name="blob", value="zq8x7w2v9k4j3h6f")
def test_keep_decision_matches_reference(name, value):
    config = RandomnessConfig()
    assert detector._kept(name, value, config) == _reference_kept(name, value, config)


def _urlsplit_part(url: str, part: str) -> str | None:
    try:
        return getattr(urlsplit(url), part)
    except ValueError:
        return None


_URL_PIECES = [
    "http:", "HTTPS:", "a+b.c:", "1x:", "//", "/", "h.test", ":8080", "u@", "[::1]",
    "[", "]", "?", "#", "&", "=", ";", "\\", " ", "\t", "\x00", "é", "\uff03", "x",
    "app.js", ".", "%41",
]


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(st.sampled_from(_URL_PIECES), max_size=10).map("".join),
        st.from_regex(r"[!-Z^-~]*", fullmatch=True),
        st.text(max_size=20),
    )
)
@example("//[::1/x?q=1")  # urlsplit rejects an unbalanced bracket in the host
@example("http://h.test]/app.js")
@example("/a#b?c=1")  # the fragment starts before the "?"
@example("mailto:app.js")
def test_plain_url_parts_match_urlsplit(url):
    assert detector._url_query(url) == _urlsplit_part(url, "query")
    assert detector._url_path(url) == _urlsplit_part(url, "path")


class TestMarkerSet:
    def test_valid(self):
        ms = MarkerSet([("email", "mk9f3kq7zx2w8v4n"), ("name", "mk1a5b8c2d9e4f7g")])
        assert [m.label for m in ms] == ["email", "name"]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            MarkerSet([("email", "short")])

    def test_low_entropy_rejected(self):
        with pytest.raises(ValueError):
            MarkerSet([("email", "aaaaaaaaaaaaaaaa")])

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            MarkerSet([("a", "mk9f3kq7zx2w8v4n"), ("b", "mk9f3kq7zx2w8v4n")])


MS = MarkerSet([("email", "zz7q9x2w8v4n6mkp"), ("name", "qq3f8j2k9w5x7vnd")])


class TestExtractMarkers:
    def test_substring_hit(self):
        assert extract_markers(b"<p>contact: zz7q9x2w8v4n6mkp</p>", MS) == ["email"]

    def test_empty_body(self):
        assert extract_markers(b"", MS) == []

    def test_entity_split_marker_is_missed(self):
        # Exact-match only: an HTML entity in the middle breaks the match.
        value = "zz7q9x2w8v4n6mkp"
        body = (value[:8] + "&#x200b;" + value[8:]).encode()
        assert extract_markers(body, MS) == []

    def test_both_markers(self):
        body = b"zz7q9x2w8v4n6mkp qq3f8j2k9w5x7vnd"
        assert extract_markers(body, MS) == ["email", "name"]


class TestExtractSecrets:
    def test_hidden_form_field_keyword(self):
        body = b"<form><input type=hidden name=csrf_token value=abc></form>"
        found = extract_secrets(body, RandomnessConfig())
        assert len(found) == 1
        secret = found[0]
        assert secret.source is SecretSource.HIDDEN_FORM_FIELD
        assert secret.trigger is SecretTrigger.KEYWORD_MATCH
        assert (secret.name, secret.value) == ("csrf_token", "abc")

    def test_anchor_query_keyword(self):
        body = b'<a href="/x?state=9f8e7d6c5b4a3210">next</a>'
        found = extract_secrets(body, RandomnessConfig())
        assert [s.source for s in found] == [SecretSource.ANCHOR_QUERY_STRING]
        assert found[0].trigger is SecretTrigger.KEYWORD_MATCH
        assert found[0].value == "9f8e7d6c5b4a3210"

    def test_inline_variable_prose_is_not_a_candidate(self):
        body = b'<script>var s = "thecatsatonthemat";</script>'
        assert extract_secrets(body, RandomnessConfig()) == []

    def test_inline_variable_entropy_match(self):
        body = b'<script>var blob = "zq8x7w2v9k4j3h6f";</script>'
        found = extract_secrets(body, RandomnessConfig())
        assert len(found) == 1
        assert found[0].source is SecretSource.INLINE_SCRIPT_VARIABLE
        assert found[0].trigger is SecretTrigger.ENTROPY_MATCH
        assert found[0].residual_length >= 8
        assert found[0].entropy_bits_per_char >= 3.0

    def test_script_file_name(self):
        body = b'<script src="/js/a9f3kq7zx2w8v4n6.js"></script>'
        found = extract_secrets(body, RandomnessConfig())
        assert [s.source for s in found] == [SecretSource.SCRIPT_FILE_NAME]
        assert found[0].name == "a9f3kq7zx2w8v4n6.js"
        assert found[0].value == "a9f3kq7zx2w8v4n6"

    def test_plain_script_name_ignored(self):
        body = b'<script src="/js/jquery.min.js"></script>'
        assert extract_secrets(body, RandomnessConfig()) == []

    def test_empty_values_skipped(self):
        body = b'<input type=hidden name=csrf_token value="">'
        assert extract_secrets(body, RandomnessConfig()) == []

    def test_unquoted_and_mixed_markup_survives(self):
        body = (
            b"<html><body><<<broken>> <input type=hidden name=xsrf value=q7w8e9r0>"
            b'<a href="?client_id=xyz123">x</a></body>'
        )
        found = extract_secrets(body, RandomnessConfig())
        names = {s.name for s in found}
        assert "xsrf" in names and "client_id" in names

    def test_a_pair_is_kept_once_per_source(self):
        token = "Zq8Xv2Km9Lp4Wr7T"
        body = (
            f'<input type="hidden" name="state" value="{token}">'
            f'<input type="hidden" name="state" value="{token}">'
            f'<a href="/a?state={token}">a</a><a href="/b?state={token}">b</a>'
            f'<script>var state = "{token}";</script>'
        ).encode()
        found = extract_secrets(body, RandomnessConfig())
        assert [(s.name, s.value, s.source) for s in found] == [
            ("state", token, SecretSource.HIDDEN_FORM_FIELD),
            ("state", token, SecretSource.ANCHOR_QUERY_STRING),
            ("state", token, SecretSource.INLINE_SCRIPT_VARIABLE),
        ]

    def test_unknown_marked_section_does_not_stop_the_scan(self):
        # html.parser raises on an unknown marked section; the scanner reads
        # it as a bogus comment and goes on, decoding &amp; after it too.
        body = (
            b"<html><body><![foo[ legacy ]]>"
            b'<form><input type="hidden" name="csrf_token" value="q8ZvX2mK9pL4wR7t"></form>'
            b'<a href="/account?state=Zq8Xv2Km9Lp4Wr7T">account</a> <a href="/news">news</a>'
            b'<a href="/orders?page=2&amp;state=Mq7Xz2Kv9Lp4Wr8T">orders</a>'
            b"</body></html>"
        )
        found = extract_secrets(body, RandomnessConfig())
        assert {(s.name, s.value, s.source) for s in found} == {
            ("csrf_token", "q8ZvX2mK9pL4wR7t", SecretSource.HIDDEN_FORM_FIELD),
            ("state", "Zq8Xv2Km9Lp4Wr7T", SecretSource.ANCHOR_QUERY_STRING),
            ("state", "Mq7Xz2Kv9Lp4Wr8T", SecretSource.ANCHOR_QUERY_STRING),
        }
        assert "amp;state" not in {s.name for s in found}
        assert extract_links(body, "http://h.test/") == [
            "http://h.test/account?state=Zq8Xv2Km9Lp4Wr7T",
            "http://h.test/news",
            "http://h.test/orders?page=2&state=Mq7Xz2Kv9Lp4Wr8T",
        ]


@pytest.mark.parametrize(
    "markup, surfaces",
    [
        # (hidden inputs, anchor hrefs, script srcs, inline script bodies)
        ("<!-- <a href='/c'> <input type=hidden name=n value=v> -->", ([], [], [], [])),
        ("<style>a { }<a href='/s'></style><STYLE >x</style >", ([], [], [], [])),
        (
            "<script>if (a<b) { document.write('<a href=\"/w\">'); }</script>",
            ([], [], [], ["if (a<b) { document.write('<a href=\"/w\">'); }"]),
        ),
        ("<script src='/app.js'>var a = 1;</script>", ([], [], ["/app.js"], [])),
        ("<script src=/app.js /><a href=/x>", ([], ["/x"], ["/app.js"], [])),
        ("<script>var a = 1; <a href=/x>", ([], [], [], [])),
        (
            "<INPUT Type=Hidden NAME='n1' Value=\"v1\"><input type=hidden name=n2 value=v2>",
            ([("n1", "v1"), ("n2", "v2")], [], [], []),
        ),
        ("<input type=text name=q value=v><input type=hidden value=v>", ([], [], [], [])),
        ('<a title="x>y" href=\'/q?a=1&amp;b=&lt;2&gt;\'>', ([], ["/q?a=1&b=<2>"], [], [])),
        ('<a href="" data-href="/d"><a href=/e href=/f><a href>', ([], ["/f"], [], [])),
        ('<div title="<a href=\'/hidden\'>"></div><a href="/shown">', ([], ["/shown"], [], [])),
        ("<a href='/open", ([], [], [], [])),
        ("<script / >var a;</script><script/>var b;</script>", ([], [], [], ["var a;"])),
        ("<a\x00<a href=/x>", ([], ["/x"], [], [])),
        # Where html.parser differs on purpose. A CDATA section in HTML is a
        # bogus comment that ends at the first ">", as browsers read it
        # (html.parser skipped it to "]]>"). A comment or attribute value
        # that never closes hides the rest of the text (html.parser's close()
        # re-read it as text up to the next ">").
        ("<![CDATA[ a>b <a href='/c'> ]]>", ([], ["/c"], [], [])),
        ("<a href=/x><!-- open > <a href=/y>", ([], ["/x"], [], [])),
        ("<a href=/x><a title='open><a href=/y>", ([], ["/x"], [], [])),
    ],
)
def test_scan_html(markup, surfaces):
    assert tuple(map(list, scan_html(markup))) == surfaces


class _FedHtmlParser(HTMLParser):
    """The four surfaces as html.parser reports them, the reference for
    scan_html. Read after feed() and without close(): feed() stops at the
    first construct that never closes, where scan_html stops too."""

    def __init__(self, text: str):
        super().__init__(convert_charrefs=True)
        self.surfaces = ([], [], [], [])
        self._body = None
        self.feed(text)

    def handle_starttag(self, tag, attrs):
        hidden, anchors, srcs, _ = self.surfaces
        attrs = {k.lower(): v or "" for k, v in attrs}
        if tag == "input" and attrs.get("type", "").lower() == "hidden":
            if attrs.get("name"):
                hidden.append((attrs["name"], attrs.get("value", "")))
        elif tag == "a" and attrs.get("href"):
            anchors.append(attrs["href"])
        elif tag == "script":
            if attrs.get("src"):
                srcs.append(attrs["src"])
            else:
                self._body = []

    def handle_data(self, data):
        if self._body is not None:
            self._body.append(data)

    def handle_endtag(self, tag):
        if tag == "script" and self._body:
            self.surfaces[3].append("".join(self._body))
        self._body = None


# Pieces of tag soup: tags, attributes, quotes, comments, raw-text elements,
# other markup and odd whitespace. "<![" is left out: html.parser raises on
# an unknown marked section and skips CDATA to "]]>".
_SOUP = [
    "<a", "<A", "<input", "<script", "<SCRIPT", "<style", "<div", "<b", "<p>", "<br/>",
    "</a>", "</script>", "</SCRIPT >", "</style>", "</", "</>", "<!--", "-->", "--!>",
    "--", "<!DOCTYPE html>", "<!", "<!-x>", "<?pi?>", "<?", "<", ">", "/>", "/", " / ",
    " ", "\n", "\t", "\x0b", "\xa0", "\x00", "=", "'", '"', "x'", "='", '="',
    " href", " HREF", " data-href=\"/d\"", " src=\"/s.js\"", " type=hidden",
    " TYPE='HIDDEN'", " name=csrf", ' value="v&lt;"', ' title="a>b"', "'/y'",
    '"/x?a=1&amp;b=2"', "=x", "/z", "f('a','b')", "var a='q';", "&amp;", "text",
    "<ſcript>", "</ſcript>", "<script\x0b>", "<a x='>'",
]


@settings(deadline=None, max_examples=400)
@given(st.lists(st.sampled_from(_SOUP), max_size=30).map("".join))
def test_scan_html_reads_tag_soup_as_html_parser_does(markup):
    assert tuple(map(list, scan_html(markup))) == _FedHtmlParser(markup).surfaces


@pytest.mark.parametrize(
    "markup",
    [
        # Attribute names that hold quotes, unclosed at the end of the text,
        # gave the tokenizer 2**n ways to split them.
        "<a " + "x'" * 24,
        "<a " + "x'" * 24 + " y='",
        "<script " + "x'" * 24,
        "<a onclick=f(" + "'a'," * 12,
        # Constructs that never close, each searched to the end of the text.
        "<!-- a > " * 20000,
        "</a " * 50000,
        "<a x='>'" * 3000,
    ],
    ids=["quotes", "quotes-open-value", "script-quotes", "onclick", "comments",
         "end-tags", "quoted-gt"],
)
def test_scan_html_hostile_markup_costs_one_pass(markup):
    start = time.perf_counter()
    scan_html(markup)
    assert time.perf_counter() - start < 1.0


class _Ex:
    """Tiny HttpExchange factory for body-level tests."""

    @staticmethod
    def make(body: bytes, status: int = 200) -> HttpExchange:
        return HttpExchange(
            url="http://e.com/x",
            status=status,
            headers={},
            body=body,
        )


class TestResponsesIdentical:
    def test_identical_bodies(self):
        assert responses_identical(_Ex.make(b"same"), _Ex.make(b"same")) is True

    def test_date_normalization(self):
        a = _Ex.make(b"<p>generated Mon, 13 Jan 2020 10:00:00 GMT</p>")
        b = _Ex.make(b"<p>generated Tue, 14 Jan 2020 11:30:00 GMT</p>")
        assert responses_identical(a, b) is True

    def test_nonce_normalization(self):
        nonce = "n0nc3n0nc3n0nc3x"
        a = _Ex.make(f"<p>missing /{nonce}.css</p>".encode())
        b = _Ex.make(b"<p>missing /.css</p>")
        assert responses_identical(a, b, strip=(nonce,)) is True

    def test_different_pages(self):
        assert responses_identical(_Ex.make(b"404 page"), _Ex.make(b"account page")) is False

    def test_headers_do_not_matter(self):
        a = HttpExchange(
            url="u", status=200, headers=index_fields([("X-Cache", "HIT")]), body=b"x",
        )
        b = HttpExchange(
            url="u", status=200, headers=index_fields([("X-Cache", "MISS")]), body=b"x",
        )
        assert responses_identical(a, b) is True

    def test_equal_bodies_are_not_normalized(self, monkeypatch):
        def no_normalize(*_args):
            raise AssertionError("equal bodies were normalized")

        monkeypatch.setattr(detector, "normalize_body", no_normalize)
        body = b"<p>generated Mon, 13 Jan 2020 10:00:00 GMT</p>"
        assert responses_identical(_Ex.make(body), _Ex.make(body), strip=("n0nc3",)) is True


def test_normalize_body_strips_all_nonce_occurrences():
    nonce = "abcdefabcdef1234"
    body = f"{nonce} middle {nonce}".encode()
    assert normalize_body(body, (nonce,)) == b" middle "


# --- full attack step against the lab ---


@pytest.fixture(scope="module")
def detector_lab():
    sites = [
        catalog.classic_site(),
        catalog._account_site(
            "det-cf-ns",
            frozenset({OriginVariant.PATH_PARAMETER_FALLBACK}),
            "cloudfront_default",
            no_store=True,
        ),
    ]
    nomatch = catalog._account_site(
        "det-nomatch",
        frozenset({OriginVariant.PATH_PARAMETER_FALLBACK}),
        "akamai_default",
        no_store=False,
    )
    nomatch.cache_profile = CdnProfile(
        name="no_extensions",
        default_cached=DefaultCached.EXTENSION_LIST,
        static_extensions=frozenset(),
    )
    sites.append(nomatch)
    server = LabServer(sites).start()
    yield server
    server.stop()


def _identities(host):
    victim = Identity(
        role=Role.VICTIM,
        credentials=LoginDescriptor(
            url=f"http://{host}/login",
            fields={"username": "victim", "password": catalog.VICTIM_PASSWORD},
        ),
    )
    attacker = Identity(
        role=Role.ATTACKER,
        credentials=LoginDescriptor(
            url=f"http://{host}/login",
            fields={"username": "attacker", "password": catalog.ATTACKER_PASSWORD},
        ),
    )
    return victim, attacker


@pytest.fixture()
def make_config():
    """``make_config(server, seed)`` builds a test config; the transports it
    made are closed at teardown."""
    transports = []

    def make(server, seed=11):
        transports.append(Transport(resolve_overrides=server.resolve_overrides()))
        return WcdTestConfig(
            fast_settings(transport=transports[-1]), names=RandomNameGenerator(seed=seed)
        )

    yield make
    for transport in transports:
        transport.close()


def _marker_set(site_name):
    values = catalog.victim_markers(site_name)
    return MarkerSet([(label, value) for label, value in values.items()])


def _login_both(server, host, config):
    from wcdscan.http_engine import maintain_session

    victim, attacker = _identities(host)
    maintain_session(victim, config.settings.rate_limiter, config.settings.transport)
    maintain_session(attacker, config.settings.rate_limiter, config.settings.transport)
    return victim, attacker


class TestRunWcdTest:
    def test_exploitable_page_full_verdict(self, detector_lab, make_config):
        host = "classic-pp.test"
        config = make_config(detector_lab)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        verdict = run_wcd_test(
            page,
            PathConfusionTechnique.PATH_PARAMETER,
            victim,
            attacker,
            _marker_set("classic-pp"),
            config,
        )
        assert verdict.vulnerable is True
        assert set(verdict.markers_leaked) == {"name", "email"}
        assert verdict.unauth_exploitable is True
        assert verdict.responses_identical is True
        assert verdict.victim_status == 200
        assert verdict.attacker_status == 200
        assert any(s.name == "csrf_token" for s in verdict.secrets)
        assert not verdict.inconclusive

    def test_honored_no_store_is_clean(self, detector_lab, make_config):
        host = "det-cf-ns.test"
        config = make_config(detector_lab)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        verdict = run_wcd_test(
            page,
            PathConfusionTechnique.PATH_PARAMETER,
            victim,
            attacker,
            _marker_set("det-cf-ns"),
            config,
        )
        assert verdict.vulnerable is False
        assert verdict.markers_leaked == ()
        # Secret gating: both bodies carry csrf fields, but they differ, so
        # no identical-response gate opens and no secrets are reported.
        assert verdict.responses_identical is False
        assert verdict.secrets == ()
        assert verdict.unauth_exploitable is False

    def test_never_stored_profile_is_clean(self, detector_lab, make_config):
        host = "det-nomatch.test"
        config = make_config(detector_lab)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        verdict = run_wcd_test(
            page,
            PathConfusionTechnique.PATH_PARAMETER,
            victim,
            attacker,
            _marker_set("det-nomatch"),
            config,
        )
        assert verdict.vulnerable is False

    def test_fresh_nonce_per_test(self, detector_lab, make_config):
        host = "classic-pp.test"
        config = make_config(detector_lab, seed=12)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        markers = _marker_set("classic-pp")
        first = run_wcd_test(
            page, PathConfusionTechnique.PATH_PARAMETER, victim, attacker, markers, config
        )
        second = run_wcd_test(
            page, PathConfusionTechnique.PATH_PARAMETER, victim, attacker, markers, config
        )
        assert first.attack_url != second.attack_url

    def test_fetch_order_victim_attacker_unauth(self, detector_lab, make_config):
        host = "classic-pp.test"
        config = make_config(detector_lab, seed=13)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        verdict = run_wcd_test(
            page, PathConfusionTechnique.PATH_PARAMETER, victim, attacker,
            _marker_set("classic-pp"), config,
        )
        nonce = verdict.attack_url.rsplit("/", 1)[-1].split(".")[0]
        entries = [
            e for e in detector_lab.request_log(host) if nonce in e.target
        ]
        assert [e.has_cookie for e in entries] == [True, True, False]

    def test_clean_test_sends_no_unauthenticated_step(self, detector_lab, make_config):
        host = "det-cf-ns.test"
        config = make_config(detector_lab, seed=15)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        verdict = run_wcd_test(
            page, PathConfusionTechnique.PATH_PARAMETER, victim, attacker,
            _marker_set("det-cf-ns"), config,
        )
        assert verdict.vulnerable is False
        nonce = verdict.attack_url.rsplit("/", 1)[-1].split(".")[0]
        entries = [
            e for e in detector_lab.request_log(host) if nonce in e.target
        ]
        assert [e.has_cookie for e in entries] == [True, True]
        assert verdict.unauth_status == 0
        assert verdict.unauth_exploitable is False

    def test_unauthenticated_network_failure_is_inconclusive(
        self, detector_lab, make_config, monkeypatch
    ):
        real_fetch = detector.fetch

        def fail_unauthenticated(identity, *args, **kwargs):
            if identity.role is Role.UNAUTHENTICATED:
                raise NetworkError("connection reset")
            return real_fetch(identity, *args, **kwargs)

        monkeypatch.setattr(detector, "fetch", fail_unauthenticated)
        host = "classic-pp.test"
        config = make_config(detector_lab, seed=16)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        verdict = run_wcd_test(
            page, PathConfusionTechnique.PATH_PARAMETER, victim, attacker,
            _marker_set("classic-pp"), config,
        )
        assert verdict.inconclusive is True
        assert verdict.vulnerable is False
        assert verdict.error == "connection reset"
        assert (verdict.victim_status, verdict.attacker_status, verdict.unauth_status) == (
            200, 200, 0
        )

    def test_network_failure_is_inconclusive(self, transport_limits):
        transport_limits(retries=0, timeout=0.5)
        config = WcdTestConfig(
            fast_settings(transport=Transport(resolve_overrides={"gone.test": ("127.0.0.1", 1)}))
        )
        victim = Identity(role=Role.VICTIM)
        attacker = Identity(role=Role.ATTACKER)
        page = parse_url("http://gone.test/account.php")
        verdict = run_wcd_test(
            page, PathConfusionTechnique.PATH_PARAMETER, victim, attacker,
            MarkerSet([("email", "zz7q9x2w8v4n6mkp")]), config,
        )
        assert verdict.inconclusive is True
        assert verdict.vulnerable is False
        assert verdict.error

    def test_verdict_record_round_trip(self, detector_lab, make_config):
        host = "classic-pp.test"
        config = make_config(detector_lab, seed=14)
        victim, attacker = _login_both(detector_lab, host, config)
        page = parse_url(f"http://{host}/account.php")
        verdict = run_wcd_test(
            page, PathConfusionTechnique.PATH_PARAMETER, victim, attacker,
            _marker_set("classic-pp"), config,
        )
        from wcdscan.detector import ScanVerdict

        assert ScanVerdict.from_record(verdict.to_record()) == verdict


# --- the attacker step follows only a victim body with something to leak ---

GATE_HOST = "det-gate.test"
GATE_MARKER = ("email", "zz7q9x2w8v4n6mkp")


@pytest.fixture()
def gate_lab():
    """A page with nothing to leak and a page holding a marker value; every
    technique routes back to them, and the cache stores each attack URL."""
    site = SimSite(
        name="det-gate",
        host=GATE_HOST,
        origin=OriginSemantics(variants=frozenset(OriginVariant), decode_before_route=True),
        cache_profile=builtin_profile("akamai_default"),
        resources={
            "/about": LabResource(
                path="/about", body_template="<html><body><h1>About us</h1></body></html>"
            ),
            "/profile": LabResource(
                path="/profile",
                body_template=f"<html><body><p>{GATE_MARKER[1]}</p></body></html>",
            ),
        },
    )
    server = LabServer([site]).start()
    yield server
    server.stop()


class TestAttackerGate:
    TECHNIQUE = PathConfusionTechnique.PATH_PARAMETER

    def _run(self, path, config):
        return run_wcd_test(
            parse_url(f"http://{GATE_HOST}{path}"),
            self.TECHNIQUE,
            Identity(role=Role.VICTIM),
            Identity(role=Role.ATTACKER),
            MarkerSet([GATE_MARKER]),
            config,
        )

    @staticmethod
    def _sent(server, verdict) -> int:
        """Requests the lab logged for the test's attack URL."""
        target = urlsplit(verdict.attack_url).path
        return sum(e.target == target for e in server.request_log(GATE_HOST))

    def test_only_a_victim_body_with_something_to_leak_is_attacked(self, gate_lab, make_config):
        config = make_config(gate_lab)
        gated = self._run("/about", config)
        assert self._sent(gate_lab, gated) == 1
        assert (gated.victim_status, gated.attacker_status, gated.unauth_status) == (200, 0, 0)
        assert gated.markers_leaked == () and gated.secrets == ()
        assert gated.responses_identical is False
        assert gated.vulnerable is False and gated.inconclusive is False
        # The victim body was swept once, through the memo.
        assert list(config.sweeps.values()) == [()]

        marked = self._run("/profile", config)
        assert self._sent(gate_lab, marked) == 3  # victim, attacker, unauthenticated
        assert marked.attacker_status == 200
        assert marked.markers_leaked == ("email",) and marked.vulnerable

    def test_attacker_delay_waits_only_before_a_sent_attacker_step(self, gate_lab, make_config):
        waits = []
        config = make_config(gate_lab)
        config = replace(
            config,
            settings=replace(config.settings, attacker_delay=0.25, delay_fn=waits.append),
        )
        self._run("/about", config)
        assert waits == []
        self._run("/profile", config)
        assert waits == [0.25]

    def test_gated_verdict_reads_cache_fields_from_the_victim_response(
        self, gate_lab, make_config, monkeypatch
    ):
        from wcdscan.reporting import cdn_label

        exchanges = []
        real_fetch = detector.fetch

        def recording_fetch(*args, **kwargs):
            exchanges.append(real_fetch(*args, **kwargs))
            return exchanges[-1]

        monkeypatch.setattr(detector, "fetch", recording_fetch)
        config = replace(make_config(gate_lab), label_fn=cdn_label)
        verdict = self._run("/about", config)
        [victim_exchange] = exchanges
        assert verdict.cdn_labels == tuple(cdn_label(victim_exchange)) == ("Akamai",)
        assert verdict.cache_evidence == detector._evidence(victim_exchange)
        assert ("x-cache", "TCP_MISS from cache-lab (AkamaiGHost)") in verdict.cache_evidence


# --- the secret sweep runs once per distinct body per config ---

PUBLIC_HOST = "det-public.test"
PUBLIC_BODY = (
    "<html><body><h1>News</h1>"
    '<form><input type="hidden" name="csrf_token" value="static"></form>'
    "</body></html>"
)


@pytest.fixture()
def public_lab():
    """A public page that every technique routes back to, so all five tests
    get the same body for victim and attacker alike."""
    site = SimSite(
        name="det-public",
        host=PUBLIC_HOST,
        origin=OriginSemantics(variants=frozenset(OriginVariant), decode_before_route=True),
        cache_profile=builtin_profile("akamai_default"),
        resources={"/news": LabResource(path="/news", body_template=PUBLIC_BODY)},
    )
    server = LabServer([site]).start()
    yield server
    server.stop()


def _reset_lab(server, host):
    requests.post(
        f"http://{server.address}:{server.port}/_lab/reset", headers={"Host": host}, timeout=5
    ).raise_for_status()


def _count_sweeps(monkeypatch) -> list[bytes]:
    """Record the body of every call that reaches ``extract_secrets``."""
    calls: list[bytes] = []
    original = detector.extract_secrets

    def counting(body, config, *args, **kwargs):
        calls.append(body)
        return original(body, config, *args, **kwargs)

    monkeypatch.setattr(detector, "extract_secrets", counting)
    return calls


class TestSweepMemo:
    PAGE = parse_url(f"http://{PUBLIC_HOST}/news")

    def _run_all(self, configs):
        victim, attacker = Identity(role=Role.VICTIM), Identity(role=Role.ATTACKER)
        return [
            run_wcd_test(self.PAGE, technique, victim, attacker, MarkerSet([]), config)
            for technique, config in zip(PathConfusionTechnique, configs)
        ]

    def test_repeated_body_is_swept_once(self, public_lab, make_config, monkeypatch):
        calls = _count_sweeps(monkeypatch)
        config = make_config(public_lab)
        memoized = self._run_all([config] * 5)
        assert len(calls) == 1
        assert list(config.sweeps.values()) == [memoized[0].secrets]
        assert all(v.responses_identical and v.secrets for v in memoized)

        # The same five tests, each with a fresh config (so an empty memo)
        # drawing the same nonces, against a reset lab.
        _reset_lab(public_lab, PUBLIC_HOST)
        names = RandomNameGenerator(seed=11)
        fresh = self._run_all([replace(config, names=names) for _ in range(5)])
        assert len(calls) == 6
        assert fresh == memoized

    def test_reflected_url_is_swept_once_per_test(self, monkeypatch):
        calls = _count_sweeps(monkeypatch)

        def reflecting_fetch(identity, url, *args, **kwargs):
            body = f'<html><body><a href="{url}?csrf=1">again</a></body></html>'
            return HttpExchange(url=url, status=200, headers={}, body=body.encode())

        monkeypatch.setattr(detector, "fetch", reflecting_fetch)
        config = WcdTestConfig(fast_settings(), names=RandomNameGenerator(seed=5))
        verdicts = self._run_all([config] * 5)
        # Bodies match once the nonce is stripped, but each test's differs.
        assert all(v.responses_identical for v in verdicts)
        assert len(calls) == 5
        assert len(set(calls)) == 5
        assert len(config.sweeps) == 5

    def test_replaced_config_starts_with_an_empty_memo(self, public_lab, make_config):
        config = make_config(public_lab, seed=21)
        victim, attacker = Identity(role=Role.VICTIM), Identity(role=Role.ATTACKER)
        technique = PathConfusionTechnique.PATH_PARAMETER
        first = run_wcd_test(self.PAGE, technique, victim, attacker, MarkerSet([]), config)
        assert [(s.name, s.residual_length) for s in first.secrets] == [("csrf_token", 6)]
        assert len(config.sweeps) == 1

        strict = replace(
            config,
            settings=replace(
                config.settings, randomness=RandomnessConfig(dictionary=("static",))
            ),
        )
        assert strict.sweeps == {}
        second = run_wcd_test(self.PAGE, technique, victim, attacker, MarkerSet([]), strict)
        # The fresh sweep strips the value "static" as a dictionary word; a
        # memo carried over from the first config would keep its 6 characters.
        assert [(s.name, s.residual_length) for s in second.secrets] == [("csrf_token", 0)]
        assert len(strict.sweeps) == 1
        assert len(config.sweeps) == 1
