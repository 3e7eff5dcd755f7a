"""URL parsing, attack crafting, grouping, and representative selection."""

import os
import random
import subprocess
import sys
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest
from hypothesis import example, given, strategies as st

from wcdscan.url_toolkit import (
    MalformedUrl,
    NONCE_ALPHABET,
    NUMERIC_PLACEHOLDER,
    ParsedUrl,
    PathConfusionTechnique,
    RandomNameGenerator,
    UrlGroupKey,
    group_key,
    make_attack_url,
    parse_url,
    pick_per_group,
    query_pairs,
    registrable_domain,
)
from wcdscan.lab.origin import OriginSemantics, OriginVariant, effective_path


class TestParseUrl:
    def test_query_params_preserved(self):
        url = parse_url("http://example.com/?lang=en")
        assert url.host == "example.com"
        assert url.raw_query == "lang=en"
        assert group_key(url).param_names == ("lang",)

    def test_empty_path_identity(self):
        url = parse_url("http://example.com/")
        assert url.raw_query == ""
        assert group_key(url).param_names == ()

    def test_encoded_slash_segment(self):
        # Cross-checked against the stdlib reference parser on the same input.
        raw = "http://example.com/a%2Fb/c"
        url = parse_url(raw)
        ref = urlsplit(raw)
        assert url.raw_path == ref.path
        # Grouping splits on raw slashes only: the encoded one stays inside.
        assert group_key(url).abstract_path == "/a%2Fb/c"

    def test_round_trip_is_byte_exact(self):
        raw = "http://example.com/a%2Fb/c?x=%201&y=2#frag"
        url = parse_url(raw)
        assert url.text() == raw

    def test_query_order_preserved(self):
        url = parse_url("http://example.com/p?b=2&a=1&b=3")
        assert url.raw_query == "b=2&a=1&b=3"
        assert url.text() == "http://example.com/p?b=2&a=1&b=3"
        assert group_key(url).param_names == ("a", "b")

    @pytest.mark.parametrize(
        "bad",
        ["ftp://example.com/x", "nohost", "http:///path", "http://example.com:notaport/"],
    )
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(MalformedUrl):
            parse_url(bad)

    def test_host_lowercased_and_default_port(self):
        url = parse_url("HTTP://ExAmple.COM/x")
        assert url.host == "example.com"
        assert url.port == 80
        assert parse_url("https://example.com/").port == 443

    def test_ipv6_host_round_trips(self):
        url = parse_url("http://[2001:db8::1]:8080/x")
        assert url.host == "2001:db8::1"
        assert url.text() == "http://[2001:db8::1]:8080/x"

    @pytest.mark.parametrize("raw", ["http://h.test:0/", "https://h.test:00", "http://u@h.test:0/x"])
    def test_port_zero_is_invalid(self, raw):
        with pytest.raises(MalformedUrl, match="invalid port"):
            parse_url(raw)


def _reference_parse(raw: str) -> tuple[ParsedUrl, tuple[str, ...]]:
    """parse_url's contract spelled out with urlsplit alone, with the query
    names that group_key keeps."""
    try:
        parts = urlsplit(raw)
    except ValueError as exc:
        raise MalformedUrl(raw) from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise MalformedUrl(raw)
    try:
        port = parts.port
    except ValueError as exc:
        raise MalformedUrl(raw) from exc
    if port == 0:
        raise MalformedUrl(raw)
    names = {name for name, _ in parse_qsl(parts.query, keep_blank_values=True)}
    return ParsedUrl(
        scheme=parts.scheme,
        host=parts.hostname.lower(),
        port=port or {"http": 80, "https": 443}[parts.scheme],
        raw_path=parts.path,
        fragment=parts.fragment or None,
        raw=raw,
        raw_query=parts.query,
    ), tuple(sorted(names))


def _parse_with_names(raw: str) -> tuple[ParsedUrl, tuple[str, ...]]:
    url = parse_url(raw)
    return url, group_key(url).param_names


def _outcome(parse, raw):
    try:
        return parse(raw)
    except MalformedUrl:
        return MalformedUrl


_URL_TEXT = "aZ09-._~!$&'()*+,;=:@%/?#[]\\^`{|}\"<> \t\né\u00a0"
_RFC3986_TEXT = "az09-._~!$&'()*+,;=:@%/?"
# Mostly URLs that parse_url takes apart without urlsplit, each with an
# optional tail that may push it onto the urlsplit path.
_plain_urls = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["http://", "https://"]),
        st.text(alphabet="az09.-", min_size=1, max_size=10),
        st.one_of(st.just(""), st.text(alphabet=_RFC3986_TEXT, max_size=16).map(lambda p: "/" + p)),
        st.sampled_from(["", "", "", "", "#", "#f", ":0", "@x", "A", "é", " ", "[", "\t"]),
    ),
)
_wild_urls = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["http", "https", "HTTP", "hTTps", "ftp", "javascript", ""]),
        st.sampled_from(["://", "://", "://", ":", ":///", "//"]),
        st.sampled_from(["", "", "", "u@", "u:p@", "@"]),
        st.one_of(
            st.sampled_from(["h.test", "a-b.example.com", "127.0.0.1", "EXAMPLE.com", ""]),
            st.text(alphabet="azAZ09.-_é[]:%", max_size=10),
        ),
        st.sampled_from(["", "", "", ":", ":0", ":00", ":80", ":8080", ":65536", ":x", ":-1"]),
        st.one_of(st.just(""), st.text(alphabet=_URL_TEXT, max_size=16).map(lambda p: "/" + p)),
        st.one_of(st.just(""), st.text(alphabet=_URL_TEXT, max_size=12).map(lambda q: "?" + q)),
        st.sampled_from(["", "", "#", "#f"]),
    ),
)
_urls = st.one_of(_plain_urls, _wild_urls)


@given(_urls)
def test_parse_url_matches_urlsplit_reference(raw):
    assert _outcome(_parse_with_names, raw) == _outcome(_reference_parse, raw)


_path_segments = st.lists(
    st.text(alphabet="abcdefghij0123456789-_", min_size=1, max_size=8),
    min_size=0,
    max_size=5,
)


@given(_path_segments, st.booleans())
def test_parse_round_trip_property(segments, trailing_slash):
    path = "/" + "/".join(segments)
    if trailing_slash and segments:
        path += "/"
    raw = f"http://host.example{path}"
    url = parse_url(raw)
    assert url.text() == raw
    assert url.raw_path == path


class TestMakeAttackUrl:
    BASE = parse_url("http://example.com/account.php")

    @pytest.mark.parametrize(
        "technique,expected",
        [
            (PathConfusionTechnique.PATH_PARAMETER, "http://example.com/account.php/nonexistent.css"),
            (PathConfusionTechnique.ENCODED_NEWLINE, "http://example.com/account.php%0Anonexistent.css"),
            (PathConfusionTechnique.ENCODED_SEMICOLON, "http://example.com/account.php%3Bnonexistent.css"),
            (PathConfusionTechnique.ENCODED_POUND, "http://example.com/account.php%23nonexistent.css"),
            (PathConfusionTechnique.ENCODED_QUESTION, "http://example.com/account.php%3Fnonexistent.css"),
        ],
    )
    def test_rendered_per_technique(self, technique, expected):
        attack = make_attack_url(self.BASE, technique, "nonexistent", "css")
        assert attack == expected

    def test_embedded_parameter_variant(self):
        attack = make_attack_url(
            self.BASE,
            PathConfusionTechnique.ENCODED_QUESTION,
            "nonexistent",
            "css",
            embed_query="name=val",
        )
        assert attack == "http://example.com/account.php%3Fname=valnonexistent.css"

    def test_query_and_fragment_dropped(self):
        base = parse_url("http://example.com/account.php?tab=summary#top")
        attack = make_attack_url(base, PathConfusionTechnique.PATH_PARAMETER, "n0n3", "css")
        assert "?" not in attack
        assert "#" not in attack
        assert attack.endswith("/account.php/n0n3.css")

    def test_root_path_gets_leading_slash(self):
        base = parse_url("http://example.com")
        attack = make_attack_url(base, PathConfusionTechnique.ENCODED_NEWLINE, "n0n3", "css")
        assert attack == "http://example.com/%0An0n3.css"


_nonce = st.text(alphabet=NONCE_ALPHABET, min_size=16, max_size=16)


@given(_nonce, st.sampled_from(list(PathConfusionTechnique)),
       st.sampled_from(["css", "jpg", "txt"]))
def test_attack_url_invariants(nonce, technique, extension):
    base = parse_url("http://example.com/account.php")
    attack = make_attack_url(base, technique, nonce, extension)
    assert attack.count(nonce) == 1
    assert attack.endswith("." + extension)


@given(st.sampled_from(list(PathConfusionTechnique)))
def test_dual_interpretation_property(technique):
    """The crafted URL reads as the base page under the matching origin
    semantics, and as a .css resource when treated as an opaque path."""
    base = parse_url("http://example.com/account.php")
    attack = make_attack_url(base, technique, "n0nc3n0nc3n0nc3x", "css")
    wire_path = attack.split("example.com", 1)[1]

    semantics_for = {
        PathConfusionTechnique.ENCODED_NEWLINE: OriginVariant.TRUNCATE_AT_NEWLINE,
        PathConfusionTechnique.ENCODED_SEMICOLON: OriginVariant.SEMICOLON_PARAMS,
        PathConfusionTechnique.ENCODED_POUND: OriginVariant.TRUNCATE_AT_FRAGMENT,
        PathConfusionTechnique.ENCODED_QUESTION: OriginVariant.TRUNCATE_AT_QUESTION,
    }
    if technique is PathConfusionTechnique.PATH_PARAMETER:
        # Fallback routing: everything after the base page is parameters.
        assert wire_path.startswith(base.raw_path + "/")
    else:
        semantics = OriginSemantics(
            variants=frozenset({semantics_for[technique]}), decode_before_route=True
        )
        assert effective_path(semantics, wire_path) == base.raw_path
    # Opaque view: the last dot-suffix of the whole path is the bogus one.
    assert wire_path.rsplit(".", 1)[-1] == "css"


def test_default_generator_shape():
    gen = RandomNameGenerator(seed=7)
    names = [gen.next() for _ in range(50)]
    assert all(len(n) == 16 and set(n) <= set(NONCE_ALPHABET) for n in names)
    assert len(set(names)) == 50
    replay = RandomNameGenerator(seed=7)
    assert [replay.next() for _ in range(50)] == names


class TestGroupKey:
    def test_query_values_collapse(self):
        a = group_key(parse_url("http://example.com/?lang=en"))
        b = group_key(parse_url("http://example.com/?lang=fr"))
        assert a == b

    def test_numeric_path_segments_collapse(self):
        a = group_key(parse_url("http://example.com/028"))
        b = group_key(parse_url("http://example.com/142"))
        assert a == b

    def test_non_numeric_segments_stay_distinct(self):
        a = group_key(parse_url("http://example.com/a"))
        b = group_key(parse_url("http://example.com/b"))
        assert a != b

    def test_mixed_segments_not_grouped(self):
        a = group_key(parse_url("http://example.com/item28"))
        b = group_key(parse_url("http://example.com/item29"))
        assert a != b

    def test_param_name_changes_key(self):
        a = group_key(parse_url("http://example.com/?lang=en"))
        b = group_key(parse_url("http://example.com/?page=2"))
        assert a != b


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alpha", "beta", "123", "9", "item7"]),
            st.sampled_from(["", "x=1", "x=2", "y=3"]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_group_key_idempotent_under_abstraction(parts):
    for segment, query in parts:
        raw = f"http://h.example/{segment}" + (f"?{query}" if query else "")
        url = parse_url(raw)
        key = group_key(url)
        abstracted = f"http://{key.host}{key.abstract_path}"
        if key.param_names:
            abstracted += "?" + "&".join(f"{n}=v" for n in key.param_names)
        assert group_key(parse_url(abstracted)) == key


def _segment_rule(raw_path: str) -> str:
    """The abstract path by splitting into segments: the reference for
    ``group_key``'s single substitution."""
    raw_path = raw_path or "/"
    if raw_path == "/":
        return "/"
    return "/" + "/".join([
        NUMERIC_PLACEHOLDER if seg.isascii() and seg.isdigit() else seg
        for seg in raw_path.lstrip("/").split("/")
    ])


def _key_of(raw_path: str, raw_query: str) -> UrlGroupKey:
    return group_key(ParsedUrl("http", "h.test", 80, raw_path, None, "", raw_query))


@given(st.lists(st.sampled_from(["/", "//", "0", "42", "٣", "²", "a", "x1", "é", "%31", "-"]),
                max_size=8).map("".join))
@example("")
@example("/")
@example("//12//a/")
@example("/٣/²/12/007")
@example("12/a")
def test_group_key_path_matches_segment_rule(raw_path):
    assert _key_of(raw_path, "").abstract_path == _segment_rule(raw_path)


@given(st.lists(st.sampled_from(["a", "b", "=", "&", "&&", "=x", "a=b=c", ";", "%41", "%4",
                                 "+", "é", "1"]), max_size=8).map("".join))
@example("a=1&&b=2&")
@example("=x&a=b=c")
@example("a;b=1&c")
@example("%61=1&a=2")
@example("a+b=1&a b=2")
def test_group_key_names_match_parse_qsl(raw_query):
    expected = tuple(sorted({n for n, _ in parse_qsl(raw_query, keep_blank_values=True)}))
    assert _key_of("/", raw_query).param_names == expected


# Whole pieces, "&" and "=" runs, escapes and "+" to decode, ";" (no
# separator since Python 3.10) and letters; "&&" and a trailing "&" give
# empty pieces.
@given(st.lists(st.sampled_from(["a", "Zq", "=", "==", "&", "&&", "%", "%41", "%4", "%zz",
                                 "+", ";", "é", "x=y", ""]), max_size=10).map("".join))
@example("")
@example("a=1&&b&=c&d==e&")
@example("a+b=%20&c")
def test_query_pairs_is_parse_qsl_keeping_blank_values(query):
    assert query_pairs(query) == parse_qsl(query, keep_blank_values=True)


def test_url_values_are_immutable_and_hashable():
    url = parse_url("http://e.com/a/1?x=2")
    key = group_key(url)
    for value, field in ((url, "raw_path"), (key, "abstract_path")):
        with pytest.raises(AttributeError):
            setattr(value, field, "/b")
    twins = {parse_url("http://e.com/a/1?x=2"), url}
    assert twins == {url}
    assert {group_key(parse_url("http://e.com/a/7?x=3")), key} == {key}


def test_group_keys_sort_by_host_path_then_names():
    keys = [
        UrlGroupKey("b.test", "/", ()),
        UrlGroupKey("a.test", "/z", ()),
        UrlGroupKey("a.test", "/a", ("y",)),
        UrlGroupKey("a.test", "/a", ("x", "y")),
        UrlGroupKey("a.test", "/a", ()),
    ]
    by_fields = sorted(keys, key=lambda k: (k.host, k.abstract_path, k.param_names))
    assert sorted(keys) == by_fields
    assert sorted(reversed(keys)) == by_fields


def _representatives(urls, seed):
    """``pick_per_group``'s picks over the ``group_key`` groups of ``urls``."""
    groups = {}
    for url in urls:
        groups.setdefault(group_key(url), []).append(url)
    return pick_per_group(groups, seed)


class TestSelectRepresentatives:
    def test_one_per_group(self):
        urls = [parse_url("http://e.com/?lang=en"), parse_url("http://e.com/?lang=fr")]
        assert len(_representatives(urls, seed=1)) == 1

    def test_empty(self):
        assert _representatives([], seed=1) == []

    def test_500_urls_3_groups_brute_force(self):
        # Independent enumeration: build the groups by construction, then
        # check the selection returns exactly one member of each.
        urls = []
        for n in range(200):
            urls.append(parse_url(f"http://e.com/item/{n}"))
        for n in range(200):
            urls.append(parse_url(f"http://e.com/page?q=term{n}"))
        for n in range(100):
            urls.append(parse_url(f"http://e.com/static/about?v={n}"))
        assert len(urls) == 500
        reps = _representatives(urls, seed=42)
        assert len(reps) == 3
        buckets = {"/item/": 0, "/page": 0, "/static/about": 0}
        for rep in reps:
            for prefix in buckets:
                if rep.raw_path.startswith(prefix):
                    buckets[prefix] += 1
        assert all(v == 1 for v in buckets.values())
        again = _representatives(urls, seed=42)
        assert [r.text() for r in again] == [r.text() for r in reps]

    def test_insensitive_to_input_order(self):
        urls = [parse_url(f"http://e.com/item/{n}") for n in range(30)]
        shuffled = urls[:]
        random.Random(9).shuffle(shuffled)
        assert _representatives(urls, 5) == _representatives(shuffled, 5)

    def test_pick_does_not_depend_on_hash_seed(self):
        # Three spellings of one URL share text(); the raw URL breaks the tie.
        code = (
            "from wcdscan.url_toolkit import group_key, parse_url, pick_per_group\n"
            "urls = [parse_url('http://' + h + '/a') for h in ('Example.com', 'example.com', 'EXAMPLE.com')]\n"
            "groups = {}\n"
            "for u in urls:\n"
            "    groups.setdefault(group_key(u), []).append(u)\n"
            "assert len(groups) == 1\n"
            "print(pick_per_group(groups, 0)[0].raw)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        picks = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for hash_seed in ("1", "4")
        }
        assert len(picks) == 1

    def test_seed_changes_choice(self):
        urls = [parse_url(f"http://e.com/item/{n}") for n in range(50)]
        picks = {_representatives(urls, seed)[0].text() for seed in range(20)}
        assert len(picks) > 1


@given(st.lists(st.integers(min_value=0, max_value=999), min_size=0, max_size=50),
       st.integers(min_value=0, max_value=2**16))
def test_representatives_partition_property(numbers, seed):
    urls = [parse_url(f"http://e.com/n/{n}") for n in numbers]
    urls += [parse_url(f"http://e.com/fixed{n % 3}") for n in numbers]
    reps = _representatives(urls, seed)
    assert len(reps) == len({group_key(u) for u in urls})
    assert len({group_key(r) for r in reps}) == len(reps)
    assert _representatives(urls, seed) == reps


@pytest.mark.parametrize(
    "host,expected",
    [
        ("www.example.com", "example.com"),
        ("a.b.site.co.uk", "site.co.uk"),
        ("localhost", "localhost"),
        ("127.0.0.1", "127.0.0.1"),
        ("pp-akamai-std.test", "pp-akamai-std.test"),
    ],
)
def test_registrable_domain(host, expected):
    assert registrable_domain(host) == expected
