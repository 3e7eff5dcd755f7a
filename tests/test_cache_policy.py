"""Cache-Control parsing and the CDN-profile decision engine."""

import pytest
from hypothesis import given, strategies as st

from wcdscan.cache_policy import (
    DEFAULT_STATIC_EXTENSIONS,
    CacheRule,
    CdnProfile,
    DecisionReason,
    DefaultCached,
    builtin_profile,
    builtin_profiles,
    decide,
    parse_cache_control,
    path_extension,
    profile_from_dict,
    profile_to_dict,
)

# Directive combinations observed on cached-anyway responses in the wild;
# the parser must take every one of them apart and rebuild it byte-exactly.
OBSERVED_COMBOS = [
    "max-age=0, public",
    "max-age=3600",
    "must-revalidate, private",
    "max-age=0, no-cache, no-store",
    "max-age=604800, no-cache",
    "max-age=0, must-revalidate",
    "max-age=900, must-revalidate, no-transform, private",
    "no-cache",
    "max-age=0, private",
    "must-revalidate, no-cache, no-store, post-check=0, pre-check=0",
]


class TestParseCacheControl:
    def test_max_age_public(self):
        d = parse_cache_control("max-age=0, public")
        assert d.max_age == 0
        assert d.public_ is True
        assert not d.no_store

    def test_empty_header(self):
        d = parse_cache_control("")
        assert d.max_age is None
        assert not any([d.no_store, d.no_cache, d.private_, d.public_,
                        d.must_revalidate, d.no_transform])
        assert d.extensions == []

    def test_unknown_directives_kept(self):
        d = parse_cache_control(
            "must-revalidate, no-cache, no-store, post-check=0, pre-check=0"
        )
        assert d.must_revalidate and d.no_cache and d.no_store
        assert d.extensions == [("post-check", "0"), ("pre-check", "0")]

    def test_case_insensitive_names(self):
        d = parse_cache_control("No-Store, PRIVATE, Max-Age=60")
        assert d.no_store and d.private_ and d.max_age == 60

    def test_malformed_max_age_goes_to_extensions(self):
        d = parse_cache_control("max-age=later, no-cache")
        assert d.max_age is None
        assert ("max-age", "later") in d.extensions
        assert d.no_cache

    @pytest.mark.parametrize("combo", OBSERVED_COMBOS)
    def test_round_trip(self, combo):
        parsed = parse_cache_control(combo)
        assert parsed.render() == combo
        assert parse_cache_control(parsed.render()) == parsed


_directive_token = st.sampled_from(
    ["no-store", "no-cache", "private", "public", "must-revalidate",
     "no-transform", "max-age=0", "max-age=3600", "post-check=0",
     "s-maxage=30", "immutable", "stale-while-revalidate=60"]
)


@given(st.lists(_directive_token, min_size=0, max_size=8))
def test_parse_render_parse_is_stable(tokens):
    header = ", ".join(tokens)
    once = parse_cache_control(header)
    twice = parse_cache_control(once.render())
    assert once == twice


class TestBuiltinProfiles:
    def test_exactly_four_profiles(self):
        names = [p.name for p in builtin_profiles()]
        assert names == [
            "akamai_default", "cloudflare_default", "cloudfront_default", "fastly_default",
        ]

    def test_akamai_honors_nothing(self):
        p = builtin_profile("akamai_default")
        assert p.default_cached is DefaultCached.EXTENSION_LIST
        assert p.honored == frozenset()

    def test_cloudflare_honors_all_and_opts_in(self):
        p = builtin_profile("cloudflare_default")
        assert p.default_cached is DefaultCached.EXTENSION_LIST_OR_HEADER_OPT_IN
        assert p.honored == {"no-store", "no-cache", "private"}

    def test_cloudfront_caches_everything_honors_all(self):
        p = builtin_profile("cloudfront_default")
        assert p.default_cached is DefaultCached.ALL_OBJECTS
        assert p.honored == {"no-store", "no-cache", "private"}

    def test_fastly_honors_only_private(self):
        p = builtin_profile("fastly_default")
        assert p.default_cached is DefaultCached.ALL_OBJECTS
        assert p.honored == {"private"}


class TestDecide:
    def test_akamai_ignores_no_store_on_extension_match(self):
        decision = decide(
            builtin_profile("akamai_default"),
            "/account.php/x.css",
            200,
            parse_cache_control("no-store"),
        )
        assert decision.store is True
        assert decision.reason is DecisionReason.EXTENSION_MATCH

    def test_cloudfront_honors_no_store(self):
        decision = decide(
            builtin_profile("cloudfront_default"),
            "/account.php/x.css",
            200,
            parse_cache_control("no-store"),
        )
        assert decision.store is False
        assert decision.ttl == 0
        assert decision.reason is DecisionReason.HEADER_FORBIDS

    def test_fastly_private_vs_no_cache(self):
        fastly = builtin_profile("fastly_default")
        private = decide(fastly, "/anything", 200, parse_cache_control("private"))
        assert private.store is False
        no_cache = decide(fastly, "/anything", 200, parse_cache_control("no-cache"))
        assert no_cache.store is True
        assert no_cache.reason is DecisionReason.DEFAULT_ALL

    def test_cloudflare_header_opt_in(self):
        cloudflare = builtin_profile("cloudflare_default")
        opt_in = decide(cloudflare, "/api/data", 200, parse_cache_control("public"))
        assert opt_in.store is True and opt_in.reason is DecisionReason.HEADER_OPT_IN
        max_age = decide(cloudflare, "/api/data", 200, parse_cache_control("max-age=60"))
        assert max_age.store is True and max_age.reason is DecisionReason.HEADER_OPT_IN
        neither = decide(cloudflare, "/api/data", 200, parse_cache_control("max-age=0"))
        assert neither.store is False and neither.reason is DecisionReason.NO_MATCH

    def test_akamai_non_extension_never_stored(self):
        # Vendor behavior undocumented for this case; engine treats it as no-store.
        decision = decide(
            builtin_profile("akamai_default"), "/api/data", 200, parse_cache_control("public")
        )
        assert decision.store is False

    def test_status_gate(self):
        akamai = builtin_profile("akamai_default")
        empty = parse_cache_control("")
        assert decide(akamai, "/x.css", 404, empty).store is True
        assert decide(akamai, "/x.css", 500, empty).store is False
        assert decide(akamai, "/x.css", 302, empty).store is False

    def test_custom_rule_override_headers(self):
        profile = CdnProfile(
            name="custom",
            default_cached=DefaultCached.EXTENSION_LIST,
            rules=(
                CacheRule(glob="/static/*", honor_headers=frozenset({"no-store"}), ttl=60),
                CacheRule(extensions=frozenset({"pdf"}), override_headers=True, ttl=120),
            ),
        )
        gated = decide(profile, "/static/a", 200, parse_cache_control("no-store"))
        assert gated.store is False and gated.reason is DecisionReason.HEADER_FORBIDS
        forced = decide(profile, "/tax.pdf", 200, parse_cache_control("no-store"))
        assert forced.store is True and forced.ttl == 120

    def test_rule_forms_are_exclusive(self):
        with pytest.raises(ValueError):
            CacheRule(extensions=frozenset({"css"}), glob="*.css")
        with pytest.raises(ValueError):
            CacheRule()


_any_directives = st.sampled_from(
    ["", "no-store", "no-cache", "private", "public", "no-store, private",
     "max-age=60", "max-age=60, no-store", "no-cache, no-store"]
)
_any_path = st.sampled_from(
    ["/a.css", "/a.php", "/x/y.js", "/plain", "/deep/path/file.pdf", "/q.CSS"]
)


@given(_any_path, st.sampled_from([200, 404]), _any_directives)
def test_honored_no_store_always_wins(path, status, header):
    profile = CdnProfile(
        name="strict",
        default_cached=DefaultCached.ALL_OBJECTS,
        honored=frozenset({"no-store"}),
    )
    directives = parse_cache_control(header)
    decision = decide(profile, path, status, directives)
    if directives.no_store:
        assert decision.store is False
    assert decision.store is False or decision.ttl > 0
    if not decision.store:
        assert decision.ttl == 0


@given(_any_path, st.sampled_from([200, 404, 500, 302]), _any_directives,
       st.sampled_from([p.name for p in builtin_profiles()]))
def test_decide_is_pure(path, status, header, profile_name):
    profile = builtin_profile(profile_name)
    directives = parse_cache_control(header)
    first = decide(profile, path, status, directives)
    second = decide(profile, path, status, directives)
    assert first == second


def test_header_override_hazard_reproduces():
    # A page that says "never store me" still lands in the cache under the
    # extension-only profile.
    decision = decide(
        builtin_profile("akamai_default"), "/page/x.css", 200, parse_cache_control("no-store")
    )
    assert decision.store is True


def test_path_extension():
    assert path_extension("/a/b/file.css") == "css"
    assert path_extension("/a/b/file.CSS") == "css"
    assert path_extension("/account.php%0Anonexistent.css") == "css"
    assert path_extension("/plain") == ""
    assert path_extension("/") == ""


def test_profile_config_round_trip(tmp_path):
    original = CdnProfile(
        name="custom",
        default_cached=DefaultCached.EXTENSION_LIST_OR_HEADER_OPT_IN,
        static_extensions=frozenset({"css", "js"}),
        honored=frozenset({"no-store", "private"}),
        default_ttl=120,
        rules=(CacheRule(glob="/media/*", ttl=30),),
    )
    data = profile_to_dict(original)
    assert data["honored"] == {"no-store": True, "no-cache": False, "private": True}
    rebuilt = profile_from_dict(data)
    assert rebuilt == original
    assert rebuilt.static_extensions == frozenset({"css", "js"})


def test_default_static_extension_set():
    for ext in ("css", "js", "jpg", "pdf", "exe"):
        assert ext in DEFAULT_STATIC_EXTENSIONS
