"""Seed ingestion and the grouping crawler against lab sites."""

import html
from urllib.parse import urljoin

import pytest
from hypothesis import example, given, strategies as st

from wcdscan import crawler
from wcdscan.cache_policy import builtin_profile
from wcdscan.crawler import (
    ConfigError,
    SiteConfig,
    crawl_domain,
    extract_links,
    filter_marked_pages,
    ingest_domains,
)
from wcdscan.detector import MarkerSet
from wcdscan.http_engine import Identity, LoginDescriptor, Role, Transport, maintain_session
from wcdscan.lab import catalog
from wcdscan.lab.origin import OriginSemantics
from wcdscan.lab.sim import LabResource, SimSite
from wcdscan.lab.server import LabServer
from wcdscan.url_toolkit import group_key, parse_url, pick_per_group, registrable_domain

from conftest import fast_limiter, lab_connections_left_open


def _victim(host):
    return Identity(
        role=Role.VICTIM,
        credentials=LoginDescriptor(
            url=f"http://{host}/login",
            fields={"username": "victim", "password": catalog.VICTIM_PASSWORD},
        ),
    )


class TestIngestDomains:
    def test_liveness_filter(self, tmp_path, transport_limits):
        alpha = SimSite(
            name="alpha", host="alpha.test", origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"),
            resources={"/": LabResource(path="/", body_template="<html>alpha</html>")},
        )
        beta = SimSite(
            name="beta", host="beta.test", origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"),
            resources={"/": LabResource(path="/", body_template="<html>beta</html>")},
        )
        server = LabServer([alpha, beta]).start()
        try:
            overrides = server.resolve_overrides()
            overrides["dead.test"] = ("127.0.0.1", 1)
            transport_limits(retries=0, timeout=0.5)
            transport = Transport(resolve_overrides=overrides)
            seeds = tmp_path / "seeds.txt"
            seeds.write_text(
                "# comment line\n"
                "http://alpha.test\n"
                "http://beta.test\n"
                "http://beta.test\n"  # duplicate collapses
                "http://dead.test\n"
            )
            pool = ingest_domains(str(seeds), transport, fast_limiter())
            assert lab_connections_left_open(server) == 0  # the probes closed theirs
        finally:
            server.stop()
        domains = sorted(site.primary_domain for site in pool.sites)
        assert domains == ["alpha.test", "beta.test"]

    def test_multi_vhost_site(self, tmp_path):
        main = SimSite(
            name="multi", host="multi.test", origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"),
            resources={"/": LabResource(path="/", body_template="<html>main</html>")},
        )
        www = SimSite(
            name="multi-www", host="www.multi.test", origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"),
            resources={"/": LabResource(path="/", body_template="<html>www</html>")},
        )
        server = LabServer([main, www]).start()
        try:
            transport = Transport(resolve_overrides=server.resolve_overrides())
            seeds = tmp_path / "seeds.txt"
            seeds.write_text("http://multi.test\nhttp://www.multi.test\n")
            pool = ingest_domains(str(seeds), transport, fast_limiter())
        finally:
            server.stop()
        assert len(pool.sites) == 1
        site = pool.sites[0]
        assert site.primary_domain == "multi.test"
        assert site.subdomains == ("www.multi.test",)

    def test_malformed_line_aborts(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("host.test extra tokens here\n")
        with pytest.raises(ConfigError):
            ingest_domains(str(seeds), Transport(), fast_limiter(), probe=False)

    def test_bad_host_aborts(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("not a_host!\n")
        with pytest.raises(ConfigError):
            ingest_domains(str(seeds), Transport(), fast_limiter(), probe=False)

    def test_missing_file_aborts(self):
        with pytest.raises(ConfigError):
            ingest_domains("/nonexistent/seeds.txt", Transport(), fast_limiter(), probe=False)

    def test_every_site_config_is_checked_before_any_probe(self, tmp_path):
        site = catalog.pacing_site()
        server = LabServer([site]).start()
        try:
            (tmp_path / "bad.json").write_text('{"budget": 0}')
            seeds = tmp_path / "seeds.txt"
            seeds.write_text(f"http://{site.host}\nhttp://other.test bad.json\n")
            transport = Transport(resolve_overrides=server.resolve_overrides())
            with pytest.raises(ConfigError, match="site budget must be a positive integer"):
                ingest_domains(str(seeds), transport, fast_limiter())
            assert server.request_log(site.host) == []  # the first site was not probed
        finally:
            server.stop()

    @pytest.mark.parametrize("budget", [0, -1, "abc", "5", 2.5, True, None])
    def test_site_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(ConfigError, match="site budget must be a positive integer"):
            crawler.site_config_from_dict("x.test", (), {"budget": budget})

    def test_site_config_reference(self, tmp_path):
        seeds = tmp_path / "seeds.txt"
        config = tmp_path / "site.json"
        config.write_text(
            '{"budget": 25,'
            ' "login": {"path": "/login",'
            ' "victim": {"username": "v", "password": "p"},'
            ' "attacker": {"username": "a", "password": "p"}},'
            ' "markers": [{"label": "email", "value": "zz7q9x2w8v4n6mkp"}]}'
        )
        seeds.write_text("http://configured.test site.json\n")
        pool = ingest_domains(str(seeds), Transport(), fast_limiter(), probe=False)
        site = pool.sites[0]
        assert site.victim_login.url == "http://configured.test/login"
        assert site.victim_login.fields == {"username": "v", "password": "p"}
        assert [m.label for m in site.markers] == ["email"]
        assert site.budget == 25


@pytest.mark.parametrize(
    "markup, links",
    [
        ('<link rel="stylesheet" href="/style.css">', []),
        ('<base href="http://h.test/app/">', []),
        ('<map><area shape="rect" coords="0,0,9,9" href="/map"></map>', []),
        ('<a href="/news?id=1&amp;page=2">news</a>', ["http://h.test/news?id=1&page=2"]),
        ("<A HREF='/x'>x</A>", ["http://h.test/x"]),
        ('<a href="/a" data-href="/b">a</a>', ["http://h.test/a"]),
        ('<a title="a>b" href="/q">q</a>', ["http://h.test/q"]),
        ('<!-- <a href="/old">old</a> --><a href="/new">new</a>', ["http://h.test/new"]),
        ('<style>a[href="/s"] { }<a href="/s"></style><a href="/t">t</a>', ["http://h.test/t"]),
        # Only ASCII whitespace is stripped; a browser keeps U+00A0 as %C2%A0.
        ('<a href=" /x&nbsp;\n">x</a>', ["http://h.test/x\u00a0"]),
        # urljoin raises on an unbalanced IPv6 bracket; only that href is lost.
        ('<a href="http://[::1/x">v6</a><a href="/ok">ok</a>', ["http://h.test/ok"]),
    ],
)
def test_extract_links_follows_anchors_only(markup, links):
    assert extract_links(markup.encode(), "http://h.test/") == links


_HREF_PIECES = [
    "/", "//", "a", "B1", ".", "..", ";p", "\\", "\t", "\n", "?", "#", "%2e", "%41",
    "é", "\u00a0", "\u3000", " ", "javascript:", "mailto:x", "x=1&y", ":", "@",
    "http://o.test", "HTTPS:", "~", "[", "]", "http://[::1]",
]
_hrefs = st.lists(st.sampled_from(_HREF_PIECES), max_size=8).map("".join)
_bases = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["http", "https", "HTTP", "ftp"]),
        st.just("://"),
        st.sampled_from(["", "u@", "u:p@"]),
        st.sampled_from(["h.test", "H.Test", "EXAMPLE.com", "127.0.0.1"]),
        st.sampled_from(["", ":8080", ":0"]),
        st.sampled_from(["", "/", "/dir/page", "/dir/", "/a;p"]),
        st.sampled_from(["", "?q=1"]),
    ),
)


def _urljoin_or_none(base: str, href: str) -> str | None:
    """urljoin's URL without its fragment (what follows the first "#"), or
    None where urljoin raises."""
    try:
        return urljoin(base, href).partition("#")[0]
    except ValueError:
        return None


@given(st.lists(st.one_of(_hrefs, _hrefs.map(lambda h: "/" + h)), max_size=6), _bases)
def test_extract_links_matches_urljoin_reference(hrefs, base):
    markup = "".join(f'<a href="{html.escape(h)}">x</a>' for h in hrefs)
    resolved = [_urljoin_or_none(base, h.strip(" \t\n\f\r")) for h in hrefs if h]
    expected = [url for url in resolved if url and url.startswith(("http://", "https://"))]
    assert extract_links(markup.encode(), base) == expected


_ABSOLUTE_PIECES = [
    "a", "B", "0", ".", "..", "/", "//", "?", "=", "&", "%2F", ":", ":80", "-", "_", "~",
    "!", "$", "'", "(", "*", "+", ",", '"', "@", ";", "#", "[", "]", "\\", " ", "é",
]


@given(
    st.sampled_from(["http://", "https://", "HTTP://", "http:/"]),
    st.lists(st.sampled_from(_ABSOLUTE_PIECES), max_size=10).map("".join),
)
@example("http://", "h.test/a;")  # urljoin drops an empty ";" parameter
@example("http://", "h.test/p?")  # and an empty query
@example("http://", "/p")  # and resolves a URL with no host
@example("HTTP://", "h.test/p")  # and lowercases the scheme
def test_plain_absolute_href_is_what_urljoin_returns(scheme, rest):
    href = scheme + rest
    markup = f'<a href="{html.escape(href)}">x</a>'.encode()
    for base in ("http://h.test/dir/page", "https://h.test/dir/"):
        expected = _urljoin_or_none(base, href.strip(" \t\n\f\r"))
        if crawler._PLAIN_ABSOLUTE_HREF.fullmatch(href):
            assert expected == href
        if expected is None or not expected.startswith(("http://", "https://")):
            assert extract_links(markup, base) == []
        else:
            assert extract_links(markup, base) == [expected]


class TestCrawlDomain:
    def test_sitemap_grouping(self, support_lab, support_transport, limiter):
        surface = crawl_domain(
            SiteConfig(primary_domain="sitemap.test"),
            Identity(role=Role.VICTIM),
            budget=500,
            rate_limiter=limiter,
            transport=support_transport,
            seed=5,
        )
        assert len(surface.pages) == 7
        assert surface.pages_seen == 1200
        assert surface.truncated is False
        assert len({group_key(p) for p in surface.pages}) == 7

    def test_each_page_is_grouped_once(
        self, support_lab, support_transport, limiter, monkeypatch
    ):
        grouped, joined = [], []

        def counting_group_key(page):
            grouped.append(page)
            return group_key(page)

        def counting_urljoin(*args):
            joined.append(args)
            return urljoin(*args)

        monkeypatch.setattr(crawler, "group_key", counting_group_key)
        monkeypatch.setattr(crawler, "urljoin", counting_urljoin)
        surface = crawl_domain(
            SiteConfig(primary_domain="sitemap.test"),
            Identity(role=Role.VICTIM),
            budget=500,
            rate_limiter=limiter,
            transport=support_transport,
            seed=5,
        )
        assert len(grouped) == surface.pages_seen == 1200
        assert joined == []  # every sitemap href is plainly rooted
        groups = {}
        for page in grouped:
            groups.setdefault(group_key(page), []).append(page)
        assert surface.pages == tuple(pick_per_group(groups, 5))

    def test_crawl_fetches_one_page_per_group(self, support_lab, support_transport, limiter):
        host = "sitemap.test"
        before = len(support_lab.request_log(host))
        surface = crawl_domain(
            SiteConfig(primary_domain=host),
            Identity(role=Role.VICTIM),
            budget=500,
            rate_limiter=limiter,
            transport=support_transport,
            seed=5,
        )
        crawled = [e.target for e in support_lab.request_log(host)[before:]]
        assert len(crawled) == 7
        assert len({group_key(parse_url(f"http://{host}{t}")) for t in crawled}) == 7

        # Marker gating fetches the representatives the crawl did not.
        unfetched = [p for p in surface.pages if p.text() not in surface.victim_bodies]
        assert len(unfetched) == 5
        gated = filter_marked_pages(
            surface,
            MarkerSet([("email", "zz7q9x2w8v4n6mkp")]),
            Identity(role=Role.VICTIM),
            rate_limiter=limiter,
            transport=support_transport,
        )
        gate_targets = [e.target for e in support_lab.request_log(host)[before + 7:]]
        assert gate_targets == [p.text().removeprefix(f"http://{host}") for p in unfetched]
        assert gated.pages == ()

    def test_recrawl_is_deterministic(self, support_lab, support_transport, limiter):
        def run():
            return crawl_domain(
                SiteConfig(primary_domain="sitemap.test"),
                Identity(role=Role.VICTIM),
                budget=500,
                rate_limiter=limiter,
                transport=support_transport,
                seed=5,
            )

        first, second = run(), run()
        assert [p.text() for p in first.pages] == [p.text() for p in second.pages]

    def test_budget_clamp(self, support_lab, support_transport, limiter):
        surface = crawl_domain(
            SiteConfig(primary_domain="sitemap.test"),
            Identity(role=Role.VICTIM),
            budget=1,
            rate_limiter=limiter,
            transport=support_transport,
        )
        assert len(surface.pages) == 1
        assert surface.truncated is True

    def test_raw_page_cap_truncates(self, support_lab, support_transport, limiter):
        # All 7 groups of the 1,200-page sitemap fit a budget of 7, so only
        # the raw page cap, 7 * RAW_PAGE_CAP_FACTOR pages, can end the crawl.
        surface = crawl_domain(
            SiteConfig(primary_domain="sitemap.test"),
            Identity(role=Role.VICTIM),
            budget=7,
            rate_limiter=limiter,
            transport=support_transport,
        )
        assert surface.truncated is True
        assert 7 * crawler.RAW_PAGE_CAP_FACTOR <= surface.pages_seen < 1200

    def test_the_page_that_trips_the_raw_cap_is_not_counted(
        self, support_lab, support_transport, limiter
    ):
        surface = crawl_domain(
            SiteConfig(primary_domain="sitemap.test"),
            Identity(role=Role.VICTIM),
            budget=7,
            rate_limiter=limiter,
            transport=support_transport,
        )
        assert surface.truncated is True
        assert surface.pages_seen == 7 * crawler.RAW_PAGE_CAP_FACTOR == 70

    def test_numeric_pages_collapse_to_one_representative(self, limiter):
        resources = {
            "/": LabResource(
                path="/",
                body_template="<html>"
                + "".join(f'<a href="/item/{n}">{n}</a>' for n in range(1, 6))
                + "</html>",
            )
        }
        for n in range(1, 6):
            resources[f"/item/{n}"] = LabResource(
                path=f"/item/{n}", body_template=f"<html>item {n}</html>"
            )
        site = SimSite(
            name="numeric", host="numeric.test", origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"), resources=resources,
        )
        server = LabServer([site]).start()
        transport = Transport(resolve_overrides=server.resolve_overrides())
        try:
            surface = crawl_domain(
                SiteConfig(primary_domain="numeric.test"),
                Identity(role=Role.VICTIM),
                budget=500,
                rate_limiter=limiter,
                transport=transport,
            )
        finally:
            transport.close()
            server.stop()
        item_reps = [p for p in surface.pages if p.raw_path.startswith("/item/")]
        assert len(item_reps) == 1
        assert surface.pages_seen == 6

    def test_a_link_that_differs_only_by_its_fragment_is_the_same_page(self, limiter):
        site = SimSite(
            name="fragments", host="f.test", origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"),
            resources={
                "/": LabResource(
                    path="/",
                    body_template='<a href="/a">a</a><a href="/a#x">x</a><a href="/a#y">y</a>',
                ),
                "/a": LabResource(path="/a", body_template="<html>a</html>"),
            },
        )
        server = LabServer([site]).start()
        transport = Transport(resolve_overrides=server.resolve_overrides())
        try:
            surface = crawl_domain(
                SiteConfig(primary_domain="f.test"),
                Identity(role=Role.VICTIM),
                budget=500,
                rate_limiter=limiter,
                transport=transport,
            )
            targets = [e.target for e in server.request_log("f.test")]
        finally:
            transport.close()
            server.stop()
        assert surface.pages_seen == 2
        assert sorted(p.text() for p in surface.pages) == ["http://f.test/", "http://f.test/a"]
        assert targets == ["/", "/a"]

    def test_logout_links_never_requested(self, support_lab, support_transport, limiter):
        host = "classic-pp.test"
        victim = _victim(host)
        maintain_session(victim, limiter, support_transport)
        before = len(support_lab.request_log(host))
        crawl_domain(
            SiteConfig(primary_domain=host),
            victim,
            budget=500,
            rate_limiter=limiter,
            transport=support_transport,
        )
        new_targets = [e.target for e in support_lab.request_log(host)[before:]]
        assert new_targets  # the crawl did fetch something
        assert not any("logout" in t for t in new_targets)
        # ... and the session survived the crawl of a logout-bearing site
        from wcdscan.http_engine import fetch

        after = fetch(victim, f"http://{host}/account.php", limiter, support_transport)
        assert after.status == 200
        assert catalog.victim_markers("classic-pp")["email"].encode() in after.body

    def test_fetch_errors_skipped(self, limiter, transport_limits):
        site = SimSite(
            name="flaky", host="flaky.test", origin=OriginSemantics(),
            cache_profile=builtin_profile("akamai_default"),
            resources={
                "/": LabResource(
                    path="/",
                    body_template='<html><a href="http://x.flaky.test/gone">bad</a>'
                    '<a href="/ok">ok</a></html>',
                ),
                "/ok": LabResource(path="/ok", body_template="<html>fine</html>"),
            },
        )
        server = LabServer([site]).start()
        try:
            overrides = server.resolve_overrides()
            overrides["x.flaky.test"] = ("127.0.0.1", 1)
            transport_limits(retries=0, timeout=0.5)
            transport = Transport(resolve_overrides=overrides)
            surface = crawl_domain(
                SiteConfig(primary_domain="flaky.test"),
                Identity(role=Role.VICTIM),
                budget=500,
                rate_limiter=limiter,
                transport=transport,
            )
            transport.close()
        finally:
            server.stop()
        paths = {p.raw_path for p in surface.pages}
        assert "/ok" in paths  # the dead-branch failure did not abort the crawl
        assert all(registrable_domain(p.host) == "flaky.test" for p in surface.pages)

    def test_off_site_links_are_not_fetched(self, limiter):
        def page(host, body):
            return SimSite(
                name=host, host=host, origin=OriginSemantics(),
                cache_profile=builtin_profile("akamai_default"),
                resources={"/": LabResource(path="/", body_template=body)},
            )

        sites = [
            page("home.test", '<a href="http://other.test/">o</a><a href="http://www.home.test/">w</a>'),
            page("other.test", "other"),
            page("www.home.test", "www"),
        ]
        server = LabServer(sites).start()
        transport = Transport(resolve_overrides=server.resolve_overrides())
        try:
            surface = crawl_domain(
                SiteConfig(primary_domain="home.test"),
                Identity(role=Role.VICTIM),
                budget=500,
                rate_limiter=limiter,
                transport=transport,
            )
            other_requests = server.request_log("other.test")
        finally:
            transport.close()
            server.stop()
        # A host of the site's registrable domain is crawled; another is not.
        assert {p.text() for p in surface.pages} == {"http://home.test/", "http://www.home.test/"}
        assert other_requests == []


@pytest.fixture(scope="module")
def robots_lab():
    site = SimSite(
        name="robots", host="robots.test", origin=OriginSemantics(),
        cache_profile=builtin_profile("akamai_default"),
        resources={
            "/": LabResource(
                path="/",
                body_template='<html><a href="/private">p</a>'
                '<a href="/ok">o</a></html>',
            ),
            "/private": LabResource(path="/private", body_template="<html>p</html>"),
            "/ok": LabResource(path="/ok", body_template="<html>o</html>"),
            "/robots.txt": LabResource(
                path="/robots.txt",
                body_template="User-agent: *\nDisallow: /private\n",
                content_type="text/plain",
            ),
        },
    )
    server = LabServer([site]).start()
    yield server
    server.stop()


class TestRobots:
    def test_ignored_by_default(self, robots_lab, limiter):
        transport = Transport(resolve_overrides=robots_lab.resolve_overrides())
        surface = crawl_domain(
            SiteConfig(primary_domain="robots.test"),
            Identity(role=Role.VICTIM),
            budget=10,
            rate_limiter=limiter,
            transport=transport,
        )
        transport.close()
        assert "/private" in {p.raw_path for p in surface.pages}

    def test_respected_on_request(self, robots_lab, limiter):
        transport = Transport(resolve_overrides=robots_lab.resolve_overrides())
        surface = crawl_domain(
            SiteConfig(primary_domain="robots.test"),
            Identity(role=Role.VICTIM),
            budget=10,
            rate_limiter=limiter,
            transport=transport,
            respect_robots=True,
        )
        transport.close()
        paths = {p.raw_path for p in surface.pages}
        assert "/private" not in paths
        assert "/ok" in paths


class _UnusedTransport(Transport):
    """Fails the test when a request is sent through it."""

    def _pool(self):
        raise AssertionError("a request was sent")


class TestFilterMarkedPages:
    def test_marker_gating(self, support_lab, support_transport, limiter):
        host = "classic-pp.test"
        victim = _victim(host)
        maintain_session(victim, limiter, support_transport)
        surface = crawl_domain(
            SiteConfig(primary_domain=host),
            victim,
            budget=500,
            rate_limiter=limiter,
            transport=support_transport,
        )
        markers = MarkerSet(list(catalog.victim_markers("classic-pp").items()))
        gated = filter_marked_pages(
            surface, markers, victim, rate_limiter=limiter, transport=support_transport
        )
        assert [p.raw_path for p in gated.pages] == ["/account.php"]

    def test_all_unmarked_empties_the_surface(self, support_lab, support_transport, limiter):
        surface = crawl_domain(
            SiteConfig(primary_domain="pacing.test"),
            Identity(role=Role.VICTIM),
            budget=10,
            rate_limiter=limiter,
            transport=support_transport,
        )
        markers = MarkerSet([("email", "zz7q9x2w8v4n6mkp")])
        gated = filter_marked_pages(
            surface,
            markers,
            Identity(role=Role.VICTIM),
            rate_limiter=limiter,
            transport=support_transport,
        )
        assert gated.pages == ()

    def test_predicate_filter_on_synthetic_surface(self, limiter):
        from wcdscan.crawler import AttackSurface

        marked = parse_url("http://x.test/a")
        unmarked = parse_url("http://x.test/b")
        surface = AttackSurface(
            domain="x.test",
            pages=(marked, unmarked),
            pages_seen=2,
            truncated=False,
            victim_bodies={
                marked.text(): b"hello zz7q9x2w8v4n6mkp",
                unmarked.text(): b"nothing here",
            },
        )
        markers = MarkerSet([("email", "zz7q9x2w8v4n6mkp")])
        gated = filter_marked_pages(
            surface,
            markers,
            Identity(role=Role.VICTIM),
            rate_limiter=limiter,
            transport=_UnusedTransport(),
        )
        assert gated.pages == (marked,)
