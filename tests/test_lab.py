"""Origin semantics, caching proxy, clock, oracle, and scenario files."""

import copy
import http.client
import io
import json
import re
import socket
import struct
import time
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wcdscan.cache_policy import CdnProfile, DefaultCached
from wcdscan.errors import ScenarioError
from wcdscan.http1 import MAX_LINE, Request, read_request
from wcdscan.http_engine import Transport
from wcdscan.lab import catalog
from wcdscan.lab.oracle import enumerate_oracle, oracle_vulnerable
from wcdscan.lab.origin import OriginSemantics, OriginVariant, effective_path, route
from wcdscan.lab.selfcheck import pool_from_lab_sites
from wcdscan.lab import server as server_module
from wcdscan.lab.server import LabServer, serve
from wcdscan.lab.sim import (
    CacheEvent,
    LabRequest,
    LabResource,
    SimSite,
    SiteRuntime,
    origin_resolve,
    proxy_handle,
)
from wcdscan.pipeline import ScanSettings, scan_pool
from wcdscan.url_toolkit import PathConfusionTechnique

from conftest import lab_connections_left_open


def _pp_site(profile_name="akamai_default", no_store=False, **kwargs):
    site = catalog._account_site(
        "unit-pp",
        frozenset({OriginVariant.PATH_PARAMETER_FALLBACK}),
        profile_name,
        no_store,
    )
    for key, value in kwargs.items():
        setattr(site, key, value)
    return site


def _victim_cookie(runtime):
    return {runtime.site.auth.cookie_name: runtime.log_in("victim")}


def _attacker_cookie(runtime):
    return {runtime.site.auth.cookie_name: runtime.log_in("attacker")}


def _victim_account_page(site):
    """/account.php as the origin renders it for the victim's session."""
    return site.resources["/account.php"].render(site.auth.accounts["victim"].values)


class TestOriginResolve:
    def test_newline_truncation_with_decode(self):
        site = catalog._account_site(
            "unit-nl",
            frozenset({OriginVariant.TRUNCATE_AT_NEWLINE}),
            "akamai_default",
            no_store=False,
        )
        response = origin_resolve(site, "/account.php%0Anonexistent.css", "victim")
        assert response.status == 200
        assert response.body == _victim_account_page(site)
        assert site.auth.accounts["victim"].values["email"].encode() in response.body

    def test_path_parameter_fallback(self):
        site = _pp_site()
        response = origin_resolve(site, "/account.php/nonexistent.css", "victim")
        assert response.status == 200
        assert response.body == _victim_account_page(site)

    def test_exact_routing_404(self):
        site = catalog._account_site(
            "unit-none", frozenset(), "akamai_default", no_store=False
        )
        response = origin_resolve(site, "/account.php/nonexistent.css", "victim")
        assert response.status == 404
        assert b"404" in response.body

    def test_protected_without_session_redirects(self):
        site = _pp_site()
        response = origin_resolve(site, "/account.php", None)
        assert response.status == 302
        assert response.header("Location") == "/login"

    def test_forbid_mode(self):
        site = _pp_site()
        site.auth.mode = "forbid"
        response = origin_resolve(site, "/account.php", None)
        assert response.status == 403

    def test_semicolon_without_decode_still_fires_on_literal(self):
        site = catalog._account_site(
            "unit-sc", frozenset({OriginVariant.SEMICOLON_PARAMS}), "akamai_default", False
        )
        site.origin = OriginSemantics(
            variants=site.origin.variants, decode_before_route=False
        )
        response = origin_resolve(site, "/account.php;par1;par2", "victim")
        assert response.body == _victim_account_page(site)


class TestEffectivePathAndRoute:
    def test_variant_order_first_match_wins(self):
        semantics = OriginSemantics(
            variants=frozenset(
                {OriginVariant.TRUNCATE_AT_NEWLINE, OriginVariant.TRUNCATE_AT_QUESTION}
            ),
            decode_before_route=True,
        )
        assert effective_path(semantics, "/a%0Ab%3Fc") == "/a"

    def test_fallback_walks_to_longest_prefix(self):
        semantics = OriginSemantics(
            variants=frozenset({OriginVariant.PATH_PARAMETER_FALLBACK})
        )
        known = {"/", "/a", "/a/b"}
        assert route(semantics, "/a/b/x/y.css", known) == "/a/b"
        assert route(semantics, "/zzz.css", known) == "/"

    def test_no_variants_is_exact(self):
        assert route(OriginSemantics(), "/a/b", {"/a"}) is None
        assert route(OriginSemantics(), "/a", {"/a"}) == "/a"


class TestProxyHandle:
    def test_classic_replay_stores_then_hits(self):
        site = _pp_site()
        runtime = SiteRuntime(site)
        target = "/account.php/nonexistent.jpg"

        victim_response, victim_event = proxy_handle(
            runtime, LabRequest(target=target, cookies=_victim_cookie(runtime))
        )
        assert victim_event is CacheEvent.MISS_STORED
        email = site.auth.accounts["victim"].values["email"].encode()
        assert email in victim_response.body

        attacker_response, attacker_event = proxy_handle(
            runtime, LabRequest(target=target, cookies=_attacker_cookie(runtime))
        )
        assert attacker_event is CacheEvent.HIT
        assert email in attacker_response.body

    def test_honored_no_store_never_stored(self):
        site = catalog._account_site(
            "unit-cf",
            frozenset({OriginVariant.PATH_PARAMETER_FALLBACK}),
            "cloudfront_default",
            no_store=True,
        )
        runtime = SiteRuntime(site)
        target = "/account.php/nonexistent.css"
        _, first = proxy_handle(runtime, LabRequest(target=target, cookies=_victim_cookie(runtime)))
        assert first is CacheEvent.MISS_NOT_STORED
        attacker_response, second = proxy_handle(
            runtime, LabRequest(target=target, cookies=_attacker_cookie(runtime))
        )
        assert second is CacheEvent.MISS_NOT_STORED
        email = site.auth.accounts["victim"].values["email"].encode()
        assert email not in attacker_response.body
        assert site.auth.accounts["attacker"].values["email"].encode() in attacker_response.body

    def test_ttl_expiry_and_refetch(self):
        site = _pp_site()
        runtime = SiteRuntime(site)
        target = "/account.php/nonexistent.css"
        proxy_handle(runtime, LabRequest(target=target, cookies=_victim_cookie(runtime)))
        runtime.advance(7200)
        response, event = proxy_handle(
            runtime, LabRequest(target=target, cookies=_attacker_cookie(runtime))
        )
        assert event is CacheEvent.EXPIRED
        assert site.auth.accounts["victim"].values["email"].encode() not in response.body

    def test_boundary_one_second_before_expiry_still_hits(self):
        site = _pp_site()
        runtime = SiteRuntime(site)
        target = "/account.php/nonexistent.css"
        proxy_handle(runtime, LabRequest(target=target, cookies=_victim_cookie(runtime)))
        runtime.advance(3599)
        _, event = proxy_handle(
            runtime, LabRequest(target=target, cookies=_attacker_cookie(runtime))
        )
        assert event is CacheEvent.HIT

    def test_no_origin_contact_on_hit(self):
        site = _pp_site()
        runtime = SiteRuntime(site)
        target = "/account.php/nonexistent.css"
        proxy_handle(runtime, LabRequest(target=target, cookies=_victim_cookie(runtime)))
        count = runtime.origin_requests
        proxy_handle(runtime, LabRequest(target=target, cookies=_attacker_cookie(runtime)))
        assert runtime.origin_requests == count

    def test_cache_key_discipline(self):
        site = _pp_site()
        runtime = SiteRuntime(site)
        cookie = _victim_cookie(runtime)
        proxy_handle(runtime, LabRequest(target="/account.php/aaaa.css", cookies=cookie))
        _, event = proxy_handle(
            runtime, LabRequest(target="/account.php/bbbb.css", cookies=cookie)
        )
        assert event is CacheEvent.MISS_STORED  # different nonce, different entry
        _, replay = proxy_handle(
            runtime, LabRequest(target="/account.php/aaaa.css", cookies=cookie)
        )
        assert replay is CacheEvent.HIT

    def test_post_is_never_cached(self):
        site = _pp_site()
        runtime = SiteRuntime(site)
        response, event = proxy_handle(
            runtime,
            LabRequest(
                method="POST",
                target="/login",
                form={"username": "victim", "password": catalog.VICTIM_PASSWORD},
            ),
        )
        assert event is CacheEvent.MISS_NOT_STORED
        assert response.status == 303
        assert any(k == "Set-Cookie" for k, _ in response.headers)

    def test_ttl_override_applies(self):
        site = _pp_site(ttl_overrides={".css": 60})
        runtime = SiteRuntime(site)
        target = "/account.php/nonexistent.css"
        proxy_handle(runtime, LabRequest(target=target, cookies=_victim_cookie(runtime)))
        runtime.advance(61)
        _, event = proxy_handle(
            runtime, LabRequest(target=target, cookies=_attacker_cookie(runtime))
        )
        assert event is CacheEvent.EXPIRED

    def test_proxy_decode_changes_rule_view(self):
        site = _pp_site(proxy_decodes_percent=True)
        site.origin = OriginSemantics(
            variants=frozenset({OriginVariant.TRUNCATE_AT_QUESTION}),
            decode_before_route=True,
        )
        runtime = SiteRuntime(site)
        # Decoded view is /account.php?bogus.css: the extension no longer
        # matches, so the akamai-style profile refuses to store it.
        _, event = proxy_handle(
            runtime,
            LabRequest(target="/account.php%3Fbogus.css", cookies=_victim_cookie(runtime)),
        )
        assert event is CacheEvent.MISS_NOT_STORED


class TestAdvanceClock:
    def test_zero_is_noop(self):
        runtime = SiteRuntime(_pp_site())
        runtime.advance(0)
        assert runtime.now == 0

    def test_accumulates(self):
        runtime = SiteRuntime(_pp_site())
        runtime.advance(3600)
        runtime.advance(3600)
        assert runtime.now == 7200

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SiteRuntime(_pp_site()).advance(-1)

    def test_reset_forgets_the_clock_cache_and_sessions(self):
        runtime = SiteRuntime(_pp_site())
        cookie = _victim_cookie(runtime)
        proxy_handle(runtime, LabRequest(target="/account.php/x.css", cookies=cookie))
        runtime.advance(5)
        runtime.reset()
        assert (runtime.now, runtime.entries, runtime.origin_requests) == (0.0, {}, 0)
        assert runtime.user(cookie) is None


class TestOracle:
    def test_classic_scenario_is_exploitable(self):
        site = catalog.classic_site()
        assert oracle_vulnerable(site, PathConfusionTechnique.PATH_PARAMETER) is True

    def test_question_only_origin(self):
        site = catalog._account_site(
            "unit-qm", frozenset({OriginVariant.TRUNCATE_AT_QUESTION}), "akamai_default", False
        )
        assert oracle_vulnerable(site, PathConfusionTechnique.PATH_PARAMETER) is False
        assert oracle_vulnerable(site, PathConfusionTechnique.ENCODED_QUESTION) is True

    def test_honored_no_store_blocks_all_techniques(self):
        site = catalog._account_site(
            "unit-allns",
            frozenset(
                {
                    OriginVariant.PATH_PARAMETER_FALLBACK,
                    OriginVariant.TRUNCATE_AT_NEWLINE,
                }
            ),
            "cloudfront_default",
            no_store=True,
        )
        site.origin = OriginSemantics(variants=site.origin.variants, decode_before_route=True)
        for technique in PathConfusionTechnique:
            assert oracle_vulnerable(site, technique) is False

    def test_oracle_is_pure(self):
        site = catalog.classic_site()
        snapshot = copy.deepcopy(site.to_dict())
        first = oracle_vulnerable(site, PathConfusionTechnique.PATH_PARAMETER)
        second = oracle_vulnerable(site, PathConfusionTechnique.PATH_PARAMETER)
        assert first == second
        assert site.to_dict() == snapshot
        assert site == catalog.classic_site()

    def test_requires_marker_page(self):
        with pytest.raises(ValueError):
            oracle_vulnerable(catalog.sitemap_site(), PathConfusionTechnique.PATH_PARAMETER)

    def test_unmatchable_rules_mean_never_vulnerable(self):
        profile = CdnProfile(
            name="nothing_matches",
            default_cached=DefaultCached.EXTENSION_LIST,
            static_extensions=frozenset(),
        )
        site = catalog._account_site(
            "unit-nomatch",
            frozenset({OriginVariant.PATH_PARAMETER_FALLBACK, OriginVariant.TRUNCATE_AT_NEWLINE}),
            "akamai_default",
            no_store=False,
        )
        site.cache_profile = profile
        site.origin = OriginSemantics(variants=site.origin.variants, decode_before_route=True)
        for technique in PathConfusionTechnique:
            assert oracle_vulnerable(site, technique) is False


def _scenarios():
    return [catalog.classic_site(), *catalog.matrix_sites()[:3]]


def test_serving_scanning_and_the_oracle_leave_scenarios_unchanged():
    sites = _scenarios()
    server = LabServer(sites).start()
    transport = Transport(resolve_overrides=server.resolve_overrides())
    try:
        run = scan_pool(
            pool_from_lab_sites(sites),
            ScanSettings(rate=10000.0, workers=2, seed=3, transport=transport),
        )
    finally:
        transport.close()
        server.stop()
    assert all(result.error is None for result in run.site_results)
    assert any(v.vulnerable for result in run.site_results for v in result.verdicts)
    enumerate_oracle(sites)
    assert sites == _scenarios()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(PathConfusionTechnique)), st.booleans(), st.booleans())
def test_oracle_deterministic_property(technique, no_store, use_cloudflare):
    site = catalog._account_site(
        "prop-site",
        frozenset({OriginVariant.PATH_PARAMETER_FALLBACK, OriginVariant.SEMICOLON_PARAMS}),
        "cloudflare_default" if use_cloudflare else "fastly_default",
        no_store,
    )
    site.origin = OriginSemantics(variants=site.origin.variants, decode_before_route=True)
    results = {oracle_vulnerable(site, technique) for _ in range(3)}
    assert len(results) == 1


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        sites = [catalog.classic_site(), catalog.pacing_site()]
        path = tmp_path / "scenarios.json"
        catalog.dump_scenarios(sites, str(path))
        loaded = catalog.load_scenarios(str(path))
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in sites]

    def test_dump_writes_one_site_per_line(self, tmp_path):
        sites = catalog.all_sites()
        path = tmp_path / "scenarios.json"
        catalog.dump_scenarios(sites, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "[" and lines[-1] == "]"
        assert len(lines) == len(sites) + 2
        for line, site in zip(lines[1:-1], sites):
            assert SimSite.from_dict(json.loads(line.removesuffix(","))).to_dict() == site.to_dict()
        loaded = catalog.load_scenarios(str(path))
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in sites]

    def test_dump_of_no_sites_is_an_empty_array(self, tmp_path):
        path = tmp_path / "scenarios.json"
        catalog.dump_scenarios([], str(path))
        assert json.loads(path.read_text(encoding="utf-8")) == []

    def test_loaded_scenario_behaves_like_the_original(self, tmp_path):
        path = tmp_path / "scenarios.json"
        catalog.dump_scenarios([catalog.classic_site()], str(path))
        loaded = catalog.load_scenarios(str(path))[0]
        assert oracle_vulnerable(loaded, PathConfusionTechnique.PATH_PARAMETER) is True
        assert oracle_vulnerable(loaded, PathConfusionTechnique.ENCODED_POUND) is False

    def test_readme_scenario_example_matches_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Scenario file", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])[0]
        written = SimSite.from_dict(example).to_dict()
        assert set(example) == set(written)
        assert set(example["auth"]) == set(written["auth"])
        assert set(example["resources"][0]) == set(written["resources"][0])

    def test_a_resource_path_given_twice_is_refused(self):
        data = catalog.pacing_site().to_dict()
        data["resources"].append({"path": data["resources"][0]["path"], "body": "again"})
        with pytest.raises(ValueError, match="resource path '/' appears twice"):
            SimSite.from_dict(data)

    def test_a_resource_under_another_path_is_refused(self):
        site = catalog.pacing_site()
        resources = {"/a": LabResource(path="/b", body_template="b")}
        with pytest.raises(ValueError, match="resource '/b' is filed under '/a'"):
            SimSite(name=site.name, host=site.host, origin=site.origin,
                    cache_profile=site.cache_profile, resources=resources)


def test_two_scenarios_with_one_host_are_refused_before_binding(monkeypatch):
    classic = catalog.classic_site()
    pacing = catalog.pacing_site()
    pacing.host = classic.host
    monkeypatch.setattr(server_module, "_VhostServer", None)  # binding would call it
    with pytest.raises(ScenarioError, match="two scenarios serve host 'classic-pp.test'"):
        LabServer([classic, pacing])


class TestControlEndpoints:
    def test_advance_reset_state_over_http(self):
        import requests as req

        from wcdscan.lab.server import LabServer

        site = catalog.classic_site()
        server = LabServer([site]).start()
        base = f"http://{server.address}:{server.port}"
        headers = {"Host": site.host}
        try:
            state = req.get(f"{base}/_lab/state", headers=headers, timeout=5).json()
            assert state["now"] == 0.0
            advanced = req.get(
                f"{base}/_lab/advance", params={"seconds": 42}, headers=headers, timeout=5
            ).json()
            assert advanced["now"] == 42.0
            req.get(f"{base}/", headers=headers, timeout=5)
            listed = req.get(f"{base}/_lab/requests", headers=headers, timeout=5).json()
            assert len(listed["requests"]) == 1
            reset = req.get(f"{base}/_lab/reset", headers=headers, timeout=5).json()
            assert reset == {"reset": True}
            state = req.get(f"{base}/_lab/state", headers=headers, timeout=5).json()
            assert state == {"now": 0.0, "entries": 0, "origin_requests": 0}
            unknown = req.get(f"{base}/_lab/bogus", headers=headers, timeout=5)
            assert unknown.status_code == 404
            assert unknown.headers["Content-Type"] == "application/json"
            assert "error" in unknown.json()
        finally:
            server.stop()

    @pytest.mark.parametrize("seconds", ["abc", "-5", "nan", "inf"])
    def test_advance_rejects_a_bad_seconds_value(self, seconds):
        import requests as req

        from wcdscan.lab.server import LabServer

        site = catalog.classic_site()
        server = LabServer([site]).start()
        base = f"http://{server.address}:{server.port}"
        headers = {"Host": site.host}
        try:
            req.get(f"{base}/_lab/advance", params={"seconds": 7}, headers=headers, timeout=5)
            refused = req.get(
                f"{base}/_lab/advance", params={"seconds": seconds}, headers=headers, timeout=5
            )
            assert refused.status_code == 400
            assert refused.headers["Content-Type"] == "application/json"
            assert "error" in refused.json()
            state = req.get(f"{base}/_lab/state", headers=headers, timeout=5).json()
            assert state["now"] == 7.0
        finally:
            server.stop()

    def test_unknown_host_rejected(self):
        import requests as req

        from wcdscan.lab.server import LabServer

        server = LabServer([catalog.pacing_site()]).start()
        try:
            response = req.get(
                f"http://{server.address}:{server.port}/",
                headers={"Host": "stranger.test"},
                timeout=5,
            )
            assert response.status_code == 404
        finally:
            server.stop()

    def test_unread_bodies_do_not_corrupt_a_kept_alive_connection(self):
        import http.client

        from wcdscan.lab.server import LabServer

        site = catalog.pacing_site()
        server = LabServer([site]).start()
        conn = http.client.HTTPConnection(server.address, server.port, timeout=5)
        try:
            # Both early returns (unknown host, control endpoint) get a body
            # they never use; the GET after each must still parse cleanly.
            for host, path in (("stranger.test", "/"), (site.host, "/_lab/state")):
                conn.request("POST", path, body=b"junk=1&more=2", headers={"Host": host})
                conn.getresponse().read()
                sock = conn.sock
                conn.request("GET", "/", headers={"Host": site.host})
                response = conn.getresponse()
                assert response.status == 200
                assert b"pacing target" in response.read()
                assert conn.sock is sock  # the same connection served both
        finally:
            conn.close()
            server.stop()

    def test_catalog_shape(self):
        matrix = catalog.matrix_sites()
        assert len(matrix) == 128  # 16 semantics subsets x 4 profiles x 2
        assert len({s.host for s in matrix}) == 128
        names = {s.name for s in matrix}
        assert "none-akamai-std" in names
        assert "pp-qm-fastly-ns" in names
        for site in matrix:
            assert site.marker_pages() == ["/account.php"]

    def test_oracle_enumeration_covers_catalog(self):
        sites = catalog.matrix_sites()[:4]
        truth = enumerate_oracle(sites)
        assert len(truth) == 4 * 5


def test_stop_ends_kept_alive_connections():
    server = LabServer([catalog.pacing_site()]).start()
    with closing(http.client.HTTPConnection(server.address, server.port, timeout=5)) as conn:
        try:
            conn.request("GET", "/", headers={"Host": "pacing.test"})
            response = conn.getresponse()
            response.read()
        finally:
            server.stop()
        assert response.status == 200
        assert not response.will_close  # the server keeps the connection open
        with pytest.raises((OSError, http.client.HTTPException)):
            conn.request("GET", "/", headers={"Host": "pacing.test"})
            conn.getresponse()


@pytest.fixture()
def pacing_lab():
    server = LabServer([catalog.pacing_site()]).start()
    yield server
    server.stop()


def _until_closed(server: LabServer, data: bytes) -> bytes:
    """Everything the lab sends back on one connection for ``data``, up to
    the lab closing it."""
    with socket.create_connection((server.address, server.port), timeout=5) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestRequestFraming:
    NEXT = b"GET / HTTP/1.1\r\nHost: pacing.test\r\n\r\n"

    @pytest.mark.parametrize(
        "request_line,status",
        [(b"GET /a b HTTP/1.1", b"400"), (b"PUT / HTTP/1.1", b"501"), (b"get / HTTP/1.1", b"501"),
         (b"GET / HTTP/1.x", b"400"), (b"GET / HTTP/2.0", b"505")],
        ids=["malformed", "unknown-method", "lowercase-method", "bad-version", "version-2"],
    )
    def test_refusal_closes_the_connection(self, pacing_lab, request_line, status):
        received = _until_closed(
            pacing_lab, request_line + b"\r\nHost: pacing.test\r\n\r\n" + self.NEXT
        )
        assert received.startswith(b"HTTP/1.1 " + status + b" ")
        assert received.count(b"HTTP/1.1 ") == 1  # the request after it is not served

    @pytest.mark.parametrize(
        "head,tail,status",
        [(b"GET /", b" HTTP/1.1\r\n", b"414"),
         (b"GET / HTTP/1.1\r\nHost: pacing.test\r\nX-Long: ", b"\r\n", b"431")],
        ids=["long-request-line", "long-header-line"],
    )
    def test_a_line_longer_than_the_limit_is_refused(self, pacing_lab, head, tail, status):
        # The last line is MAX_LINE + 1 bytes and nothing follows it, so the
        # lab has read all that was sent when it closes the connection.
        last_line = len(head) - (head.rfind(b"\n") + 1) + len(tail)
        received = _until_closed(pacing_lab, head + b"a" * (MAX_LINE + 1 - last_line) + tail)
        assert received.startswith(b"HTTP/1.1 " + status + b" ")
        assert received.count(b"HTTP/1.1 ") == 1
        assert pacing_lab.request_log("pacing.test") == []

    @pytest.mark.parametrize(
        "lengths",
        [["-5"], ["+3"], ["1_0"], ["3abc"], [""], ["3", "4"]],
        ids=["negative", "plus", "underscore", "trailing-junk", "empty", "differing"],
    )
    def test_a_length_that_is_not_digits_is_refused(self, pacing_lab, lengths):
        smuggled = b"GET /smuggled HTTP/1.1\r\nHost: pacing.test\r\n\r\n"
        head = b"POST / HTTP/1.1\r\nHost: pacing.test\r\n" + b"".join(
            b"Content-Length: %s\r\n" % length.encode() for length in lengths
        )
        received = _until_closed(pacing_lab, head + b"\r\n" + smuggled)
        assert received.startswith(b"HTTP/1.1 400 ")
        assert received.count(b"HTTP/1.1 ") == 1  # nothing after it is read
        assert pacing_lab.request_log("pacing.test") == []

    def test_a_final_coding_other_than_chunked_is_refused(self, pacing_lab):
        head = b"POST / HTTP/1.1\r\nHost: pacing.test\r\nTransfer-Encoding: chunked, gzip\r\n"
        received = _until_closed(pacing_lab, head + b"\r\n3\r\nabc\r\n0\r\n\r\n" + self.NEXT)
        assert received.startswith(b"HTTP/1.1 400 ")
        assert received.count(b"HTTP/1.1 ") == 1  # nothing after it is read
        assert pacing_lab.request_log("pacing.test") == []

    def test_connection_close_gets_exactly_one_response(self, pacing_lab):
        closing_request = b"GET / HTTP/1.1\r\nHost: pacing.test\r\nConnection: close\r\n\r\n"
        received = _until_closed(pacing_lab, closing_request + self.NEXT)
        assert received.count(b"HTTP/1.1 200 OK\r\n") == 1
        assert received.endswith(b"<p>pacing target</p></body></html>")

    def test_client_reset_leaves_nothing_on_stderr(self, pacing_lab, capfd):
        sock = socket.create_connection((pacing_lab.address, pacing_lab.port), timeout=5)
        sock.sendall(b"GET / HTTP/1.1\r\nHost: pac")
        deadline = time.monotonic() + 5
        while not pacing_lab._httpd.connections and time.monotonic() < deadline:
            time.sleep(0.01)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()  # with a zero linger time: sends RST
        assert lab_connections_left_open(pacing_lab) == 0  # the handler has finished
        assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "framing",
    [b"Connection: close\r\n", b"Content-Length: 4\r\n"],
    ids=["chunked", "chunked-and-length"],
)
def test_a_chunked_login_is_read(framing):
    site = catalog.classic_site()
    victim = site.auth.victim()
    form = f"username={victim.username}&password={victim.password}".encode()
    body = b"9\r\n" + form[:9] + b"\r\n%x\r\n" % len(form[9:]) + form[9:] + b"\r\n0\r\n\r\n"
    head = (b"POST /login HTTP/1.1\r\nHost: classic-pp.test\r\n"
            b"Transfer-Encoding: chunked\r\n" + framing + b"\r\n")
    # A Content-Length beside the Transfer-Encoding ends the connection
    # after the response, as Connection: close does: the GET is not served.
    after = b"GET / HTTP/1.1\r\nHost: classic-pp.test\r\n\r\n"
    server = LabServer([site]).start()
    try:
        received = _until_closed(server, head + body + after)
        log = server.request_log(site.host)
    finally:
        server.stop()
    assert received.startswith(b"HTTP/1.1 303 ")
    assert received.count(b"HTTP/1.1 ") == 1
    assert b"\r\nSet-Cookie: " in received.split(b"\r\n\r\n", 1)[0]
    assert [(e.method, e.target) for e in log] == [("POST", "/login")]


def _masked(response: bytes) -> bytes:
    return re.sub(rb"\r\nDate: [^\r]*\r\n", b"\r\nDate: -\r\n", response, count=1)


def _read_lab_response(reader) -> bytes:
    """One whole lab response, which always carries a Content-Length."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = reader.readline()
        assert line, "the lab closed the connection mid-response"
        head += line
    length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head)[1])
    return head + reader.read(length)


def test_serve_gives_the_bytes_the_listener_sends():
    site = catalog.classic_site()
    victim, attacker = site.auth.victim(), site.auth.accounts["attacker"]
    host = b"Host: classic-pp.test\r\n"
    form = f"username={victim.username}&password={victim.password}".encode()
    attacker_form = f"username={attacker.username}&password={attacker.password}".encode()
    logins = [
        b"POST /login HTTP/1.1\r\n" + host + b"Content-Length: %d\r\n" % len(form)
        + b"Content-Type: application/x-www-form-urlencoded\r\n\r\n" + form,
        b"POST /login HTTP/1.1\r\n" + host + b"Transfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n" % len(attacker_form) + attacker_form + b"\r\n0\r\n\r\n",
    ]

    def attack(login_response: bytes) -> bytes:
        cookie = re.search(rb"\r\nSet-Cookie: ([^;]*);", login_response)[1]
        return (b"GET /account.php%3Bwcd7q2.css HTTP/1.1\r\n" + host
                + b"Cookie: " + cookie + b"\r\n\r\n")

    server = LabServer([site]).start()
    try:
        with socket.create_connection((server.address, server.port), timeout=5) as sock:
            reader = sock.makefile("rb")
            sent, received = [], []

            def exchange(request: bytes) -> bytes:
                sock.sendall(request)
                sent.append(request)
                received.append(_read_lab_response(reader))
                return received[-1]

            victim_login, attacker_login = exchange(logins[0]), exchange(logins[1])
            exchange(attack(victim_login))
            exchange(attack(attacker_login))
            exchange(b"GET /_lab/requests HTTP/1.1\r\n" + host + b"\r\n")
            reader.close()
        arrivals = [entry.t for entry in server.request_log(site.host)]
    finally:
        server.stop()
    assert len(arrivals) == 4  # control requests are not logged

    runtimes = {site.host: SiteRuntime(site)}
    stream = io.BufferedReader(io.BytesIO(b"".join(sent)))
    served = []
    for arrival in [*arrivals, 0.0]:
        request = read_request(stream, ("GET", "HEAD", "POST"))
        served.append(serve(runtimes, request, arrival))
    assert read_request(stream, ("GET", "HEAD", "POST")) is None
    assert [_masked(r) for r in served] == [_masked(r) for r in received]
    assert [r.split(b"\r\n", 1)[0] for r in received] == [
        b"HTTP/1.1 303 See Other", b"HTTP/1.1 303 See Other", *[b"HTTP/1.1 200 OK"] * 3
    ]
    # The attacker is served the copy that the victim's request stored.
    assert b"X-Lab-Event: miss_stored\r\n" in received[2]
    assert b"X-Lab-Event: hit\r\n" in received[3]
    assert received[3].split(b"\r\n\r\n", 1)[1] == received[2].split(b"\r\n\r\n", 1)[1]


@pytest.mark.parametrize(
    "host,target,length",
    [("pacing.test", "/_lab/state", 48), ("stranger.test", "/", 42)],
    ids=["control", "unknown-host"],
)
def test_a_head_response_is_the_get_response_without_its_body(host, target, length):
    runtimes = {"pacing.test": SiteRuntime(catalog.pacing_site())}
    get, head = (serve(runtimes, Request(method, target, {"host": host}, b"", True), 0.0)
                 for method in ("GET", "HEAD"))
    head_section, body = get.split(b"\r\n\r\n", 1)
    assert len(body) == length
    assert _masked(head) == _masked(head_section + b"\r\n\r\n")


@pytest.mark.parametrize(
    "cookie, logged_in",
    [
        ("x=a b; sid={}", True),
        ('x="a;b"; sid={}', True),
        ("x;sid={}", True),
        ("sid={}; sid=other", True),
        ("sid=other; sid={}", False),
        ("sid = {} ", True),
    ],
    ids=["space-in-value", "quoted-semicolon", "no-equals", "first-wins", "first-loses",
         "trimmed"],
)
def test_the_lab_reads_each_cookie_pair(cookie, logged_in):
    """A Cookie header is ``;``-separated name=value pairs; the first pair
    with a name counts."""
    site = catalog.classic_site()
    runtime = SiteRuntime(site)
    token = runtime.log_in("victim")
    headers = {"host": site.host, "cookie": cookie.format(token)}
    response = serve({site.host: runtime}, Request("GET", "/account.php", headers, b"", True), 0.0)
    assert response.startswith(b"HTTP/1.1 200 " if logged_in else b"HTTP/1.1 302 ")


@pytest.mark.parametrize("status", [204, 304])
def test_a_no_body_status_sends_no_body(status):
    site = catalog.pacing_site()
    site.resources["/"].status = status
    runtimes = {site.host: SiteRuntime(site)}
    response = serve(runtimes, Request("GET", "/", {"host": site.host}, b"", True), 0.0)
    head, body = response.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nX-Lab-Event: " in head and b"\r\nContent-Length:" not in head
    assert body == b""
