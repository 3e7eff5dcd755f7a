"""Orchestration: pool scanning modes, budgets, and failure isolation."""

import gc
import json
import subprocess
import sys
import threading
import types
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import wcdscan
from wcdscan import detector, pipeline
from wcdscan.crawler import SeedPool, SiteConfig, site_config_from_dict
from wcdscan.lab import catalog, selfcheck
from wcdscan.lab.selfcheck import pool_from_lab_sites
from wcdscan.lab.server import LabServer
from wcdscan.http_engine import AuthFailure, Identity, NetworkError, Role, Transport, fetch
from wcdscan.pipeline import ScanSettings, scan_pool
from wcdscan.url_toolkit import PathConfusionTechnique, parse_url

from conftest import fast_limiter, lab_connections_left_open


@pytest.fixture(scope="module")
def pipeline_lab():
    sites = [catalog.classic_site(), catalog.pacing_site()]
    server = LabServer(sites).start()
    yield server
    server.stop()


def _settings(server, **kwargs) -> ScanSettings:
    defaults = dict(
        rate=500.0,
        workers=2,
        seed=3,
        transport=Transport(resolve_overrides=server.resolve_overrides()),
    )
    defaults.update(kwargs)
    return ScanSettings(**defaults)


def _classic_pool() -> SeedPool:
    return pool_from_lab_sites([catalog.classic_site()])


def test_full_mode_attacks_every_representative(pipeline_lab):
    run = scan_pool(_classic_pool(), _settings(pipeline_lab))
    result = run.site_results[0]
    assert result.error is None
    # home, login page, and the account page, five techniques each
    assert {parse_url(v.page).raw_path for v in result.verdicts} == {"/", "/login", "/account.php"}
    assert len(result.verdicts) == 15
    vulnerable = [v for v in result.verdicts if v.vulnerable]
    assert vulnerable
    assert all(v.page.endswith("/account.php") for v in vulnerable)
    assert {v.technique.value for v in vulnerable} == {"path_parameter"}


def _large_page_site():
    """classic-pp with about 90 KB of anchors, hidden inputs and scripts on
    its home and account pages."""
    filler = "".join(
        f'<p><a href="/news?item={i}&amp;ref=home">item {i}</a>'
        f'<input type="hidden" name="field{i}" value="value{i}">'
        f'<script>var note{i} = "entry{i}";</script><script src="/js/app{i}.js"></script></p>'
        for i in range(400)
    )
    site = catalog.classic_site()
    resources = dict(site.resources)
    for path in ("/", "/account.php"):
        template = resources[path].body_template.replace("</body>", filler + "</body>")
        resources[path] = replace(resources[path], body_template=template)
    return replace(site, resources=resources)


class _CountingTokenizer:
    """Stands in for the HTML tokenizer and records every text it reads."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.texts: list[str] = []

    def findall(self, text):
        self.texts.append(text)
        return self.pattern.findall(text)


def test_each_distinct_body_is_tokenized_once_per_site(monkeypatch):
    tokenizer = _CountingTokenizer(detector._HTML_TOKEN)
    monkeypatch.setattr(detector, "_HTML_TOKEN", tokenizer)
    site = _large_page_site()
    server = LabServer([site]).start()
    try:
        run = scan_pool(pool_from_lab_sites([site]), _settings(server))
    finally:
        server.stop()
    result = run.site_results[0]
    assert result.error is None
    # The crawl fetched the account page as the victim, and a cached copy of
    # it was swept for secrets: the same body, read once.
    assert any(v.vulnerable and v.secrets for v in result.verdicts)
    account = site.resources["/account.php"].render(site.auth.victim().values).decode()
    assert tokenizer.texts.count(account) == 1
    assert len(tokenizer.texts) == len(set(tokenizer.texts))


_NOT_FOLLOWED = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType
)


def _reachable(root):
    """Every object reachable from ``root`` through instance attributes and
    the items of tuples, lists, dicts and sets; types, modules and functions
    are not followed."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_FOLLOWED):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack += obj
        elif not isinstance(obj, (str, bytes, int, float)):
            stack += getattr(obj, "__dict__", {}).values()
            stack += [getattr(obj, name) for name in getattr(obj, "__slots__", ())
                      if hasattr(obj, name)]
    return found


def test_a_finished_site_keeps_no_page_body():
    site = _large_page_site()
    server = LabServer([site]).start()
    try:
        run = scan_pool(pool_from_lab_sites([site]), _settings(server))
    finally:
        server.stop()
    assert not run.errors and any(v.vulnerable and v.secrets for v in run.verdicts)
    large = [obj for obj in _reachable(run) if isinstance(obj, bytes) and len(obj) >= 1024]
    assert large == []


def test_marker_gated_mode_attacks_only_marked_pages(pipeline_lab):
    before = len(pipeline_lab.request_log("classic-pp.test"))
    run = scan_pool(_classic_pool(), _settings(pipeline_lab, mode="marker-gated"))
    result = run.site_results[0]
    assert len(result.verdicts) == 5
    assert all(v.page.endswith("/account.php") for v in result.verdicts)
    # Two logins and their redirects (4), one crawl fetch per group (3),
    # 5 victim steps, the attacker step of the one test whose victim body
    # held something to leak, and the unauthenticated step of the one
    # vulnerable test. Every group here has one member, so the gate itself
    # fetches nothing.
    assert len(pipeline_lab.request_log("classic-pp.test")) - before == 14


def test_marker_gated_mode_fetches_nothing_for_a_site_without_markers():
    site = catalog.sitemap_site()
    server = LabServer([site]).start()
    try:
        run = scan_pool(pool_from_lab_sites([site]), _settings(server, mode="marker-gated"))
        requests = len(server.request_log(site.host))
    finally:
        server.stop()
    result = run.site_results[0]
    assert result.error is None
    assert result.verdicts == []
    # One crawl fetch per structural group (7) and nothing more: with no
    # marker to look for, the gate keeps no page and fetches no representative.
    assert requests == 7


def test_seeded_support_catalog_scan_request_count():
    sites = catalog.support_sites()
    server = LabServer(sites).start()
    try:
        run = scan_pool(pool_from_lab_sites(sites), _settings(server))
        requests = sum(len(server.request_log(site.host)) for site in sites)
    finally:
        server.stop()
    assert len(run.verdicts) == 100
    assert sum(v.vulnerable for v in run.verdicts) == 4
    # The attacker step follows only a victim body with something to leak,
    # and the unauthenticated step is sent for the 4 vulnerable tests only.
    assert requests == 144


def test_selfcheck_counts_its_lab_requests():
    report = selfcheck.run_selfcheck()
    assert report.ok
    assert (report.requests, report.requests_with_cookie, report.requests_without_cookie) == (
        3190, 2781, 409
    )
    # Only a victim body with something to leak is followed by the attacker
    # step, and only a vulnerable test sends the unauthenticated step.
    assert report.attacker_steps_skipped == 1734
    assert all((v.unauth_status != 0) == v.vulnerable for v in report.verdicts)
    # Every lab site routes to one endpoint, so each of the 8 workers
    # carries its one connection from site to site.
    assert 1 <= report.lab_connections <= 8


def test_per_site_budget_override(pipeline_lab):
    pool = _classic_pool()
    entry = catalog.seed_entry(catalog.classic_site())
    entry["budget"] = 1
    pool = SeedPool(
        sites=(site_config_from_dict("classic-pp.test", (), entry),)
    )
    run = scan_pool(pool, _settings(pipeline_lab))
    result = run.site_results[0]
    # One page group, so one attacked page with every technique.
    assert len({v.page for v in result.verdicts}) == 1
    assert len(result.verdicts) == 5


def test_auth_failure_isolated_per_site(pipeline_lab):
    bad_entry = catalog.seed_entry(catalog.classic_site())
    bad_entry["login"]["victim"]["password"] = "wrong"
    bad = site_config_from_dict("classic-pp.test", (), bad_entry)
    clean = site_config_from_dict("pacing.test", (), {"scheme": "http"})
    run = scan_pool(SeedPool(sites=(bad, clean)), _settings(pipeline_lab))
    by_domain = {r.site.primary_domain: r for r in run.site_results}
    assert by_domain["classic-pp.test"].error
    assert by_domain["classic-pp.test"].verdicts == []
    assert by_domain["pacing.test"].error is None
    assert by_domain["pacing.test"].verdicts  # clean site still scanned


@pytest.mark.parametrize("failure", [AuthFailure, NetworkError], ids=lambda c: c.__name__)
def test_failed_relogin_costs_one_test_not_the_site(pipeline_lab, monkeypatch, failure):
    """A re-login that is refused or cut off before one test makes that test
    inconclusive; the verdicts already produced are kept."""
    real = pipeline.maintain_session
    calls = []
    first_failure = 2 + 2 * 11 + 1  # after the initial logins and 11 tests

    def failing_from_then_on(identity, *args, **kwargs):
        calls.append(identity.role)
        if len(calls) >= first_failure:
            raise failure("login POST reset")
        return real(identity, *args, **kwargs)

    monkeypatch.setattr(pipeline, "maintain_session", failing_from_then_on)
    run = scan_pool(_classic_pool(), _settings(pipeline_lab, seed=4))
    result = run.site_results[0]
    assert result.error is None
    assert len(result.verdicts) == 15
    kept, lost = result.verdicts[:11], result.verdicts[11:]
    assert not any(v.inconclusive for v in kept)
    assert all(v.attack_url for v in kept)
    assert any(v.vulnerable for v in kept)  # /account.php via path_parameter
    assert all(
        v.inconclusive and not v.vulnerable and v.error == f"{failure.__name__}: login POST reset"
        for v in lost
    )
    assert [(v.page, v.technique) for v in lost] == [
        (lost[0].page, t) for t in list(PathConfusionTechnique)[1:]
    ]


def test_nonces_are_unique_across_a_run(pipeline_lab):
    run = scan_pool(_classic_pool(), _settings(pipeline_lab, seed=8))
    urls = [v.attack_url for v in run.verdicts]
    assert len(urls) == len(set(urls))


def test_cdn_labels_stamped_from_headers(pipeline_lab):
    run = scan_pool(_classic_pool(), _settings(pipeline_lab))
    labeled = [v for v in run.verdicts if v.cdn_labels]
    assert labeled
    assert all("Akamai" in v.cdn_labels for v in labeled)


def test_verdicts_serialize_to_records(pipeline_lab):
    run = scan_pool(_classic_pool(), _settings(pipeline_lab, seed=9))
    for verdict in run.verdicts:
        record = json.loads(json.dumps(verdict.to_record()))
        assert record["page"].startswith("http://classic-pp.test/")


def test_no_pooled_connection_outlives_scan_pool(pipeline_lab):
    """Each worker closes its keep-alive connections when it runs out of
    sites, so nothing is left for the garbage collector (which would warn)
    or the lab."""
    unraisable = []
    previous_hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            pool = pool_from_lab_sites([catalog.classic_site(), catalog.pacing_site()])
            run = scan_pool(pool, _settings(pipeline_lab, workers=2))
            gc.collect()
    finally:
        sys.unraisablehook = previous_hook
    assert not run.errors and run.verdicts
    assert [u.exc_value for u in unraisable] == []
    assert lab_connections_left_open(pipeline_lab) == 0


@pytest.fixture()
def two_labs():
    """classic-pp and pacing on two listeners, and a transport reaching both."""
    a = LabServer([catalog.classic_site()]).start()
    b = LabServer([catalog.pacing_site()]).start()
    try:
        routes = {**a.resolve_overrides(), **b.resolve_overrides()}
        yield a, b, Transport(resolve_overrides=routes)
    finally:
        a.stop()
        b.stop()


def test_close_keeps_the_connections_its_urls_route_to(two_labs):
    a, b, transport = two_labs
    guest, limiter = Identity(role=Role.UNAUTHENTICATED), fast_limiter()
    try:
        for host in ("classic-pp.test", "pacing.test"):
            assert fetch(guest, f"http://{host}/", limiter, transport).status == 200
        assert (a.connections_accepted, b.connections_accepted) == (1, 1)
        transport.close(keep=["http://classic-pp.test/"])
        assert lab_connections_left_open(b) == 0
        # The kept socket answers the next request: A accepts no new one.
        assert fetch(guest, "http://classic-pp.test/", limiter, transport).status == 200
        assert a.connections_accepted == 1
        assert len(a._httpd.connections) == 1
    finally:
        transport.close()
    assert lab_connections_left_open(a) == 0


def test_a_worker_closes_what_its_next_site_does_not_route_to(two_labs, monkeypatch):
    a, b, transport = two_labs
    open_elsewhere = []
    real_scan_site = pipeline.scan_site

    def scan_site(site, settings):
        other = b if site.primary_domain == "classic-pp.test" else a
        open_elsewhere.append((site.primary_domain, lab_connections_left_open(other)))
        return real_scan_site(site, settings)

    monkeypatch.setattr(pipeline, "scan_site", scan_site)
    pool = pool_from_lab_sites([catalog.classic_site(), catalog.pacing_site()])
    settings = ScanSettings(rate=500.0, workers=1, seed=3, transport=transport)
    run = scan_pool(pool, settings)
    assert not run.errors and run.verdicts
    assert open_elsewhere == [("classic-pp.test", 0), ("pacing.test", 0)]
    assert (a.connections_accepted, b.connections_accepted) == (1, 1)
    assert lab_connections_left_open(a) == 0
    assert lab_connections_left_open(b) == 0


def test_a_site_that_raises_is_recorded_and_the_worker_goes_on(pipeline_lab, monkeypatch):
    real_scan_site = pipeline.scan_site

    def scan_site(site, settings):
        if site.primary_domain == "classic-pp.test":
            raise RuntimeError("boom")
        return real_scan_site(site, settings)

    monkeypatch.setattr(pipeline, "scan_site", scan_site)
    pool = pool_from_lab_sites([catalog.classic_site(), catalog.pacing_site()])
    run = scan_pool(pool, _settings(pipeline_lab, workers=1))
    assert run.errors == [("classic-pp.test", "boom")]
    assert [r.site.primary_domain for r in run.site_results] == ["classic-pp.test", "pacing.test"]
    assert run.site_results[1].verdicts
    assert lab_connections_left_open(pipeline_lab) == 0


def test_a_run_needs_a_worker():
    with pytest.raises(ValueError, match="workers must be positive"):
        ScanSettings(workers=0)


def test_many_workers_take_every_site_once(monkeypatch):
    """More workers than cores, switching threads as often as the
    interpreter allows: no site is taken twice, and none is lost."""
    taken = []

    def scan_site(site, settings):
        taken.append(site.primary_domain)
        return pipeline.SiteScanResult(site=site)

    monkeypatch.setattr(pipeline, "scan_site", scan_site)
    pool = SeedPool(sites=tuple(SiteConfig(f"s{i:03}.test") for i in range(300)))
    runs = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(
            target=lambda: runs.append(scan_pool(pool, ScanSettings(workers=16)))
        )
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not thread.is_alive()
    assert sorted(taken) == [site.primary_domain for site in pool.sites]
    assert [r.site for r in runs[0].site_results] == list(pool.sites)


def test_a_malformed_anchor_costs_that_link_not_the_site():
    site = catalog.classic_site()
    home = site.resources["/"]
    home.body_template = home.body_template.replace(
        "</body>", '<a href="http://[::1/x">broken</a></body>'
    )
    assert 'href="http://[::1/x"' in home.body_template
    server = LabServer([site]).start()
    try:
        run = scan_pool(pool_from_lab_sites([site]), _settings(server))
    finally:
        server.stop()
    result = run.site_results[0]
    assert result.error is None
    assert {parse_url(v.page).raw_path for v in result.verdicts} == {"/", "/login", "/account.php"}
    assert len(result.verdicts) == 15
    assert any(v.vulnerable for v in result.verdicts)


def test_the_scanner_core_imports_no_lab_module():
    package_root = str(Path(wcdscan.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {package_root!r})\n"
        "import wcdscan.pipeline, wcdscan.crawler, wcdscan.detector, wcdscan.http_engine\n"
        "import wcdscan.reporting\n"
        "print(sorted(m for m in sys.modules if m.startswith('wcdscan.lab')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout == "[]\n"
