"""Acceptance suite: every release criterion, one test each.

Each test prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to watch them); the assertions pin the tolerances. Verdicts here come from the
real scanner talking to the lab over sockets, checked against the brute-force
simulation oracle.
"""

import math
import random
import string

import pytest
import requests as requests_lib

from wcdscan.cache_policy import parse_cache_control
from wcdscan.crawler import SiteConfig, crawl_domain
from wcdscan.detector import (
    MarkerSet,
    RandomnessConfig,
    WcdTestConfig,
    randomness_score,
    run_wcd_test,
    strip_dictionary_words,
)
from wcdscan.http_engine import (
    Identity,
    LoginDescriptor,
    RateLimiter,
    Role,
    Transport,
    fetch,
    maintain_session,
)
from wcdscan.lab import catalog
from wcdscan.lab.oracle import oracle_vulnerable
from wcdscan.lab.selfcheck import run_selfcheck
from wcdscan.lab.server import LabServer
from wcdscan.reporting import aggregate, build_site_map, chi_square_2x2
from wcdscan.url_toolkit import PathConfusionTechnique, RandomNameGenerator, parse_url

from conftest import fast_limiter, fast_settings


def _report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")


def _login(host: str, username: str, password: str) -> Identity:
    role = Role.VICTIM if username == "victim" else Role.ATTACKER
    return Identity(
        role=role,
        credentials=LoginDescriptor(
            url=f"http://{host}/login",
            fields={"username": username, "password": password},
        ),
    )


def _scan_one(server, site, technique, extension="css", delay=0.0, delay_fn=None, seed=1):
    """Run the real scanner's attack step for one (site, technique)."""
    transport = Transport(resolve_overrides=server.resolve_overrides())
    settings = fast_settings(
        extension=extension,
        transport=transport,
        attacker_delay=delay,
        delay_fn=delay_fn or (lambda s: None),
    )
    victim = _login(site.host, "victim", catalog.VICTIM_PASSWORD)
    attacker = _login(site.host, "attacker", catalog.ATTACKER_PASSWORD)
    try:
        maintain_session(victim, settings.rate_limiter, transport)
        maintain_session(attacker, settings.rate_limiter, transport)
        config = WcdTestConfig(settings, names=RandomNameGenerator(seed=seed))
        markers = MarkerSet(list(catalog.victim_markers(site.name).items()))
        page = parse_url(f"http://{site.host}/account.php")
        return run_wcd_test(page, technique, victim, attacker, markers, config)
    finally:
        transport.close()


def test_criterion_1_oracle_equivalence_matrix():
    """Scanner verdicts equal the oracle for all 5 techniques on every
    catalog matrix site: 0 disagreements in under 5 minutes."""
    report = run_selfcheck()
    ok = (
        not report.disagreements
        and report.inconclusive == 0
        and report.elapsed_seconds < 300.0
        and len(report.sites) == 129
    )
    _report(
        f"oracle equivalence matrix: {len(report.scanned)} site-technique verdicts, "
        f"{len(report.disagreements)} disagreements, {report.elapsed_seconds:.1f}s",
        ok,
    )
    assert report.disagreements == []
    assert report.inconclusive == 0
    assert report.elapsed_seconds < 300.0

    # Aggregated per-technique site totals must equal the oracle's totals.
    site_map = build_site_map(f"{name}.test" for name in report.sites)
    stats = aggregate(report.verdicts, site_map)
    for technique in PathConfusionTechnique:
        oracle_sites = sum(
            1 for (name, t), v in report.oracle.items() if t is technique and v
        )
        assert stats.per_technique[technique.value].sites == oracle_sites


def test_criterion_2_classic_scenario_replay():
    """The path-parameter/extension-rule scenario leaks victim markers to the
    attacker and to an unauthenticated client."""
    site = catalog.classic_site()
    server = LabServer([site]).start()
    try:
        verdict = _scan_one(server, site, PathConfusionTechnique.PATH_PARAMETER,
                            extension="jpg")
    finally:
        server.stop()
    ok = (
        verdict.vulnerable
        and set(verdict.markers_leaked) == {"name", "email"}
        and verdict.unauth_exploitable
        and verdict.attack_url.endswith(".jpg")
    )
    _report("classic replay: victim marker served to attacker and unauthenticated user", ok)
    assert verdict.vulnerable is True
    assert verdict.markers_leaked
    assert verdict.unauth_exploitable is True


def test_criterion_3_technique_uniqueness():
    """A question-mark-truncating origin is missed by the path-parameter
    payload but caught by the encoded-question payload; oracle agrees."""
    site = [s for s in catalog.matrix_sites() if s.name == "qm-akamai-std"][0]
    server = LabServer([site]).start()
    try:
        miss = _scan_one(server, site, PathConfusionTechnique.PATH_PARAMETER, seed=2)
        hit = _scan_one(server, site, PathConfusionTechnique.ENCODED_QUESTION, seed=3)
    finally:
        server.stop()
    oracle_miss = oracle_vulnerable(site, PathConfusionTechnique.PATH_PARAMETER)
    oracle_hit = oracle_vulnerable(site, PathConfusionTechnique.ENCODED_QUESTION)
    ok = (miss.vulnerable, hit.vulnerable) == (False, True) and (
        oracle_miss, oracle_hit
    ) == (False, True)
    _report("technique uniqueness: encoded-? exploits what path-parameter misses", ok)
    assert miss.vulnerable is False and oracle_miss is False
    assert hit.vulnerable is True and oracle_hit is True


def test_criterion_4_header_override_hazard():
    """no-store is ignored by the extension-rule profile (page still leaks)
    and honored by the cache-everything profile (clean)."""
    matrix = {s.name: s for s in catalog.matrix_sites()}
    ignored, honored = matrix["pp-akamai-ns"], matrix["pp-cloudfront-ns"]
    server = LabServer([ignored, honored]).start()
    try:
        leaked = _scan_one(server, ignored, PathConfusionTechnique.PATH_PARAMETER, seed=4)
        clean = _scan_one(server, honored, PathConfusionTechnique.PATH_PARAMETER, seed=5)
    finally:
        server.stop()
    expected_leak = oracle_vulnerable(ignored, PathConfusionTechnique.PATH_PARAMETER)
    expected_clean = oracle_vulnerable(honored, PathConfusionTechnique.PATH_PARAMETER)
    ok = (
        leaked.vulnerable is True
        and clean.vulnerable is False
        and leaked.vulnerable == expected_leak
        and clean.vulnerable == expected_clean
        and "no-store" in leaked.cache_control
    )
    _report("header-override hazard: no-store page cached anyway under extension rules", ok)
    assert leaked.vulnerable is True and expected_leak is True
    assert clean.vulnerable is False and expected_clean is False


def test_criterion_5_ttl_expiry():
    """With the default 3600s TTL, an immediate attacker succeeds and a
    7200s-delayed attacker finds the entry evicted. Deterministic via the
    lab clock."""
    sites = catalog.ttl_sites()
    server = LabServer(sites).start()
    try:
        fresh = _scan_one(server, sites[0], PathConfusionTechnique.PATH_PARAMETER, seed=6)

        def advance(seconds: float) -> None:
            requests_lib.get(
                f"http://{server.address}:{server.port}/_lab/advance",
                params={"seconds": seconds},
                headers={"Host": sites[1].host},
                timeout=10,
            )

        late = _scan_one(
            server,
            sites[1],
            PathConfusionTechnique.PATH_PARAMETER,
            delay=7200,
            delay_fn=advance,
            seed=7,
        )
    finally:
        server.stop()
    ok = fresh.vulnerable is True and late.vulnerable is False
    _report("ttl expiry: delay 0 s exploits, delay 7200 s finds the entry evicted", ok)
    assert fresh.vulnerable is True
    assert late.vulnerable is False


def test_criterion_6_entropy_oracle():
    """randomness_score matches a brute-force Shannon computation to 1e-9 on
    1,000 random strings, and the stripper matches a brute-force longest-match
    reference on a 200-string fixture set."""

    def brute_entropy(text: str) -> float:
        if not text:
            return 0.0
        total = 0.0
        for symbol in set(text):
            p = text.count(symbol) / len(text)
            total -= p * math.log2(p)
        return max(0.0, total)

    def brute_strip(value: str, words, min_len=3) -> str:
        vocab = sorted({w.lower() for w in words if len(w) >= min_len},
                       key=len, reverse=True)
        lowered = value.lower()
        out, i = [], 0
        while i < len(value):
            for word in vocab:
                if lowered.startswith(word, i):
                    i += len(word)
                    break
            else:
                out.append(value[i])
                i += 1
        return "".join(out)

    rng = random.Random(20240601)
    alphabet = string.ascii_letters + string.digits + "_-./+="
    config = RandomnessConfig(dictionary=())
    worst = 0.0
    for _ in range(1000):
        value = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 32)))
        _, measured = randomness_score(value, config)
        worst = max(worst, abs(measured - brute_entropy(value)))
    entropy_ok = worst <= 1e-9

    stripper_config = RandomnessConfig()
    words = ["token", "state", "house", "cat", "garden", "account", "blue", "the"]
    mismatches = 0
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                parts.append(rng.choice(words))
            else:
                parts.append("".join(rng.choice("xq0123456789") for _ in range(rng.randint(1, 6))))
        value = "".join(parts)
        if strip_dictionary_words(value, stripper_config) != brute_strip(
            value, stripper_config.dictionary
        ):
            mismatches += 1
    stripper_ok = mismatches == 0

    _report(
        f"entropy oracle: max |impl-brute| = {worst:.2e} over 1000 strings; "
        f"{mismatches} stripper mismatches over 200 fixtures",
        entropy_ok and stripper_ok,
    )
    assert entropy_ok
    assert stripper_ok


def test_criterion_7_chi_square_reference_values():
    """The 2x2 incidence comparison reproduces the reference statistic 1.07
    and p-value 0.30 for (20, 275, 5, 40)."""
    statistic, p_value = chi_square_2x2(20, 275, 5, 40)
    ok = abs(statistic - 1.07) <= 0.01 and abs(p_value - 0.30) <= 0.01
    _report(f"chi-square incidence test: statistic={statistic:.3f}, p={p_value:.3f}", ok)
    assert statistic == pytest.approx(1.07, abs=0.01)
    assert p_value == pytest.approx(0.30, abs=0.01)


CACHE_HEADER_FIXTURES = [
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


def test_criterion_8_cache_control_fixtures():
    """Every observed directive combination parses losslessly and
    round-trips byte-exactly."""
    failures = []
    for header in CACHE_HEADER_FIXTURES:
        parsed = parse_cache_control(header)
        if parsed.render() != header or parse_cache_control(parsed.render()) != parsed:
            failures.append(header)
    known_flag_checks = parse_cache_control(CACHE_HEADER_FIXTURES[-1])
    ok = (
        not failures
        and known_flag_checks.no_store
        and known_flag_checks.no_cache
        and known_flag_checks.must_revalidate
        and known_flag_checks.extensions == [("post-check", "0"), ("pre-check", "0")]
    )
    _report(f"cache-control fixtures: {len(CACHE_HEADER_FIXTURES)} combinations round-trip", ok)
    assert failures == []
    assert ok


def test_criterion_9_grouping_determinism():
    """The 1,200-page/7-group sitemap yields exactly 7 representatives with
    budget 500, identically across runs with a fixed seed."""
    server = LabServer([catalog.sitemap_site()]).start()
    transport = Transport(resolve_overrides=server.resolve_overrides())
    try:

        def crawl():
            return crawl_domain(
                SiteConfig(primary_domain="sitemap.test"),
                Identity(role=Role.VICTIM),
                budget=500,
                rate_limiter=fast_limiter(),
                transport=transport,
                seed=99,
            )

        first = crawl()
        second = crawl()
    finally:
        transport.close()
        server.stop()
    same = [p.text() for p in first.pages] == [p.text() for p in second.pages]
    ok = (
        len(first.pages) == 7
        and first.pages_seen == 1200
        and first.truncated is False
        and same
    )
    _report(
        f"grouping determinism: {first.pages_seen} pages -> {len(first.pages)} "
        f"representatives, identical across runs",
        ok,
    )
    assert len(first.pages) == 7
    assert first.pages_seen == 1200
    assert first.truncated is False
    assert same


def test_criterion_10_request_pacing():
    """Across concurrent workers, arrivals at one host never exceed the
    configured requests/second in any 1-second window."""
    import threading

    rate = 5.0
    server = LabServer([catalog.pacing_site()]).start()
    try:
        transport = Transport(resolve_overrides=server.resolve_overrides())
        limiter = RateLimiter(rate=rate)

        def worker():
            identity = Identity(role=Role.UNAUTHENTICATED)
            try:
                for _ in range(6):
                    fetch(identity, "http://pacing.test/", limiter, transport)
            finally:
                transport.close()  # this thread's pooled connections

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stamps = [e.t for e in server.request_log("pacing.test")]
    finally:
        server.stop()
    assert len(stamps) == 24
    worst = max(
        len([t for t in stamps if start <= t < start + 1.0]) for start in stamps
    )
    ok = worst <= rate
    _report(
        f"request pacing: max {worst} arrivals in any 1 s window at rate {rate:g}/s "
        f"across 4 workers",
        ok,
    )
    assert worst <= rate
