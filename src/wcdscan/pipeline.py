"""End-to-end orchestration: seed pool -> crawl -> attack -> verdicts.

Sites are scanned by a small worker pool (one worker per domain at a time);
within a site everything is sequential, which keeps session state simple and
pacing honest. ``selfcheck`` wires the scanner against the in-process lab
and diffs every (site, technique) verdict against the ground-truth oracle.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace

from .crawler import (
    AttackSurface,
    SeedPool,
    SiteConfig,
    crawl_domain,
    filter_marked_pages,
    site_config_from_dict,
)
from .detector import (
    HtmlSurfaces,
    MarkerSet,
    ScanSettings,
    ScanVerdict,
    WcdTestConfig,
    inconclusive_verdict,
    run_wcd_test,
)
from .http_engine import AuthFailure, Identity, Role, Transport, maintain_session
from .lab import catalog
from .lab.oracle import enumerate_oracle
from .lab.server import LabServer
from .lab.sim import SimSite
from .reporting import cdn_label
from .url_toolkit import PathConfusionTechnique, RandomNameGenerator, parse_url

log = logging.getLogger(__name__)


class LockedJournal:
    """Serializes crawl-journal writes from concurrent site workers."""

    def __init__(self, fh):
        self._fh = fh
        self._lock = threading.Lock()

    def write(self, text: str) -> None:
        with self._lock:
            self._fh.write(text)
            self._fh.flush()


@dataclass
class SiteScanResult:
    site: SiteConfig
    surface: AttackSurface | None
    verdicts: list[ScanVerdict]
    error: str | None = None


@dataclass
class ScanRunResult:
    site_results: list[SiteScanResult]

    @property
    def verdicts(self) -> list[ScanVerdict]:
        return [v for r in self.site_results for v in r.verdicts]

    @property
    def errors(self) -> list[tuple[str, str]]:
        return [(r.site.primary_domain, r.error) for r in self.site_results if r.error]


def _names_for(site: SiteConfig, settings: ScanSettings) -> RandomNameGenerator:
    if settings.seed is None:
        return RandomNameGenerator()
    basis = f"{settings.seed}|{site.primary_domain}".encode()
    return RandomNameGenerator(int.from_bytes(hashlib.sha1(basis).digest()[:8], "big"))


def _log_in(identities: tuple[Identity, ...], settings: ScanSettings) -> None:
    for identity in identities:
        if identity.credentials:
            maintain_session(identity, settings.rate_limiter, settings.transport)


def scan_site(site: SiteConfig, settings: ScanSettings) -> SiteScanResult:
    try:
        victim = Identity(
            role=Role.VICTIM, credentials=site.victim_login, user_agent=settings.user_agent
        )
        attacker = Identity(
            role=Role.ATTACKER, credentials=site.attacker_login, user_agent=settings.user_agent
        )
        try:
            _log_in((victim, attacker), settings)
        except AuthFailure as exc:
            return SiteScanResult(site=site, surface=None, verdicts=[], error=str(exc))

        # One scan_body result per distinct body, shared by the crawl and
        # the secret sweep, for this site's scan only.
        html_scans: dict[bytes, HtmlSurfaces] = {}
        surface = crawl_domain(
            site,
            victim,
            site.budget or settings.budget,
            rate_limiter=settings.rate_limiter,
            transport=settings.transport,
            seed=settings.seed or 0,
            respect_robots=settings.respect_robots,
            journal=settings.journal,
            html_scans=html_scans,
        )
        markers = site.markers or MarkerSet([])
        if settings.mode == "marker-gated":
            surface = filter_marked_pages(
                surface, markers, victim,
                rate_limiter=settings.rate_limiter, transport=settings.transport,
            )

        config = WcdTestConfig(
            settings,
            names=_names_for(site, settings),
            label_fn=cdn_label,
            html_scans=html_scans,
        )
        verdicts = []
        for page in surface.pages:
            for technique in settings.techniques:
                try:
                    _log_in((victim, attacker), settings)
                except AuthFailure as exc:  # costs this test, not the site
                    verdicts.append(
                        inconclusive_verdict(page, technique, f"AuthFailure: {exc}")
                    )
                    continue
                verdicts.append(
                    run_wcd_test(page, technique, victim, attacker, markers, config)
                )
        return SiteScanResult(site=site, surface=surface, verdicts=verdicts)
    finally:
        settings.transport.close()  # this worker's pooled connections


def scan_pool(pool: SeedPool, settings: ScanSettings) -> ScanRunResult:
    """Scan every site in the pool, one concurrent worker per domain; every
    worker paces its requests with the settings' one rate limiter."""
    results: list[SiteScanResult] = []
    if not pool.sites:
        return ScanRunResult(site_results=[])
    with ThreadPoolExecutor(max_workers=settings.workers) as pool_exec:
        futures = {
            pool_exec.submit(scan_site, site, settings): site for site in pool.sites
        }
        for future in as_completed(futures):
            try:
                results.append(future.result())
            except Exception as exc:  # defensive: a site crash must not kill the run
                site = futures[future]
                log.exception("site %s scan failed", site.primary_domain)
                results.append(
                    SiteScanResult(site=site, surface=None, verdicts=[], error=str(exc))
                )
    results.sort(key=lambda r: r.site.primary_domain)
    return ScanRunResult(site_results=results)


def pool_from_lab_sites(sites: list[SimSite]) -> SeedPool:
    configs = [
        site_config_from_dict(site.host, (), catalog.seed_entry(site)) for site in sites
    ]
    return SeedPool(sites=tuple(configs))


@dataclass
class SelfcheckReport:
    sites: list[str]
    oracle: dict[tuple[str, PathConfusionTechnique], bool]
    scanned: dict[tuple[str, PathConfusionTechnique], bool]
    disagreements: list[tuple[str, PathConfusionTechnique, bool, bool]]
    verdicts: list[ScanVerdict]
    inconclusive: int
    elapsed_seconds: float
    # Requests the lab logged during the run, with and without a Cookie header.
    requests_with_cookie: int
    requests_without_cookie: int

    @property
    def requests(self) -> int:
        return self.requests_with_cookie + self.requests_without_cookie

    @property
    def ok(self) -> bool:
        return not self.disagreements and self.inconclusive == 0


def selfcheck_sites() -> list[SimSite]:
    """The sites selfcheck scans by default: the 128 matrix sites, then
    ``classic-pp``."""
    return catalog.matrix_sites() + [catalog.classic_site()]


def run_selfcheck(
    sites: list[SimSite] | None = None,
    settings: ScanSettings | None = None,
) -> SelfcheckReport:
    """Scan the lab catalog over real sockets and diff against the oracle.

    The scanner's verdict for (site, technique) is "any attacked page on the
    site came back vulnerable with that technique"; the oracle's is direct
    simulation of the site's protected marker page.
    """
    started = time.monotonic()
    if sites is None:
        sites = selfcheck_sites()
    settings = settings or ScanSettings(rate=500.0, workers=8, seed=0)

    server = LabServer(sites).start()
    try:
        settings = replace(
            settings, transport=Transport(resolve_overrides=server.resolve_overrides())
        )
        pool = pool_from_lab_sites(sites)
        run = scan_pool(pool, settings)
        cookies = [e.has_cookie for site in sites for e in server.request_log(site.host)]
    finally:
        server.stop()

    host_to_name = {site.host: site.name for site in sites}
    scanned: dict[tuple[str, PathConfusionTechnique], bool] = {
        (site.name, technique): False
        for site in sites
        for technique in settings.techniques
    }
    inconclusive = 0
    for verdict in run.verdicts:
        name = host_to_name.get(parse_url(verdict.page).host)
        if name is None:
            continue
        if verdict.inconclusive:
            inconclusive += 1
            continue
        if verdict.vulnerable:
            scanned[(name, verdict.technique)] = True

    oracle = enumerate_oracle(sites, settings.techniques, settings.extension)
    disagreements = [
        (name, technique, oracle[(name, technique)], scanned[(name, technique)])
        for (name, technique) in sorted(scanned, key=lambda k: (k[0], k[1].value))
        if oracle[(name, technique)] != scanned[(name, technique)]
    ]
    return SelfcheckReport(
        sites=[site.name for site in sites],
        oracle=oracle,
        scanned=scanned,
        disagreements=disagreements,
        verdicts=run.verdicts,
        inconclusive=inconclusive,
        elapsed_seconds=time.monotonic() - started,
        requests_with_cookie=sum(cookies),
        requests_without_cookie=len(cookies) - sum(cookies),
    )
