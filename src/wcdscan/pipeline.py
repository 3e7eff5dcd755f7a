"""End-to-end orchestration: seed pool -> crawl -> attack -> verdicts.

Sites are scanned by a small worker pool (one worker per domain at a time);
within a site everything is sequential, which keeps session state simple and
pacing honest. The scanner core imports nothing from ``wcdscan.lab``; the
lab's selfcheck lives in :mod:`wcdscan.lab.selfcheck`.
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field

from .crawler import (
    SeedPool,
    SiteConfig,
    crawl_domain,
    filter_marked_pages,
)
from .detector import (
    MarkerSet,
    ScanSettings,
    ScanVerdict,
    WcdTestConfig,
    inconclusive_verdict,
    run_wcd_test,
)
from .http_engine import AuthFailure, Identity, Role, maintain_session
from .reporting import cdn_label
from .url_toolkit import RandomNameGenerator

log = logging.getLogger(__name__)


@dataclass
class SiteScanResult:
    """One site's outcome: its verdicts, or the error that stopped it."""

    site: SiteConfig
    error: str | None = None
    verdicts: list[ScanVerdict] = field(default_factory=list)


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
    """Crawl and attack one site. The site's WcdTestConfig holds its scan
    state, the crawl's bodies with their tokenizations and the secret
    sweeps, and is dropped on return: the result keeps only the verdicts."""
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
            return SiteScanResult(site=site, error=str(exc))

        config = WcdTestConfig(settings, names=_names_for(site, settings), label_fn=cdn_label)
        surface = crawl_domain(
            site,
            victim,
            site.budget or settings.budget,
            rate_limiter=settings.rate_limiter,
            transport=settings.transport,
            seed=settings.seed or 0,
            respect_robots=settings.respect_robots,
            html_scans=config.html_scans,
        )
        markers = site.markers or MarkerSet([])
        if settings.mode == "marker-gated":
            surface = filter_marked_pages(
                surface, markers, victim,
                rate_limiter=settings.rate_limiter, transport=settings.transport,
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
        return SiteScanResult(site=site, verdicts=verdicts)
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
                results.append(SiteScanResult(site=site, error=str(exc)))
    results.sort(key=lambda r: r.site.primary_domain)
    return ScanRunResult(site_results=results)
