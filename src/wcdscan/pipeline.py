"""End-to-end orchestration: seed pool -> crawl -> attack -> verdicts.

Sites are scanned by a small pool of worker threads (one worker per domain at
a time); within a site everything is sequential, which keeps session state
simple and pacing honest. A worker's keep-alive connections last for the
whole run: the next site it takes reuses those that the site routes to. The
scanner core imports nothing from ``wcdscan.lab``; the lab's selfcheck lives
in :mod:`wcdscan.lab.selfcheck`.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass, field

from .crawler import (
    SeedPool,
    SiteConfig,
    crawl_domain,
    filter_marked_pages,
)
from .detector import (
    ScanSettings,
    ScanVerdict,
    WcdTestConfig,
    inconclusive_verdict,
    run_wcd_test,
)
from .http_engine import AuthFailure, Identity, NetworkError, Role, maintain_session
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
    sweeps, and is dropped on return: the result keeps only the verdicts.
    The connections it opens stay in the calling thread's pool of
    ``settings.transport``; closing them is the caller's part."""
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
    if settings.mode == "marker-gated":
        surface = filter_marked_pages(
            surface, site.markers, victim,
            rate_limiter=settings.rate_limiter, transport=settings.transport,
        )

    verdicts = []
    for page in surface.pages:
        for technique in settings.techniques:
            try:
                _log_in((victim, attacker), settings)
            except (AuthFailure, NetworkError) as exc:  # costs this test, not the site
                verdicts.append(
                    inconclusive_verdict(page, technique, f"{type(exc).__name__}: {exc}")
                )
                continue
            verdicts.append(
                run_wcd_test(page, technique, victim, attacker, site.markers, config)
            )
    return SiteScanResult(site=site, verdicts=verdicts)


def scan_pool(pool: SeedPool, settings: ScanSettings) -> ScanRunResult:
    """Scan every site in the pool with ``settings.workers`` threads (fewer
    when there are fewer sites), each taking the next unscanned site until
    none is left; every worker paces its requests with the settings' one
    rate limiter. A site whose scan raises is recorded with that error.

    A worker's connections outlive its sites: before each site it closes
    those that none of the site's hosts route to, and it closes the rest
    when it runs out of sites. Results are sorted by primary domain."""
    sites = iter(pool.sites)
    lock = threading.Lock()
    results: list[SiteScanResult] = []

    def work() -> None:
        try:
            while True:
                with lock:
                    site = next(sites, None)
                if site is None:
                    return
                hosts = (site.primary_domain, *site.subdomains)
                try:
                    settings.transport.close(keep=[f"{site.scheme}://{h}/" for h in hosts])
                    result = scan_site(site, settings)
                except Exception as exc:  # a site crash must not kill the run
                    log.exception("site %s scan failed", site.primary_domain)
                    result = SiteScanResult(site=site, error=str(exc))
                with lock:
                    results.append(result)
        finally:
            settings.transport.close()

    workers = [
        threading.Thread(target=work, name=f"scan-worker-{i}")
        for i in range(min(settings.workers, len(pool.sites)))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    results.sort(key=lambda r: r.site.primary_domain)
    return ScanRunResult(site_results=results)
