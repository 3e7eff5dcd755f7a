"""Selfcheck: scan the in-process lab and diff every (site, technique)
verdict against the ground-truth oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..crawler import SeedPool, site_config_from_dict
from ..detector import ScanSettings, ScanVerdict
from ..http_engine import Transport
from ..pipeline import scan_pool
from ..url_toolkit import PathConfusionTechnique
from . import catalog
from .oracle import enumerate_oracle
from .server import LabServer
from .sim import SimSite


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
    site_errors: list[tuple[str, str]]  # (site name, the error that stopped its scan)
    elapsed_seconds: float
    # Requests the lab logged during the run, with and without a Cookie header.
    requests_with_cookie: int
    requests_without_cookie: int
    lab_connections: int  # connections the lab accepted during the run

    @property
    def requests(self) -> int:
        return self.requests_with_cookie + self.requests_without_cookie

    @property
    def attacker_steps_skipped(self) -> int:
        """Finished tests that sent no attacker step: the victim body held
        nothing to leak."""
        return sum(not v.inconclusive and v.attacker_status == 0 for v in self.verdicts)

    @property
    def ok(self) -> bool:
        return not self.disagreements and self.inconclusive == 0 and not self.site_errors


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
    simulation of the site's protected marker page. A site whose scan
    stopped with an error (a failed login, say) is named in ``site_errors``
    and fails the check, as a disagreement does.
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
        connections = server.connections_accepted
    finally:
        server.stop()

    host_to_name = {site.host: site.name for site in sites}
    scanned: dict[tuple[str, PathConfusionTechnique], bool] = {
        (site.name, technique): False
        for site in sites
        for technique in settings.techniques
    }
    inconclusive = 0
    site_errors: list[tuple[str, str]] = []
    for result in run.site_results:
        name = host_to_name[result.site.primary_domain]
        if result.error:
            site_errors.append((name, result.error))
        for verdict in result.verdicts:
            if verdict.inconclusive:
                inconclusive += 1
            elif verdict.vulnerable:
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
        site_errors=site_errors,
        elapsed_seconds=time.monotonic() - started,
        requests_with_cookie=sum(cookies),
        requests_without_cookie=len(cookies) - sum(cookies),
        lab_connections=connections,
    )
