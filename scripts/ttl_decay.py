#!/usr/bin/env python3
"""Sweep attacker delays against a cached leak to show the exploitation
window closing as entries expire. Fully deterministic: delays advance the
lab's simulated clock, not wall time."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wcdscan.crawler import site_config_from_dict  # noqa: E402
from wcdscan.http_engine import Identity, Role, Transport, fetch  # noqa: E402
from wcdscan.lab import catalog  # noqa: E402
from wcdscan.lab.server import LabServer  # noqa: E402
from wcdscan.pipeline import ScanSettings, scan_site  # noqa: E402
from wcdscan.url_toolkit import PathConfusionTechnique  # noqa: E402

DELAYS = [0, 1800, 3600, 7200, 86400]


def main() -> int:
    site = catalog.classic_site()
    config = site_config_from_dict(site.host, (), catalog.seed_entry(site))
    account = f"http://{site.host}/account.php"
    server = LabServer([site]).start()
    transport = Transport(resolve_overrides=server.resolve_overrides())
    controller = Identity(role=Role.UNAUTHENTICATED)

    def control(path: str) -> None:
        fetch(controller, f"http://{site.host}{path}", settings.rate_limiter, transport)

    def advance(seconds: float) -> None:
        control(f"/_lab/advance?seconds={seconds}")

    # One limiter paces the control calls, the logins, the crawl and the
    # attacks alike, so the delay is set on this object, not on a copy.
    settings = ScanSettings(
        techniques=(PathConfusionTechnique.PATH_PARAMETER,),
        rate=1000,
        seed=0,
        transport=transport,
        delay_fn=advance,
    )

    print(f"default TTL: {site.cache_profile.default_ttl}s")
    print(f"{'attacker delay (s)':>20}{'exploitable':>14}")
    try:
        for delay in DELAYS:
            control("/_lab/reset")
            settings.attacker_delay = delay
            result = scan_site(config, settings)
            verdict = next(v for v in result.verdicts if v.page == account)
            print(f"{delay:>20}{str(verdict.vulnerable):>14}")
    finally:
        transport.close()
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
