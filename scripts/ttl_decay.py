#!/usr/bin/env python3
"""Sweep attacker delays against a cached leak to show the exploitation
window closing as entries expire. Fully deterministic: delays advance the
lab's simulated clock, not wall time."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wcdscan.detector import (  # noqa: E402
    MarkerSet,
    ScanSettings,
    WcdTestConfig,
    run_wcd_test,
)
from wcdscan.http_engine import (  # noqa: E402
    Identity,
    LoginDescriptor,
    Role,
    Transport,
    fetch,
    maintain_session,
)
from wcdscan.lab import catalog  # noqa: E402
from wcdscan.lab.server import LabServer  # noqa: E402
from wcdscan.url_toolkit import (  # noqa: E402
    PathConfusionTechnique,
    RandomNameGenerator,
    parse_url,
)

DELAYS = [0, 1800, 3600, 7200, 86400]


def main() -> int:
    site = catalog.classic_site()
    server = LabServer([site]).start()
    transport = Transport(resolve_overrides=server.resolve_overrides())
    controller = Identity(role=Role.UNAUTHENTICATED)

    def control(path: str) -> None:
        fetch(controller, f"http://{site.host}{path}", settings.rate_limiter, transport)

    def advance(seconds: float) -> None:
        control(f"/_lab/advance?seconds={seconds}")

    # One limiter paces the control calls, the logins and the attacks alike.
    settings = ScanSettings(rate=1000, transport=transport, delay_fn=advance)

    print(f"default TTL: {site.cache_profile.default_ttl}s")
    print(f"{'attacker delay (s)':>20}{'exploitable':>14}")
    try:
        for delay in DELAYS:
            control("/_lab/reset")
            victim = Identity(
                role=Role.VICTIM,
                credentials=LoginDescriptor(
                    url=f"http://{site.host}/login",
                    fields={"username": "victim", "password": catalog.VICTIM_PASSWORD},
                ),
            )
            attacker = Identity(
                role=Role.ATTACKER,
                credentials=LoginDescriptor(
                    url=f"http://{site.host}/login",
                    fields={"username": "attacker", "password": catalog.ATTACKER_PASSWORD},
                ),
            )
            settings.attacker_delay = delay
            maintain_session(victim, settings.rate_limiter, transport)
            maintain_session(attacker, settings.rate_limiter, transport)
            config = WcdTestConfig(settings, names=RandomNameGenerator(seed=delay))
            verdict = run_wcd_test(
                parse_url(f"http://{site.host}/account.php"),
                PathConfusionTechnique.PATH_PARAMETER,
                victim,
                attacker,
                MarkerSet(list(catalog.victim_markers(site.name).items())),
                config,
            )
            print(f"{delay:>20}{str(verdict.vulnerable):>14}")
    finally:
        transport.close()
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
