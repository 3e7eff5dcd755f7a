import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from wcdscan import http_engine  # noqa: E402
from wcdscan.detector import ScanSettings  # noqa: E402
from wcdscan.http_engine import RateLimiter, Transport  # noqa: E402
from wcdscan.lab import catalog  # noqa: E402
from wcdscan.lab.server import LabServer  # noqa: E402


def fast_limiter() -> RateLimiter:
    return RateLimiter(rate=10000.0)


def fast_settings(**kwargs) -> ScanSettings:
    """Run settings whose rate limiter is as fast as ``fast_limiter()``."""
    return ScanSettings(rate=10000.0, **kwargs)


def lab_connections_left_open(server: LabServer, grace: float = 5.0) -> int:
    """Client connections the lab still holds after ``grace`` seconds for
    closed ones to be noticed."""
    deadline = time.monotonic() + grace
    while server._httpd.connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(server._httpd.connections)


@pytest.fixture(scope="session")
def support_lab():
    """One lab server carrying the support sites, shared across tests that
    only read from it; tests that mutate state use /_lab/reset."""
    server = LabServer(catalog.support_sites()).start()
    yield server
    server.stop()


@pytest.fixture(scope="session")
def support_transport(support_lab):
    transport = Transport(resolve_overrides=support_lab.resolve_overrides())
    yield transport
    transport.close()


@pytest.fixture()
def limiter():
    return fast_limiter()


@pytest.fixture()
def transport_limits(monkeypatch):
    """Sets ``http_engine.RETRIES`` and, when given, ``http_engine.TIMEOUT``
    for one test, so a dead or silent peer fails fast."""

    def set_limits(retries: int, timeout: float | None = None) -> None:
        monkeypatch.setattr(http_engine, "RETRIES", retries)
        if timeout is not None:
            monkeypatch.setattr(http_engine, "TIMEOUT", timeout)

    return set_limits
