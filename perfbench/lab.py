"""The cache lab as a child process, driven over its HTTP control endpoints.

The lab runs as ``python -m wcdscan lab --scenarios FILE --port 0`` so that
it does not share an interpreter (and its lock) with the scanner under test.
Control calls use ``http.client`` directly, never the scanner's ``fetch``, so
they are neither traced nor counted as scanner work.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_LISTENING = re.compile(r"lab listening on ([0-9.]+):(\d+)")

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class LabError(RuntimeError):
    """The lab child failed to start, answer or stop."""


@dataclass(frozen=True)
class LabUsage:
    """Resource use of the lab child, from its rusage once it has exited."""

    cpu_s: float
    cpu_at_listen_s: float
    peak_rss_mb: float


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU of a live process, from /proc (0.0 where absent)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class LabProcess:
    """One lab child serving the sites of a scenario file on a free port."""

    def __init__(self, scenarios: Path, src_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        # `wcdscan lab` prints its listening line and then sleeps; without
        # unbuffered output the line stays in the child's buffer on a pipe.
        env["PYTHONUNBUFFERED"] = "1"
        self._proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "wcdscan", "lab", "--scenarios", str(scenarios),
             "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self.address, self.port = self._await_listening()
        self.cpu_at_listen_s = _proc_cpu_s(self._proc.pid)
        self.usage: LabUsage | None = None

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = self._proc.stdout.fileno()
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            seen += chunk
            match = _LISTENING.search(seen.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
        self.kill()
        raise LabError("lab did not start listening:\n" + seen[-4000:].decode("utf-8", "replace"))

    def resolve_overrides(self, hosts) -> dict[str, tuple[str, int]]:
        return {host: (self.address, self.port) for host in hosts}

    def _control(self, host: str, path: str) -> dict:
        conn = http.client.HTTPConnection(self.address, self.port, timeout=30)
        try:
            conn.request("GET", path, headers={"Host": host})
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            raise LabError(f"{host}{path}: HTTP {resp.status}")
        return json.loads(body)

    def reset(self, hosts) -> None:
        """Empty the cache, sessions, clock and request log of each host."""
        for host in hosts:
            self._control(host, "/_lab/reset")

    def request_log(self, host: str) -> list[dict]:
        return self._control(host, "/_lab/requests")["requests"]

    def stop(self) -> LabUsage:
        """Interrupt the child, wait for it and return its rusage."""
        if self.usage is not None:
            return self.usage
        proc = self._proc
        fd = proc.stdout.fileno()
        os.kill(proc.pid, signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            # Drain what the child prints so it never blocks on a full pipe.
            if select.select([fd], [], [], 0.01)[0]:
                os.read(fd, 65536)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.usage = LabUsage(
            cpu_s=usage.ru_utime + usage.ru_stime,
            cpu_at_listen_s=self.cpu_at_listen_s,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        return self.usage

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()
