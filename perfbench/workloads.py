"""The four workloads: set-up, timed rounds, correctness gates and metrics.

Every workload is a closed loop with one generator process: a round starts
only after the previous one has finished, and rounds repeat until the run's
time is spent. Each round starts from an empty lab cache (``/_lab/reset`` on
every host it touches) because a fixed scan seed repeats its nonces. With
tracing on, untraced and traced rounds alternate over the same inputs, so
the traced rounds give the per-layer split and the pair gives the tracing
overhead.

The host's speed drifts: a fixed task's time varies by half or more over
minutes, far beyond what a run's median can absorb. A fixed stdlib task,
:func:`calibration_s`, is therefore timed before and after every round and
every set-up, and the contract timings (``setup_s``, ``items_per_s``) are
scaled to the speed at which that task takes ``CALIBRATION_REFERENCE_S``.
The unscaled figures are printed as well.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from wcdscan import crawler, pipeline, reporting
from wcdscan.crawler import SiteConfig
from wcdscan.http_engine import Identity, RateLimiter, Role, Transport
from wcdscan.lab import catalog
from wcdscan.lab.oracle import enumerate_oracle

import gates
import inputs
from lab import LabProcess
from tracing import LAB_EVENTS, Tracer

RATE = 500.0  # requests/s/host, as selfcheck uses; pacing never binds
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
SETUP_REPEATS = 3
CALIBRATION_REFERENCE_S = 0.020  # about the calibration task's median on a 2-core VM

# Per-workload input sizes; the smoke sizes keep the benchmark's own tests short.
SIZES = {
    "matrix-scan": {"shards": 16, "sites": None},
    "large-page-scan": {"batches": 2, "per_batch": 5},
    "sitemap-crawl": {"copies": 12},
    "report-roundtrip": {"records": 100_000, "chunk": 20_000},
}
SMOKE_SIZES = {
    "matrix-scan": {"shards": 1, "sites": 3},
    "large-page-scan": {"batches": 1, "per_batch": 2},
    "sitemap-crawl": {"copies": 2},
    "report-roundtrip": {"records": 2_000, "chunk": 1_000},
}

# End-to-end rates named per workload, printed next to the contract metrics.
NAMED_UNITS = {
    "tests_per_s": "tests/s",
    "requests_per_s": "req/s",
    "crawl_pages_per_s": "pages/s",
    "write_records_per_s": "records/s",
    "report_records_per_s": "records/s",
    "error_rate": "failed/attempted",
}

SITEMAP_GROUPS = 7
SITEMAP_PAGES = 1200


@dataclass
class RunSpec:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: dict
    work_dir: Path
    src_dir: Path


@dataclass
class RoundResult:
    wall_s: float
    items: int
    traced: bool
    rates: dict[str, float] = field(default_factory=dict)
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    slowdown: float = 1.0  # host slowdown against the reference speed (above 1 = slower)

    @property
    def rate(self) -> float:
        return self.items / self.wall_s


@dataclass
class Outcome:
    """What a run reports: metrics, the operations attempted and failed,
    and every correctness problem found."""

    e2e: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)  # unscaled timings and slowdown
    named: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    round_rates: list[float] = field(default_factory=list)  # items/s of each round, in order


def calibration_s() -> float:
    """Time of a fixed stdlib task shaped like the benchmark's own work
    (JSON encode/decode, string splitting, dict and tuple building); it
    does not touch the program under test."""
    start = time.perf_counter()
    docs = [
        {"page": f"https://h{i}.example/p?q={i}", "n": i, "tags": ["a", "b", str(i)],
         "nested": {"x": i * 1.5, "y": None}}
        for i in range(600)
    ]
    for _ in range(3):
        text = "\n".join(json.dumps(doc) for doc in docs)
        index: dict[str, list] = {}
        for doc in map(json.loads, text.splitlines()):
            host = doc["page"].split("//", 1)[1].split("/", 1)[0]
            index.setdefault(host, []).append((doc["n"], tuple(doc["tags"])))
    return time.perf_counter() - start


def with_slowdown(run):
    """Run ``run()`` between two calibrations; return its result and the
    host's slowdown against the reference speed (above 1 = slower)."""
    before = calibration_s()
    result = run()
    return result, (before + calibration_s()) / (2 * CALIBRATION_REFERENCE_S)


def timed_rounds(spec: RunSpec, run_round) -> list[RoundResult]:
    """Run rounds until ``spec.seconds`` have passed, each between two
    calibrations. With tracing, rounds alternate untraced/traced and at
    least one of each runs."""
    deadline = time.monotonic() + spec.seconds
    rounds: list[RoundResult] = []
    while True:
        traced = spec.trace and len(rounds) % 2 == 1
        result, slowdown = with_slowdown(lambda: run_round(len(rounds), traced))
        result.slowdown = slowdown
        rounds.append(result)
        if time.monotonic() >= deadline and (not spec.trace or len(rounds) >= 2):
            return rounds


def timed_setup(make, out: Outcome):
    """Set up ``SETUP_REPEATS`` times, keep the last result and close the
    others; record the median set-up time, unscaled and scaled."""
    raw, scaled, kept = [], [], None
    calibration_s()  # warm up: the first call also pays for first use of json
    for _ in range(SETUP_REPEATS):
        if kept is not None:
            kept.close()

        def make_timed():
            start = time.perf_counter()
            return make(), time.perf_counter() - start

        (kept, seconds), slowdown = with_slowdown(make_timed)
        raw.append(seconds)
        scaled.append(seconds / slowdown)
    out.e2e["setup_s"] = statistics.median(scaled)
    out.raw["setup_s"] = statistics.median(raw)
    return kept


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LabSetup:
    """Generated scenario file plus the lab child serving it."""

    def __init__(self, spec: RunSpec, sites):
        spec.work_dir.mkdir(parents=True, exist_ok=True)
        self.path = spec.work_dir / f"scenarios-{os.getpid()}.json"
        catalog.dump_scenarios(sites, str(self.path))
        self.lab = LabProcess(self.path, spec.src_dir)
        self.sites = sites

    def close(self):
        usage = self.lab.stop()
        self.path.unlink(missing_ok=True)
        return usage


def _arrivals(lab: LabProcess, hosts) -> dict[str, list[dict]]:
    return {host: lab.request_log(host) for host in hosts}


def _finish(spec: RunSpec, out: Outcome, rounds: list[RoundResult], tracer: Tracer | None,
            lab_usage=None, scan_walls=None) -> Outcome:
    """Fold rounds into the reported metrics."""
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    out.round_rates = [r.rate for r in rounds]
    out.attempted = sum(r.attempted for r in rounds)
    out.failed = sum(r.failed for r in rounds)
    out.e2e["items_per_s"] = statistics.median(r.rate * r.slowdown for r in untraced)
    out.raw["items_per_s"] = statistics.median(r.rate for r in untraced)
    out.raw["slowdown"] = statistics.median(r.slowdown for r in rounds)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    for key in untraced[0].rates:
        out.named[key] = statistics.median(r.rates[key] for r in untraced)
    out.named["error_rate"] = out.failed / max(1, out.attempted)
    if tracer is None:
        return out

    layers = tracer.summary(len(traced))
    n = len(traced)
    for key, value in tracer.counts.items():
        layers[key] = value / n
    tests = layers["detector.run_wcd_test.calls"]
    sweeps = layers["detector.extract_secrets.calls"]
    layers["detector.sweep_share"] = sweeps / tests if tests else 0.0
    busy = 0.0
    if scan_walls:
        busy = layers["pipeline.scan_site.total_s"] * n / (sum(scan_walls) * WORKERS)
    layers["pipeline.worker_busy_share"] = busy
    requests = sum(r.requests for r in rounds)
    layers["lab.requests"] = sum(r.requests for r in traced) / n
    if lab_usage is not None and requests:
        layers["lab.cpu_ms_per_request"] = (
            (lab_usage.cpu_s - lab_usage.cpu_at_listen_s) * 1000.0 / requests
        )
        layers["lab.peak_rss_mb"] = lab_usage.peak_rss_mb
    else:
        layers["lab.cpu_ms_per_request"] = 0.0
        layers["lab.peak_rss_mb"] = 0.0
    # Unscaled: the pairs are adjacent in time, and the spans held in memory
    # slow the calibration task (its allocations trigger collections).
    layers["trace_overhead"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced)
    )
    out.layers = layers
    tracer.write(spec.work_dir / f"trace-{spec.workload}.tsv")
    return out


# ------------------------------------------------------------------- scans


class ScanSetup(LabSetup):
    """A lab plus the scanner-side seed pool of each round's batch of sites."""

    def __init__(self, spec: RunSpec, batches):
        super().__init__(spec, [site for batch in batches for site in batch])
        self.batches = batches
        self.pools = [inputs.pool_for(batch) for batch in batches]


def _scan_workload(spec: RunSpec, make_batches) -> Outcome:
    """Shared body of the two scan workloads: ``make_batches()`` generates
    the site lists that successive rounds scan, in turn."""
    out = Outcome()

    def make() -> ScanSetup:
        batches = make_batches()
        # Traced runs repeat one batch, so their counts compare exactly.
        return ScanSetup(spec, batches[:1] if spec.trace else batches)

    setup = timed_setup(make, out)
    tracer = Tracer() if spec.trace else None
    try:
        batches, pools = setup.batches, setup.pools
        oracle = enumerate_oracle(setup.sites)
        window = RateLimiter(rate=RATE).window
        lab = setup.lab
        scan_walls: list[float] = []
        events_per_round: list[dict] = []

        def run_round(index: int, traced: bool) -> RoundResult:
            batch, pool = batches[index % len(batches)], pools[index % len(pools)]
            hosts = [site.host for site in batch]
            lab.reset(hosts)
            settings = pipeline.ScanSettings(
                rate=RATE,
                workers=WORKERS,
                seed=spec.seed,
                transport=Transport(resolve_overrides=lab.resolve_overrides(hosts)),
            )
            before = dict(tracer.counts) if traced else None
            with tracer.installed() if traced else nullcontext():
                start = time.perf_counter()
                run = pipeline.scan_pool(pool, settings)
                wall = time.perf_counter() - start
            if traced:
                scan_walls.append(wall)
                events_per_round.append(
                    {e: tracer.counts[f"lab.event.{e}"] - before[f"lab.event.{e}"]
                     for e in LAB_EVENTS}
                )
            logs = _arrivals(lab, hosts)
            requests = sum(len(entries) for entries in logs.values())
            host_to_name = {site.host: site.name for site in batch}
            out.problems.extend(gates.oracle_problems(run, host_to_name, oracle))
            out.problems.extend(gates.pacing_problems(
                {h: [e["t"] for e in entries] for h, entries in logs.items()}, RATE, window))
            tests = len(run.verdicts)
            failed = sum(v.inconclusive for v in run.verdicts) + len(run.errors)
            return RoundResult(
                wall_s=wall, items=tests, traced=traced, requests=requests,
                attempted=tests + len(run.errors), failed=failed,
                rates={"tests_per_s": tests / wall, "requests_per_s": requests / wall},
            )

        rounds = timed_rounds(spec, run_round)
    finally:
        usage = setup.close()
    if any(events != events_per_round[0] for events in events_per_round):
        out.problems.append(f"lab events differ between identical rounds: {events_per_round}")
    return _finish(spec, out, rounds, tracer, usage, scan_walls)


def matrix_scan(spec: RunSpec) -> Outcome:
    size = spec.sizes

    def batches():
        sites = inputs.matrix_catalog()
        sites = sites[-size["sites"]:] if size["sites"] else sites
        return inputs.matrix_shards(sites, size["shards"], spec.seed)

    return _scan_workload(spec, batches)


def large_page_scan(spec: RunSpec) -> Outcome:
    return _scan_workload(
        spec, lambda: inputs.large_page_batches(spec.sizes["batches"],
                                                spec.sizes["per_batch"], spec.seed)
    )


# ------------------------------------------------------------------- crawl


class _WarningCounter(logging.Handler):
    """Counts the crawler's fetch-failure warnings."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def sitemap_crawl(spec: RunSpec) -> Outcome:
    out = Outcome()
    setup = timed_setup(
        lambda: LabSetup(spec, inputs.sitemap_copies(spec.sizes["copies"], spec.seed)), out
    )
    tracer = Tracer() if spec.trace else None
    warnings = _WarningCounter()
    crawl_log = logging.getLogger(crawler.__name__)
    crawl_log.addHandler(warnings)
    try:
        lab = setup.lab
        hosts = [site.host for site in setup.sites]
        transport = Transport(resolve_overrides=lab.resolve_overrides(hosts))
        window = RateLimiter(rate=RATE).window

        def run_round(index: int, traced: bool) -> RoundResult:
            lab.reset(hosts)
            limiter = RateLimiter(rate=RATE)
            failures_before = warnings.count
            with tracer.installed() if traced else nullcontext():
                start = time.perf_counter()
                surfaces = [
                    crawler.crawl_domain(
                        SiteConfig(primary_domain=host), Identity(role=Role.VICTIM),
                        rate_limiter=limiter, transport=transport, seed=spec.seed,
                    )
                    for host in hosts
                ]
                wall = time.perf_counter() - start
            logs = _arrivals(lab, hosts)
            requests = sum(len(entries) for entries in logs.values())
            out.problems.extend(gates.crawl_problems(surfaces, SITEMAP_GROUPS, SITEMAP_PAGES))
            out.problems.extend(gates.logout_problems(logs))
            out.problems.extend(gates.pacing_problems(
                {h: [e["t"] for e in entries] for h, entries in logs.items()}, RATE, window))
            pages = sum(surface.pages_seen for surface in surfaces)
            return RoundResult(
                wall_s=wall, items=pages, traced=traced, requests=requests,
                attempted=pages, failed=warnings.count - failures_before,
                rates={"crawl_pages_per_s": pages / wall, "requests_per_s": requests / wall},
            )

        rounds = timed_rounds(spec, run_round)
    finally:
        crawl_log.removeHandler(warnings)
        usage = setup.close()
    return _finish(spec, out, rounds, tracer, usage)


# -------------------------------------------------------------- reporting


class _VerdictSetup:
    def __init__(self, spec: RunSpec):
        self.data = inputs.synthetic_verdicts(spec.sizes["records"], spec.seed)

    def close(self):
        self.data = None


def report_roundtrip(spec: RunSpec) -> Outcome:
    out = Outcome()
    setup = timed_setup(lambda: _VerdictSetup(spec), out)
    verdicts = setup.data.verdicts
    site_map = reporting.build_site_map(setup.data.hosts)
    setup.close()
    size = spec.sizes["chunk"]
    chunks = [verdicts[i:i + size] for i in range(0, len(verdicts), size)]
    if spec.trace:
        chunks = chunks[:1]  # traced runs repeat one chunk: counts compare exactly
    expected: dict[int, tuple] = {}
    tracer = Tracer() if spec.trace else None
    spec.work_dir.mkdir(parents=True, exist_ok=True)
    path = spec.work_dir / f"verdicts-{os.getpid()}.jsonl"

    def run_round(index: int, traced: bool) -> RoundResult:
        chunk = chunks[index % len(chunks)]
        with tracer.installed() if traced else nullcontext():
            start = time.perf_counter()
            with open(path, "w", encoding="utf-8") as fh:
                reporting.write_records(chunk, fh)
            written = time.perf_counter()
            with open(path, "r", encoding="utf-8") as fh:
                restored = reporting.read_records(fh)
            stats = reporting.aggregate(restored, site_map)
            reporting.render_table(stats)
            end = time.perf_counter()
        failed, problems = gates.roundtrip_problems(chunk, restored)
        out.problems.extend(problems)
        key = index % len(chunks)
        if key not in expected:
            expected[key] = gates.direct_totals(chunk, site_map)
        if (stats.tested, stats.vulnerable) != expected[key]:
            out.problems.extend(gates.aggregate_problems(stats, chunk, site_map))
        n = len(chunk)
        return RoundResult(
            wall_s=end - start, items=n, traced=traced, attempted=n, failed=failed,
            rates={"write_records_per_s": n / (written - start),
                   "report_records_per_s": n / (end - written)},
        )

    try:
        rounds = timed_rounds(spec, run_round)
    finally:
        path.unlink(missing_ok=True)
    return _finish(spec, out, rounds, tracer)


WORKLOADS = {
    "matrix-scan": matrix_scan,
    "large-page-scan": large_page_scan,
    "sitemap-crawl": sitemap_crawl,
    "report-roundtrip": report_roundtrip,
}
