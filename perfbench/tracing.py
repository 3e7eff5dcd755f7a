"""Span tracing from outside the program: wrappers rebound at import sites.

A traced round replaces each public function named in ``SPANS`` with a
wrapper that records a span (name, start, end, parent span, test id) and
restores the originals afterwards. The wrapper is bound wherever a
``wcdscan`` module holds the original object, because callers look the
function up in their own module namespace (``detector.fetch``,
``crawler.fetch`` and ``http_engine.fetch`` are three bindings of one
function). Spans stay in memory until :meth:`Tracer.write` runs.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from wcdscan import crawler, detector, http_engine, pipeline, reporting, url_toolkit

# Span name -> (owner, attribute) of the original definition.
SPANS: dict[str, tuple[object, str]] = {
    "pipeline.scan_site": (pipeline, "scan_site"),
    "http_engine.fetch": (http_engine, "fetch"),
    "http_engine.maintain_session": (http_engine, "maintain_session"),
    "http_engine.RateLimiter.acquire": (http_engine.RateLimiter, "acquire"),
    "crawler.crawl_domain": (crawler, "crawl_domain"),
    "crawler.extract_links": (crawler, "extract_links"),
    "url_toolkit.parse_url": (url_toolkit, "parse_url"),
    "url_toolkit.group_key": (url_toolkit, "group_key"),
    "url_toolkit.make_attack_url": (url_toolkit, "make_attack_url"),
    "detector.run_wcd_test": (detector, "run_wcd_test"),
    "detector.extract_secrets": (detector, "extract_secrets"),
    "detector.responses_identical": (detector, "responses_identical"),
    "detector.extract_markers": (detector, "extract_markers"),
    "reporting.cdn_label": (reporting, "cdn_label"),
    "reporting.write_records": (reporting, "write_records"),
    "reporting.read_records": (reporting, "read_records"),
    "reporting.aggregate": (reporting, "aggregate"),
    "reporting.render_table": (reporting, "render_table"),
}

LAB_EVENTS = ("hit", "miss_stored", "miss_not_stored", "expired")
_TEST_SPAN = "detector.run_wcd_test"


def binding_sites(original) -> list[tuple[object, str]]:
    """Every (module, name) in the loaded ``wcdscan`` package bound to
    ``original``; methods are bound on their class alone."""
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "wcdscan" or mod_name.startswith("wcdscan.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


class Tracer:
    """Collects spans and per-layer counts from traced rounds."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[str, int] = dict.fromkeys(
            ["http_engine.bytes_received", "detector.vulnerable", "crawler.pages_seen",
             "crawler.groups"] + [f"lab.event.{e}" for e in LAB_EVENTS],
            0,
        )
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals = {name: getattr(owner, attr) for name, (owner, attr) in SPANS.items()}

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def _observe(self, name: str, result) -> None:
        """Counts taken where the work happens, from a span's return value."""
        if name == "http_engine.fetch":
            self._count("http_engine.bytes_received", len(result.body))
            event = result.header("X-Lab-Event")
            if event in LAB_EVENTS:
                self._count(f"lab.event.{event}", 1)
        elif name == _TEST_SPAN:
            self._count("detector.vulnerable", int(result.vulnerable))
        elif name == "crawler.crawl_domain":
            self._count("crawler.pages_seen", result.pages_seen)
            self._count("crawler.groups", len(result.pages))

    def _wrap(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        observe = name in ("http_engine.fetch", _TEST_SPAN, "crawler.crawl_domain")

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent, test_id = stack[-1]
            else:
                parent, test_id = -1, span_id
            if name == _TEST_SPAN:
                test_id = span_id
            stack.append((span_id, test_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, test_id))
            if observe:
                self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every import site of every spanned function, then restore."""
        rebound: list[tuple[object, str, object]] = []
        try:
            for name, (owner, attr) in SPANS.items():
                original = self._originals[name]
                wrapper = self._wrap(name, original)
                sites = [(owner, attr)] if isinstance(owner, type) else binding_sites(original)
                for site, site_attr in sites:
                    rebound.append((site, site_attr, original))
                    setattr(site, site_attr, wrapper)
            yield self
        finally:
            for site, site_attr, original in reversed(rebound):
                setattr(site, site_attr, original)

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-span calls, total and self time per traced round, plus the
        p50/p99 duration over every recorded call."""
        rounds = max(1, rounds)
        child_time: dict[int, float] = {}
        for _sid, _name, start, end, parent, _tid in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        durations: dict[str, list[float]] = {name: [] for name in SPANS}
        self_time: dict[str, float] = dict.fromkeys(SPANS, 0.0)
        for sid, name, start, end, _parent, _tid in self.spans:
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time.get(sid, 0.0)
        out: dict[str, float] = {}
        for name in SPANS:
            values = sorted(durations[name])
            out[f"{name}.calls"] = len(values) / rounds
            out[f"{name}.total_s"] = sum(values) / rounds
            out[f"{name}.self_s"] = self_time[name] / rounds
            out[f"{name}.p50_us"] = statistics.median(values) * 1e6 if values else 0.0
            out[f"{name}.p99_us"] = _percentile(values, 0.99) * 1e6
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span, written once when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\ttest\n")
            for sid, name, start, end, parent, tid in sorted(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.7f}\t{end:.7f}\t{parent}\t{tid}\n")


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
