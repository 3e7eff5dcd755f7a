"""Correctness gates. Each returns a list of problems; an empty list passes.

A benchmark run that reports any problem fails: its numbers describe a
program that gave wrong answers, so they are not comparable.
"""

from __future__ import annotations

from collections import deque

from wcdscan.reporting import AggregateStats, Counts3
from wcdscan.url_toolkit import MalformedUrl, PathConfusionTechnique, parse_url


def scanned_by_site(verdicts, host_to_name: dict[str, str]) -> tuple[dict, int]:
    """(site name, technique) -> any page vulnerable, plus the inconclusive
    count: the scanner-side view that selfcheck diffs against the oracle."""
    scanned: dict[tuple[str, PathConfusionTechnique], bool] = {}
    inconclusive = 0
    for verdict in verdicts:
        name = host_to_name[parse_url(verdict.page).host]
        key = (name, verdict.technique)
        if verdict.inconclusive:
            inconclusive += 1
            scanned.setdefault(key, False)
            continue
        scanned[key] = scanned.get(key, False) or verdict.vulnerable
    return scanned, inconclusive


def oracle_problems(run, host_to_name: dict[str, str], oracle: dict) -> list[str]:
    """Scan verdicts against the oracle: no disagreement, no inconclusive
    verdict, no site error, and every (site, technique) pair covered."""
    problems = [f"site error {domain}: {error}" for domain, error in run.errors]
    scanned, inconclusive = scanned_by_site(run.verdicts, host_to_name)
    if inconclusive:
        problems.append(f"{inconclusive} inconclusive verdicts")
    names = set(host_to_name.values())
    for (name, technique), expected in oracle.items():
        if name not in names:
            continue
        got = scanned.get((name, technique))
        if got is None:
            problems.append(f"{name}/{technique.value}: no verdict")
        elif got != expected:
            problems.append(f"{name}/{technique.value}: oracle={expected} scanner={got}")
    return problems


def pacing_problems(arrivals: dict[str, list[float]], rate: float, window: float) -> list[str]:
    """No host may see more than ``rate`` arrivals in any ``window`` seconds."""
    limit = max(1, int(rate))
    problems = []
    for host, stamps in arrivals.items():
        recent: deque[float] = deque()
        worst = 0
        for t in sorted(stamps):
            recent.append(t)
            while recent[0] <= t - window:
                recent.popleft()
            worst = max(worst, len(recent))
        if worst > limit:
            problems.append(f"{host}: {worst} arrivals within {window:.2f}s (rate {rate:g})")
    return problems


def crawl_problems(surfaces, expected_groups: int, expected_pages: int) -> list[str]:
    problems = []
    for surface in surfaces:
        if len(surface.pages) != expected_groups:
            problems.append(f"{surface.domain}: {len(surface.pages)} representatives, "
                            f"want {expected_groups}")
        if surface.pages_seen != expected_pages:
            problems.append(f"{surface.domain}: {surface.pages_seen} pages seen, "
                            f"want {expected_pages}")
    return problems


def logout_problems(logs: dict[str, list[dict]]) -> list[str]:
    return [
        f"{host}: logout requested ({entry['method']} {entry['target']})"
        for host, entries in logs.items()
        for entry in entries
        if entry["target"].split("?", 1)[0] == "/logout"
    ]


def roundtrip_problems(original, restored) -> tuple[int, list[str]]:
    """(records that failed to round-trip, problems)."""
    failed = abs(len(original) - len(restored))
    failed += sum(1 for a, b in zip(original, restored) if a != b)
    problems = [f"{failed} of {len(original)} records did not round-trip"] if failed else []
    return failed, problems


def direct_totals(verdicts, site_map: dict[str, str]) -> tuple[Counts3, Counts3]:
    """Tested and vulnerable (pages, domains, sites), counted directly."""
    tested: tuple[set, set, set] = (set(), set(), set())
    vulnerable: tuple[set, set, set] = (set(), set(), set())
    for verdict in verdicts:
        if verdict.inconclusive:
            continue
        try:
            domain = parse_url(verdict.page).host
        except MalformedUrl:
            continue
        if domain not in site_map:
            continue
        for sets in (tested, vulnerable) if verdict.vulnerable else (tested,):
            sets[0].add(verdict.page)
            sets[1].add(domain)
            sets[2].add(site_map[domain])
    return (Counts3(*map(len, tested)), Counts3(*map(len, vulnerable)))


def aggregate_problems(stats: AggregateStats, verdicts, site_map: dict[str, str]) -> list[str]:
    tested, vulnerable = direct_totals(verdicts, site_map)
    problems = []
    if stats.tested != tested:
        problems.append(f"aggregate tested {stats.tested} != direct count {tested}")
    if stats.vulnerable != vulnerable:
        problems.append(f"aggregate vulnerable {stats.vulnerable} != direct count {vulnerable}")
    return problems
