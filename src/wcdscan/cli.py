"""Command-line driver: scan, lab, oracle, report, selfcheck.

Exit codes: 0 clean / all checks passed, 1 vulnerabilities found (scan) or
oracle disagreements (selfcheck), 2 configuration or runtime error.

Each handler imports the modules it runs when it runs, so `wcdscan lab`
loads the lab and wire modules and none of the scanner's.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterator

from .errors import ConfigError, ScenarioError

if TYPE_CHECKING:
    from .url_toolkit import PathConfusionTechnique

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

log = logging.getLogger(__name__)


def _parse_techniques(spec: str) -> tuple[PathConfusionTechnique, ...]:
    from .url_toolkit import PathConfusionTechnique

    if spec.strip().lower() == "all":
        return tuple(PathConfusionTechnique)
    try:
        return tuple(PathConfusionTechnique(t.strip()) for t in spec.split(","))
    except ValueError:
        names = ", ".join(t.value for t in PathConfusionTechnique)
        raise argparse.ArgumentTypeError(
            f"unknown technique in {spec!r}; want 'all' or a comma list of {names}"
        ) from None


def _parse_resolve(entries: list[str]) -> dict[str, tuple[str, int]]:
    overrides = {}
    for entry in entries:
        try:
            host, addr = entry.split("=", 1)
            ip, port_text = addr.rsplit(":", 1)
            port = int(port_text)
        except ValueError as exc:
            raise ConfigError(f"bad --resolve entry {entry!r} (want HOST=IP:PORT)") from exc
        if not 1 <= port <= 65535:
            raise ConfigError(f"bad --resolve entry {entry!r}: port not in 1-65535")
        if ip.startswith("[") and ip.endswith("]"):  # a bracketed IPv6 literal
            ip = ip[1:-1]
        overrides[host.lower()] = (ip, port)
    return overrides


def _positive_rate(text: str) -> float:
    rate = float(text)
    if not 0 < rate < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError(f"rate must be a positive number, got {text!r}")
    return rate


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _port(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in 0-65535, got {text!r}")
    return port


def _delay(text: str) -> float:
    delay = float(text)
    if not 0 <= delay < float("inf"):  # also rejects nan
        raise argparse.ArgumentTypeError(f"delay must be a non-negative number, got {text!r}")
    return delay


def _load_wordlist(path: str) -> tuple[str, ...]:
    return tuple(Path(path).read_text(encoding="utf-8").split())


def _scenario_sites(args):
    from .lab import catalog

    if getattr(args, "scenarios", None):
        return catalog.load_scenarios(args.scenarios)
    which = getattr(args, "catalog", "all")
    if which == "matrix":
        return catalog.matrix_sites()
    if which == "support":
        return catalog.support_sites()
    return catalog.all_sites()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcdscan",
        description="Web cache deception scanner with a deterministic cache lab",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan a seed pool and emit verdicts")
    scan.add_argument("--seeds", required=True, help="seed file: one host per line, optional config ref")
    scan.add_argument("--techniques", type=_parse_techniques, default="all",
                      help="'all' or comma list of technique names")
    scan.add_argument("--budget", type=_positive_int, default=500, help="unique page groups per domain")
    scan.add_argument("--rate", type=_positive_rate, default=2.0, help="max requests/second/host")
    scan.add_argument("--mode", choices=["full", "marker-gated"], default="full")
    scan.add_argument("--delay", type=_delay, default=0.0, help="seconds between victim and attacker steps")
    scan.add_argument("--extension", default="css", help="bogus static extension for attack URLs")
    scan.add_argument("--seed", type=int, default=None, help="deterministic grouping/nonce seed")
    scan.add_argument("--workers", type=_positive_int, default=4, help="concurrent site workers")
    scan.add_argument("--out", default=None, help="write verdict records (JSONL) to this file")
    scan.add_argument("--format", choices=["table", "records"], default="table")
    scan.add_argument("--redact", action="store_true", help="replace impacted hostnames in records")
    scan.add_argument("--resolve", action="append", default=[], metavar="HOST=IP:PORT",
                      help="connect to IP:PORT for HOST (repeatable; lab routing)")
    scan.add_argument("--user-agent", default=None)
    scan.add_argument("--respect-robots", action="store_true",
                      help="honor robots.txt (ignored by default; see README)")
    scan.add_argument("--wordlist", default=None, help="dictionary file for the entropy stripper")
    scan.add_argument("--question-embed", default=None, metavar="NAME=VAL",
                      help="use the embedded-parameter encoded-? payload form")
    scan.add_argument("--no-probe", action="store_true", help="skip seed liveness probing")

    lab = sub.add_parser("lab", help="run the scenario catalog as local HTTP listeners")
    lab.add_argument("--port", type=_port, default=0)
    lab.add_argument("--scenarios", default=None, help="scenario JSON file (default: built-in catalog)")
    lab.add_argument("--catalog", choices=["matrix", "support", "all"], default="all")
    lab.add_argument("--export", default=None, metavar="FILE",
                     help="write the selected scenarios as JSON and exit")
    lab.add_argument("--write-seeds", default=None, metavar="DIR",
                     help="write a seeds file + per-site configs for the scanner and exit")

    oracle = sub.add_parser("oracle", help="enumerate ground-truth exploitability")
    oracle.add_argument("--scenarios", default=None)
    oracle.add_argument("--catalog", choices=["matrix", "support", "all"], default="matrix")
    oracle.add_argument("--techniques", type=_parse_techniques, default="all")
    oracle.add_argument("--extension", default="css")
    oracle.add_argument("--format", choices=["table", "records"], default="table")

    report = sub.add_parser("report", help="aggregate a verdict stream into tables")
    report.add_argument("--records", required=True, help="verdict JSONL file ('-' for stdin)")
    report.add_argument("--format", choices=["table", "records"], default="table")
    report.add_argument("--redact", action="store_true")

    selfcheck = sub.add_parser("selfcheck", help="scan the lab and diff against the oracle")
    selfcheck.add_argument("--techniques", type=_parse_techniques, default="all")
    selfcheck.add_argument("--rate", type=_positive_rate, default=500.0)
    selfcheck.add_argument("--workers", type=_positive_int, default=8)
    selfcheck.add_argument("--extension", default="css")
    selfcheck.add_argument("--quick", action="store_true",
                           help="run a 16-site sample of the matrix instead of all 128")
    return parser


def _cmd_scan(args) -> int:
    from .crawler import ingest_domains
    from .detector import RandomnessConfig
    from .http_engine import Transport
    from .pipeline import ScanSettings, scan_pool
    from .reporting import SiteMap, aggregate, redact_verdicts, render_table, write_records

    randomness = RandomnessConfig()
    if args.wordlist:
        randomness = RandomnessConfig(dictionary=_load_wordlist(args.wordlist))
    settings = ScanSettings(
        techniques=args.techniques,
        budget=args.budget,
        mode=args.mode,
        rate=args.rate,
        extension=args.extension,
        seed=args.seed,
        attacker_delay=args.delay,
        workers=args.workers,
        transport=Transport(resolve_overrides=_parse_resolve(args.resolve)),
        randomness=randomness,
        respect_robots=args.respect_robots,
        embed_query=args.question_embed,
    )
    if args.user_agent is not None:  # unset, the settings keep their default
        settings.user_agent = args.user_agent
    pool = ingest_domains(
        args.seeds, settings.transport, settings.rate_limiter, probe=not args.no_probe
    )
    run = scan_pool(pool, settings)
    for domain, error in run.errors:
        print(f"error: {domain}: {error}", file=sys.stderr)

    verdicts = run.verdicts
    if args.redact:
        verdicts = redact_verdicts(verdicts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_records(verdicts, fh)
    if args.format == "records" and not args.out:
        write_records(verdicts, sys.stdout)
    if args.format == "table":  # the table names no host, so it counts the real ones
        # Hosts are mapped as `report` maps them, so a host of a seeded
        # site's domain that only the crawl reached is counted too.
        print(render_table(aggregate(run.verdicts, SiteMap())))
    if any(v.vulnerable for v in run.verdicts):
        return EXIT_FINDINGS
    if run.errors and not run.verdicts and pool.sites:
        return EXIT_ERROR  # nothing was actually tested
    return EXIT_CLEAN


def _write_seed_files(sites, directory: str) -> Path:
    from .lab import catalog

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    lines = []
    for site in sites:
        entry = catalog.seed_entry(site)
        config_name = f"{site.name}.json"
        (target / config_name).write_text(json.dumps(entry, indent=2), encoding="utf-8")
        lines.append(f"http://{site.host} {config_name}")
    seeds = target / "seeds.txt"
    seeds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return seeds


def _cmd_lab(args) -> int:
    from .lab import catalog
    from .lab.server import LabServer

    sites = _scenario_sites(args)
    if not sites:
        print("no scenarios to serve", file=sys.stderr)
        return EXIT_ERROR
    if args.export:
        catalog.dump_scenarios(sites, args.export)
        print(f"wrote {len(sites)} scenarios to {args.export}")
        return EXIT_CLEAN
    if args.write_seeds:
        seeds = _write_seed_files(sites, args.write_seeds)
        print(f"wrote scanner seeds for {len(sites)} sites to {seeds}")
        return EXIT_CLEAN
    server = LabServer(sites, port=args.port).start()
    print(f"lab listening on {server.address}:{server.port} ({len(sites)} sites)")
    print("scan with, e.g.:")
    example = sites[0].host
    print(
        f"  wcdscan scan --seeds seeds.txt "
        f"--resolve {example}={server.address}:{server.port} ..."
    )
    for host in sorted(server.runtimes):
        print(f"  {host} -> {server.address}:{server.port}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("stopping lab")
        server.stop()
    return EXIT_CLEAN


def _cmd_oracle(args) -> int:
    from .lab.oracle import enumerate_oracle
    from .url_toolkit import PathConfusionTechnique

    sites = _scenario_sites(args)
    sites = [s for s in sites if s.marker_pages()]
    if not sites:
        print("no scenario has a protected marker page", file=sys.stderr)
        return EXIT_ERROR
    techniques = args.techniques
    truth = enumerate_oracle(sites, techniques, args.extension)
    if args.format == "records":
        for site in sites:
            for technique in techniques:
                print(json.dumps({
                    "site": site.name,
                    "technique": technique.value,
                    "vulnerable": truth[(site.name, technique)],
                }))
        return EXIT_CLEAN
    short = {t: t.value.replace("encoded_", "") for t in techniques}
    width = max(len(s.name) for s in sites) + 2
    print(" " * width + "".join(f"{short[t]:>16}" for t in techniques))
    for site in sites:
        row = f"{site.name:<{width}}"
        for technique in techniques:
            row += f"{'VULN' if truth[(site.name, technique)] else '-':>16}"
        print(row)

    exploited = {t: {s.name for s in sites if truth[(s.name, t)]} for t in techniques}
    print(f"\n{'technique':<22}{'vulnerable sites':>18}")
    for technique in techniques:
        print(f"{technique.value:<22}{len(exploited[technique]):>18}")
    path_parameter = PathConfusionTechnique.PATH_PARAMETER
    if path_parameter in exploited:
        only_encoded = set().union(*exploited.values()) - exploited[path_parameter]
        print(f"\nsites exploitable only via an encoded variant: {len(only_encoded)}")
    print("\nuniqueness (row exploits, column misses):")
    print(" " * 16 + "".join(f"{short[t]:>12}" for t in techniques))
    for ti in techniques:
        row = f"{short[ti]:<16}"
        for tj in techniques:
            cell = "-" if ti is tj else str(len(exploited[ti] - exploited[tj]))
            row += f"{cell:>12}"
        print(row)
    return EXIT_CLEAN


def _utf8_lines(fh: BinaryIO) -> Iterator[str]:
    """The lines of ``fh`` decoded as UTF-8; a line that is not raises
    MalformedRecord with its number."""
    from .reporting import MalformedRecord

    for number, line in enumerate(fh, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"{number}: not UTF-8: {exc}") from None


def _cmd_report(args) -> int:
    """One pass: each record is read, checked and folded in turn, so no
    verdict list is held."""
    from .reporting import (
        MalformedRecord,
        SiteMap,
        aggregate,
        iter_records,
        redact_stats,
        render_table,
        stats_to_records,
    )

    site_map = SiteMap()
    try:
        if args.records == "-":
            stats = aggregate(iter_records(_utf8_lines(sys.stdin.buffer)), site_map)
        else:
            with open(args.records, "rb") as fh:
                stats = aggregate(iter_records(_utf8_lines(fh)), site_map)
    except MalformedRecord as exc:
        print(f"error: {args.records}:{exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.redact:
        stats = redact_stats(stats, site_map)
    if args.format == "records":
        print(json.dumps(stats_to_records(stats), indent=2))
    else:
        print(render_table(stats))
    return EXIT_CLEAN


def _cmd_selfcheck(args) -> int:
    from .lab.selfcheck import run_selfcheck, selfcheck_sites
    from .pipeline import ScanSettings

    sites = selfcheck_sites()
    if args.quick:  # every 8th site: 16 of the matrix, and classic-pp, the last
        sites = sites[:: len(sites) // 16]
    settings = ScanSettings(
        techniques=args.techniques,
        rate=args.rate,
        workers=args.workers,
        extension=args.extension,
        seed=0,
    )
    report = run_selfcheck(sites, settings)
    checked = len(report.scanned)
    print(
        f"selfcheck: {len(report.sites)} sites x {len(settings.techniques)} techniques "
        f"= {checked} verdicts in {report.elapsed_seconds:.1f}s"
    )
    print(f"  {'technique':<22}{'oracle-vulnerable sites':>26}{'scanner agrees':>16}")
    for technique in settings.techniques:
        keys = [key for key in report.scanned if key[1] is technique]
        expected = sum(report.oracle[key] for key in keys)
        agreed = sum(report.scanned[key] == report.oracle[key] for key in keys)
        print(f"  {technique.value:<22}{expected:>26}{agreed:>16}")
    print(
        f"  lab requests: {report.requests} ({report.requests_with_cookie} with a cookie, "
        f"{report.requests_without_cookie} without) over {report.lab_connections} "
        f"connections; {report.attacker_steps_skipped} tests sent no attacker step"
    )
    print(f"  inconclusive verdicts: {report.inconclusive}")
    print(f"  disagreements with oracle: {len(report.disagreements)}")
    for name, technique, expected, got in report.disagreements:
        print(f"    {name} / {technique.value}: oracle={expected} scanner={got}")
    print(f"  site errors: {len(report.site_errors)}")
    for name, error in report.site_errors:
        print(f"    {name}: {error}")
    if report.ok:
        print("selfcheck PASS: scanner verdicts match the ground-truth oracle")
        return EXIT_CLEAN
    print("selfcheck FAIL")
    return EXIT_FINDINGS


def cli_run(args: argparse.Namespace) -> int:
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "scan": _cmd_scan,
        "lab": _cmd_lab,
        "oracle": _cmd_oracle,
        "report": _cmd_report,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return cli_run(args)


if __name__ == "__main__":
    sys.exit(main())
