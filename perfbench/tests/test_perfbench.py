"""Tests of the benchmark itself: output contract, gates, generators, tracing.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from wcdscan import crawler, detector, http_engine, pipeline, reporting  # noqa: E402
from wcdscan.crawler import AttackSurface, SiteConfig  # noqa: E402
from wcdscan.detector import RandomnessConfig, ScanVerdict, extract_secrets  # noqa: E402
from wcdscan.url_toolkit import PathConfusionTechnique, parse_url  # noqa: E402

import gates  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import NAMED_UNITS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED_PER_WORKLOAD = {
    "matrix-scan": ("tests_per_s", "requests_per_s", "error_rate"),
    "large-page-scan": ("tests_per_s", "requests_per_s", "error_rate"),
    "sitemap-crawl": ("crawl_pages_per_s", "requests_per_s", "error_rate"),
    "report-roundtrip": ("write_records_per_s", "report_records_per_s", "error_rate"),
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    named = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert named == {name: NAMED_UNITS[name] for name in NAMED_PER_WORKLOAD[workload]}
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert {"nproc", "python", "requests", "workers", "rate", "environ"} <= set(meta)


def test_run_without_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------------------------- gates


def _verdict(page: str, technique: PathConfusionTechnique, vulnerable: bool,
             **extra) -> ScanVerdict:
    fields = dict(
        page=page, technique=technique, attack_url=page + "/x.css", victim_status=200,
        attacker_status=200, unauth_status=302, markers_leaked=("name",) if vulnerable else (),
        secrets=(), responses_identical=False, unauth_exploitable=False, vulnerable=vulnerable,
    )
    fields.update(extra)
    return ScanVerdict(**fields)


def _run_with(verdicts) -> pipeline.ScanRunResult:
    site = SiteConfig(primary_domain="a.test")
    return pipeline.ScanRunResult([pipeline.SiteScanResult(site, None, list(verdicts))])


def _oracle_case():
    techniques = list(PathConfusionTechnique)
    verdicts = [
        _verdict("http://a.test/account.php", t, vulnerable=(t is techniques[0]))
        for t in techniques
    ]
    oracle = {("a", t): t is techniques[0] for t in techniques}
    return verdicts, oracle


def test_oracle_gate_passes_on_agreement_and_fails_on_one_flipped_entry():
    verdicts, oracle = _oracle_case()
    assert gates.oracle_problems(_run_with(verdicts), {"a.test": "a"}, oracle) == []
    flipped = dict(oracle)
    key = ("a", PathConfusionTechnique.ENCODED_POUND)
    flipped[key] = not flipped[key]
    problems = gates.oracle_problems(_run_with(verdicts), {"a.test": "a"}, flipped)
    assert problems == ["a/encoded_pound: oracle=True scanner=False"]


def test_oracle_gate_fails_on_inconclusive_verdict():
    verdicts, oracle = _oracle_case()
    verdicts[1] = _verdict(verdicts[1].page, verdicts[1].technique, False, inconclusive=True)
    problems = gates.oracle_problems(_run_with(verdicts), {"a.test": "a"}, oracle)
    assert problems == ["1 inconclusive verdicts"]


def test_roundtrip_gate_fails_on_one_corrupted_jsonl_record():
    data = inputs.synthetic_verdicts(200, seed=5, sites=10)
    buffer = io.StringIO()
    reporting.write_records(data.verdicts, buffer)
    lines = buffer.getvalue().splitlines()
    assert gates.roundtrip_problems(
        data.verdicts, reporting.read_records(io.StringIO("\n".join(lines))))[0] == 0
    record = json.loads(lines[17])
    record["attacker_status"] += 1
    lines[17] = json.dumps(record)
    failed, problems = gates.roundtrip_problems(
        data.verdicts, reporting.read_records(io.StringIO("\n".join(lines))))
    assert failed == 1 and problems


def test_aggregate_gate_matches_direct_count_and_catches_a_miscount():
    data = inputs.synthetic_verdicts(500, seed=2, sites=20)
    site_map = reporting.build_site_map(data.hosts)
    stats = reporting.aggregate(data.verdicts, site_map)
    assert gates.aggregate_problems(stats, data.verdicts, site_map) == []
    stats.vulnerable = reporting.Counts3(stats.vulnerable.pages + 1, stats.vulnerable.domains,
                                         stats.vulnerable.sites)
    assert len(gates.aggregate_problems(stats, data.verdicts, site_map)) == 1


def test_pacing_gate_counts_arrivals_in_the_limiter_window():
    window = http_engine.RateLimiter(rate=5).window
    within = [0.0, 0.2, 0.4, 0.6, 0.8]
    assert gates.pacing_problems({"a.test": within + [window + 0.01]}, 5, window) == []
    assert len(gates.pacing_problems({"a.test": within + [1.0]}, 5, window)) == 1


def test_crawl_gates_fail_on_short_surface_and_logout_arrival():
    page = parse_url("http://s.test/")
    full = AttackSurface("s.test", (page,) * 7, 1200, False)
    short = AttackSurface("s.test", (page,) * 6, 1199, False)
    assert gates.crawl_problems([full], 7, 1200) == []
    assert len(gates.crawl_problems([short], 7, 1200)) == 2
    logs = {"s.test": [{"method": "GET", "target": "/"}, {"method": "GET", "target": "/logout"}]}
    assert len(gates.logout_problems(logs)) == 1


# -------------------------------------------------------------- generators


def test_large_page_public_content_yields_no_secret_candidates():
    config = RandomnessConfig()
    for site in inputs.large_page_batches(1, 5, seed=9)[0]:
        for path in ("/", "/guide", "/login"):
            body = site.resources[path].render(None)
            assert 80_000 <= len(body) <= 100_000 or path == "/login"
            assert extract_secrets(body, config) == [], (site.name, path)
        account = site.resources["/account.php"].render(site.auth.victim().values)
        assert [c.name for c in extract_secrets(account, config)] == ["csrf_token"]


def test_generators_repeat_for_a_seed():
    a = inputs.large_page_batches(1, 2, seed=4)[0]
    b = inputs.large_page_batches(1, 2, seed=4)[0]
    assert [s.to_dict() for s in a] == [s.to_dict() for s in b]
    assert inputs.synthetic_verdicts(50, 1, 5) == inputs.synthetic_verdicts(50, 1, 5)
    copies = inputs.sitemap_copies(2, seed=1)
    assert [s.host for s in copies] == ["sitemap-0.test", "sitemap-1.test"]
    assert copies[0].resources["/"].body_template != copies[1].resources["/"].body_template


# ----------------------------------------------------------------- tracing


def test_tracer_rebinds_every_import_site_and_restores_them():
    fetch, run_wcd_test = http_engine.fetch, detector.run_wcd_test
    tracer = Tracer()
    with tracer.installed():
        wrapped = http_engine.fetch
        assert wrapped is not fetch and wrapped.__wrapped__ is fetch
        assert detector.fetch is wrapped and crawler.fetch is wrapped
        assert pipeline.run_wcd_test is not run_wcd_test
        assert pipeline.run_wcd_test is detector.run_wcd_test
        assert pipeline.maintain_session.__wrapped__ is http_engine.maintain_session.__wrapped__
        assert pipeline.cdn_label.__wrapped__ is reporting.cdn_label.__wrapped__
        assert pipeline.scan_site.__wrapped__ is not None
    assert http_engine.fetch is fetch and detector.fetch is fetch and crawler.fetch is fetch
    assert pipeline.run_wcd_test is run_wcd_test


def test_tracer_records_parent_and_self_time():
    tracer = Tracer()
    with tracer.installed():
        crawler.extract_links(b'<a href="/x?a=1">x</a>', "http://h.test/")
        reporting.aggregate([_verdict("http://h.test/p", PathConfusionTechnique.PATH_PARAMETER,
                                      False)], {"h.test": "h.test"})
    names = {span[1]: span for span in tracer.spans}
    parse, agg = names["url_toolkit.parse_url"], names["reporting.aggregate"]
    assert parse[4] == agg[0] and parse[5] == agg[5]
    summary = tracer.summary(rounds=1)
    assert summary["reporting.aggregate.calls"] == 1
    assert summary["reporting.aggregate.self_s"] < summary["reporting.aggregate.total_s"]
    assert summary["crawler.extract_links.calls"] == 1


def test_layer_units_cover_every_declared_layer_metric():
    for metric in SPEC["per_layer"]:
        assert run.layer_unit(metric["name"]) == metric["unit"]
