"""End-to-end command-line behavior."""

import argparse
import ast
import dataclasses
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from wcdscan import crawler, pipeline
from wcdscan.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, build_parser, main
from wcdscan.detector import (
    ScanVerdict,
    SecretCandidate,
    SecretSource,
    SecretTrigger,
    strip_dictionary_words,
)
from wcdscan.lab import catalog, selfcheck
from wcdscan.lab.server import LabServer
from wcdscan.reporting import write_records
from wcdscan.url_toolkit import PathConfusionTechnique

REPO = Path(__file__).resolve().parents[1]


def test_scan_empty_seed_pool_is_clean(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# nothing to scan\n")
    code = main(["scan", "--seeds", str(seeds), "--no-probe"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "Tested:        0 / 0 / 0" in out


def test_scan_missing_seed_file_is_config_error(capsys):
    assert main(["scan", "--seeds", "/does/not/exist"]) == EXIT_ERROR


@pytest.mark.parametrize("command", ["scan", "selfcheck"])
@pytest.mark.parametrize("rate", ["0", "-1"])
def test_nonpositive_rate_is_a_usage_error(tmp_path, capsys, command, rate):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# nothing to scan\n")
    argv = [command, "--rate", rate]
    if command == "scan":
        argv += ["--seeds", str(seeds), "--no-probe"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_ERROR
    assert "argument --rate: rate must be a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "selfcheck", "oracle"])
def test_unknown_technique_is_a_usage_error(tmp_path, capsys, command):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# nothing to scan\n")
    argv = [command, "--techniques", "path_parameter,bogus"]
    if command == "scan":
        argv += ["--seeds", str(seeds), "--no-probe"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_ERROR
    assert "argument --techniques: unknown technique" in capsys.readouterr().err


@pytest.mark.parametrize("delay", ["-1", "nan", "inf"])
def test_bad_delay_is_a_usage_error_before_any_request(capsys, monkeypatch, delay):
    def no_ingest(*_args, **_kwargs):
        raise AssertionError("the seed pool was read")

    monkeypatch.setattr(crawler, "ingest_domains", no_ingest)
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--seeds", "seeds.txt", "--delay", delay])
    assert exit_info.value.code == EXIT_ERROR
    assert "argument --delay: delay must be a non-negative number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line,reason",
    [("{not json", "Expecting property name"),
     ('{"page": "http://a.test/"}', "missing 10 required positional arguments"),
     ('{"cache_evidence": ["x"]}', "field 'cache_evidence' must be an object of strings"),
     ('["http://a.test/"]', "a record must be a JSON object")],
    ids=["not-json", "missing-fields", "wrong-field-type", "not-an-object"],
)
def test_report_on_a_malformed_record_names_its_line(tmp_path, capsys, bad_line, reason):
    good = _verdict("http://a.test/", PathConfusionTechnique.PATH_PARAMETER, False)
    records = tmp_path / "verdicts.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        write_records([good], fh)
        fh.write("\n" + bad_line + "\n")
    assert main(["report", "--records", str(records)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}:3: ")
    assert reason in err


def test_report_refuses_a_mistyped_field(tmp_path, capsys):
    """A string where a boolean, array or integer belongs is refused with
    the line number, not counted as true or read letter by letter."""
    good = _verdict("http://a.test/", PathConfusionTechnique.PATH_PARAMETER, False)
    record = good.to_record()
    record.update(vulnerable="false", markers_leaked="email", cdn_labels="Akamai",
                  victim_status="200")
    records = tmp_path / "verdicts.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        write_records([good], fh)
        fh.write(json.dumps(record) + "\n")
    assert main(["report", "--records", str(records)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: {records}:2: field 'victim_status' must be an integer\n"


def test_scan_lab_site_end_to_end(tmp_path, capsys):
    site = catalog.classic_site()
    server = LabServer([site]).start()
    try:
        seeds_dir = tmp_path / "seeds"
        code = main(["lab", "--catalog", "support", "--write-seeds", str(seeds_dir)])
        assert code == EXIT_CLEAN
        seeds = seeds_dir / "seeds.txt"
        # narrow the written pool to the one site this test serves
        lines = [
            line
            for line in seeds.read_text().splitlines()
            if line.startswith(f"http://{site.host} ")
        ]
        seeds.write_text("\n".join(lines) + "\n")

        out_file = tmp_path / "verdicts.jsonl"
        code = main([
            "scan",
            "--seeds", str(seeds),
            "--resolve", f"{site.host}=127.0.0.1:{server.port}",
            "--rate", "500",
            "--seed", "1",
            "--out", str(out_file),
        ])
        assert code == EXIT_FINDINGS
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert any(r["vulnerable"] and r["technique"] == "path_parameter" for r in records)
        assert all(r["technique"] for r in records)

        capsys.readouterr()
        assert main(["report", "--records", str(out_file)]) == EXIT_CLEAN
        table = capsys.readouterr().out
        assert "Vulnerable targets per technique" in table

        assert main(["report", "--records", str(out_file), "--format", "records"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["vulnerable"]["pages"] >= 1
    finally:
        server.stop()


def test_scan_paces_probes_logins_and_attacks_together(tmp_path):
    """At --rate 2 the host sees at most 2 requests in any 1 s window, from
    the liveness probe through the logins, the crawl and the attacks."""
    site = catalog.classic_site()
    server = LabServer([site]).start()
    try:
        seeds = tmp_path / "seeds.txt"
        (tmp_path / "site.json").write_text(json.dumps(catalog.seed_entry(site)))
        seeds.write_text(f"http://{site.host} site.json\n")
        code = main([
            "scan",
            "--seeds", str(seeds),
            "--resolve", f"{site.host}=127.0.0.1:{server.port}",
            "--rate", "2",
            "--budget", "1",
            "--techniques", "path_parameter",
            "--seed", "1",
            "--format", "records",
        ])
        stamps = [e.t for e in server.request_log(site.host)]
    finally:
        server.stop()
    assert code in (EXIT_CLEAN, EXIT_FINDINGS)
    assert len(stamps) >= 6  # probe, two logins, crawl, three attack steps
    worst = max(len([t for t in stamps if start <= t < start + 1.0]) for start in stamps)
    assert worst <= 2


def test_scan_redacts_hostnames(tmp_path):
    site = catalog.classic_site()
    server = LabServer([site]).start()
    try:
        seeds = tmp_path / "seeds.txt"
        config = tmp_path / "site.json"
        config.write_text(json.dumps(catalog.seed_entry(site)))
        seeds.write_text(f"http://{site.host} site.json\n")
        out_file = tmp_path / "verdicts.jsonl"
        main([
            "scan",
            "--seeds", str(seeds),
            "--resolve", f"{site.host}=127.0.0.1:{server.port}",
            "--rate", "500",
            "--seed", "1",
            "--redact",
            "--out", str(out_file),
        ])
        text = out_file.read_text()
        assert site.host not in text
        assert "site-1.redacted" in text
    finally:
        server.stop()


def test_scan_redact_keeps_the_table(tmp_path, capsys):
    """--redact rewrites the hosts of the records a scan writes; the table
    names no host, so it counts the same verdicts with or without it."""
    site = catalog.classic_site()
    (tmp_path / "site.json").write_text(json.dumps(catalog.seed_entry(site)))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(f"http://{site.host} site.json\n")
    tables = []
    for redact in ([], ["--redact"]):
        server = LabServer([site]).start()
        try:
            code = main([
                "scan",
                "--seeds", str(seeds),
                "--resolve", f"{site.host}=127.0.0.1:{server.port}",
                "--rate", "500",
                "--seed", "1",
                *redact,
            ])
        finally:
            server.stop()
        assert code == EXIT_FINDINGS
        tables.append(capsys.readouterr().out)
    assert tables[1] == tables[0]
    assert "Tested:        3 / 1 / 1" in tables[1]
    assert "Vulnerable:    1 / 1 / 1" in tables[1]
    assert "Quarantined" not in tables[1]


TWO_HOSTS = ("www.example.test", "shop.example.test")  # two domains of one site


def test_report_counts_two_hosts_of_one_site_once_with_or_without_redact(tmp_path, capsys):
    records = tmp_path / "verdicts.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        write_records(
            [_verdict(f"http://{host}/account", PathConfusionTechnique.PATH_PARAMETER, True)
             for host in TWO_HOSTS],
            fh,
        )
    for redact in ([], ["--redact"]):
        assert main(["report", "--records", str(records), *redact]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "Tested:        2 / 2 / 1" in out
        assert "Vulnerable:    2 / 2 / 1" in out


def test_scan_redact_records_keep_two_hosts_of_one_site(tmp_path, capsys):
    """Both hosts seed one site; the crawl reaches the second through a link
    on the first's home page."""
    sites = [dataclasses.replace(catalog.classic_site(), name=host, host=host)
             for host in TWO_HOSTS]
    home = sites[0].resources["/"]
    sites[0].resources["/"] = dataclasses.replace(
        home, body_template=home.body_template.replace(
            "</body>", f'<a href="http://{TWO_HOSTS[1]}/account.php">shop</a></body>'),
    )
    (tmp_path / "site.json").write_text(json.dumps(catalog.seed_entry(sites[0])))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("".join(f"http://{host} site.json\n" for host in TWO_HOSTS))
    out_file = tmp_path / "verdicts.jsonl"
    server = LabServer(sites).start()
    try:
        code = main([
            "scan",
            "--seeds", str(seeds),
            *(f"--resolve={host}=127.0.0.1:{server.port}" for host in TWO_HOSTS),
            "--rate", "500",
            "--seed", "1",
            "--redact",
            "--out", str(out_file),
        ])
    finally:
        server.stop()
    assert code == EXIT_FINDINGS
    assert "Tested:        4 / 2 / 1" in capsys.readouterr().out
    text = out_file.read_text()
    assert not any(host in text for host in TWO_HOSTS)
    assert "h1.site-1.redacted" in text and "h2.site-1.redacted" in text
    assert main(["report", "--records", str(out_file)]) == EXIT_CLEAN
    report = capsys.readouterr().out
    assert "Tested:        4 / 2 / 1" in report
    assert "Vulnerable:    1 / 1 / 1" in report


def test_scan_table_counts_a_crawled_subdomain_as_report_does(tmp_path, capsys):
    """Only shop.test is seeded; its home page links to www.shop.test, which
    the crawl reaches as a host of the same site."""
    hosts = ("shop.test", "www.shop.test")
    sites = [dataclasses.replace(catalog.classic_site(), name=host, host=host) for host in hosts]
    home = sites[0].resources["/"]
    sites[0].resources["/"] = dataclasses.replace(
        home, body_template=home.body_template.replace(
            "</body>", f'<a href="http://{hosts[1]}/account.php">www</a></body>'),
    )
    (tmp_path / "site.json").write_text(json.dumps(catalog.seed_entry(sites[0])))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(f"http://{hosts[0]} site.json\n")
    out_file = tmp_path / "verdicts.jsonl"
    server = LabServer(sites).start()
    try:
        main([
            "scan",
            "--seeds", str(seeds),
            *(f"--resolve={host}=127.0.0.1:{server.port}" for host in hosts),
            "--rate", "500",
            "--seed", "1",
            "--techniques", "path_parameter",
            "--out", str(out_file),
        ])
    finally:
        server.stop()
    scan_table = capsys.readouterr().out
    assert main(["report", "--records", str(out_file)]) == EXIT_CLEAN
    assert scan_table == capsys.readouterr().out
    assert "Tested:        4 / 2 / 1" in scan_table
    assert "Quarantined" not in scan_table


# Runs ``wcdscan report`` on a records file and prints its max RSS in KiB;
# a fresh process, so RUSAGE_CHILDREN sees that one child alone.
_REPORT_MAX_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "wcdscan", "report", "--records", sys.argv[1]],
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _report_max_rss_mb(records: Path) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _REPORT_MAX_RSS, str(records)],
                            capture_output=True, text=True, env=env, timeout=120, check=True)
    return int(result.stdout) / 1024


def _page_verdicts(n: int):
    """``n`` verdicts on ``n // 5`` pages, each tested with the five techniques."""
    techniques = list(PathConfusionTechnique)
    for i in range(n):
        page = i // 5
        yield _verdict(f"http://h{page % 97}.s{page % 13}.test/p{page}", techniques[i % 5],
                       i % 3 == 0, markers_leaked=("email",), cdn_labels=("Akamai",),
                       cache_control="private, max-age=60")


def test_report_reads_records_in_bounded_memory(tmp_path):
    """report folds each record as it reads it: 50k records cost about what
    1k do, where a list of the verdicts would add about 40 MB."""
    sizes = {}
    for n in (1_000, 50_000):
        records = tmp_path / f"{n}.jsonl"
        with open(records, "w", encoding="utf-8") as fh:
            write_records(_page_verdicts(n), fh)
        sizes[n] = _report_max_rss_mb(records)
    assert sizes[50_000] - sizes[1_000] < 15, sizes


def test_oracle_records_output(capsys):
    code = main(["oracle", "--catalog", "support", "--format", "records"])
    assert code == EXIT_CLEAN
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    by_site = {(r["site"], r["technique"]): r["vulnerable"] for r in lines}
    assert by_site[("classic-pp", "path_parameter")] is True
    assert by_site[("classic-pp", "encoded_question")] is False


def test_oracle_table_output(capsys):
    code = main(["oracle", "--catalog", "support"])
    assert code == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "classic-pp" in out
    assert "VULN" in out


def test_oracle_table_counts_techniques_and_uniqueness(capsys):
    assert main(["oracle"]) == EXIT_CLEAN
    lines = capsys.readouterr().out.splitlines()
    for technique in PathConfusionTechnique:
        assert f"{technique.value:<22}{30:>18}" in lines
    assert "sites exploitable only via an encoded variant: 60" in lines
    matrix = lines[lines.index("uniqueness (row exploits, column misses):") + 2 :]
    short = ["path_parameter", "newline", "semicolon", "pound", "question"]
    assert matrix == [
        f"{row:<16}" + "".join(f"{'-' if row == col else '24':>12}" for col in short)
        for row in short
    ]


@pytest.mark.parametrize("output", ["table", "records"])
def test_oracle_without_marker_pages_is_an_error(tmp_path, capsys, output):
    scenarios = tmp_path / "scenarios.json"
    catalog.dump_scenarios([catalog.sitemap_site()], str(scenarios))
    assert main(["oracle", "--scenarios", str(scenarios), "--format", output]) == EXIT_ERROR
    assert capsys.readouterr().err == "no scenario has a protected marker page\n"


def test_lab_export_round_trips(tmp_path):
    target = tmp_path / "scenarios.json"
    code = main(["lab", "--catalog", "support", "--export", str(target)])
    assert code == EXIT_CLEAN
    loaded = catalog.load_scenarios(str(target))
    assert {s.name for s in loaded} >= {"classic-pp", "sitemap", "pacing"}


def test_lab_on_a_taken_port_is_an_error(capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        assert main(["lab", "--catalog", "support", "--port", str(port)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Address already in use" in err


@pytest.mark.parametrize("port", ["-1", "65536"])
def test_lab_port_out_of_range_is_a_usage_error(capsys, port):
    with pytest.raises(SystemExit) as exit_info:
        main(["lab", "--port", port])
    assert exit_info.value.code == EXIT_ERROR
    assert f"argument --port: port must be in 0-65535, got '{port}'" in capsys.readouterr().err


_MALFORMED_SCENARIOS = [
    ("{not json", "not a JSON file: Expecting property name"),
    ('{"name": "x"}', "want a JSON array of sites, got dict"),
    ('[{"name": "x"}]', "entry 0 ('x'): missing key 'cache_profile'"),
    ('["x"]', "entry 0: string indices must be integers"),
]


@pytest.mark.parametrize("command", ["lab", "oracle"])
@pytest.mark.parametrize("text,reason", _MALFORMED_SCENARIOS, ids=["json", "dict", "key", "str"])
def test_malformed_scenario_file_is_one_error_line(tmp_path, capsys, command, text, reason):
    path = tmp_path / "scenarios.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--scenarios", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1


def _interrupt(_seconds):
    raise KeyboardInterrupt


def _auth(**fields) -> dict:
    """A scenario ``auth`` object with one victim account, and ``fields``."""
    victim = {"username": "victim", "password": "pw", "values": {"email": "zz7q9x2w8v4n6mkp"},
              "is_victim": True}
    return {"accounts": [victim], **fields}


@pytest.mark.parametrize("command", ["lab", "oracle"])
@pytest.mark.parametrize(
    "field,value,reason",
    [("cache_profile", "nope", "no builtin profile named 'nope'"),
     ("origin", {"variants": ["bogus"]}, "'bogus' is not a valid OriginVariant"),
     ("resources", [{"path": "/", "body": "", "status": "ok"}], "invalid literal for int()"),
     # A client reads past a 1xx, so the lab never sends one as an answer.
     ("resources", [{"path": "/", "body": "", "status": 103}],
      "resource status must be 200 to 599, got 103"),
     ("resources", [{"path": "/", "body": 5}], "resource body must be a string, got int"),
     ("resources", [{"path": ["/"], "body": ""}], "resource path must be a string, got list"),
     ("auth", {"accounts": [{"username": "victim", "password": "pw",
                             "values": {"email": 12345678901234}}]},
      "account value 'email' must be a string, got int"),
     ("host", ["pacing.test"], "host must be a string, got list"),
     ("resources", [{"path": "/", "body": "", "headers": {"X-A": 5}}],
      "resource header 'X-A' must be a string, got int"),
     ("resources", [{"path": "/", "body": "", "headers": [[5, "x"]]}],
      "resource header name must be a string, got int"),
     ("auth", _auth(cookie_name=5), "auth cookie_name must be a string, got int"),
     ("auth", _auth(login_path=["/login"]), "auth login_path must be a string, got list"),
     ("auth", _auth(mode="open"), "auth mode must be 'redirect' or 'forbid', got 'open'"),
     ("auth", _auth(marker_labels=["email", "phone"]),
      "marker label 'phone' names no victim value"),
     # Each of these is written into a response header, where a line break
     # would start a field of the scenario's choosing.
     ("resources", [{"path": "/", "body": "", "headers": {"X-A": "1\r\nX-Evil: 1"}}],
      "resource header 'X-A' holds CR, LF or NUL: '1\\r\\nX-Evil: 1'"),
     ("resources", [{"path": "/", "body": "", "headers": {"X-A\x00": "1"}}],
      "resource header name 'X-A\\x00' is not a token"),
     ("resources", [{"path": "/", "body": "", "headers": {"X A": "1"}}],
      "resource header name 'X A' is not a token"),
     ("resources", [{"path": "/", "body": "", "headers": {"X-A:": "1"}}],
      "resource header name 'X-A:' is not a token"),
     ("resources", [{"path": "/", "body": "", "headers": {"": "1"}}],
      "resource header name '' is not a token"),
     ("resources", [{"path": "/", "body": "", "content_type": "text/html\rX-Evil: 1"}],
      "resource content_type holds CR, LF or NUL"),
     ("auth", _auth(cookie_name="sid\nX-Evil: 1"), "auth cookie_name holds CR, LF or NUL"),
     ("auth", _auth(login_path="/login\x00"), "auth login_path holds CR, LF or NUL"),
     # The lab writes each of these itself, so the answer would carry two.
     ("resources", [{"path": "/", "body": "", "headers": {"Content-Length": "5"}}],
      "resource header 'Content-Length' is written by the lab"),
     ("resources", [{"path": "/", "body": "", "headers": {"transfer-encoding": "chunked"}}],
      "resource header 'transfer-encoding' is written by the lab"),
     ("resources", [{"path": "/", "body": "", "headers": {"CONNECTION": "close"}}],
      "resource header 'CONNECTION' is written by the lab"),
     ("resources", [{"path": "/", "body": "", "headers": {"Date": "x"}}],
      "resource header 'Date' is written by the lab"),
     ("resources", [{"path": "/", "body": "", "headers": {"content-type": "text/plain"}}],
      "resource header 'content-type' is set by the resource's content_type"),
     ("resources", [{"path": "/", "body": "", "headers": {"Age": "5"}}],
      "resource header 'Age' is written by the lab"),
     ("resources", [{"path": "/", "body": "", "headers": {"X-Lab-Event": "hit"}}],
      "resource header 'X-Lab-Event' is written by the lab"),
     # pacing's profile is akamai_default, whose proxy writes these two.
     ("resources", [{"path": "/", "body": "", "headers": {"x-cache": "lab"}}],
      "resource header 'x-cache' is written by the lab's akamai_default proxy"),
     ("resources", [{"path": "/", "body": "", "headers": {"Server": "mine"}}],
      "resource header 'Server' is written by the lab's akamai_default proxy"),
     # Field names are case-insensitive (RFC 9110 section 5.1).
     ("resources", [{"path": "/", "body": "",
                     "headers": {"cache-control": "max-age=60", "Cache-Control": "no-store"}}],
      "resource headers 'cache-control' and 'Cache-Control' name one field")],
    ids=["profile", "variant", "status", "status-1xx", "body", "path", "account-value", "host",
         "header-value", "header-name", "cookie-name", "login-path", "mode", "marker-label",
         "header-value-crlf", "header-name-nul", "header-name-space", "header-name-colon",
         "header-name-empty", "content-type-cr", "cookie-name-lf", "login-path-nul",
         "header-content-length", "header-transfer-encoding", "header-connection", "header-date",
         "header-content-type", "header-age", "header-lab-event", "header-x-cache",
         "header-server", "header-repeated"],
)
def test_scenario_entry_with_a_bad_value_is_named(
    tmp_path, capsys, monkeypatch, command, field, value, reason
):
    monkeypatch.setattr("time.sleep", _interrupt)  # a lab that starts stops at once
    entries = [site.to_dict() for site in (catalog.classic_site(), catalog.pacing_site())]
    entries[1][field] = value
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    assert main([command, "--scenarios", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: entry 1 ('pacing'): {reason}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["lab", "oracle"])
def test_a_scenario_name_that_is_not_a_string_is_named(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("time.sleep", _interrupt)
    entries = [site.to_dict() for site in (catalog.classic_site(), catalog.pacing_site())]
    entries[1]["name"] = 5
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    assert main([command, "--scenarios", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: entry 1: name must be a string, got int\n"


def test_a_scenario_host_is_read_lowercased(tmp_path, capsys, monkeypatch):
    # The lab looks each request's Host up lowercased, so a host with
    # capitals would never be matched if it were kept as written.
    monkeypatch.setattr("time.sleep", _interrupt)
    entry = catalog.pacing_site().to_dict()
    entry["host"] = "Pacing.TEST"
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    assert main(["lab", "--scenarios", str(path)]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "  pacing.test -> 127.0.0.1:" in out
    assert "Pacing" not in out


def test_lab_with_two_scenarios_for_one_host_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("time.sleep", _interrupt)
    entries = [site.to_dict() for site in (catalog.classic_site(), catalog.pacing_site())]
    entries[1]["host"] = entries[0]["host"]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    assert main(["lab", "--scenarios", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: two scenarios serve host 'classic-pp.test'\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["lab", "oracle"])
def test_a_resource_path_given_twice_is_named(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("time.sleep", _interrupt)
    entries = [site.to_dict() for site in (catalog.classic_site(), catalog.pacing_site())]
    first = entries[1]["resources"][0]
    entries[1]["resources"].append({**first, "body": "<html>second copy</html>"})
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    assert main([command, "--scenarios", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {path}: entry 1 ('pacing'): resource path {first['path']!r} appears twice\n"
    )
    assert captured.out == ""


# Serves the lab through the command line in a fresh interpreter, stops it
# at its first sleep (as Ctrl-C would) and prints the package's loaded modules.
_SERVE_AND_LIST_MODULES = """
import sys, time
sys.path.insert(0, sys.argv[1])
def interrupt(_seconds):
    raise KeyboardInterrupt
time.sleep = interrupt
from wcdscan.cli import main
code = main(["lab", "--catalog", "support", "--port", "0"])
print(code, sorted(m for m in sys.modules if m.startswith("wcdscan")))
"""


def test_serving_the_lab_loads_no_scanner_module():
    package_root = str(Path(catalog.__file__).resolve().parents[2])
    result = subprocess.run(
        [sys.executable, "-c", _SERVE_AND_LIST_MODULES, package_root],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert "lab listening on 127.0.0.1:" in result.stdout
    assert "stopping lab" in result.stdout
    code, loaded = result.stdout.splitlines()[-1].split(" ", 1)
    assert code == str(EXIT_CLEAN)
    loaded = set(ast.literal_eval(loaded))
    assert "wcdscan.lab.server" in loaded
    scanner = {f"wcdscan.{name}" for name in (
        "crawler", "detector", "http_engine", "url_toolkit", "words", "pipeline", "reporting",
        "lab.oracle", "lab.selfcheck",
    )}
    assert loaded & scanner == set()


def test_bad_resolve_flag_is_config_error(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("http://x.test\n")
    assert main(["scan", "--seeds", str(seeds), "--resolve", "garbage"]) == EXIT_ERROR


def _no_run(*_args, **_kwargs):
    raise AssertionError("the run started")


@pytest.mark.parametrize("port", ["0", "65536", "99999"])
def test_resolve_port_out_of_range_is_config_error(capsys, monkeypatch, port):
    monkeypatch.setattr(crawler, "ingest_domains", _no_run)
    argv = ["scan", "--seeds", "seeds.txt", "--no-probe", "--resolve", f"x.test=127.0.0.1:{port}"]
    assert main(argv) == EXIT_ERROR
    assert "port not in 1-65535" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, expected",
    [
        ("H=127.0.0.1:8400", {"h": ("127.0.0.1", 8400)}),
        ("h=[::1]:8080", {"h": ("::1", 8080)}),
        ("h=::1:8080", {"h": ("::1", 8080)}),
    ],
    ids=["ipv4", "bracketed-ipv6", "bare-ipv6"],
)
def test_resolve_entry_reaches_the_transport(tmp_path, monkeypatch, entry, expected):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("")
    used = []

    def recording_scan_pool(pool, settings):
        used.append(settings)
        return pipeline.ScanRunResult(site_results=[])

    monkeypatch.setattr(pipeline, "scan_pool", recording_scan_pool)
    assert main(["scan", "--seeds", str(seeds), "--no-probe", "--resolve", entry]) == EXIT_CLEAN
    assert used[0].transport.resolve_overrides == expected


def test_scan_wordlist_reaches_the_dictionary_stripper(tmp_path, monkeypatch):
    wordlist = tmp_path / "words.txt"
    wordlist.write_text("zebra\nquokka\n", encoding="utf-8")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("")
    used = []

    def recording_scan_pool(pool, settings):
        used.append(settings)
        return pipeline.ScanRunResult(site_results=[])

    monkeypatch.setattr(pipeline, "scan_pool", recording_scan_pool)
    assert main(["scan", "--seeds", str(seeds), "--wordlist", str(wordlist)]) == EXIT_CLEAN
    randomness = used[0].randomness
    assert randomness.dictionary == ("zebra", "quokka")
    assert strip_dictionary_words("x9zebraQuokkay", randomness) == "x9y"


@pytest.mark.parametrize(
    "argv",
    [["scan", "--budget", "0"], ["scan", "--budget", "-1"], ["scan", "--workers", "0"],
     ["scan", "--workers", "-3"], ["selfcheck", "--workers", "0"]],
    ids=" ".join,
)
def test_nonpositive_budget_or_workers_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(crawler, "ingest_domains", _no_run)
    monkeypatch.setattr(selfcheck, "run_selfcheck", _no_run)
    if argv[0] == "scan":
        argv = argv + ["--seeds", "seeds.txt"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_ERROR
    assert f"argument {argv[1]}: must be a positive integer" in capsys.readouterr().err


def test_scan_with_a_bad_site_budget_is_a_config_error(tmp_path, capsys):
    (tmp_path / "site.json").write_text('{"budget": "abc"}')
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("http://x.test site.json\n")
    assert main(["scan", "--seeds", str(seeds), "--no-probe"]) == EXIT_ERROR
    assert "site budget must be a positive integer" in capsys.readouterr().err


def _scan_one_site(tmp_path, config: dict) -> int:
    (tmp_path / "site.json").write_text(json.dumps(config))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("http://x.test site.json\n")
    return main(["scan", "--seeds", str(seeds), "--no-probe"])


@pytest.mark.parametrize(
    "markers",
    [
        [{"label": "email", "value": "short"}],
        [{"label": "email", "value": "aaaaaaaaaaaaaaaa"}],
        [{"label": "email", "value": "zz7q9x2w8v4n6mkp"},
         {"label": "name", "value": "zz7q9x2w8v4n6mkp"}],
        [{"value": "zz7q9x2w8v4n6mkp"}],
    ],
    ids=["too-short", "low-entropy", "duplicate", "no-label"],
)
def test_scan_with_a_rejected_marker_is_a_config_error(tmp_path, capsys, markers):
    assert _scan_one_site(tmp_path, {"markers": markers}) == EXIT_ERROR
    assert "config error: bad markers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "role, creds",
    [("victim", {"username": "v"}), ("attacker", {"password": "p"})],
    ids=["victim-without-password", "attacker-without-username"],
)
def test_scan_with_incomplete_login_credentials_is_a_config_error(
    tmp_path, capsys, role, creds
):
    login = {"victim": {"username": "v", "password": "p"},
             "attacker": {"username": "a", "password": "p"}}
    login[role] = creds
    assert _scan_one_site(tmp_path, {"login": login}) == EXIT_ERROR
    assert f"login config {role!r} credentials lack" in capsys.readouterr().err


def test_scan_exits_error_when_nothing_was_testable(tmp_path):
    site = catalog.classic_site()
    server = LabServer([site]).start()
    try:
        entry = catalog.seed_entry(site)
        entry["login"]["victim"]["password"] = "wrong"
        seeds = tmp_path / "seeds.txt"
        config = tmp_path / "site.json"
        config.write_text(json.dumps(entry))
        seeds.write_text(f"http://{site.host} site.json\n")
        code = main([
            "scan",
            "--seeds", str(seeds),
            "--resolve", f"{site.host}=127.0.0.1:{server.port}",
            "--rate", "500",
        ])
    finally:
        server.stop()
    assert code == EXIT_ERROR


def test_selfcheck_quick_passes(capsys):
    code = main(["selfcheck", "--quick", "--rate", "500", "--workers", "8"])
    out = capsys.readouterr().out
    assert "disagreements with oracle: 0" in out
    assert "selfcheck PASS" in out
    assert code == EXIT_CLEAN
    # 16 matrix sites and classic-pp; one line per technique: the sites the
    # oracle calls vulnerable, and the sites where the scanner agrees.
    assert "selfcheck: 17 sites x 5 techniques = 85 verdicts" in out
    expected = {"path_parameter": 6, "encoded_newline": 5, "encoded_semicolon": 5,
                "encoded_pound": 5, "encoded_question": 5}
    for technique, vulnerable in expected.items():
        assert f"  {technique:<22}{vulnerable:>26}{17:>16}" in out.splitlines()


def test_selfcheck_fails_when_a_site_fails_to_scan(capsys, monkeypatch):
    """An all-negative site that cannot be scanned costs no verdict the
    oracle would miss, so only its error can fail the check."""
    real_seed_entry = catalog.seed_entry

    def seed_entry(site):
        entry = real_seed_entry(site)
        if site.name == "none-akamai-std":
            entry["login"]["victim"]["password"] = "wrong"
        return entry

    monkeypatch.setattr(catalog, "seed_entry", seed_entry)
    code = main(["selfcheck", "--quick", "--rate", "500", "--workers", "8"])
    out = capsys.readouterr().out
    assert "disagreements with oracle: 0" in out and "inconclusive verdicts: 0" in out
    assert "  site errors: 1\n    none-akamai-std: login to http://none-akamai-std.test/" in out
    assert "selfcheck FAIL" in out
    assert code == EXIT_FINDINGS


def _verdict(page, technique, vulnerable, **fields):
    values = dict(
        page=page, technique=technique, attack_url=page + "/x.css", victim_status=200,
        attacker_status=200, unauth_status=200, markers_leaked=(), secrets=(),
        responses_identical=False, unauth_exploitable=False, vulnerable=vulnerable,
    )
    values.update(fields)
    return ScanVerdict(**values)


def _counts(pages, domains, sites):
    return {"pages": pages, "domains": domains, "sites": sites}


def test_report_records_output_is_pinned(tmp_path, capsys):
    T = PathConfusionTechnique
    secret = SecretCandidate("csrf", "k2Jf9QzX1pLw", SecretSource.HIDDEN_FORM_FIELD,
                             SecretTrigger.KEYWORD_MATCH, 3.58, 12)
    verdicts = [
        _verdict("http://www.a.test/account", T.PATH_PARAMETER, True,
                 markers_leaked=("email",), cache_control="private, max-age=60",
                 cdn_labels=("Akamai",)),
        _verdict("http://shop.a.test/profile", T.ENCODED_SEMICOLON, True,
                 attacker_status=404, secrets=(secret,), responses_identical=True,
                 unauth_exploitable=True, pragma="no-cache", expires="0",
                 cdn_labels=("Cloudflare",)),
        _verdict("http://b.test/", T.PATH_PARAMETER, False, cdn_labels=("Akamai",)),
        _verdict("http://b.test/x", T.ENCODED_POUND, False, inconclusive=True,
                 error="NetworkError: reset"),
    ]
    records = tmp_path / "verdicts.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        write_records(verdicts, fh)
    assert main(["report", "--records", str(records), "--format", "records"]) == EXIT_CLEAN

    one, none = _counts(1, 1, 1), _counts(0, 0, 0)
    techniques = [t.value for t in T]
    by_technique = {"path_parameter": one, "encoded_semicolon": one}
    uniqueness = {
        f"{ti}|{tj}": by_technique.get(ti, none)
        for ti in techniques for tj in techniques if ti != tj
    }
    uniqueness["path_parameter|encoded_semicolon"] = _counts(1, 1, 0)
    uniqueness["encoded_semicolon|path_parameter"] = _counts(1, 1, 0)
    expected = {
        "tested": _counts(3, 3, 2),
        "vulnerable": _counts(2, 2, 1),
        "inconclusive_pages": 1,
        "per_technique": {t: by_technique.get(t, none) for t in techniques},
        "uniqueness": uniqueness,
        "response_codes": {"200": one, "404": one},
        "cache_control_combos": {"max-age=, private": one, "(none)": one},
        "pragma_no_cache": one,
        "expires_present": one,
        "no_cache_headers": none,
        "leak_types": {"markers": one, "marker:email": one, "secrets": one,
                       "secret:hidden_form_field": one},
        "unauth_exploitable": one,
        "cdn_tested": {"Akamai": _counts(2, 2, 2), "Cloudflare": one},
        "cdn_vulnerable": {"Akamai": one, "Cloudflare": one},
        "quarantined": [],
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_ttl_decay_script_shows_the_window_closing():
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "ttl_decay.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    rows = dict(line.split() for line in result.stdout.splitlines()[2:])
    assert rows == {"0": "True", "1800": "True", "3600": "False", "7200": "False",
                    "86400": "False"}


def _parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags - {"--help"}


def test_readme_cli_section_names_exactly_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section)) - {"--no-build-isolation"}
    parser_flags = _parser_flags(build_parser())
    assert documented - parser_flags == set(), "README documents flags the CLI lacks"
    assert parser_flags - documented == set(), "CLI flags missing from README's CLI section"


def test_report_on_a_file_that_is_not_utf8_names_its_line(tmp_path, capsys):
    good = _verdict("http://a.test/", PathConfusionTechnique.PATH_PARAMETER, False)
    records = tmp_path / "verdicts.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        write_records([good], fh)
    with open(records, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    assert main(["report", "--records", str(records)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}:2: not UTF-8")


@pytest.mark.parametrize("redact", [False, True], ids=["plain", "redact"])
@pytest.mark.parametrize("fmt", ["table", "records"])
def test_report_quarantines_a_page_that_is_not_a_url(tmp_path, capsys, fmt, redact):
    T = PathConfusionTechnique
    verdicts = [_verdict("notaurl", T.PATH_PARAMETER, True),
                _verdict("http://a.test/account", T.PATH_PARAMETER, True)]
    records = tmp_path / "verdicts.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        write_records(verdicts, fh)
    argv = ["report", "--records", str(records), "--format", fmt]
    assert main(argv + ["--redact"] * redact) == EXIT_CLEAN
    out = capsys.readouterr().out
    if fmt == "table":
        assert "Quarantined verdicts: 1" in out
        assert "Vulnerable:    1 / 1 / 1" in out
    else:
        stats = json.loads(out)
        assert stats["quarantined"] == [["notaurl", "unparseable page URL"]]
        assert stats["vulnerable"] == _counts(1, 1, 1)
