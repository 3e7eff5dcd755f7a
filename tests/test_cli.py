"""End-to-end command-line behavior."""

import argparse
import json
import re
from pathlib import Path

from wcdscan.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, build_parser, main
from wcdscan.lab import catalog
from wcdscan.lab.server import LabServer


def test_scan_empty_seed_pool_is_clean(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# nothing to scan\n")
    code = main(["scan", "--seeds", str(seeds), "--no-probe"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN
    assert "Tested:        0 / 0 / 0" in out


def test_scan_missing_seed_file_is_config_error(capsys):
    assert main(["scan", "--seeds", "/does/not/exist"]) == EXIT_ERROR


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


def test_lab_export_round_trips(tmp_path):
    target = tmp_path / "scenarios.json"
    code = main(["lab", "--catalog", "support", "--export", str(target)])
    assert code == EXIT_CLEAN
    loaded = catalog.load_scenarios(str(target))
    assert {s.name for s in loaded} >= {"classic-pp", "sitemap", "pacing"}


def test_bad_resolve_flag_is_config_error(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("http://x.test\n")
    assert main(["scan", "--seeds", str(seeds), "--resolve", "garbage"]) == EXIT_ERROR


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
