"""CLI integration for --flow / --sarif / --stats and inline
suppression, plus the two whole-repo contracts: ``src`` is clean, and a
combined run parses each file exactly once."""

import json
import os

import pytest

from repro.lint.astcache import AstCache, collect_python_files
from repro.lint.ast_rules import lint_paths
from repro.lint.cli import main
from repro.lint.flow import analyze_flow

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.abspath(os.path.join(HERE, "..", "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")

BAD_LOCKS = os.path.join(FIXTURES, "fx_locks_bad")
CLEAN_LOCKS = os.path.join(FIXTURES, "fx_locks_clean")


class TestFlowFlag:
    def test_flow_reports_rf_findings(self, capsys):
        assert main([BAD_LOCKS, "--flow"]) == 1
        out = capsys.readouterr().out
        assert "RF301" in out and "RF302" in out

    def test_without_flow_rf_rules_stay_off(self, capsys):
        assert main([BAD_LOCKS]) == 0
        assert "RF" not in capsys.readouterr().out

    def test_flow_without_paths_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--flow"])
        assert exc.value.code == 2

    def test_list_rules_includes_flow_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RF300", "RF301", "RF302", "RF303"):
            assert rule_id in out


class TestSrcIsClean:
    def test_src_flow_passes(self):
        # No baseline file: the one accepted finding (RL109 in
        # resilience/chaos.py) carries its reason in an inline comment.
        assert main([SRC, "--flow"]) == 0


class TestParseOnce:
    def test_combined_run_parses_each_file_exactly_once(self):
        cache = AstCache()
        lint_paths([BAD_LOCKS], cache=cache)
        analyze_flow([BAD_LOCKS], cache=cache)
        stats = cache.stats()
        expected = len(collect_python_files([BAD_LOCKS]))
        assert stats["files"] == expected
        assert stats["parses"] == expected
        # The flow pass re-requested every tree and hit the cache.
        assert stats["hits"] >= expected

    def test_stats_line_reports_parse_counts(self, capsys):
        assert main([BAD_LOCKS, "--flow", "--stats"]) == 1
        out = capsys.readouterr().out
        assert "repro.lint stats: 3 files, 3 parses, 3 cache hits" in out
        assert "flow: 3 files" in out


class TestSarifFlag:
    def test_sarif_written_alongside_report(self, tmp_path, capsys):
        out_path = tmp_path / "findings.sarif"
        assert main(
            [BAD_LOCKS, "--flow", "--sarif", str(out_path)]
        ) == 1
        document = json.loads(out_path.read_text())
        assert document["version"] == "2.1.0"
        results = document["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"RF301", "RF302"}
        # Physical locations point into the fixture package.
        uris = {
            r["locations"][0]["physicalLocation"]["artifactLocation"][
                "uri"
            ]
            for r in results
        }
        assert all("fx_locks_bad" in uri for uri in uris)

    def test_clean_run_writes_empty_sarif(self, tmp_path):
        out_path = tmp_path / "findings.sarif"
        assert main(
            [CLEAN_LOCKS, "--flow", "--sarif", str(out_path)]
        ) == 0
        document = json.loads(out_path.read_text())
        assert document["runs"][0]["results"] == []


class TestInlineSuppression:
    def test_disable_comment_silences_rf_finding(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(
            "import threading\n"
            "\n"
            "\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.value = 0\n"
            "\n"
            "    def set(self, value):\n"
            "        with self._lock:\n"
            "            self.value = value\n"
            "\n"
            "    def peek(self):\n"
            "        return self.value  "
            "# repro-lint: disable=RF301\n"
        )
        findings, _ = analyze_flow([str(package)])
        assert findings == []

    def test_disable_comment_silences_rl109(self, tmp_path):
        # RL109 is in scope only under repro/serve, parallel, resilience.
        package = tmp_path / "repro" / "resilience"
        package.mkdir(parents=True)
        for directory in (package.parent, package):
            (directory / "__init__.py").write_text("")
        stall = "import threading\n\n\ndef stall():\n    threading.Event().wait()"
        module = package / "stall.py"
        module.write_text(stall + "\n")
        assert main([str(package.parent), "--flow"]) == 1
        module.write_text(stall + "  # repro-lint: disable=RL109\n")
        assert main([str(package.parent), "--flow"]) == 0
