"""End-to-end CLI behaviour: exit codes and the option set."""

import pytest

from repro.lint.cli import main

CLEAN = "def f(x, rng):\n    return rng.normal()\n"
VIOLATION = "import numpy as np\n\nnp.random.seed(0)\n"


@pytest.fixture()
def violation_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(VIOLATION)
    return str(path)


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "good.py"
    path.write_text(CLEAN)
    return str(path)


class TestCodeLintCli:
    def test_clean_file_exits_zero(self, clean_file, capsys):
        assert main([clean_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, violation_file, capsys):
        assert main([violation_file]) == 1
        out = capsys.readouterr().out
        assert "RL101" in out
        assert "bad.py:3" in out

    def test_directory_walk(self, tmp_path, violation_file):
        assert main([str(tmp_path)]) == 1

    def test_no_paths_no_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_every_finding_fails(self, tmp_path, capsys):
        # RL106: a JSON artifact written without the atomic helper.
        path = tmp_path / "save.py"
        path.write_text(
            "import json\n\n\ndef save(path, obj):\n"
            "    path.write_text(json.dumps(obj))\n"
        )
        assert main([str(path)]) == 1
        assert "RL106 error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option",
        [
            ["--domain"],
            ["--preset", "mini"],
            ["--build-lut"],
            ["--lut", "lut.json"],
            ["--device", "edge"],
            ["--run-dir", "run"],
        ],
        ids=lambda option: option[0],
    )
    def test_retired_artifact_options_are_usage_errors(
        self, clean_file, option
    ):
        with pytest.raises(SystemExit) as exc:
            main([clean_file] + option)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["--select", "RL101"],
            ["--ignore", "RL101"],
            ["--format", "json"],
            ["--strict"],
            ["--baseline", "lint_baseline.json"],
        ],
        ids=lambda option: option[0],
    )
    def test_retired_report_options_are_usage_errors(
        self, violation_file, option
    ):
        # The report is fixed: every rule runs and every finding fails.
        with pytest.raises(SystemExit) as exc:
            main([violation_file] + option)
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL101" in out and "RD2" not in out
