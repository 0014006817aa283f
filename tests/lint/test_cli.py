"""End-to-end CLI behaviour: exit codes, formats, domain mode."""

import json

import pytest

from repro.hardware import LatencyLUT, get_device
from repro.lint.cli import main
from repro.space import SearchSpace, proxy

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

    def test_json_format(self, violation_file, capsys):
        assert main([violation_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule_id"] == "RL101"
        assert payload[0]["line"] == 3

    def test_select_filters_rules(self, violation_file):
        assert main([violation_file, "--select", "RL104"]) == 0

    def test_ignore_filters_rules(self, violation_file):
        assert main([violation_file, "--ignore", "RL101"]) == 0

    def test_unknown_rule_is_usage_error(self, violation_file):
        with pytest.raises(SystemExit) as exc:
            main([violation_file, "--select", "RL999"])
        assert exc.value.code == 2

    def test_no_paths_no_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RL101" in out and "RD201" in out


class TestDomainCli:
    def test_presets_are_clean(self, capsys):
        assert main(["--domain"]) == 0

    def test_saved_lut_coverage_clean(self, tmp_path, capsys):
        space = SearchSpace(proxy())
        lut = LatencyLUT.build(
            space, get_device("edge"), samples_per_cell=1, seed=0
        )
        path = tmp_path / "lut.json"
        path.write_text(lut.to_json())
        assert main(
            ["--domain", "--preset", "proxy", "--lut", str(path)]
        ) == 0

    def test_hole_punched_lut_fails_and_names_cell(self, tmp_path, capsys):
        space = SearchSpace(proxy())
        lut = LatencyLUT.build(
            space, get_device("edge"), samples_per_cell=1, seed=0
        )
        victim = sorted(lut.entries)[0]
        del lut.entries[victim]
        path = tmp_path / "lut.json"
        path.write_text(lut.to_json())
        assert main(
            ["--domain", "--preset", "proxy", "--lut", str(path)]
        ) == 1
        out = capsys.readouterr().out
        assert "RD201" in out
        layer, op, cin, _factor = victim
        assert f"layer={layer} op={op} cin={cin}" in out

    def test_build_lut_coverage(self, capsys):
        assert main(
            ["--domain", "--preset", "mini", "--build-lut",
             "--device", "edge"]
        ) == 0

    def test_lut_and_build_lut_conflict(self):
        with pytest.raises(SystemExit) as exc:
            main(["--domain", "--lut", "x.json", "--build-lut"])
        assert exc.value.code == 2

    def test_missing_lut_file_is_one_line_error(self, capsys):
        assert main(["--domain", "--lut", "no/such/lut.json"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "Traceback" not in err


class TestRunDirCli:
    def _make_run(self, tmp_path):
        from repro.runstate import RunDir

        return RunDir.create(
            tmp_path / "run",
            kind="search",
            config={"seed": 0},
            phase_order=("predictor", "shrink", "search"),
        )

    def test_valid_run_dir_exits_zero(self, tmp_path, capsys):
        run = self._make_run(tmp_path)
        run.save_checkpoint("predictor", {"x": 1}, complete=True)
        assert main(["--run-dir", str(run.path)]) == 0

    def test_tampered_run_dir_fails_with_rd211(self, tmp_path, capsys):
        run = self._make_run(tmp_path)
        run.save_checkpoint("search", {"gen": 1})
        target = run._checkpoint_path("search")
        envelope = json.loads(target.read_text())
        envelope["record"]["payload"]["gen"] = 2
        target.write_text(json.dumps(envelope))  # repro-lint: disable=RL106
        assert main(["--run-dir", str(run.path)]) == 1
        assert "RD211" in capsys.readouterr().out

    def test_missing_run_dir_is_one_line_error(self, capsys):
        assert main(["--run-dir", "no/such/run"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "Traceback" not in err


class TestStrictMode:
    def test_warning_passes_without_strict(self):
        # Domain warning: RD200 (LUT built for another device) is a
        # warning, so non-strict passes and strict fails.
        from repro.lint import check_lut_coverage
        from repro.lint.findings import exit_code

        space = SearchSpace(proxy())
        lut = LatencyLUT.build(
            space, get_device("edge"), samples_per_cell=1, seed=0
        )
        findings = check_lut_coverage(space, lut, expected_device="gpu")
        assert [f.rule_id for f in findings] == ["RD200"]
        assert exit_code(findings, strict=False) == 0
        assert exit_code(findings, strict=True) == 1
