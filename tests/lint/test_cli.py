"""End-to-end CLI behaviour: exit codes and the option set."""

import pytest

from repro.cli import main as repro_main
from repro.hardware import LatencyLUT, get_device
from repro.lint.cli import main
from repro.runstate import RunDir
from repro.space import SearchSpace, mini, proxy

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


class TestDomainCli:
    """What the retired ``--domain --lut``/``--build-lut`` modes proved,
    checked where a LUT enters a run: a resume reads its LUT back from
    JSON, and ``HSCoNAS`` refuses it unless ``uncovered`` allows it."""

    def test_saved_lut_coverage_clean(self):
        space = SearchSpace(proxy())
        lut = LatencyLUT.build(
            space, get_device("edge"), samples_per_cell=1, seed=0
        )
        assert LatencyLUT.from_json(lut.to_json()).uncovered(space) == (0, "")

    def test_hole_punched_lut_fails_and_names_cell(self):
        space = SearchSpace(proxy())
        lut = LatencyLUT.build(
            space, get_device("edge"), samples_per_cell=1, seed=0
        )
        victim = sorted(lut.entries)[0]
        del lut.entries[victim]
        missing, message = LatencyLUT.from_json(lut.to_json()).uncovered(space)
        assert missing == 1
        layer, op, cin, _factor = victim
        assert f"layer={layer} op={op} cin={cin}" in message

    def test_build_lut_coverage(self):
        space = SearchSpace(mini())
        lut = LatencyLUT.build(space, get_device("edge"), samples_per_cell=1)
        assert lut.uncovered(space) == (0, "")

    def test_missing_lut_file_is_one_line_error(self, tmp_path, capsys):
        # The LUT a resume reads is the completed predictor checkpoint.
        argv = ["--out", str(tmp_path / "out"), "shrink", "--layout", "mini",
                "--quality-samples", "2"]
        run_dir = str(tmp_path / "run")
        assert repro_main(argv + ["--run-dir", run_dir]) == 0
        RunDir.open(run_dir)._checkpoint_path("predictor").unlink()
        capsys.readouterr()
        assert repro_main(argv + ["--resume", run_dir]) == 2
        err = capsys.readouterr().err
        assert "predictor" in err and "is missing" in err
        assert err.count("\n") == 1


class TestRunDirCli:
    """The retired ``--run-dir`` audit is the resume itself."""

    def test_missing_run_dir_is_one_line_error(self, capsys):
        assert repro_main(["shrink", "--resume", "no/such/run"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert err.count("\n") == 1
