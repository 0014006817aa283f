"""Retired rule RD211's run-directory cases, held by ``RunDir`` itself:
opening a run directory and reading its checkpoints, which every
``--resume`` does, fails in one line on each of them."""

import json

import pytest

from repro.cli import main as repro_main
from repro.runstate import RunDir, RunStateError
from repro.runstate.manifest import MANIFEST_NAME

PHASES = ("predictor", "shrink", "search")


@pytest.fixture()
def run(tmp_path):
    return RunDir.create(
        tmp_path / "run", kind="search", config={"seed": 0}, phase_order=PHASES
    )


def _resume_error(path):
    """The one-line error a resume of ``path`` stops with, or ``None``."""
    try:
        run = RunDir.open(path)
        for phase in run.manifest.phase_order:
            run.load_checkpoint(phase)
    except RunStateError as exc:
        return str(exc)
    return None


class TestCheckRunDir:
    def test_valid_run_dir_is_clean(self, run):
        run.save_checkpoint("predictor", {"lut": 1}, complete=True)
        run.save_checkpoint("shrink", {"stage": 0})
        assert _resume_error(run.path) is None

    def test_missing_dir_is_one_finding(self, tmp_path):
        error = _resume_error(tmp_path / "nope")
        assert "does not exist" in error
        assert "\n" not in error

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "plain").mkdir()
        assert MANIFEST_NAME in _resume_error(tmp_path / "plain")

    def test_unreadable_manifest(self, run):
        (run.path / MANIFEST_NAME).write_text("{truncated")
        assert "corrupt" in _resume_error(run.path)

    def test_bad_manifest_schema_reported(self, run):
        payload = json.loads((run.path / MANIFEST_NAME).read_text())
        payload["version"] = 999
        (run.path / MANIFEST_NAME).write_text(  # repro-lint: disable=RL106
            json.dumps(payload)
        )
        assert "version" in _resume_error(run.path)

    def test_tampered_checkpoint_reported(self, run):
        run.save_checkpoint("search", {"gen": 2})
        target = run._checkpoint_path("search")
        envelope = json.loads(target.read_text())
        envelope["record"]["payload"]["gen"] = 3
        target.write_text(json.dumps(envelope))  # repro-lint: disable=RL106
        assert "checksum" in _resume_error(run.path)

    def test_complete_phase_missing_checkpoint_reported(self, run):
        run.save_checkpoint("predictor", {"x": 1}, complete=True)
        run._checkpoint_path("predictor").unlink()
        assert "missing" in _resume_error(run.path)

    def test_findings_name_the_run_dir_component(self, tmp_path):
        assert str(tmp_path / "nope") in _resume_error(tmp_path / "nope")


class TestRunDirCli:
    """The retired ``--run-dir`` audit is the resume itself."""

    def test_missing_run_dir_is_one_line_error(self, capsys):
        assert repro_main(["shrink", "--resume", "no/such/run"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert err.count("\n") == 1
