"""Tests for run directories: manifest, checkpoints, resume contracts."""

import json
import shutil

import pytest

from repro.runstate import (
    CorruptCheckpointError,
    MemoryCheckpoint,
    PhaseCheckpoint,
    RunDir,
    RunStateError,
)
from repro.runstate.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    RunManifest,
    validate_manifest_dict,
)

PHASES = ("predictor", "shrink", "search")


def make_run(tmp_path, name="run"):
    return RunDir.create(
        tmp_path / name, kind="search", config={"seed": 3}, phase_order=PHASES
    )


# Run directories no crash window leaves behind. Each returns the phase
# whose read must fail and what its one-line error says.
def _checkpoint_of_another_phase(run):
    run.save_checkpoint("predictor", {"x": 1}, complete=True)
    shutil.copyfile(
        run._checkpoint_path("predictor"), run._checkpoint_path("shrink")
    )
    return "shrink", "belongs to phase 'predictor'"


def _complete_phase_without_checkpoint(run):
    run.save_checkpoint("predictor", {"x": 1}, complete=True)
    run._checkpoint_path("predictor").unlink()
    return "predictor", "is missing"


def _complete_phase_with_checkpoint_in_progress(run):
    run.save_checkpoint("predictor", {"x": 1})
    in_progress = run._checkpoint_path("predictor").read_bytes()
    run.save_checkpoint("predictor", {"x": 1}, complete=True)
    run._checkpoint_path("predictor").write_bytes(in_progress)
    return "predictor", "still in progress"


class TestManifestValidation:
    def payload(self):
        return RunManifest(
            kind="search", config={"seed": 3}, phase_order=list(PHASES)
        ).to_dict()

    def test_fresh_manifest_is_valid(self):
        assert validate_manifest_dict(self.payload()) == []

    def test_non_object_rejected(self):
        assert validate_manifest_dict([1, 2]) != []

    def test_wrong_version_rejected(self):
        payload = self.payload()
        payload["version"] = MANIFEST_VERSION + 1
        assert any("version" in p for p in validate_manifest_dict(payload))

    def test_unknown_kind_rejected(self):
        payload = self.payload()
        payload["kind"] = "banana"
        assert any("kind" in p for p in validate_manifest_dict(payload))

    def test_phase_order_entry_mismatch(self):
        payload = self.payload()
        del payload["phases"]["shrink"]
        assert any("shrink" in p for p in validate_manifest_dict(payload))

    def test_phase_ordering_must_be_monotone(self):
        payload = self.payload()
        # A later phase complete while an earlier one is pending is
        # impossible in a real run and must be flagged.
        payload["phases"]["search"]["status"] = "complete"
        problems = validate_manifest_dict(payload)
        assert any("ordering" in p for p in problems)

    def test_at_most_one_running_phase(self):
        payload = self.payload()
        payload["phases"]["predictor"]["status"] = "running"
        payload["phases"]["shrink"]["status"] = "running"
        problems = validate_manifest_dict(payload)
        assert any("running" in p for p in problems)

    def test_invalid_status_rejected(self):
        payload = self.payload()
        payload["phases"]["shrink"]["status"] = "done"
        assert any("status" in p for p in validate_manifest_dict(payload))


class TestRunDirLifecycle:
    def test_create_then_open(self, tmp_path):
        run = make_run(tmp_path)
        assert (run.path / MANIFEST_NAME).exists()
        reopened = RunDir.open(run.path)
        assert reopened.manifest.kind == "search"
        assert reopened.config == {"seed": 3}

    def test_create_over_existing_refused(self, tmp_path):
        run = make_run(tmp_path)
        with pytest.raises(RunStateError, match="--resume"):
            RunDir.create(run.path, "search", {}, PHASES)

    def test_open_missing_dir_refused(self, tmp_path):
        with pytest.raises(RunStateError, match="does not exist"):
            RunDir.open(tmp_path / "nope")

    def test_open_non_run_dir_refused(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(RunStateError, match="not a run directory"):
            RunDir.open(tmp_path / "plain")

    def test_open_wrong_kind_refused(self, tmp_path):
        run = make_run(tmp_path)
        with pytest.raises(RunStateError, match="search"):
            RunDir.open(run.path, expect_kind="shrink")

    def test_open_config_mismatch_refused(self, tmp_path):
        run = make_run(tmp_path)
        with pytest.raises(RunStateError, match="seed"):
            RunDir.open(run.path, expect_config={"seed": 4})

    def test_open_matching_expectations(self, tmp_path):
        run = make_run(tmp_path)
        RunDir.open(run.path, expect_kind="search", expect_config={"seed": 3})

    def test_corrupt_manifest_refused(self, tmp_path):
        run = make_run(tmp_path)
        (run.path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(RunStateError, match="corrupt"):
            RunDir.open(run.path)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        run = make_run(tmp_path)
        payload = {"gen": 4, "values": [0.25, 1.5]}
        run.save_checkpoint("search", payload)
        record = RunDir.open(run.path).load_checkpoint("search")
        assert record["payload"] == payload
        assert record["complete"] is False

    def test_missing_checkpoint_is_none(self, tmp_path):
        run = make_run(tmp_path)
        assert run.load_checkpoint("shrink") is None

    def test_unknown_phase_rejected(self, tmp_path):
        run = make_run(tmp_path)
        with pytest.raises(RunStateError, match="not part of this run"):
            run.save_checkpoint("training", {})
        with pytest.raises(RunStateError, match="not part of this run"):
            run.load_checkpoint("training")

    def test_complete_flag_updates_manifest(self, tmp_path):
        run = make_run(tmp_path)
        run.save_checkpoint("predictor", {"x": 1})
        assert run.manifest.status("predictor") == "running"
        run.save_checkpoint("predictor", {"x": 1}, complete=True)
        assert run.manifest.status("predictor") == "complete"
        assert run.phase_complete("predictor")

    def test_checkpoint_flag_wins_over_manifest(self, tmp_path):
        # Simulates dying between the checkpoint write and the manifest
        # update: the checkpoint says complete, the manifest still says
        # running — the resume must trust the checkpoint.
        run = make_run(tmp_path)
        run.save_checkpoint("predictor", {"x": 1}, complete=True)
        run.manifest.set_status("predictor", "running")
        run._write_manifest()
        assert RunDir.open(run.path).phase_complete("predictor")

    def test_bit_flip_detected(self, tmp_path):
        run = make_run(tmp_path)
        run.save_checkpoint("search", {"gen": 4})
        target = run._checkpoint_path("search")
        envelope = json.loads(target.read_text())
        envelope["record"]["payload"]["gen"] = 5  # tamper
        target.write_text(json.dumps(envelope))  # repro-lint: disable=RL106
        with pytest.raises(CorruptCheckpointError, match="checksum"):
            RunDir.open(run.path).load_checkpoint("search")

    def test_truncated_file_detected(self, tmp_path):
        run = make_run(tmp_path)
        run.save_checkpoint("search", {"gen": 4})
        target = run._checkpoint_path("search")
        target.write_text(target.read_text()[: len(target.read_text()) // 2])
        with pytest.raises(CorruptCheckpointError, match="unreadable"):
            run.load_checkpoint("search")

    @pytest.mark.parametrize(
        "fault",
        [
            _checkpoint_of_another_phase,
            _complete_phase_without_checkpoint,
            _complete_phase_with_checkpoint_in_progress,
        ],
        ids=["another-phase", "complete-but-missing", "complete-but-in-progress"],
    )
    def test_inconsistent_run_dir_refused_in_one_line(self, tmp_path, fault):
        run = make_run(tmp_path)
        phase, reason = fault(run)
        resumed = RunDir.open(run.path)
        with pytest.raises(CorruptCheckpointError, match=reason) as exc:
            resumed.phase_complete(phase)
        assert "\n" not in str(exc.value)

    def test_future_format_refused(self, tmp_path):
        run = make_run(tmp_path)
        run.save_checkpoint("search", {"gen": 4})
        target = run._checkpoint_path("search")
        envelope = json.loads(target.read_text())
        envelope["record"]["format"] = 99
        # Re-checksum so only the format check can fire.
        from repro.runstate.atomic import sha256_text
        from repro.runstate.rundir import _canonical_json

        envelope["sha256"] = sha256_text(_canonical_json(envelope["record"]))
        target.write_text(json.dumps(envelope))  # repro-lint: disable=RL106
        with pytest.raises(CorruptCheckpointError, match="format"):
            run.load_checkpoint("search")


class TestPhaseCheckpoint:
    def test_owner_state_piggybacks(self, tmp_path):
        run = make_run(tmp_path)
        owner = {"cache": {"hits": 3}}
        restored = {}
        ckpt = PhaseCheckpoint(
            run,
            "search",
            extra_save=lambda: dict(owner),
            extra_restore=restored.update,
        )
        ckpt.save({"gen": 1})
        assert ckpt.load() == {"gen": 1, "owner_state": {"cache": {"hits": 3}}}
        assert restored == {"cache": {"hits": 3}}

    def test_fresh_start_returns_none(self, tmp_path):
        run = make_run(tmp_path)
        ckpt = PhaseCheckpoint(run, "search")
        assert ckpt.load() is None
        assert not ckpt.is_complete()

    def test_complete_round_trip(self, tmp_path):
        run = make_run(tmp_path)
        ckpt = PhaseCheckpoint(run, "shrink")
        ckpt.save({"done": True}, complete=True)
        assert ckpt.is_complete()


class TestMemoryCheckpoint:
    def test_json_round_trip_semantics(self):
        ckpt = MemoryCheckpoint()
        assert ckpt.load() is None
        ckpt.save({"t": (1, 2)})
        # Tuples degrade to lists exactly as a real file would make them.
        assert ckpt.load() == {"t": [1, 2]}
        assert ckpt.saves == 1
        assert not ckpt.is_complete()
        ckpt.save({"t": [1, 2]}, complete=True)
        assert ckpt.is_complete()
