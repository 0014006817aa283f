"""Versioned artifact: round-trip fidelity and loud corruption failure."""

import json

import numpy as np
import pytest

from repro.space import space_for_layout
from repro.tabular import (
    SCHEMA_VERSION,
    TabularArtifactError,
    TabularBenchmark,
    load_artifact,
    load_manifest,
    save_artifact,
)


@pytest.fixture()
def saved(micro_table, tmp_path):
    return save_artifact(micro_table, tmp_path / "artifact")


class TestRoundTrip:
    def test_bit_identical_columns(
        self, micro_table, saved, micro_space, tmp_path
    ):
        with_energy = TabularBenchmark(
            micro_space,
            indices=micro_table.indices,
            accuracy=micro_table.accuracy_column(),
            latency={
                device: micro_table.latency_column(device)
                for device in micro_table.devices
            },
            energy=micro_table.accuracy_column() * 3.0,
            exhaustive=micro_table.exhaustive,
            primary_device=micro_table.primary_device,
        )
        for table, path in (
            (micro_table, saved),
            (with_energy, save_artifact(with_energy, tmp_path / "energy")),
        ):
            restored = load_artifact(path, space=micro_space)
            assert restored.indices == table.indices
            assert np.array_equal(
                restored.accuracy_column(), table.accuracy_column()
            )
            for device in table.devices:
                assert np.array_equal(
                    restored.latency_column(device),
                    table.latency_column(device),
                )
            energy = table.energy_column()
            assert (restored.energy_column() is None) == (energy is None)
            if energy is not None:
                assert np.array_equal(restored.energy_column(), energy)

    def test_provenance_preserved(self, micro_table, saved, micro_space):
        restored = load_artifact(saved, space=micro_space)
        assert restored.exhaustive
        assert restored.recipe == "front"
        assert restored.build_seed == 0
        assert restored.devices == micro_table.devices
        assert restored.primary_device == "edge"
        assert restored.fingerprint == micro_table.fingerprint

    def test_manifest_contents(self, saved):
        manifest = load_manifest(saved)
        assert manifest["format"] == SCHEMA_VERSION
        assert manifest["devices"] == ["edge", "gpu"]
        assert manifest["num_archs"] == 100
        assert set(manifest["columns"]) == {
            "index", "accuracy", "latency__edge", "latency__gpu",
        }
        # Checksums are real sha256 hex digests, one per column.
        assert all(
            len(digest) == 64 for digest in manifest["columns"].values()
        )

    def test_layout_recorded_loads_without_space(self, tmp_path):
        space = space_for_layout("mini")
        table = TabularBenchmark(
            space,
            indices=[0, 7, 19],
            accuracy=[0.1, 0.2, 0.3],
            latency={"edge": [1.0, 2.0, 3.0]},
        )
        path = save_artifact(table, tmp_path / "mini", layout="mini")
        restored = load_artifact(path)  # no space handed in
        assert restored.indices == (0, 7, 19)
        assert restored.fingerprint == table.fingerprint

    def test_no_layout_and_no_space_is_actionable(self, saved):
        with pytest.raises(TabularArtifactError, match="records no layout"):
            load_artifact(saved)


class TestCorruptionDetection:
    def test_error_is_a_value_error(self):
        assert issubclass(TabularArtifactError, ValueError)

    def test_missing_manifest(self, tmp_path, micro_space):
        with pytest.raises(
            TabularArtifactError, match="not a tabular artifact"
        ):
            load_artifact(tmp_path / "nowhere", space=micro_space)

    def test_missing_columns_file(self, saved, micro_space):
        (saved / "columns.npz").unlink()
        with pytest.raises(TabularArtifactError, match="missing"):
            load_artifact(saved, space=micro_space)

    def test_invalid_manifest_json(self, saved, micro_space):
        (saved / "manifest.json").write_text("{not json")
        with pytest.raises(TabularArtifactError, match="not valid JSON"):
            load_artifact(saved, space=micro_space)

    def test_wrong_schema_version(self, saved, micro_space):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["format"] = SCHEMA_VERSION + 1
        (saved / "manifest.json").write_text(  # repro-lint: disable=RL106
            json.dumps(manifest)
        )
        with pytest.raises(TabularArtifactError, match="rebuild"):
            load_artifact(saved, space=micro_space)

    def test_tampered_fingerprint(self, saved, micro_space):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["fingerprint"] = "0" * 64
        (saved / "manifest.json").write_text(  # repro-lint: disable=RL106
            json.dumps(manifest)
        )
        with pytest.raises(
            TabularArtifactError, match="different space"
        ):
            load_artifact(saved, space=micro_space)

    def test_wrong_space_fails_before_lookups(self, saved, proxy_space):
        with pytest.raises(
            TabularArtifactError, match="different space"
        ):
            load_artifact(saved, space=proxy_space)

    def test_corrupted_column_fails_checksum(self, saved, micro_space):
        with np.load(saved / "columns.npz") as payload:
            columns = {name: payload[name] for name in payload.files}
        columns["accuracy"] = columns["accuracy"].copy()
        columns["accuracy"][3] += 0.25  # a single flipped value
        with open(saved / "columns.npz", "wb") as handle:
            np.savez(handle, **columns)
        with pytest.raises(TabularArtifactError, match="checksum"):
            load_artifact(saved, space=micro_space)

    def test_column_set_mismatch(self, saved, micro_space):
        with np.load(saved / "columns.npz") as payload:
            columns = {name: payload[name] for name in payload.files}
        del columns["latency__gpu"]
        with open(saved / "columns.npz", "wb") as handle:
            np.savez(handle, **columns)
        with pytest.raises(
            TabularArtifactError, match="does not match its"
        ):
            load_artifact(saved, space=micro_space)
