"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import HSCoNAS
from repro.hardware import LatencyLUT, LatencyPredictor, OnDeviceProfiler
from repro.hardware.calibration import calibrated_devices
from repro.runstate import RunDir
from repro.serve.pipeline import build_front_predictor
from repro.space import space_for_layout


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.device == "edge"
        assert args.target == 34.0

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--device", "tpu"])


class TestCommands:
    def test_predict_writes_lut(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "predict", "--device", "gpu"])
        assert rc == 0
        lut_file = tmp_path / "lut_gpu_a.json"
        assert lut_file.exists()
        payload = json.loads(lut_file.read_text())
        assert payload["device"] == "gpu"
        out = capsys.readouterr().out
        assert "bias B" in out
        assert "RMSE" in out

    def test_table1_baselines_only(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "table1", "--baselines-only"])
        assert rc == 0
        text = (tmp_path / "table1.txt").read_text()
        assert "MobileNetV2" in text
        assert "DARTS" in text
        md = (tmp_path / "table1.md").read_text()
        assert md.startswith("| Model")

    def test_search_writes_artifact(self, tmp_path, capsys):
        rc = main([
            "--out", str(tmp_path),
            "search", "--device", "edge", "--target", "34",
        ])
        assert rc == 0
        artifact = json.loads(
            (tmp_path / "search_edge_a_34ms.json").read_text()
        )
        assert artifact["device"] == "edge"
        assert 0 < artifact["top1_error"] < 100
        assert len(artifact["generations"]) == 20
        assert "ops" in artifact["architecture"]

    def test_front_writes_csv(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "front", "--device", "edge"])
        assert rc == 0
        csv = (tmp_path / "front_edge_a.csv").read_text()
        header, *rows = csv.strip().splitlines()
        assert header == "latency_ms,proxy_accuracy"
        assert len(rows) >= 3
        lats = [float(r.split(",")[0]) for r in rows]
        assert lats == sorted(lats)


class TestBackendFlag:
    """--backend must reach the evaluation layer and never change bytes."""

    def test_front_backend_choice_is_bit_identical(self, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        multi_dir = tmp_path / "multi"
        assert main(["--out", str(serial_dir), "front",
                     "--backend", "serial"]) == 0
        assert main(["--out", str(multi_dir), "front",
                     "--backend", "multiprocess", "--workers", "2"]) == 0
        serial_csv = (serial_dir / "front_edge_a.csv").read_bytes()
        multi_csv = (multi_dir / "front_edge_a.csv").read_bytes()
        assert serial_csv == multi_csv

    def test_predict_backend_choice_is_bit_identical(self, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        multi_dir = tmp_path / "multi"
        assert main(["--out", str(serial_dir), "predict",
                     "--backend", "serial"]) == 0
        assert main(["--out", str(multi_dir), "predict",
                     "--backend", "multiprocess", "--workers", "2"]) == 0
        serial_lut = (serial_dir / "lut_edge_a.json").read_bytes()
        multi_lut = (multi_dir / "lut_edge_a.json").read_bytes()
        assert serial_lut == multi_lut


class TestEnergyCommand:
    def test_energy_writes_csv(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "--out", str(tmp_path),
            "energy", "--device", "edge", "--samples", "12",
        ])
        assert rc == 0
        csv = (tmp_path / "energy_edge_a.csv").read_text()
        header, *rows = csv.strip().splitlines()
        assert header == "latency_ms,energy_mj,predicted_mj"
        assert len(rows) == 12
        out = capsys.readouterr().out
        assert "bias" in out


class TestConfigPassthrough:
    def test_custom_shrink_schedule(self, tmp_path):
        from repro.core import EvolutionConfig, HSCoNAS, HSCoNASConfig
        from repro.hardware import get_device
        from repro.space import SearchSpace, proxy

        space = SearchSpace(proxy())
        cfg = HSCoNASConfig(
            target_ms=1.3,
            lut_samples_per_cell=1,
            bias_calibration_archs=5,
            quality_samples=5,
            shrink_stage_layers=((7,), (5,)),
            evolution=EvolutionConfig(
                generations=2, population_size=8, num_parents=3
            ),
        )
        result = HSCoNAS(space, get_device("gpu"), cfg).run()
        assert set(result.final_space.fixed_layers()) == {7, 5}


# Small invocations of the two commands whose recipes run HSCoNAS's
# stage 1 (and, for shrink, its shrink phase), with their artifacts.
RUN_DIR_COMMANDS = {
    "front": (["front", "--layout", "mini"], "front_edge_mini.csv"),
    "shrink": (
        ["shrink", "--layout", "mini", "--quality-samples", "10"],
        "shrink_edge_mini_34ms.json",
    ),
}


def _invoke(capsys, out, argv):
    rc = main(["--out", str(out)] + argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRunDirectories:
    @pytest.mark.parametrize("command", sorted(RUN_DIR_COMMANDS))
    def test_plain_checkpointed_and_resumed_runs_agree(
        self, tmp_path, capsys, command
    ):
        argv, artifact = RUN_DIR_COMMANDS[command]
        out, run_dir = tmp_path / "out", tmp_path / "run"
        outputs = []
        for extra in ([], ["--run-dir", str(run_dir)],
                      ["--resume", str(run_dir)]):
            rc, stdout, _ = _invoke(capsys, out, argv + extra)
            assert rc == 0
            outputs.append((stdout, (out / artifact).read_bytes()))
        # The resume read every phase's checkpoint back through RunDir's
        # checks, so it also vouches for the run directory.
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("command", sorted(RUN_DIR_COMMANDS))
    def test_old_predictor_payload_is_refused_in_one_line(
        self, tmp_path, capsys, command
    ):
        argv, _ = RUN_DIR_COMMANDS[command]
        out, run_dir = tmp_path / "out", tmp_path / "run"
        rc, _, _ = _invoke(capsys, out, argv + ["--run-dir", str(run_dir)])
        assert rc == 0
        # The payload shape these commands wrote before they checkpointed
        # through HSCoNAS: the LUT and the bias only.
        run = RunDir.open(run_dir)
        payload = run.load_checkpoint("predictor")["payload"]
        run.save_checkpoint(
            "predictor",
            {key: payload[key] for key in ("format", "lut", "bias_ms")},
            complete=True,
        )
        rc, _, stderr = _invoke(
            capsys, out, argv + ["--resume", str(run_dir)]
        )
        assert rc == 2
        assert stderr.startswith("error: predictor checkpoint")
        assert stderr.count("\n") == 1

    def test_hole_punched_predictor_is_refused_before_shrinking(
        self, tmp_path, capsys
    ):
        # A search killed right after its predictor phase, whose saved
        # LUT then lost one cell.
        space = space_for_layout("mini")
        run = RunDir.create(
            tmp_path / "run", "search",
            {"device": "edge", "layout": "mini", "target_ms": 34.0, "seed": 0},
            HSCoNAS.PHASES,
        )
        HSCoNAS(space, calibrated_devices()["edge"]).checkpointed_predictor(run)
        payload = run.load_checkpoint("predictor")["payload"]
        lut = LatencyLUT.from_json(payload["lut"])
        victim = sorted(lut.entries)[5]
        del lut.entries[victim]
        payload["lut"] = lut.to_json()
        run.save_checkpoint("predictor", payload, complete=True)

        rc, stdout, stderr = _invoke(
            capsys, tmp_path / "out",
            ["search", "--layout", "mini", "--resume", str(run.path)],
        )
        assert rc == 2
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert stderr.startswith("error: predictor checkpoint")
        assert lut._miss_message(*victim) in stderr
        assert "(1 missing, 0 recorded as failed probes)" in stderr
        assert not run._checkpoint_path("shrink").exists()

    def test_resume_on_another_device_is_refused(self, tmp_path, capsys):
        argv, _ = RUN_DIR_COMMANDS["shrink"]
        out, run_dir = tmp_path / "out", tmp_path / "run"
        rc, _, _ = _invoke(capsys, out, argv + ["--run-dir", str(run_dir)])
        assert rc == 0
        rc, _, stderr = _invoke(
            capsys, out, argv + ["--device", "gpu", "--resume", str(run_dir)]
        )
        assert rc == 2
        assert "device='edge'" in stderr and "device='gpu'" in stderr
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["shrink", "--quality-samples", "0"],
             "quality_samples must be >= 1"),
            (["front", "--workers", "-1"], "workers must be >= 0"),
        ],
    )
    def test_bad_config_fails_before_the_run_dir_exists(
        self, tmp_path, capsys, argv, message
    ):
        run_dir = tmp_path / "run"
        rc, _, stderr = _invoke(
            capsys, tmp_path / "out",
            argv + ["--layout", "mini", "--run-dir", str(run_dir)],
        )
        assert rc == 2
        assert stderr == f"error: {message}\n"
        assert not run_dir.exists()


def _historical_predictor(space, device_name, seed, samples_per_cell):
    """The front/shrink predictor as both commands once assembled it by
    hand (the reference the HSCoNAS presets must reproduce)."""
    device = calibrated_devices()[device_name]
    lut = LatencyLUT.build(
        space, device, samples_per_cell=samples_per_cell, seed=seed
    )
    predictor = LatencyPredictor(lut, space)
    profiler = OnDeviceProfiler(device, seed=seed)
    predictor.calibrate_bias(space, profiler, num_archs=25, seed=seed + 1)
    return predictor


class TestRecipePresets:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("device", ["edge", "gpu"])
    @pytest.mark.parametrize("layout", ["mini", "a"])
    def test_front_and_shrink_presets_match_historical_recipe(
        self, tmp_path, capsys, layout, device, seed
    ):
        space = space_for_layout(layout)
        front = build_front_predictor(space, device, seed)
        reference = _historical_predictor(space, device, seed, 2)
        assert front.lut.to_json() == reference.lut.to_json()
        assert front.bias_ms == reference.bias_ms

        # The shrink preset lives in the command; read its stage-1
        # output back from the predictor checkpoint.
        run_dir = tmp_path / "run"
        rc, _, _ = _invoke(capsys, tmp_path / "out", [
            "shrink", "--layout", layout, "--device", device,
            "--seed", str(seed), "--quality-samples", "1",
            "--run-dir", str(run_dir),
        ])
        assert rc == 0
        saved = RunDir.open(run_dir).load_checkpoint("predictor")["payload"]
        reference = _historical_predictor(space, device, seed, 3)
        assert saved["lut"] == reference.lut.to_json()
        assert saved["bias_ms"] == reference.bias_ms
