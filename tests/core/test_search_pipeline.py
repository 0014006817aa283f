"""Tests for the end-to-end HSCoNAS pipeline."""

import pytest

from repro.core import EvolutionConfig, HSCoNAS, HSCoNASConfig
from repro.hardware import get_device
from repro.hardware.faults import FlakyDevice, RetryPolicy
from repro.runstate import RunDir


@pytest.fixture(scope="module")
def quick_config():
    return HSCoNASConfig(
        target_ms=1.3,  # inside the proxy space's 0.9-1.5 ms GPU range
        lut_samples_per_cell=1,
        bias_calibration_archs=8,
        quality_samples=10,
        evolution=EvolutionConfig(
            generations=4, population_size=12, num_parents=5
        ),
        seed=0,
    )


@pytest.fixture(scope="module")
def pipeline_result(proxy_space, quick_config):
    nas = HSCoNAS(proxy_space, get_device("gpu"), quick_config)
    return nas.run()


class TestConfigValidation:
    def test_defaults_match_paper(self):
        cfg = HSCoNASConfig()
        assert cfg.quality_samples == 100  # N in Eq. 4
        assert cfg.evolution.generations == 20
        assert cfg.enable_shrinking

    def test_invalid_target_raises(self):
        with pytest.raises(ValueError):
            HSCoNASConfig(target_ms=-1.0)

    def test_nonnegative_beta_raises(self):
        with pytest.raises(ValueError):
            HSCoNASConfig(beta=0.0)


class TestPipeline:
    def test_discovers_valid_architecture(self, proxy_space, pipeline_result):
        assert proxy_space.contains(pipeline_result.arch)

    def test_latency_near_target(self, pipeline_result, quick_config):
        assert pipeline_result.measured_latency_ms == pytest.approx(
            quick_config.target_ms, rel=0.25
        )

    def test_predictor_calibrated(self, pipeline_result):
        assert pipeline_result.predictor.calibrated
        assert pipeline_result.bias_ms > 0.0

    def test_shrinking_happened(self, pipeline_result):
        assert pipeline_result.shrink is not None
        assert pipeline_result.final_space.fixed_layers()

    def test_search_inside_shrunk_space(self, pipeline_result):
        fixed = pipeline_result.final_space.fixed_layers()
        for layer, op in fixed.items():
            assert pipeline_result.arch.ops[layer] == op

    def test_errors_plausible(self, pipeline_result):
        assert 5.0 < pipeline_result.top1_error < 60.0
        assert pipeline_result.top5_error < pipeline_result.top1_error

    def test_summary_renders(self, pipeline_result):
        text = pipeline_result.summary()
        assert "top-1" in text
        assert "bias B" in text

    def test_shrinking_disabled(self, proxy_space, quick_config):
        from dataclasses import replace

        cfg = replace(quick_config, enable_shrinking=False)
        result = HSCoNAS(proxy_space, get_device("gpu"), cfg).run()
        assert result.shrink is None
        assert not result.final_space.fixed_layers()

    def test_reproducible(self, proxy_space, quick_config, pipeline_result):
        again = HSCoNAS(proxy_space, get_device("gpu"), quick_config).run()
        assert again.arch == pipeline_result.arch

    def test_different_targets_different_archs(self, proxy_space, quick_config):
        from dataclasses import replace

        cfg_fast = replace(quick_config, target_ms=1.0)
        fast = HSCoNAS(proxy_space, get_device("gpu"), cfg_fast).run()
        slow_result = HSCoNAS(
            proxy_space, get_device("gpu"), quick_config
        ).run()
        assert fast.measured_latency_ms < slow_result.measured_latency_ms


def _fingerprint(result):
    return {
        "arch": result.arch.to_dict(),
        "errors": (result.top1_error, result.top5_error),
        "latency_ms": (
            result.predicted_latency_ms,
            result.measured_latency_ms,
            result.bias_ms,
        ),
        "cache_stats": result.search.cache_stats,
        "generations": [g.best.score for g in result.search.generations],
        "shrink": result.shrink.to_dict(),
        "missing_cells": result.degradation.missing_cells,
    }


class TestDegradedResume:
    def test_resume_after_predictor_phase_matches_uninterrupted_run(
        self, proxy_space, quick_config, tmp_path
    ):
        # A degraded LUT lacks the cells whose probes failed for good; a
        # resume must accept exactly those holes.
        from dataclasses import replace

        cfg = replace(
            quick_config,
            retry=RetryPolicy(attempts=2, backoff_s=0.0),
            degraded_ok=True,
        )

        def flaky():
            return FlakyDevice(get_device("gpu"), failure_rate=0.05, seed=1)

        uninterrupted = HSCoNAS(proxy_space, flaky(), cfg).run()
        assert uninterrupted.degradation.missing_cells > 0
        run = RunDir.create(tmp_path / "run", "search", {}, HSCoNAS.PHASES)
        # The killed process got as far as the predictor checkpoint.
        HSCoNAS(proxy_space, flaky(), cfg).checkpointed_predictor(run)
        resumed = HSCoNAS(proxy_space, flaky(), cfg).run(RunDir.open(run.path))
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)

    def test_resumed_degradation_report_matches_uninterrupted_run(
        self, proxy_space, quick_config, tmp_path
    ):
        # The predictor checkpoint keeps the LUT's nearest-cell memo
        # (else calibration's fallbacks count again as fallback_cells)
        # and the device's fault stream (else the final measurement's
        # probes draw their faults from probe 0 again: probe_retries).
        from dataclasses import replace

        cfg = replace(
            quick_config,
            retry=RetryPolicy(attempts=2, backoff_s=0.0),
            degraded_ok=True,
        )

        def flaky():
            return FlakyDevice(get_device("gpu"), failure_rate=0.3, seed=1)

        uninterrupted = HSCoNAS(proxy_space, flaky(), cfg).run()
        report = uninterrupted.degradation.to_dict()
        assert report["fallback_cells"] > 0 and report["probe_retries"] > 0
        run = RunDir.create(tmp_path / "run", "search", {}, HSCoNAS.PHASES)
        HSCoNAS(proxy_space, flaky(), cfg).checkpointed_predictor(run)
        resumed = HSCoNAS(proxy_space, flaky(), cfg).run(RunDir.open(run.path))
        assert resumed.degradation.to_dict() == report
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)


def test_resumed_finished_run_reads_each_checkpoint_once(
    proxy_space, quick_config, tmp_path, monkeypatch
):
    """A resume answers "is this phase complete?" from the record it
    already read and checksummed, so each phase file is read once."""
    run = RunDir.create(tmp_path / "run", "search", {}, HSCoNAS.PHASES)
    finished = HSCoNAS(proxy_space, get_device("gpu"), quick_config).run(run)
    reads = {}
    load_checkpoint = RunDir.load_checkpoint

    def counting(self, phase):
        reads[phase] = reads.get(phase, 0) + 1
        return load_checkpoint(self, phase)

    monkeypatch.setattr(RunDir, "load_checkpoint", counting)
    resumed = HSCoNAS(proxy_space, get_device("gpu"), quick_config).run(
        RunDir.open(run.path)
    )
    assert reads == {"predictor": 1, "shrink": 1, "search": 1}
    assert _fingerprint(resumed) == _fingerprint(finished)
