"""Tests for the wall-clock search-cost model and predictor breakdown."""

import pytest

from repro.hardware import (
    LatencyLUT,
    LatencyPredictor,
    MeasurementLedger,
    OnDeviceProfiler,
    SearchCostModel,
    get_device,
)
from repro.hardware.lut import _cell_key


class TestSearchCostModel:
    def _ledger(self, sessions=41, cells=9550, queries=5000):
        ledger = MeasurementLedger()
        for _ in range(sessions):
            ledger.record_measurement(runs=8)
        ledger.record_lut_cells(cells)
        for _ in range(queries):
            ledger.record_prediction()
        return ledger

    def test_estimate_adds_components(self):
        model = SearchCostModel(
            seconds_per_measurement_session=10.0,
            seconds_per_lut_cell=1.0,
            seconds_per_prediction=0.0,
        )
        ledger = self._ledger(sessions=2, cells=3, queries=100)
        assert model.estimate_seconds(ledger) == pytest.approx(2 * 10 + 3)

    def test_counterfactual_dwarfs_actual(self):
        """The paper's payoff: the predictor-driven search is orders of
        magnitude cheaper than measuring every candidate."""
        model = SearchCostModel()
        ledger = self._ledger()
        assert model.savings_factor(ledger) > 10.0

    def test_empty_ledger_raises(self):
        with pytest.raises(ValueError):
            SearchCostModel().savings_factor(MeasurementLedger())

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            SearchCostModel(seconds_per_measurement_session=-1.0)

    def test_pipeline_savings(self, proxy_space):
        """Savings on an actual pipeline run's ledger."""
        from repro.core import EvolutionConfig, HSCoNAS, HSCoNASConfig

        cfg = HSCoNASConfig(
            target_ms=1.3, lut_samples_per_cell=1,
            bias_calibration_archs=8, quality_samples=10,
            evolution=EvolutionConfig(generations=4, population_size=12,
                                      num_parents=5),
        )
        result = HSCoNAS(proxy_space, get_device("gpu"), cfg).run()
        factor = SearchCostModel().savings_factor(result.ledger)
        assert factor > 3.0


class TestPredictorBreakdown:
    def test_breakdown_sums_to_prediction(self, proxy_space, rng):
        device = get_device("edge")
        lut = LatencyLUT.build(proxy_space, device, samples_per_cell=1, seed=0)
        predictor = LatencyPredictor(lut, proxy_space)
        profiler = OnDeviceProfiler(device, seed=1)
        predictor.calibrate_bias(proxy_space, profiler, num_archs=10, seed=2)

        arch = proxy_space.sample(rng)
        parts = predictor.breakdown(arch)
        total = sum(ms for _, ms in parts)
        assert total == pytest.approx(predictor.predict(arch))

        # Degraded LUTs: one operator cell or the head cell the
        # architecture needs is missing. The breakdown resolves cells
        # as predict does — substitutes under degraded_ok, KeyError
        # otherwise.
        channels = proxy_space.active_channels(arch)
        layer0 = _cell_key(0, arch.ops[0], channels[0][0], arch.factors[0])
        for hole in ("cell", "head"):
            for degraded_ok in (True, False):
                punched = LatencyLUT.from_json(lut.to_json())
                if hole == "cell":
                    del punched.entries[layer0]
                else:
                    del punched.head_ms[channels[-1][1]]
                holed = LatencyPredictor(
                    punched, proxy_space, bias_ms=predictor.bias_ms,
                    degraded_ok=degraded_ok,
                )
                if degraded_ok:
                    total = sum(ms for _, ms in holed.breakdown(arch))
                    assert total == pytest.approx(holed.predict(arch))
                else:
                    with pytest.raises(KeyError):
                        holed.breakdown(arch)
                    with pytest.raises(KeyError):
                        holed.predict(arch)

    def test_breakdown_labels(self, proxy_space, rng):
        device = get_device("edge")
        lut = LatencyLUT.build(proxy_space, device, samples_per_cell=1, seed=0)
        predictor = LatencyPredictor(lut, proxy_space)
        arch = proxy_space.sample(rng)
        labels = [name for name, _ in predictor.breakdown(arch)]
        assert labels[0] == "stem"
        assert labels[-1] == "bias B"
        assert any(name.startswith("layer00:") for name in labels)
        assert len(labels) == proxy_space.num_layers + 3
