"""Tests for metrics and anchor calibration."""

import numpy as np
import pytest

from repro.hardware import calibrate_time_scale, pearson, rmse, spearman
from repro.hardware.calibration import calibrated_device, calibrated_devices
from repro.hardware.metrics import mae, mean_bias
from repro.hardware.spec import gpu_spec


class TestMetrics:
    def test_rmse_zero_for_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rmse_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_mae(self):
        assert mae([0.0, 0.0], [1.0, -3.0]) == pytest.approx(2.0)

    def test_mean_bias_signed(self):
        assert mean_bias([2.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0)
        assert mean_bias([0.0, 0.0], [1.0, 1.0]) == pytest.approx(-1.0)

    def test_pearson_perfect_linear(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert pearson(x, [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_spearman_rank_only(self):
        x = [1.0, 2.0, 3.0]
        y = [1.0, 10.0, 100.0]  # nonlinear but monotone
        assert spearman(x, y) == pytest.approx(1.0)

    def test_constant_input_returns_zero(self):
        assert pearson([1.0, 1.0], [1.0, 2.0]) == 0.0
        assert spearman([1.0, 2.0], [3.0, 3.0]) == 0.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestCalibration:
    def test_scale_is_geomean_ratio(self):
        pairs = [(1.0, 2.0), (2.0, 4.0)]
        assert calibrate_time_scale(pairs) == pytest.approx(2.0)

    def test_mixed_ratios(self):
        pairs = [(1.0, 2.0), (1.0, 8.0)]
        assert calibrate_time_scale(pairs) == pytest.approx(4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            calibrate_time_scale([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            calibrate_time_scale([(0.0, 1.0)])

    def test_calibrated_device_applies_scale(self):
        dev = calibrated_device(gpu_spec(), [(1.0, 3.0)])
        assert dev.spec.time_scale == pytest.approx(3.0)

    def test_precalibrated_spec_rejected(self):
        with pytest.raises(ValueError):
            calibrated_device(gpu_spec().with_time_scale(2.0), [(1.0, 3.0)])


class TestCalibratedDevices:
    """Acceptance-level checks on the Table-I anchor calibration."""

    @pytest.fixture(scope="class")
    def devices(self):
        return calibrated_devices()

    def test_all_three_devices(self, devices):
        assert set(devices) == {"gpu", "cpu", "edge"}

    def test_repeated_calls_share_one_calibration(self):
        from repro.hardware.calibration import _calibrated_devices

        first = calibrated_devices()
        # Mutating a returned dict must not leak into later calls.
        first["gpu"] = None
        del first["cpu"]
        first["extra"] = "device"
        second, third = calibrated_devices(), calibrated_devices()
        assert second is not third
        assert set(second) == {"gpu", "cpu", "edge"}
        fresh = dict(_calibrated_devices.__wrapped__())
        for key in ("gpu", "cpu", "edge"):
            assert second[key] is third[key]
            assert second[key].spec == third[key].spec == fresh[key].spec

    def test_scales_are_moderate(self, devices):
        """The uncalibrated specs should already be in the right ballpark
        (within ~2x), or the roofline parameters are wrong."""
        for dev in devices.values():
            assert 0.5 < dev.spec.time_scale < 2.5

    def test_published_rank_correlation(self, devices):
        """Relative ordering of baselines must come out of the model."""
        from repro.baselines.zoo import all_baselines
        from repro.hardware.metrics import spearman as rho

        built = [(m, m.build()) for m in all_baselines()]
        for key, dev in devices.items():
            sims = [dev.run_network_ms(net.layers) for _, net in built]
            pubs = [m.published.latency_ms(key) for m, _ in built]
            assert rho(sims, pubs) > 0.3, key

    def test_darts_slowest_everywhere(self, devices):
        """Table I: the hardware-agnostic DARTS is the slowest model on
        every device."""
        from repro.baselines.zoo import all_baselines

        for key, dev in devices.items():
            latencies = {
                m.name: dev.run_network_ms(m.build().layers)
                for m in all_baselines()
            }
            assert max(latencies, key=latencies.get) == "DARTS", key

    def test_anchor_levels_within_factor_two(self, devices):
        from repro.baselines.zoo import all_baselines

        for key, dev in devices.items():
            for m in all_baselines():
                sim = dev.run_network_ms(m.build().layers)
                pub = m.published.latency_ms(key)
                assert 0.5 < sim / pub < 2.0, (key, m.name)
