"""Fault-injection tests: retry/backoff, flaky devices, degradation.

The acceptance scenario at the bottom runs the whole pipeline against a
flaky device and requires it to *complete* — with a nonzero degradation
report instead of an unhandled exception.
"""

import numpy as np
import pytest

from repro.core import EvolutionConfig, HSCoNAS, HSCoNASConfig
from repro.hardware import (
    FlakyDevice,
    LatencyLUT,
    OnDeviceProfiler,
    ProbeError,
    ProbeTimeout,
    RetryPolicy,
    get_device,
    robust_median,
    run_with_retry,
)
from repro.hardware.degradation import DegradationReport

FAST_RETRY = RetryPolicy(attempts=3, backoff_s=0.0)  # no real sleeping


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)

    def test_exponential_backoff_without_jitter(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, jitter=0.0)
        delays = [policy.delay_s(i, rng=None) for i in range(3)]
        assert delays == pytest.approx([0.1, 0.2, 0.4])

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, jitter=0.5)
        rng = np.random.default_rng(0)
        for i in range(4):
            base = 0.1 * 2.0**i
            for _ in range(20):
                assert (
                    0.5 * base <= policy.delay_s(i, rng) <= 1.5 * base
                )


class TestRunWithRetry:
    def test_first_try_success_sleeps_never(self):
        sleeps = []
        value, attempts = run_with_retry(
            lambda: 42, RetryPolicy(attempts=3, backoff_s=1.0),
            sleep=sleeps.append,
        )
        assert (value, attempts) == (42, 1)
        assert sleeps == []

    def test_fail_twice_then_succeed(self):
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ProbeError(f"flake #{calls['n']}")
            return 3.14

        sleeps = []
        value, attempts = run_with_retry(
            probe,
            RetryPolicy(attempts=3, backoff_s=0.1, jitter=0.0),
            sleep=sleeps.append,
        )
        assert (value, attempts) == (3.14, 3)
        assert sleeps == pytest.approx([0.1, 0.2])  # exponential backoff

    def test_exhaustion_reraises_last_fault(self):
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            raise ProbeError(f"flake #{calls['n']}")

        with pytest.raises(ProbeError, match="flake #3"):
            run_with_retry(probe, FAST_RETRY, sleep=lambda _: None)
        assert calls["n"] == 3  # the budget, no more

    def test_always_timeout_exhausts_budget(self):
        # Fake clock: every attempt appears to take 2 s against a 1 s
        # budget, so even a probe that "returned" counts as timed out.
        ticks = iter(range(0, 1000, 2))

        def probe():
            return 1.0

        with pytest.raises(ProbeTimeout, match="budget"):
            run_with_retry(
                probe,
                RetryPolicy(attempts=3, backoff_s=0.0, timeout_s=1.0),
                sleep=lambda _: None,
                clock=lambda: float(next(ticks)),
            )

    def test_non_probe_errors_propagate_immediately(self):
        calls = {"n": 0}

        def probe():
            calls["n"] += 1
            raise ValueError("a bug, not a device fault")

        with pytest.raises(ValueError):
            run_with_retry(probe, FAST_RETRY, sleep=lambda _: None)
        assert calls["n"] == 1  # no retry for non-ProbeError


class TestFlakyDevice:
    def test_rate_validation(self):
        base = get_device("gpu")
        with pytest.raises(ValueError):
            FlakyDevice(base, failure_rate=1.5)
        with pytest.raises(ValueError):
            FlakyDevice(base, failure_rate=0.7, timeout_rate=0.7)
        with pytest.raises(ValueError):
            FlakyDevice(base, fail_first=-1)

    def test_fail_first_then_healthy_value(self, proxy_space):
        base = get_device("gpu")
        flaky = FlakyDevice(base, fail_first=2)
        prims = proxy_space.stem_primitives()
        for _ in range(2):
            with pytest.raises(ProbeError, match="fail_first"):
                flaky.primitives_time_ms(prims)
        assert flaky.primitives_time_ms(prims) == base.primitives_time_ms(
            prims
        )
        assert flaky.probes == 3
        assert flaky.injected_failures == 2

    def test_zero_rates_is_transparent(self, proxy_space, rng):
        base = get_device("gpu")
        flaky = FlakyDevice(base)
        arch = proxy_space.sample(rng)
        assert flaky.latency_ms(proxy_space, arch) == base.latency_ms(
            proxy_space, arch
        )

    def test_timeouts_and_failures_counted(self, proxy_space, rng):
        flaky = FlakyDevice(
            get_device("gpu"), failure_rate=0.3, timeout_rate=0.3, seed=0
        )
        arch = proxy_space.sample(rng)
        faults = 0
        for _ in range(60):
            try:
                flaky.latency_ms(proxy_space, arch)
            except ProbeTimeout:
                faults += 1
            except ProbeError:
                faults += 1
        assert faults == flaky.injected_failures + flaky.injected_timeouts
        assert flaky.injected_timeouts > 0
        assert flaky.injected_failures > 0


class TestRobustMedian:
    def test_plain_median_without_threshold(self):
        assert robust_median([3.0, 1.0, 2.0], None) == 2.0

    def test_outlier_rejected(self):
        runs = [10.0, 10.1, 9.9, 10.05, 50.0]
        assert robust_median(runs, None) == 10.05
        assert robust_median(runs, 3.0) == pytest.approx(10.025)

    def test_identical_runs_unchanged(self):
        assert robust_median([5.0] * 4 + [100.0], 3.0) == 5.0  # zero MAD

    def test_short_series_untouched(self):
        assert robust_median([1.0, 100.0], 3.0) == pytest.approx(50.5)


class TestProfilerRetry:
    def test_healthy_device_identical_with_and_without_retry(
        self, proxy_space, rng
    ):
        """Retry jitter must never touch the measurement-noise stream."""
        arch = proxy_space.sample(rng)
        plain = OnDeviceProfiler(get_device("gpu"), seed=9)
        retried = OnDeviceProfiler(
            get_device("gpu"), seed=9, retry=RetryPolicy()
        )
        assert plain.measure_ms(proxy_space, arch) == retried.measure_ms(
            proxy_space, arch
        )

    def test_retries_recover_the_healthy_value(self, proxy_space, rng):
        arch = proxy_space.sample(rng)
        healthy = OnDeviceProfiler(get_device("gpu"), seed=9)
        flaky = OnDeviceProfiler(
            FlakyDevice(get_device("gpu"), fail_first=2),
            seed=9,
            retry=FAST_RETRY,
        )
        assert flaky.measure_ms(proxy_space, arch) == healthy.measure_ms(
            proxy_space, arch
        )
        assert flaky.degradation.probe_retries == 2

    def test_measure_many_skip_drops_dead_sessions(self, proxy_space, rng):
        dead = FlakyDevice(get_device("gpu"), failure_rate=1.0)
        profiler = OnDeviceProfiler(dead, seed=0, retry=FAST_RETRY)
        archs = [proxy_space.sample(rng) for _ in range(3)]
        values = profiler.measure_many_ms(proxy_space, archs, on_failure="skip")
        assert all(np.isnan(v) for v in values)
        assert profiler.degradation.dropped_measurements == 3
        assert profiler.degradation.events

    def test_measure_many_raise_propagates(self, proxy_space, rng):
        dead = FlakyDevice(get_device("gpu"), failure_rate=1.0)
        profiler = OnDeviceProfiler(dead, seed=0, retry=FAST_RETRY)
        with pytest.raises(ProbeError):
            profiler.measure_many_ms(
                proxy_space, [proxy_space.sample(rng)], on_failure="raise"
            )


class TestLutDegradation:
    @pytest.fixture(scope="class")
    def luts(self, proxy_space):
        healthy = LatencyLUT.build(
            proxy_space, get_device("gpu"), samples_per_cell=1, seed=0
        )
        flaky_device = FlakyDevice(
            get_device("gpu"), failure_rate=0.4, seed=3
        )
        degraded = LatencyLUT.build(
            proxy_space,
            flaky_device,
            samples_per_cell=1,
            seed=0,
            retry=RetryPolicy(attempts=2, backoff_s=0.0),
        )
        return healthy, degraded

    def _missing_cell(self, proxy_space, healthy, degraded):
        from repro.hardware.lut import _cell_key
        from repro.lint.lut_check import reachable_cells

        for layer, op, cin, factor in reachable_cells(proxy_space):
            if (
                _cell_key(layer, op, cin, factor) in healthy.entries
                and _cell_key(layer, op, cin, factor) not in degraded.entries
            ):
                return layer, op, cin, factor
        pytest.fail("flaky build unexpectedly lost no cells")

    def test_failed_cells_are_omitted_and_reported(self, luts):
        healthy, degraded = luts
        assert len(degraded.entries) < len(healthy.entries)
        assert degraded.build_degradation.missing_cells > 0
        # Stem/head probes can fail too, so the report may count a couple
        # more missing cells than the op-table diff alone.
        assert degraded.build_degradation.missing_cells >= (
            len(healthy.entries) - len(degraded.entries)
        )

    def test_strict_lookup_still_raises(self, proxy_space, luts):
        healthy, degraded = luts
        layer, op, cin, factor = self._missing_cell(
            proxy_space, healthy, degraded
        )
        with pytest.raises(KeyError):
            degraded.lookup(layer, op, cin, factor)

    def test_fallback_serves_nearest_cell(self, proxy_space, luts):
        healthy, degraded = luts
        layer, op, cin, factor = self._missing_cell(
            proxy_space, healthy, degraded
        )
        report = type(degraded.build_degradation)()
        value = degraded.lookup(
            layer, op, cin, factor, fallback=True, report=report
        )
        assert np.isfinite(value) and value > 0
        assert report.fallback_cells == 1
        assert report.fallback_lookups == 1
        # Second lookup is memoized: same value, no new distinct cell.
        again = degraded.lookup(
            layer, op, cin, factor, fallback=True, report=report
        )
        assert again == value
        assert report.fallback_cells == 1
        assert report.fallback_lookups == 2

    def test_batch_and_scalar_fallback_agree(self, proxy_space, luts, rng):
        _, degraded = luts
        archs = [proxy_space.sample(rng) for _ in range(20)]
        scalar = [
            degraded.sum_ops_ms(a, proxy_space, fallback=True) for a in archs
        ]
        batch = degraded.sum_ops_ms_batch(archs, proxy_space, fallback=True)
        assert scalar == pytest.approx(list(batch), abs=0.0)


class TestFlakyPipeline:
    def test_search_completes_with_degradation_report(self, proxy_space):
        """ISSUE acceptance: flaky device, whole pipeline, no unhandled
        exception, nonzero degradation report."""
        cfg = HSCoNASConfig(
            target_ms=1.3,
            lut_samples_per_cell=1,
            bias_calibration_archs=8,
            quality_samples=10,
            evolution=EvolutionConfig(
                generations=3, population_size=10, num_parents=4
            ),
            seed=0,
            retry=FAST_RETRY,
            degraded_ok=True,
        )
        device = FlakyDevice(
            get_device("gpu"), failure_rate=0.15, timeout_rate=0.05, seed=11
        )
        result = HSCoNAS(proxy_space, device, cfg).run()
        assert proxy_space.contains(result.arch)
        assert np.isfinite(result.measured_latency_ms)
        assert result.degradation is not None
        assert result.degradation.degraded()
        assert "measurement health" in result.summary()
        assert device.injected_failures + device.injected_timeouts > 0
        # The report survives a checkpoint round trip, also from payloads
        # that still carry the retired ``regression_fallbacks`` counter.
        payload = result.degradation.to_dict()
        for saved in (payload, {**payload, "regression_fallbacks": 0}):
            assert DegradationReport.from_dict(saved).to_dict() == payload
