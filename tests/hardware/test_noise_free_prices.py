"""Noise-free prices are computed once; probes pay only for noise and faults.

``DeviceModel`` memoizes each LUT cell's noise-free time, and
``OnDeviceProfiler.measure_ms`` computes an architecture's noise-free
network time once per session. The references below are the per-probe
forms these replaced: a run that sums every kernel afresh, and a LUT
build on a device whose memo is still empty. Values, rng states, fault
counters and degradation reports must all match.
"""

import dataclasses

import numpy as np
import pytest

from repro.hardware import LatencyLUT
from repro.hardware.calibration import calibrated_devices
from repro.hardware.degradation import DegradationReport
from repro.hardware.device import DeviceModel
from repro.hardware.faults import FlakyDevice, RetryPolicy, run_with_retry
from repro.hardware.ledger import MeasurementLedger
from repro.hardware.profiler import OnDeviceProfiler, robust_median
from repro.space import space_for_layout


def summed_run_ms(device, space, arch, rng):
    """One device run, every kernel summed afresh, in the historical
    operation order."""
    device._probe()
    spec = device.spec
    total_s = spec.base_overhead_s
    boundaries = 0
    layers = space.arch_primitives(arch) + [space.stem_head_primitives(arch)]
    for layer in layers:
        if not layer:
            continue
        boundaries += 1
        for prim in layer:
            total_s += device.primitive_time_s(prim)
    total_s += boundaries * spec.layer_overhead_s
    total_s *= spec.time_scale
    if rng is not None and spec.noise_sigma > 0:
        total_s *= float(np.exp(rng.normal(0.0, spec.noise_sigma)))
    return total_s * 1e3


class PerRunProfiler(OnDeviceProfiler):
    """The per-run session loop: each run re-prices the architecture."""

    def measure_ms(self, space, arch):
        if self.ledger is not None:
            self.ledger.record_measurement(runs=self.warmup + self.repeats)

        def one_run():
            def probe():
                return summed_run_ms(self.device, space, arch, self._rng)

            if self.retry is None:
                return probe()
            value, attempts = run_with_retry(probe, self.retry, rng=self._retry_rng)
            self.degradation.probe_retries += attempts - 1
            return value

        for _ in range(self.warmup):
            one_run()
        runs = [one_run() for _ in range(self.repeats)]
        return robust_median(runs, self.mad_threshold)


@pytest.fixture(scope="module")
def space():
    return space_for_layout("a")


@pytest.fixture(scope="module")
def archs(space):
    return space.sample_many(np.random.default_rng(3), 30)


def _edge():
    return calibrated_devices()["edge"]


def _session_state(profiler):
    device = profiler.device
    return {
        "rng": profiler.rng_state(),
        "retry_rng": profiler._retry_rng.bit_generator.state,
        "degradation": profiler.degradation.to_dict(),
        "ledger": profiler.ledger.to_dict(),
        "probes": [
            getattr(device, name, None)
            for name in ("probes", "injected_failures", "injected_timeouts")
        ],
    }


def _pair(make_device, **kwargs):
    return [
        cls(make_device(), seed=5, ledger=MeasurementLedger(), **kwargs)
        for cls in (OnDeviceProfiler, PerRunProfiler)
    ]


class TestMeasureSession:
    @pytest.mark.parametrize("mad_threshold", [None, 2.0])
    @pytest.mark.parametrize(
        "retry", [None, RetryPolicy(backoff_s=0)], ids=["plain", "retry"]
    )
    def test_healthy_device(self, space, archs, mad_threshold, retry):
        new, ref = _pair(_edge, retry=retry, mad_threshold=mad_threshold)
        for arch in archs:
            assert new.measure_ms(space, arch) == ref.measure_ms(space, arch)
        assert _session_state(new) == _session_state(ref)

    def test_every_run_matches(self, space):
        """One run per session, so each returned value is a raw run: a
        one-ulp slip in the operation order shows here."""
        new, ref = _pair(_edge, warmup=0, repeats=1)
        archs = space.sample_many(np.random.default_rng(4), 1000)
        got = new.measure_many_ms(space, archs)
        assert got == ref.measure_many_ms(space, archs)
        assert _session_state(new) == _session_state(ref)

    def test_noise_free_device(self, space, archs):
        spec = dataclasses.replace(_edge().spec, noise_sigma=0.0)
        new, ref = _pair(lambda: DeviceModel(spec))
        got = [new.measure_ms(space, a) for a in archs]
        assert got == [ref.measure_ms(space, a) for a in archs]
        assert got == [new.ground_truth_ms(space, a) for a in archs]

    @pytest.mark.parametrize("mad_threshold", [None, 1.5])
    def test_flaky_device_with_retries_drops_sessions(
        self, space, archs, mad_threshold
    ):
        """The ``degraded_ok`` path: a session whose run exhausts its
        retries is dropped as NaN, with the rng left where it stopped."""

        def flaky():
            return FlakyDevice(_edge(), failure_rate=0.15, timeout_rate=0.05, seed=9)

        retry = RetryPolicy(attempts=2, backoff_s=0)
        new, ref = _pair(flaky, retry=retry, mad_threshold=mad_threshold)
        got = new.measure_many_ms(space, archs, on_failure="skip")
        expected = ref.measure_many_ms(space, archs, on_failure="skip")
        assert np.array_equal(got, expected, equal_nan=True)
        assert new.degradation.dropped_measurements > 0
        assert new.degradation.probe_retries > 0
        assert _session_state(new) == _session_state(ref)

    def test_ground_truth_reads_the_same_summation(self, space, archs):
        device = _edge()
        for arch in archs:
            expected = summed_run_ms(device, space, arch, None)
            assert device.latency_ms(space, arch) == expected
            scaled_s = device.arch_time_s(space, arch) * device.spec.time_scale
            assert scaled_s * 1e3 == expected
            assert OnDeviceProfiler(device).ground_truth_ms(space, arch) == expected


def _lut_state(lut, ledger, device):
    return {
        "lut": lut.to_json(),
        "build_degradation": lut.build_degradation.to_dict(),
        "lut_cells": ledger.lut_cells,
        "probes": [
            getattr(device, name, None)
            for name in ("probes", "injected_failures", "injected_timeouts")
        ],
    }


class TestWarmLutBuild:
    @pytest.mark.parametrize("layout", ["a", "mini"])
    @pytest.mark.parametrize(
        "retry", [None, RetryPolicy(backoff_s=0)], ids=["plain", "retry"]
    )
    def test_warm_build_equals_cold(self, layout, retry):
        space = space_for_layout(layout)
        device = DeviceModel(_edge().spec)
        states = []
        for _ in range(2):  # the first build fills the memo
            ledger = MeasurementLedger()
            lut = LatencyLUT.build(
                space, device, samples_per_cell=2, seed=4, ledger=ledger, retry=retry
            )
            states.append(_lut_state(lut, ledger, device))
        assert device._cell_ms
        assert states[0] == states[1]

    def test_flaky_build_keeps_its_fault_accounting(self, space):
        """A flaky device shares the memo of the device it wraps, so it
        builds warm; each probe still makes its own fault decision."""
        warm_base = DeviceModel(_edge().spec)
        LatencyLUT.build(space, warm_base, samples_per_cell=1, seed=0)
        retry = RetryPolicy(attempts=2, backoff_s=0)
        states = []
        for base in (DeviceModel(_edge().spec), warm_base):
            device = FlakyDevice(base, failure_rate=0.1, seed=2)
            ledger = MeasurementLedger()
            lut = LatencyLUT.build(
                space, device, samples_per_cell=2, seed=4, ledger=ledger, retry=retry
            )
            states.append(_lut_state(lut, ledger, device))
        cold, warm = states
        assert cold == warm
        assert cold["build_degradation"]["missing_cells"] > 0
        assert cold["probes"][0] > cold["lut_cells"]

    def test_memo_is_bounded_by_distinct_cells(self, space):
        device = DeviceModel(_edge().spec)
        for seed in range(3):
            lut = LatencyLUT.build(space, device, samples_per_cell=1, seed=seed)
        # Each cell is priced once, however many builds read it; factors
        # that keep the same width share one cell.
        assert len(device._cell_ms) == len(device._cells_kept)
        assert len(device._cell_ms) <= 1 + len(lut.head_ms) + len(lut.entries)

    def test_shared_cells_are_priced_once(self, space):
        """Layers of equal geometry share cells, so one build repeats
        them; the first build still prices each distinct cell once."""
        device = DeviceModel(_edge().spec)
        lut = LatencyLUT.build(space, device, samples_per_cell=1, seed=0)
        distinct = {id(cell) for cell in LatencyLUT.cells(space).costs}
        assert len(distinct) < 1 + len(lut.head_ms) + len(lut.entries)
        assert len(device._cell_ms) == len(device._cells_kept) == len(distinct)


def test_each_run_is_one_probe(space, archs):
    """A session makes one fault decision per run, retries included."""
    report = DegradationReport()
    device = FlakyDevice(_edge(), fail_first=1)
    profiler = OnDeviceProfiler(
        device, retry=RetryPolicy(backoff_s=0), degradation=report
    )
    profiler.measure_ms(space, archs[0])
    assert report.probe_retries == 1
    assert device.probes == profiler.warmup + profiler.repeats + 1
