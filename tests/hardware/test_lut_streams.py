"""The LUT build draws exactly the historical per-cell streams.

``LatencyLUT.build`` probes cells one by one but draws and averages the
noise of a whole chunk at once, and builds a cell's retry-jitter
generator only after its first attempt fails. The reference below is
the historical build, which did everything per cell: every LUT and
degradation report must match it byte for byte.
"""

import dataclasses
from typing import Dict, List, Tuple

import numpy as np
import pytest

import repro.hardware.lut as lut_module
from repro.hardware import LatencyLUT
from repro.hardware.calibration import calibrated_devices
from repro.hardware.degradation import DegradationReport
from repro.hardware.device import DeviceModel
from repro.hardware.faults import (
    FlakyDevice,
    ProbeError,
    RetryPolicy,
    run_with_retry,
)
from repro.hardware.lut import _cell_key, layer_cin_choices
from repro.parallel import fork_available
from repro.space import space_for_layout

NO_WAIT = RetryPolicy(backoff_s=0)


def historical_build(space, device, samples_per_cell, seed, retry=None):
    """The per-cell build: one noise and one jitter generator per cell."""
    sigma = device.spec.noise_sigma
    tasks: List[Tuple] = [("stem", 0, 0, 0, 0.0)]
    head_cins: List[int] = []
    for factor in space.candidate_factors[-1]:
        cin = space.out_channels(space.num_layers - 1, factor)
        if cin not in head_cins:
            head_cins.append(cin)
            tasks.append(("head", 0, 0, cin, 0.0))
    for layer in range(space.num_layers):
        for cin in layer_cin_choices(space, layer):
            for op in space.candidate_ops[layer]:
                for factor in space.candidate_factors[layer]:
                    tasks.append(("cell", layer, op, cin, factor))

    def profile_chunk(chunk):
        out = []
        for index, (kind, layer, op, cin, factor) in chunk:

            def probe(kind=kind, layer=layer, op=op, cin=cin, factor=factor):
                if kind == "stem":
                    return device.primitives_time_ms(space.stem_primitives())
                if kind == "head":
                    return device.primitives_time_ms(space.head_primitives(cin))
                return device.operator_time_ms(space, layer, op, factor, cin)

            extra_attempts = 0
            try:
                if retry is None:
                    base = probe()
                else:
                    base, attempts = run_with_retry(
                        probe,
                        retry,
                        rng=np.random.default_rng(
                            np.random.SeedSequence(seed, spawn_key=(index, 1))
                        ),
                    )
                    extra_attempts = attempts - 1
            except ProbeError as fault:
                failed_attempts = retry.attempts - 1 if retry else 0
                out.append((None, failed_attempts, str(fault)))
                continue
            if sigma > 0 and base > 0:
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(index,))
                )
                times = base * np.exp(
                    rng.normal(0.0, sigma, size=samples_per_cell)
                )
                base = float(np.mean(times))
            out.append((base, extra_attempts, None))
        return out

    results = profile_chunk(list(enumerate(tasks)))
    degradation = DegradationReport()
    stem_ms = 0.0
    head_ms: Dict[int, float] = {}
    entries = {}
    for (kind, layer, op, cin, factor), (ms, extra, fault) in zip(
        tasks, results
    ):
        degradation.probe_retries += extra
        if ms is None:
            degradation.probe_failures += 1
            degradation.missing_cells += 1
            degradation.record_event(
                f"LUT {kind} cell layer={layer} op={op} cin={cin} "
                f"factor={factor} failed after retries: {fault}"
            )
            continue
        if kind == "stem":
            stem_ms = ms
        elif kind == "head":
            head_ms[cin] = ms
        else:
            entries[_cell_key(layer, op, cin, factor)] = ms
    lut = LatencyLUT(device.spec.key, entries, stem_ms=stem_ms, head_ms=head_ms)
    lut.build_degradation = degradation
    return lut


def _device(name):
    if name == "sigma0":
        spec = calibrated_devices()["edge"].spec
        return DeviceModel(dataclasses.replace(spec, noise_sigma=0.0))
    return calibrated_devices()[name]


def _assert_same(built, reference):
    assert built.to_json() == reference.to_json()
    assert (
        built.build_degradation.to_dict()
        == reference.build_degradation.to_dict()
    )


@pytest.fixture(scope="module")
def spaces():
    return {layout: space_for_layout(layout) for layout in ("a", "mini")}


class TestStreamEquivalence:
    @pytest.mark.parametrize("layout", ["a", "mini"])
    @pytest.mark.parametrize("samples", [1, 2, 4])
    @pytest.mark.parametrize("retry", [None, NO_WAIT], ids=["plain", "retry"])
    @pytest.mark.parametrize("device", ["gpu", "edge", "sigma0"])
    def test_matches_historical_build(
        self, spaces, layout, samples, retry, device
    ):
        space, dev = spaces[layout], _device(device)
        seed = 7 * samples + 3
        built = LatencyLUT.build(
            space, dev, samples_per_cell=samples, seed=seed, retry=retry
        )
        _assert_same(
            built, historical_build(space, dev, samples, seed, retry=retry)
        )

    @pytest.mark.parametrize("layout", ["a", "mini"])
    def test_flaky_device_with_retries(self, spaces, layout):
        space = spaces[layout]

        def flaky():
            return FlakyDevice(
                calibrated_devices()["edge"], failure_rate=0.05, seed=11
            )

        # Two attempts at 5% lose about one cell in 400.
        retry = RetryPolicy(attempts=2, backoff_s=0)
        device = flaky()
        built = LatencyLUT.build(
            space, device, samples_per_cell=2, seed=5, retry=retry
        )
        reference = historical_build(space, flaky(), 2, 5, retry=retry)
        assert device.injected_failures > 0
        assert built.build_degradation.probe_retries > 0
        _assert_same(built, reference)

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    @pytest.mark.parametrize("layout", ["a", "mini"])
    def test_workers(self, spaces, layout):
        space, dev = spaces[layout], _device("edge")
        built = LatencyLUT.build(
            space, dev, samples_per_cell=4, seed=2, workers=2, retry=NO_WAIT
        )
        _assert_same(built, historical_build(space, dev, 4, 2, retry=NO_WAIT))

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_workers_on_a_flaky_device_match_serial(self, spaces):
        """A flaky device's one fault stream is drawn in cell order
        whatever the worker count: same values, degradation and
        device counters."""

        def build(workers):
            device = FlakyDevice(
                calibrated_devices()["edge"], failure_rate=0.3, seed=1
            )
            lut = LatencyLUT.build(
                spaces["mini"], device, workers=workers,
                retry=RetryPolicy(attempts=2, backoff_s=0),
            )
            counters = (
                device.probes,
                device.injected_failures,
                device.injected_timeouts,
            )
            return lut, counters

        serial, serial_counters = build(0)
        fanned, fanned_counters = build(2)
        assert serial.build_degradation.missing_cells > 0
        _assert_same(fanned, serial)
        assert fanned_counters == serial_counters


class TestNoiseDraw:
    @pytest.mark.parametrize("sigma", [0.0, 0.02, 0.055, 0.3, 1.7])
    def test_scaled_standard_normal_is_normal(self, sigma):
        """``normal(0, sigma)`` returns ``0.0 + sigma * z``; drawing ``z``
        into a row and scaling it afterwards gives the same bits."""
        for index in range(300):
            for size in (1, 2, 3, 4):
                stream = np.random.SeedSequence(9, spawn_key=(index,))
                expected = np.random.default_rng(stream).normal(
                    0.0, sigma, size=size
                )
                row = np.empty(size)
                np.random.default_rng(stream).standard_normal(out=row)
                row *= sigma
                # Equal as values; a -0.0 (sigma = 0) only ever meets exp().
                assert row.tolist() == expected.tolist()
                assert np.array_equal(np.exp(row), np.exp(expected))


class TestLazyJitter:
    @staticmethod
    def _count_jitter(monkeypatch):
        built = []
        original = lut_module._jitter_rng

        def counting(seed, index):
            built.append(index)
            return original(seed, index)

        monkeypatch.setattr(lut_module, "_jitter_rng", counting)
        return built

    def test_healthy_device_builds_no_jitter_generator(
        self, spaces, monkeypatch
    ):
        built = self._count_jitter(monkeypatch)
        lut = LatencyLUT.build(
            spaces["mini"], _device("edge"), seed=1, retry=RetryPolicy()
        )
        assert len(lut) > 0
        assert built == []

    def test_failed_first_attempt_builds_its_cells_generator(
        self, spaces, monkeypatch
    ):
        built = self._count_jitter(monkeypatch)
        device = FlakyDevice(_device("edge"), fail_first=4)
        # The first four probes fail: all three attempts at cell 0, the
        # first at cell 1. Each of the two builds its generator once.
        lut = LatencyLUT.build(
            spaces["mini"], device, seed=1, retry=RetryPolicy(backoff_s=0)
        )
        assert lut.build_degradation.probe_failures == 1
        assert built == [0, 1]
