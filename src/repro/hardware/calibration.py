"""Anchor calibration of simulated devices against published latencies.

The simulated devices are parameterized from public spec sheets, but the
absolute scale of a latency simulator is always off by some factor. As
real measurement rigs are calibrated against reference workloads, we fit
a single global ``time_scale`` per device so that the published Table-I
anchor models (MobileNetV2 et al.) land on their published latencies in
the geometric-mean sense. Only the scale is fit — the *relative*
ordering between models is produced entirely by the roofline model.
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

import numpy as np

from repro.hardware.device import DeviceModel
from repro.hardware.spec import DeviceSpec


def calibrate_time_scale(
    pairs: Sequence[Tuple[float, float]]
) -> float:
    """Fit the log-least-squares scale mapping simulated -> published.

    ``pairs`` holds ``(simulated_ms, published_ms)`` tuples; the returned
    scale minimizes ``sum (log(published) - log(scale * simulated))^2``,
    i.e. ``scale = geomean(published / simulated)``.
    """
    if not pairs:
        raise ValueError("calibration needs at least one anchor pair")
    ratios = []
    for simulated, published in pairs:
        if simulated <= 0 or published <= 0:
            raise ValueError("latencies must be positive")
        ratios.append(np.log(published / simulated))
    return float(np.exp(np.mean(ratios)))


def calibrated_device(
    spec: DeviceSpec, pairs: Sequence[Tuple[float, float]]
) -> DeviceModel:
    """Return a device with its ``time_scale`` fit to the anchor pairs.

    The pairs must have been simulated with ``time_scale == 1``; the
    resulting device multiplies all latencies by the fitted scale.
    """
    if spec.time_scale != 1.0:
        raise ValueError("anchor pairs must come from an uncalibrated device")
    scale = calibrate_time_scale(pairs)
    return DeviceModel(spec.with_time_scale(scale))


def calibrated_devices() -> dict:
    """GPU/CPU/edge devices anchor-calibrated on the Table-I baselines.

    For each device, every baseline model is timed noise-free with
    ``time_scale = 1`` and the geometric-mean ratio to its published
    Table-I latency becomes the device's time scale. This is the device
    set used by the Table-I benchmark and the examples: latency numbers
    from it live on the same absolute scale as the paper's (9 / 24 /
    34 ms constraints apply directly).

    The calibration runs once per process. Each call returns a fresh
    dict over the same :class:`DeviceModel` instances. Each holds its
    frozen spec and a memo of noise-free kernel times derived from it
    alone, so they are safe to share, across threads too.
    """
    return dict(_calibrated_devices())


@functools.lru_cache(maxsize=None)
def _calibrated_devices() -> Tuple[Tuple[str, DeviceModel], ...]:
    from repro.baselines.zoo import all_baselines
    from repro.hardware.spec import cpu_spec, edge_spec, gpu_spec

    built = [(model, model.build()) for model in all_baselines()]
    devices = []
    for spec in (gpu_spec(), cpu_spec(), edge_spec()):
        device = DeviceModel(spec)
        pairs = [
            (
                device.run_network_ms(net.layers),
                model.published.latency_ms(spec.key),
            )
            for model, net in built
        ]
        devices.append((spec.key, calibrated_device(spec, pairs)))
    return tuple(devices)
