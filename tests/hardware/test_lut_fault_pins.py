"""LUT builds on a faulty device, pinned by sha256.

Each digest covers every LUT value as ``float.hex``, the degradation
report (counters and event messages), the ledger and the flaky device's
probe and fault counters. The scenarios are the ones a retry loop can
get wrong: forced first failures, high failure and timeout rates with
and without a ``RetryPolicy``, and a per-attempt time budget that every
attempt either meets or misses.

The digests were recorded from the build that wrapped every cell's
probe in ``run_with_retry``.
"""

import hashlib
import json

import pytest

from repro.hardware import LatencyLUT
from repro.hardware.calibration import calibrated_devices
from repro.hardware.faults import FlakyDevice, RetryPolicy
from repro.hardware.ledger import MeasurementLedger
from repro.space import space_for_layout

NO_WAIT = RetryPolicy(backoff_s=0)

SCENARIOS = {
    # (layout, FlakyDevice kwargs, retry policy, samples per cell)
    "fail_first": ("mini", {"fail_first": 2}, NO_WAIT, 2),
    "fail_first_a": ("a", {"fail_first": 2, "seed": 3}, NO_WAIT, 4),
    "rates": (
        "mini",
        {"failure_rate": 0.3, "timeout_rate": 0.3, "seed": 5},
        NO_WAIT,
        2,
    ),
    "rates_a": (
        "a",
        {"failure_rate": 0.3, "seed": 9},
        RetryPolicy(attempts=2, backoff_s=0),
        2,
    ),
    "rates_no_retry": ("mini", {"failure_rate": 0.3, "seed": 1}, None, 3),
    "timeout_met": (
        "mini",
        {"failure_rate": 0.3, "fail_first": 1, "seed": 2},
        RetryPolicy(backoff_s=0, timeout_s=60.0),
        2,
    ),
    "timeout_missed": (
        "mini",
        {"fail_first": 1},
        RetryPolicy(attempts=2, backoff_s=0, timeout_s=1e-9),
        2,
    ),
}


def _digest(layout, flaky, retry, samples):
    device = FlakyDevice(calibrated_devices()["edge"], **flaky)
    ledger = MeasurementLedger()
    lut = LatencyLUT.build(
        space_for_layout(layout),
        device,
        samples_per_cell=samples,
        seed=4,
        ledger=ledger,
        retry=retry,
    )
    payload = {
        "stem": lut.stem_ms.hex(),
        "head": [[cin, ms.hex()] for cin, ms in sorted(lut.head_ms.items())],
        "cells": [list(key) + [ms.hex()] for key, ms in sorted(lut.entries.items())],
        "degradation": lut.build_degradation.to_dict(),
        "ledger": ledger.to_dict(),
        "device": [device.probes, device.injected_failures, device.injected_timeouts],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "fail_first": "dcca8a40daac1019ed9f69fa6ea4beace223a695aba00edb31380731a6760efb",
    "fail_first_a":
        "aa304996542aa66e4aed0e33a8c223e3b57d6848850a57a099d5ee5033af92ba",
    "rates": "f359aeb628d7ecc327e433f805fe4dd18a0c289727932fe1f7b4d4b5ad305f8f",
    "rates_a": "3d7b8e0378c0e0156ba93a59bc500fbfa211403fde37adb79e3a260b6ad3e5a2",
    "rates_no_retry":
        "ed82f55a3aad70dfd5d73016ddb77f76b09f3dd33a13da4cf7aa8e5928448b9c",
    "timeout_met": "95138f673b53caf253d495db0990e8690d610b3be6d7d52b7d37fa8d88cde683",
    "timeout_missed":
        "ae94e88deef472869aa245b3a65ec2aa1e913014fba96ca58d3e6a3efef9063e",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_faulty_build_matches_golden(name):
    assert _digest(*SCENARIOS[name]) == GOLDEN[name]
