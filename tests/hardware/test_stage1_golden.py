"""Stage 1 (LUT build + Eq. 3 bias), pinned by sha256.

Each digest covers every LUT value as ``float.hex`` (stem, head widths
and operator cells in key order), the fitted ``bias_ms``, the ledger,
the degradation report and, for a flaky device, its probe and fault
counters. A second digest covers the profiler's measurement-noise rng
state after calibration, which the search's final verification
measurement continues from. An operation-order slip in the device
model, the LUT build or the profiler changes a digest even where the
end-to-end fingerprints would not show it.

The digests were recorded from the build that summed every probe's
primitives afresh.
"""

import hashlib
import json

import pytest

from repro.core import HSCoNAS, HSCoNASConfig
from repro.hardware.calibration import calibrated_devices
from repro.hardware.faults import FlakyDevice, RetryPolicy
from repro.serve.pipeline import front_pipeline
from repro.space import space_for_layout


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def stage1_digests(pipeline: HSCoNAS) -> dict:
    predictor = pipeline.build_predictor()
    lut = predictor.lut
    device = pipeline.device
    values = {
        "stem": lut.stem_ms.hex(),
        "head": [[cin, ms.hex()] for cin, ms in sorted(lut.head_ms.items())],
        "cells": [list(key) + [ms.hex()] for key, ms in sorted(lut.entries.items())],
        "bias": predictor.bias_ms.hex(),
        "ledger": pipeline.ledger.to_dict(),
        "degradation": pipeline.degradation.to_dict(),
        "build_degradation": lut.build_degradation.to_dict(),
        "probes": [
            getattr(device, name, None)
            for name in ("probes", "injected_failures", "injected_timeouts")
        ],
    }
    return {
        "lut_bias": _sha256(values),
        "rng": _sha256(pipeline.profiler.rng_state()),
    }


@pytest.fixture(scope="module")
def space_a():
    return space_for_layout("a")


def _front(space, seed):
    return front_pipeline(space, "edge", seed)


def _search(space, seed):
    # HSCoNASConfig's defaults: 4 samples per cell, 40 calibration
    # architectures and the default RetryPolicy.
    return HSCoNAS(space, calibrated_devices()["edge"], HSCoNASConfig(seed=seed))


def _flaky(space, seed):
    device = FlakyDevice(calibrated_devices()["edge"], failure_rate=0.1, seed=seed)
    config = HSCoNASConfig(seed=seed, retry=RetryPolicy(attempts=2, backoff_s=0))
    return HSCoNAS(space, device, config)


RECIPES = {"front": _front, "search": _search, "flaky": _flaky}

GOLDEN = {
    ("front", 0): {
        "lut_bias": "866200efba5cb31f28cea4ace14188d9ae8b663fbaa993cae28ed9a5749e6398",
        "rng": "88dec0a240a2ef777e2fd383e6f2295c36664966572f17debf53a86baa9c57db",
    },
    ("front", 7): {
        "lut_bias": "cab6b167d2edd2ebb708b8c97e9c7c1291494ee1d9c42db6e6f94f974e204bc2",
        "rng": "6f32e8a92a59e6a0efa79ae624cdc17a44c28be847e440a2c3155173087f8e5a",
    },
    ("front", 15): {
        "lut_bias": "19918f83e921a5ebf043c7a48bf6f451a0ae6f5c3813001c622c011eee33625b",
        "rng": "b688fa06289ce4db953b10448e9aef9ee5d97a9e841548919f1fac3b6c7d66c7",
    },
    ("search", 0): {
        "lut_bias": "d56f91ea5ac24fec9fe310eb03990556f4998ea086dcfebfa425bd38975879cb",
        "rng": "7de902c8196a5dacd49b2d16e949910e6eef3b5af578f36d92b1acf9f61dd72c",
    },
    ("search", 7): {
        "lut_bias": "0044d44dfdded1042f8ec4e45dbc0f373c4324d11d3f257291dc313dbdc4d1c1",
        "rng": "48c01278747a557c41d6e60640a7d4c7fc7f5e0aeca0cf54dc87381ff1e8734d",
    },
    ("search", 15): {
        "lut_bias": "3fc554c0d5f7ed03e4ecc3489d20dd2de30250a2d8071a0f08ae6860f6c70b04",
        "rng": "eff7e1cf49ef12d509e867d923558c1cdb84b82fedbad1d710803f0d05f5b7ad",
    },
    ("flaky", 15): {
        "lut_bias": "ad516dba93593923b5aa69b6e0adb89b32524a0826007290caed7cdd1420fd98",
        "rng": "d3f54e7b315bff0df050230cae601d731d99bb1a22746ceec9fae2ca15d51269",
    },
}


@pytest.mark.parametrize(
    "recipe, seed", sorted(GOLDEN), ids=[f"{r}-{s}" for r, s in sorted(GOLDEN)]
)
def test_stage1_matches_golden(space_a, recipe, seed):
    assert stage1_digests(RECIPES[recipe](space_a, seed)) == GOLDEN[(recipe, seed)]
