"""The surrogate and the digest give the historical values bit for bit.

The references below are the historical implementations: features from
numpy scalar reductions and ``get_operator`` per layer, with a
parameter count nothing read; clipping through ``np.clip``; and the
digest hashing the ``json.dumps`` text. Scores are compared as
``float.hex()`` strings, so even a last-bit difference fails. Both the
per-architecture methods and ``proxy_accuracy_many`` (whole batches,
batches of one, batches with repeats; bulk streams on and off) are held
to them.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import streams
from repro.accuracy import AccuracySurrogate
from repro.accuracy.features import extract_features
from repro.space import LAYOUT_NAMES, Architecture, space_for_layout
from repro.space.operators import get_operator


def historical_digest(arch):
    payload = json.dumps(
        {"ops": list(arch.ops), "factors": [round(f, 6) for f in arch.factors]},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def historical_residual(digest, salt, sigma):
    salted = hashlib.sha256((digest + salt).encode()).digest()
    seed = int.from_bytes(salted[:8], "little")
    return float(np.random.default_rng(seed).normal(0.0, sigma))


def historical_features(space, arch):
    factors = np.asarray(arch.factors, dtype=np.float64)
    non_skip = [get_operator(i) for i in arch.ops if not get_operator(i).is_skip]
    kernels = [op.kernel_size for op in non_skip]
    return dict(
        flops=space.arch_flops(arch),
        params=space.arch_params(arch),
        depth=len(non_skip),
        num_layers=arch.num_layers,
        mean_factor=float(factors.mean()),
        std_factor=float(factors.std()),
        min_factor=float(factors.min()),
        num_distinct_ops=len({op.name for op in non_skip}),
        mean_kernel=float(np.mean(kernels)) if kernels else 0.0,
    )


def historical_penalties(feats):
    penalty = 0.0
    free_skips = feats["num_layers"] // 8
    num_skips = feats["num_layers"] - feats["depth"]
    if num_skips > free_skips:
        penalty += 0.45 * (num_skips - free_skips) ** 1.3
    if feats["min_factor"] < 0.3:
        penalty += 8.0 * (0.3 - feats["min_factor"])
    penalty += 1.2 * feats["std_factor"]
    if feats["num_distinct_ops"] >= 3:
        penalty -= 0.15
    return penalty


def historical_top1_error(surrogate, arch, digest):
    feats = historical_features(surrogate.space, arch)
    error = surrogate.curve.error_at(feats["flops"] * surrogate.flops_scale)
    error += historical_penalties(feats)
    error += historical_residual(
        digest, salt="standalone", sigma=surrogate.residual_sigma
    )
    return float(np.clip(error, 5.0, 95.0))


def historical_proxy_accuracy(surrogate, arch):
    digest = historical_digest(arch)
    error = historical_top1_error(surrogate, arch, digest) + surrogate.proxy_gap
    error += historical_residual(digest, salt="proxy", sigma=surrogate.proxy_sigma)
    return float(np.clip((100.0 - error) / 100.0, 0.0, 1.0))


def _bits(features, drop=None):
    """Features with every float as its ``hex()`` text."""
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in features.items()
        if name != drop
    }


def _assert_batches_match(surrogate, archs, expected, monkeypatch):
    """``proxy_accuracy_many`` over ``archs`` as one batch, as batches of
    one and as a batch with repeats gives the ``expected`` scores (as
    ``float.hex``), with the bulk streams on and off."""
    repeats = [0, 1, 0, len(archs) - 1, 1, len(archs) - 1, 0]
    for fast in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(streams, "FAST_PATH", fast)
            assert [v.hex() for v in surrogate.proxy_accuracy_many(archs)] == expected
            assert [
                surrogate.proxy_accuracy_many([a])[0].hex() for a in archs[:25]
            ] == expected[:25]
            assert [
                v.hex()
                for v in surrogate.proxy_accuracy_many([archs[i] for i in repeats])
            ] == [expected[i] for i in repeats]


def _all_skip(space):
    """All-skip architectures at the smallest and the largest factor."""
    grid = space.candidate_factors[0]
    return [Architecture.uniform(space.num_layers, 4, f) for f in (grid[0], grid[-1])]


@pytest.mark.parametrize("layout", LAYOUT_NAMES)
@pytest.mark.parametrize("scaled", [False, True], ids=["plain", "for_space"])
def test_scores_match_historical_bits(layout, scaled, monkeypatch):
    space = space_for_layout(layout)
    surrogate = (
        AccuracySurrogate.for_space(space) if scaled else AccuracySurrogate(space)
    )
    rng = np.random.default_rng(2 * LAYOUT_NAMES.index(layout) + scaled)
    archs = space.sample_many(rng, 2000) + _all_skip(space)
    expected = []
    for arch in archs:
        digest = historical_digest(arch)
        assert arch.digest() == digest
        assert _bits(dataclasses.asdict(extract_features(space, arch))) == _bits(
            historical_features(space, arch), drop="params"
        )
        expected.append(historical_proxy_accuracy(surrogate, arch).hex())
        assert surrogate.proxy_accuracy(arch).hex() == expected[-1]
        assert (
            surrogate.top1_error(arch).hex()
            == historical_top1_error(surrogate, arch, digest).hex()
        )
    _assert_batches_match(surrogate, archs, expected, monkeypatch)


def test_clipped_scores_match_historical_bits(monkeypatch):
    """Both clamps engage: a huge gap pins proxy accuracy at 0 and the
    top-1 error at 95; a negative gap pins proxy accuracy at 1. The
    batch adds all-skip architectures and (off ``mini``'s grid) a width
    bottleneck below factor 0.3."""
    space = space_for_layout("mini")
    rng = np.random.default_rng(3)
    archs = [space.sample(rng) for _ in range(200)] + _all_skip(space)
    archs.append(archs[0].with_factor(1, 0.2))
    for gap in (-200.0, 200.0):
        surrogate = AccuracySurrogate(space, proxy_gap=gap)
        expected = [historical_proxy_accuracy(surrogate, a).hex() for a in archs]
        assert [surrogate.proxy_accuracy(a).hex() for a in archs] == expected
        _assert_batches_match(surrogate, archs, expected, monkeypatch)
    unscaled = AccuracySurrogate(space)
    assert {unscaled.top1_error(a) for a in archs} == {95.0}


def test_digest_of_off_grid_factors():
    off_grid = [
        0.30000000000000004,
        0.1234567,
        0.1 + 0.2,
        1e-05,
        1e-07,
        0.9999995,
        0.9999994999,
        5e-324,
        1.0,
        2.0 / 3.0,
    ]
    rng = np.random.default_rng(17)
    for width in (1, 3, 10):
        for _ in range(300):
            factors = tuple(
                float(f)
                for f in rng.choice(
                    off_grid + list(rng.uniform(1e-9, 1.0, size=4)), size=width
                )
            )
            ops = tuple(int(o) for o in rng.integers(0, 5, size=width))
            arch = Architecture(ops, factors)
            assert arch.digest() == historical_digest(arch)
