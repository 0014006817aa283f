"""The batched surrogate path against the per-architecture one.

``feature_columns`` reduces the factor matrix row by row,
``features_many`` returns its rows and ``proxy_accuracy_many`` scores
from its columns; both must equal the per-architecture functions bit
for bit, compared as ``float.hex()``.
The row-wise ``mean``/``std`` equal numpy's 1-D reductions only because
numpy sums each row in the 1-D order, which numpy does not document:
these tests are what hold it.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.accuracy import AccuracySurrogate
from repro.accuracy.features import extract_features, features_many
from repro.space import (
    LAYOUT_NAMES,
    Architecture,
    SearchSpace,
    SpaceConfig,
    StageSpec,
    space_for_layout,
)
from repro.space.cost_tables import cost_tables


def _bits(feats):
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(feats)
    )


def _population(space, seed, count=600):
    """Uniform samples, all-skip and skip-chain architectures, and
    repeated factors (a zero standard deviation)."""
    rng = np.random.default_rng(seed)
    grid = np.asarray(space.candidate_factors[0])
    archs = space.sample_many(rng, count)
    archs += [
        Architecture.uniform(space.num_layers, 4, float(f)) for f in grid
    ]
    for _ in range(100):
        skip = rng.random(space.num_layers) < 0.75
        ops = np.where(skip, 4, rng.integers(0, 4, space.num_layers))
        factors = rng.choice(grid, size=space.num_layers)
        archs.append(Architecture(tuple(ops.tolist()), tuple(factors.tolist())))
    return [a for a in archs if space.contains(a)]


def _off_grid(space, seed, count=100):
    rng = np.random.default_rng(seed)
    return [
        Architecture(
            tuple(rng.integers(0, 5, space.num_layers).tolist()),
            tuple(rng.uniform(1e-6, 1.0, space.num_layers).tolist()),
        )
        for _ in range(count)
    ] + [Architecture.uniform(space.num_layers, 0, 0.1 + 0.2)]


def _assert_matches_scalar(space, archs):
    assert [_bits(f) for f in features_many(space, archs)] == [
        _bits(extract_features(space, a)) for a in archs
    ]
    for surrogate in (AccuracySurrogate(space), AccuracySurrogate.for_space(space)):
        assert [v.hex() for v in surrogate.proxy_accuracy_many(archs)] == [
            surrogate.proxy_accuracy(a).hex() for a in archs
        ]


@pytest.mark.parametrize("layout", LAYOUT_NAMES)
def test_batched_scores_match_scalar_bits(layout):
    space = space_for_layout(layout)
    _assert_matches_scalar(space, _population(space, LAYOUT_NAMES.index(layout)))


@pytest.mark.parametrize("layout", ["a", "proxy"])
def test_shrunk_subspace_matches_scalar_bits(layout):
    space = space_for_layout(layout)
    for layer in range(space.num_layers - 1, space.num_layers // 2, -1):
        space = space.fix_operator(layer, layer % 5)
    _assert_matches_scalar(space, _population(space, 11))


@pytest.mark.parametrize("layout", LAYOUT_NAMES)
def test_off_grid_factors_match_scalar_bits(layout):
    space = space_for_layout(layout)
    on_grid = space.sample_many(np.random.default_rng(3), 100)
    off_grid = _off_grid(space, 5)
    mixed = [a for pair in zip(on_grid, off_grid) for a in pair] + off_grid[100:]
    _assert_matches_scalar(space, mixed)


def test_empty_batch():
    space = space_for_layout("mini")
    assert features_many(space, []) == []
    assert AccuracySurrogate(space).proxy_accuracy_many([]) == []


def test_wrong_length_architecture_raises_the_scalar_error():
    space = space_for_layout("proxy")
    short = Architecture.uniform(space.num_layers - 1)
    with pytest.raises(ValueError) as scalar:
        extract_features(space, short)
    batch = [space.max_architecture(), short]
    with pytest.raises(ValueError) as batched:
        features_many(space, batch)
    assert str(batched.value) == str(scalar.value)
    with pytest.raises(ValueError, match=str(scalar.value)):
        AccuracySurrogate(space).proxy_accuracy_many(batch)


def _count(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_on_grid_batch_computes_no_scalar_flops_and_one_digest_each(
    space_a, monkeypatch
):
    surrogate = AccuracySurrogate.for_space(space_a)
    archs = space_a.sample_many(np.random.default_rng(9), 50)
    flops_calls = _count(monkeypatch, SearchSpace, "arch_flops")
    digest_calls = _count(monkeypatch, Architecture, "digest")
    surrogate.proxy_accuracy_many(archs)
    assert flops_calls == []
    assert [id(a) for a in digest_calls] == [id(a) for a in archs]


def test_threads_on_a_cold_memo_agree():
    """Two threads scoring one batch while the geometry's dense MACs
    memo is still empty return the serial scores."""
    space = SearchSpace(
        SpaceConfig(
            name="features-threads", input_size=32, num_classes=6,
            stem_channels=9, stages=(StageSpec(3, 12), StageSpec(3, 24)),
            head_channels=20,
        )
    )
    surrogate = AccuracySurrogate.for_space(space)
    archs = _population(space, 2, count=400)
    expected = [surrogate.proxy_accuracy(a).hex() for a in archs]
    assert "_layer_flops" not in vars(cost_tables(space.config))
    results = [None, None]

    def work(slot):
        results[slot] = [v.hex() for v in surrogate.proxy_accuracy_many(archs)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected, expected]
