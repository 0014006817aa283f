"""TabularEvaluator: vectorized gathers vs scalar lookups, strict misses."""

import numpy as np
import pytest

from repro.tabular import TabularBenchmark, TabularEvaluator, decode_indices

from tests.tabular.conftest import micro_accuracy, micro_latency


@pytest.fixture(scope="module")
def archs(micro_space):
    rng = np.random.default_rng(11)
    return [micro_space.sample(rng) for _ in range(20)]


class TestGathers:
    def test_scalar_matches_recorded_functions(
        self, micro_table, micro_space, archs
    ):
        ev = TabularEvaluator(micro_table, device="edge")
        for arch in archs:
            assert ev.latency(arch) == pytest.approx(
                micro_latency(micro_space, arch)
            )
            assert ev.accuracy(arch) == pytest.approx(
                micro_accuracy(micro_space, arch)
            )

    def test_many_matches_scalar_exactly(self, micro_table, archs):
        ev = TabularEvaluator(micro_table, device="gpu")
        assert ev.latency_many(archs) == [ev.latency(a) for a in archs]
        assert ev.accuracy_many(archs) == [ev.accuracy(a) for a in archs]

    def test_evaluate_many_matches_the_objective(self, micro_table, archs):
        ev = TabularEvaluator(micro_table, device="gpu")
        objective = ev.objective(target_ms=2.0, beta=-0.5)
        batched = ev.evaluate_many(objective, archs)
        assert batched == objective.evaluate_many(archs)
        assert [type(e.score) for e in batched] == [float] * len(archs)

    def test_bi_objective_many(self, micro_table, archs):
        ev = TabularEvaluator(micro_table, device="edge")
        points = ev.bi_objective_many(archs)
        assert [p.arch for p in points] == archs
        assert [p.latency_ms for p in points] == ev.latency_many(archs)
        assert [p.accuracy for p in points] == ev.accuracy_many(archs)


class TestDeviceSelection:
    def test_default_is_primary_device(self, micro_table):
        assert TabularEvaluator(micro_table).device == "edge"

    def test_devices_give_different_columns(self, micro_table, archs):
        edge = TabularEvaluator(micro_table, device="edge")
        gpu = TabularEvaluator(micro_table, device="gpu")
        assert gpu.latency_many(archs) != edge.latency_many(archs)
        # Accuracy is device-independent by construction.
        assert gpu.accuracy_many(archs) == edge.accuracy_many(archs)

    def test_unknown_device_rejected(self, micro_table):
        with pytest.raises(ValueError, match="no latency column"):
            TabularEvaluator(micro_table, device="tpu")


class TestReplayMiss:
    def test_miss_raises_key_error_never_falls_back(self, micro_space):
        sampled = TabularBenchmark(
            micro_space,
            indices=[0, 1, 2],
            accuracy=[0.1, 0.2, 0.3],
            latency={"edge": [1.0, 2.0, 3.0]},
        )
        ev = TabularEvaluator(sampled)
        hit, miss = decode_indices(micro_space, [1, 50])
        assert ev.latency(hit) == 2.0
        with pytest.raises(KeyError, match="not tabulated"):
            ev.latency(miss)
        with pytest.raises(KeyError, match="not tabulated"):
            ev.accuracy_many([hit, miss])
        with pytest.raises(KeyError, match="not tabulated"):
            ev.bi_objective_many([miss])
