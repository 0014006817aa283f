"""Tests for the tabular NAS benchmark artifact."""

import numpy as np
import pytest

from repro.space import SearchSpace, SpaceConfig, StageSpec
from repro.space.encoding import space_cardinality
from repro.tabular import TabularBenchmark


@pytest.fixture(scope="module")
def micro_space():
    """A deliberately tiny space (5 ops x 2 factors)^2 = 100 archs."""
    config = SpaceConfig(
        name="micro",
        input_size=16,
        num_classes=4,
        stem_channels=4,
        stages=(StageSpec(1, 8), StageSpec(1, 16)),
        head_channels=16,
        channel_factors=(0.5, 1.0),
    )
    return SearchSpace(config)


def _fns(space):
    latency = lambda a: space.arch_flops(a) / 1e4
    accuracy = lambda a: min(1.0, (space.arch_flops(a) / 1e5) ** 0.5)
    return latency, accuracy


class TestBuild:
    def test_sampled_build(self, proxy_space):
        lat, acc = _fns(proxy_space)
        table = TabularBenchmark.build(
            proxy_space, lat, acc, num_archs=50, seed=0
        )
        assert len(table) == 50
        assert not table.exhaustive

    def test_exhaustive_build(self, micro_space):
        lat, acc = _fns(micro_space)
        table = TabularBenchmark.build(micro_space, lat, acc, num_archs=None)
        assert len(table) == space_cardinality(micro_space) == 100
        assert table.exhaustive

    def test_exhaustive_cap(self, space_a):
        lat, acc = _fns(space_a)
        with pytest.raises(ValueError):
            TabularBenchmark.build(space_a, lat, acc, num_archs=None)

    def test_invalid_num_archs(self, proxy_space):
        lat, acc = _fns(proxy_space)
        with pytest.raises(ValueError):
            TabularBenchmark.build(proxy_space, lat, acc, num_archs=0)

    def test_sample_more_than_space_saturates(self, micro_space):
        lat, acc = _fns(micro_space)
        table = TabularBenchmark.build(
            micro_space, lat, acc, num_archs=10_000, seed=0
        )
        assert len(table) == 100
        assert table.exhaustive

    def test_energy_column_optional(self, micro_space):
        lat, acc = _fns(micro_space)
        table = TabularBenchmark.build(
            micro_space, lat, acc, energy_fn=lambda a: 2.0, num_archs=None
        )
        arch = next(iter(table.entries()))[0]
        assert table.query(arch).energy_mj == 2.0


class TestQuery:
    @pytest.fixture(scope="class")
    def table(self, micro_space):
        lat, acc = _fns(micro_space)
        return TabularBenchmark.build(micro_space, lat, acc, num_archs=None)

    def test_query_matches_functions(self, table, micro_space, rng):
        lat, acc = _fns(micro_space)
        arch = micro_space.sample(rng)
        entry = table.query(arch)
        assert entry.latency_ms == pytest.approx(lat(arch))
        assert entry.accuracy == pytest.approx(acc(arch))

    def test_contains(self, table, micro_space, rng):
        assert micro_space.sample(rng) in table
        from repro.space import Architecture

        assert Architecture.uniform(3) not in table

    def test_missing_entry_raises(self, proxy_space):
        lat, acc = _fns(proxy_space)
        table = TabularBenchmark.build(proxy_space, lat, acc, num_archs=3, seed=0)
        rng = np.random.default_rng(123)
        missing = None
        for _ in range(50):
            candidate = proxy_space.sample(rng)
            if candidate not in table:
                missing = candidate
                break
        assert missing is not None
        with pytest.raises(KeyError):
            table.query(missing)

    def test_best_under_is_oracle(self, table):
        """On the exhaustive table, best_under scans the whole truth."""
        budget = 15.0
        arch, entry = table.best_under(budget)
        assert entry.latency_ms <= budget
        for _, other in table.entries():
            if other.latency_ms <= budget:
                assert entry.accuracy >= other.accuracy

    def test_best_under_infeasible_raises(self, table):
        with pytest.raises(ValueError):
            table.best_under(1e-9)


class TestSearchOnTable:
    def test_ea_runs_against_table(self, micro_space):
        """A table can replace the simulator in the Eq. 1 objective —
        the whole point of a tabular benchmark."""
        from repro.core import EvolutionConfig, EvolutionarySearch, Objective

        lat, acc = _fns(micro_space)
        table = TabularBenchmark.build(micro_space, lat, acc, num_archs=None)
        objective = Objective(
            accuracy_fn=lambda a: table.query(a).accuracy,
            latency_fn=lambda a: table.query(a).latency_ms,
            target_ms=12.0,
            beta=-0.5,
        )
        result = EvolutionarySearch(
            micro_space, objective,
            EvolutionConfig(generations=6, population_size=10, num_parents=4),
        ).run()
        # with 100 archs and 60 evaluations the EA should land close to
        # the oracle answer
        oracle_arch, oracle = table.best_under(12.0 * 1.0)
        assert result.best.accuracy >= oracle.accuracy - 0.05
