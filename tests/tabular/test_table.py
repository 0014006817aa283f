"""Columnar table core: sampling, vectorized decode, row addressing."""

import numpy as np
import pytest

from repro.space import Architecture, SearchSpace, space_for_layout
from repro.space.encoding import (
    architecture_to_index,
    index_to_architecture,
    space_cardinality,
)
from repro.tabular import (
    TabularBenchmark,
    decode_indices,
    sample_indices,
    space_fingerprint,
)


class TestSampleIndices:
    def test_distinct_sorted_and_deterministic(self, proxy_space):
        first = sample_indices(proxy_space, 200, seed=3)
        assert first == sorted(set(first))
        assert len(first) == 200
        assert first == sample_indices(proxy_space, 200, seed=3)
        assert first != sample_indices(proxy_space, 200, seed=4)

    def test_whole_space_draw_does_not_stall(self, micro_space):
        """Asking for 100% of the space must terminate with every index.

        The historical rejection sampler gave up (or spun) once the
        acceptance rate collapsed; choice-without-replacement cannot.
        """
        total = space_cardinality(micro_space)
        assert sample_indices(micro_space, total, seed=0) == list(
            range(total)
        )

    def test_oversized_request_saturates(self, micro_space):
        total = space_cardinality(micro_space)
        assert len(sample_indices(micro_space, total * 7, seed=0)) == total

    def test_paper_scale_cardinality_samples(self, space_a):
        # ~9.5e33 architectures: exercises the big-int rejection path.
        indices = sample_indices(space_a, 32, seed=1)
        assert len(indices) == 32
        assert indices == sorted(set(indices))
        assert all(0 <= i < space_cardinality(space_a) for i in indices)


class TestDecodeIndices:
    def test_matches_scalar_decoder(self, micro_space):
        total = space_cardinality(micro_space)
        batch = decode_indices(micro_space, range(total))
        for index, arch in enumerate(batch):
            assert arch == index_to_architecture(micro_space, index)

    def test_round_trips_through_encoder(self, proxy_space):
        indices = sample_indices(proxy_space, 64, seed=9)
        for index, arch in zip(
            indices, decode_indices(proxy_space, indices)
        ):
            assert architecture_to_index(proxy_space, arch) == index

    @pytest.mark.parametrize("name", ["micro", "mini-012"])
    def test_genes_are_python_scalars_with_the_scalar_digest(
        self, name, micro_space
    ):
        """Unsorted and repeated indices decode to Python ``int`` ops and
        ``float`` factors: ``repr(np.int64(3))`` would change a digest."""
        if name == "micro":
            space = micro_space
        else:
            config = space_for_layout("mini").config
            space = SearchSpace(
                config, candidate_ops=[(0, 1, 2)] * config.num_layers
            )
        total = space_cardinality(space)
        rng = np.random.default_rng(4)
        indices = rng.integers(0, total, 300).tolist()
        indices += [total - 1, 0, indices[5], total - 1, indices[5]]
        for index, arch in zip(indices, decode_indices(space, indices)):
            assert all(type(op) is int for op in arch.ops)
            assert all(type(f) is float for f in arch.factors)
            assert type(arch.ops) is tuple and type(arch.factors) is tuple
            reference = index_to_architecture(space, index)
            assert arch == reference
            assert arch.digest() == reference.digest()

    def test_empty_and_out_of_range(self, micro_space):
        assert decode_indices(micro_space, []) == []
        with pytest.raises(ValueError, match="outside"):
            decode_indices(micro_space, [space_cardinality(micro_space)])
        with pytest.raises(ValueError, match="outside"):
            decode_indices(micro_space, [-1])


class TestFingerprint:
    def test_stable_and_space_sensitive(self, micro_space, proxy_space):
        assert space_fingerprint(micro_space) == space_fingerprint(
            micro_space
        )
        assert space_fingerprint(micro_space) != space_fingerprint(
            proxy_space
        )

    def test_shrunk_space_changes_fingerprint(self, micro_space):
        from repro.space import SearchSpace

        shrunk = SearchSpace(
            micro_space.config,
            candidate_ops=[
                ops[:-1] for ops in micro_space.candidate_ops
            ],
        )
        assert space_fingerprint(shrunk) != space_fingerprint(micro_space)


class TestRowAddressing:
    def test_rows_of_exhaustive_is_identity(self, micro_table, micro_space):
        archs = decode_indices(micro_space, [0, 17, 99])
        assert micro_table.rows_of(archs).tolist() == [0, 17, 99]

    def test_rows_of_sampled_binary_search(self, micro_space):
        table = TabularBenchmark(
            micro_space,
            indices=[3, 40, 77],
            accuracy=[0.1, 0.2, 0.3],
            latency={"edge": [1.0, 2.0, 3.0]},
        )
        archs = decode_indices(micro_space, [77, 3])
        assert table.rows_of(archs).tolist() == [2, 0]

    def test_miss_raises_never_falls_back(self, micro_space):
        table = TabularBenchmark(
            micro_space,
            indices=[3, 40, 77],
            accuracy=[0.1, 0.2, 0.3],
            latency={"edge": [1.0, 2.0, 3.0]},
        )
        missing = decode_indices(micro_space, [4])
        with pytest.raises(KeyError, match="not tabulated"):
            table.rows_of(missing)
        with pytest.raises(ValueError, match="not a member"):
            table.rows_of([Architecture.uniform(3)])

    def test_indices_of_matches_encoder(self, micro_table, micro_space, rng):
        archs = [micro_space.sample(rng) for _ in range(10)]
        assert micro_table.indices_of(archs) == [
            architecture_to_index(micro_space, a) for a in archs
        ]


class TestIndicesOf:
    @pytest.fixture(scope="class")
    def mini_table(self):
        space = space_for_layout("mini")
        total = space_cardinality(space)
        return TabularBenchmark(
            space,
            indices=range(total),
            accuracy=np.zeros(total),
            latency={"edge": np.zeros(total)},
            exhaustive=True,
        )

    def test_every_row_of_an_exhaustive_mini_table(self, mini_table):
        space = mini_table.space
        archs = decode_indices(space, mini_table.indices)
        indices = mini_table.indices_of(archs)
        assert indices == list(mini_table.indices)
        assert indices == [architecture_to_index(space, a) for a in archs]
        assert all(type(i) is int for i in indices[:10])
        assert mini_table.indices_of([]) == []

    def test_paper_scale_indices_are_exact(self, space_a):
        table = TabularBenchmark(
            space_a, indices=[0], accuracy=[0.0], latency={"edge": [0.0]}
        )
        archs = space_a.sample_many(np.random.default_rng(5), 20)
        archs.append(Architecture.uniform(20, op_index=4, factor=1.0))
        indices = table.indices_of(archs)
        assert indices == [architecture_to_index(space_a, a) for a in archs]
        assert max(indices) > 2**63

    def test_non_members_raise(self, mini_table):
        space = mini_table.space
        shrunk = space.fix_operator(1, 2)
        table = TabularBenchmark(
            shrunk, indices=[0], accuracy=[0.0], latency={"edge": [0.0]}
        )
        member = decode_indices(shrunk, [7])[0]
        assert table.indices_of([member]) == [7]
        wrong_length = Architecture.uniform(space.num_layers + 1)
        other_op = member.with_op(1, 3)
        off_grid = member.with_factor(0, 0.6)
        for arch in (wrong_length, other_op, off_grid):
            with pytest.raises(ValueError, match="not a member of the space"):
                table.indices_of([member, arch])

    def test_off_grid_factor_is_not_a_member(self, mini_table):
        # 0.751 rounds to the 0.75 centile, but is no candidate: it must
        # not borrow row 3375, the architecture with 0.75 there.
        arch = Architecture((0, 0, 0, 0), (0.751, 0.5, 0.5, 0.5))
        assert not mini_table.space.contains(arch)
        with pytest.raises(ValueError, match="not a member of the space"):
            mini_table.indices_of([arch])
        with pytest.raises(ValueError, match="not a member of the space"):
            mini_table.rows_of([arch])
        assert arch not in mini_table
        near = Architecture((0, 0, 0, 0), (0.75 + 1e-12, 0.5, 0.5, 0.5))
        assert mini_table.space.contains(near)
        assert mini_table.indices_of([near]) == mini_table.indices_of(
            [Architecture((0, 0, 0, 0), (0.75, 0.5, 0.5, 0.5))]
        )


class TestBestUnder:
    def test_masked_argmax_matches_linear_scan(self, micro_table):
        latency = micro_table.latency_column("edge")
        for budget in np.quantile(latency, [0.1, 0.5, 0.9]):
            arch, entry = micro_table.best_under(float(budget), "edge")
            best_row = None
            for row in range(len(micro_table)):
                if latency[row] > budget:
                    continue
                if (
                    best_row is None
                    or micro_table.accuracy_column()[row]
                    > micro_table.accuracy_column()[best_row]
                ):
                    best_row = row
            assert entry.accuracy == micro_table.accuracy_column()[best_row]
            assert entry.latency_ms == latency[best_row]

    def test_ties_resolve_to_lowest_index(self, micro_space):
        table = TabularBenchmark(
            micro_space,
            indices=[2, 5, 9],
            accuracy=[0.7, 0.7, 0.7],
            latency={"edge": [1.0, 1.0, 1.0]},
        )
        arch, _ = table.best_under(2.0)
        assert arch == index_to_architecture(micro_space, 2)

    def test_infeasible_budget_raises(self, micro_table):
        with pytest.raises(ValueError, match="no entry within"):
            micro_table.best_under(-1.0)

    def test_per_device_budgets_differ(self, micro_table):
        budget = float(np.median(micro_table.latency_column("edge")))
        _, edge = micro_table.best_under(budget, "edge")
        _, gpu = micro_table.best_under(budget, "gpu")
        # gpu columns are 3x faster, so more of the space is feasible.
        assert gpu.accuracy >= edge.accuracy


class TestColumns:
    def test_columns_are_read_only(self, micro_table):
        with pytest.raises(ValueError):
            micro_table.accuracy_column()[0] = 1.0
        with pytest.raises(ValueError):
            micro_table.latency_column("edge")[0] = 1.0

    def test_unknown_device_raises(self, micro_table):
        with pytest.raises(KeyError, match="no latency column"):
            micro_table.latency_column("tpu")

    def test_devices_sorted_and_primary(self, micro_table):
        assert micro_table.devices == ("edge", "gpu")
        assert micro_table.primary_device == "edge"

    def test_constructor_validation(self, micro_space):
        with pytest.raises(ValueError, match="sorted and distinct"):
            TabularBenchmark(
                micro_space,
                indices=[5, 3],
                accuracy=[0.1, 0.2],
                latency={"edge": [1.0, 2.0]},
            )
        with pytest.raises(ValueError, match="latency column"):
            TabularBenchmark(
                micro_space, indices=[3], accuracy=[0.1], latency={}
            )
        with pytest.raises(ValueError, match="shape"):
            TabularBenchmark(
                micro_space,
                indices=[3, 5],
                accuracy=[0.1],
                latency={"edge": [1.0, 2.0]},
            )
        with pytest.raises(ValueError, match="primary device"):
            TabularBenchmark(
                micro_space,
                indices=[3],
                accuracy=[0.1],
                latency={"edge": [1.0]},
                primary_device="tpu",
            )

