"""Tests for the mixed-radix architecture encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    SearchSpace,
    architecture_to_index,
    index_to_architecture,
    proxy,
    space_cardinality,
)


class TestCardinality:
    def test_matches_float_size(self, proxy_space):
        exact = space_cardinality(proxy_space)
        assert float(exact) == pytest.approx(proxy_space.space_size())

    def test_paper_space_exact(self, space_a):
        # 50^20 exactly, as a big integer.
        assert space_cardinality(space_a) == 50 ** 20

    def test_shrunk_space_smaller(self, proxy_space):
        shrunk = proxy_space.fix_operator(0, 1)
        assert space_cardinality(shrunk) * 5 == space_cardinality(proxy_space)


class TestBijection:
    def test_roundtrip_sampled(self, proxy_space, rng):
        for _ in range(25):
            arch = proxy_space.sample(rng)
            index = architecture_to_index(proxy_space, arch)
            assert index_to_architecture(proxy_space, index) == arch

    def test_roundtrip_paper_scale(self, space_a, rng):
        arch = space_a.sample(rng)
        index = architecture_to_index(space_a, arch)
        assert 0 <= index < 50 ** 20
        assert index_to_architecture(space_a, index) == arch

    def test_extremes(self, proxy_space):
        first = index_to_architecture(proxy_space, 0)
        last = index_to_architecture(
            proxy_space, space_cardinality(proxy_space) - 1
        )
        assert architecture_to_index(proxy_space, first) == 0
        assert architecture_to_index(proxy_space, last) == (
            space_cardinality(proxy_space) - 1
        )

    def test_distinct_archs_distinct_indices(self, proxy_space, rng):
        archs = {proxy_space.sample(rng) for _ in range(30)}
        indices = {architecture_to_index(proxy_space, a) for a in archs}
        assert len(indices) == len(archs)

    def test_out_of_range_raises(self, proxy_space):
        with pytest.raises(ValueError):
            index_to_architecture(proxy_space, -1)
        with pytest.raises(ValueError):
            index_to_architecture(
                proxy_space, space_cardinality(proxy_space)
            )

    def test_foreign_arch_raises(self, proxy_space):
        from repro.space import Architecture

        with pytest.raises(ValueError):
            architecture_to_index(proxy_space, Architecture.uniform(3))

    def test_shrunk_space_bijection(self, proxy_space, rng):
        shrunk = proxy_space.fix_operator(7, 2).fix_operator(0, 1)
        for _ in range(15):
            arch = shrunk.sample(rng)
            index = architecture_to_index(shrunk, arch)
            assert index_to_architecture(shrunk, index) == arch

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_property(self, seed):
        space = SearchSpace(proxy())
        arch = space.sample(np.random.default_rng(seed))
        assert index_to_architecture(
            space, architecture_to_index(space, arch)
        ) == arch
