"""Tests for sampling utilities."""

import numpy as np
import pytest

from repro.space import SearchSpace, proxy, sample_architectures, sample_uniform


class TestSampleUniform:
    def test_returns_contained_arch(self, proxy_space, rng):
        arch = sample_uniform(proxy_space, rng)
        assert proxy_space.contains(arch)


class TestSampleArchitectures:
    def test_count(self, proxy_space, rng):
        archs = sample_architectures(proxy_space, 17, rng)
        assert len(archs) == 17

    def test_zero_count(self, proxy_space, rng):
        assert sample_architectures(proxy_space, 0, rng) == []

    def test_negative_raises(self, proxy_space, rng):
        with pytest.raises(ValueError):
            sample_architectures(proxy_space, -1, rng)

    def test_unique_mode_dedups(self, proxy_space, rng):
        archs = sample_architectures(proxy_space, 30, rng, unique=True)
        assert len({a.key() for a in archs}) == 30

    def test_unique_exhaustion_raises(self):
        # A space with exactly 2 architectures cannot yield 10 unique ones.
        cfg = proxy()
        space = SearchSpace(
            cfg,
            candidate_ops=[[0]] * cfg.num_layers,
            candidate_factors=[[1.0]] * (cfg.num_layers - 1) + [[0.5, 1.0]],
        )
        with pytest.raises(RuntimeError):
            sample_architectures(space, 10, np.random.default_rng(0), unique=True)
