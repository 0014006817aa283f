"""Tests for the search space, shrinking, and analytic costs."""

import numpy as np
import pytest

from repro.nn.layers.mask import channels_kept
from repro.space import Architecture, SearchSpace, proxy
from repro.space.geometry import build_layer_geometry


class TestGeometry:
    def test_layer_zero_sees_stem(self, space_a):
        geom = space_a.geometry[0]
        assert geom.max_in_channels == space_a.config.stem_channels
        assert geom.in_size == 112  # 224 after the stride-2 stem

    def test_resolution_halves_per_stage(self, space_a):
        sizes = [g.in_size for g in space_a.geometry]
        assert sizes[0] == 112
        assert sizes[4] == 56
        assert sizes[8] == 28
        assert sizes[16] == 14
        assert space_a.geometry[-1].out_size == 7

    def test_in_channels_chain(self, space_a):
        geoms = space_a.geometry
        for prev, cur in zip(geoms, geoms[1:]):
            assert cur.max_in_channels == prev.max_out_channels

    def test_build_function_matches_space(self, space_a):
        rebuilt = build_layer_geometry(space_a.config)
        assert rebuilt == space_a.geometry


class TestSpaceSize:
    def test_paper_size(self, space_a):
        # |A| = (5 ops x 10 factors)^20 ~= 9.5e33 (paper Sec. III-A)
        assert space_a.space_size() == pytest.approx(9.54e33, rel=0.01)

    def test_log10_consistent(self, space_a):
        assert space_a.log10_size() == pytest.approx(
            np.log10(space_a.space_size()), rel=1e-9
        )

    def test_shrinking_reduces_size(self, space_a):
        shrunk = space_a.fix_operator(19, 0)
        assert shrunk.space_size() < space_a.space_size()
        # fixing one layer removes a factor of K=5
        assert space_a.space_size() / shrunk.space_size() == pytest.approx(5.0)


class TestSampling:
    def test_sample_inside_space(self, space_a, rng):
        for _ in range(20):
            arch = space_a.sample(rng)
            assert space_a.contains(arch)
            assert arch.num_layers == 20

    def test_sampling_deterministic_with_seed(self, space_a):
        a = space_a.sample(np.random.default_rng(5))
        b = space_a.sample(np.random.default_rng(5))
        assert a == b

    def test_shrunk_space_sampling_respects_fix(self, space_a, rng):
        shrunk = space_a.fix_operator(10, 3)
        for _ in range(20):
            assert shrunk.sample(rng).ops[10] == 3

    def test_max_architecture_uses_max_factor(self, space_a):
        arch = space_a.max_architecture()
        assert all(f == 1.0 for f in arch.factors)
        assert space_a.contains(arch)


class TestContains:
    def test_wrong_length_not_contained(self, space_a):
        assert not space_a.contains(Architecture.uniform(5))

    def test_fixed_layer_mismatch_not_contained(self, space_a):
        shrunk = space_a.fix_operator(0, 1)
        arch = Architecture.uniform(20, op_index=0)
        assert not shrunk.contains(arch)

    def test_factor_not_in_candidates(self, space_a):
        arch = Architecture.uniform(20, op_index=0, factor=0.55)
        assert not space_a.contains(arch)

    def test_factor_within_tolerance_is_contained(self, space_a):
        """An exact candidate hits the set; one 1e-10 off still counts."""
        assert space_a.contains(Architecture.uniform(20, factor=0.3))
        assert space_a.contains(Architecture.uniform(20, factor=0.3 + 1e-10))
        assert not space_a.contains(Architecture.uniform(20, factor=0.3 + 1e-8))

    def test_contains_agrees_with_a_candidate_scan(self, proxy_space):
        """Set membership plus the tolerance fallback gives the answers
        of a per-layer scan, in and out of a shrunk space."""
        rng = np.random.default_rng(3)
        shrunk = proxy_space.fix_operator(2, 1)
        grid = [round(0.05 * i, 2) for i in range(1, 21)]
        for _ in range(300):
            arch = Architecture(
                tuple(int(o) for o in rng.integers(0, 5, size=8)),
                tuple(float(f) for f in rng.choice(grid, size=8)),
            )
            for space in (proxy_space, shrunk):
                scan = all(
                    op in space.candidate_ops[layer]
                    and any(
                        abs(factor - f) < 1e-9
                        for f in space.candidate_factors[layer]
                    )
                    for layer, (op, factor) in enumerate(zip(arch.ops, arch.factors))
                )
                assert space.contains(arch) == scan


class TestConstruction:
    @pytest.mark.parametrize("factor", [1.5, 0.0, float("nan")])
    def test_invalid_channel_factor_raises(self, factor):
        config = proxy()
        with pytest.raises(ValueError, match=r"channel factor .* outside \(0, 1\]"):
            SearchSpace(config, candidate_factors=[[0.5, factor]] * config.num_layers)


class TestShrinkingOps:
    def test_fix_operator_out_of_candidates_raises(self, space_a):
        shrunk = space_a.fix_operator(3, 1)
        with pytest.raises(ValueError):
            shrunk.fix_operator(3, 2)

    def test_fix_operator_bad_layer_raises(self, space_a):
        with pytest.raises(IndexError):
            space_a.fix_operator(20, 0)

    def test_fixed_layers_tracking(self, space_a):
        shrunk = space_a.fix_operator(19, 2).fix_operator(18, 0)
        assert shrunk.fixed_layers() == {19: 2, 18: 0}

    def test_original_space_unchanged(self, space_a):
        before = space_a.space_size()
        space_a.fix_operator(0, 0)
        assert space_a.space_size() == before

    def test_restrict_equals_fix(self, space_a):
        a = space_a.fix_operator(5, 2)
        b = space_a.restrict_to_operator_subspace(5, 2)
        assert a.candidate_ops == b.candidate_ops


class TestActiveChannels:
    def test_full_factors_give_max_channels(self, space_a):
        arch = Architecture.uniform(20, op_index=0, factor=1.0)
        channels = space_a.active_channels(arch)
        expected_out = space_a.config.layer_channels()
        assert [c for _, c in channels] == expected_out

    def test_scaling_propagates_to_next_layer(self, space_a):
        arch = Architecture.uniform(20, op_index=0, factor=0.5)
        channels = space_a.active_channels(arch)
        # layer 1 input = layer 0 active output
        assert channels[1][0] == channels[0][1]
        assert channels[0][1] == channels_kept(48, 0.5)

    def test_wrong_layer_count_raises(self, space_a):
        with pytest.raises(ValueError):
            space_a.active_channels(Architecture.uniform(3))


class TestAnalyticCosts:
    def test_flops_within_mobile_range(self, space_a):
        # The A-layout tops out around 200-240M MACs (between
        # ShuffleNetV2 1.0x and 1.5x), as the channel layout implies.
        arch = Architecture.uniform(20, op_index=0, factor=1.0)
        flops = space_a.arch_flops(arch)
        assert 100e6 < flops < 260e6

    def test_flops_monotone_in_factor(self, space_a):
        flops = [
            space_a.arch_flops(Architecture.uniform(20, op_index=0, factor=f))
            for f in (0.3, 0.6, 1.0)
        ]
        assert flops == sorted(flops)

    def test_skip_only_arch_is_cheapest(self, space_a):
        skip_arch = Architecture.uniform(20, op_index=4, factor=1.0)
        conv_arch = Architecture.uniform(20, op_index=0, factor=1.0)
        assert space_a.arch_flops(skip_arch) < space_a.arch_flops(conv_arch)

    def test_params_positive_and_monotone(self, space_a):
        small = space_a.arch_params(Architecture.uniform(20, 0, 0.2))
        large = space_a.arch_params(Architecture.uniform(20, 0, 1.0))
        assert 0 < small < large

    def test_primitives_grouped_per_layer(self, space_a, rng):
        arch = space_a.sample(rng)
        prims = space_a.arch_primitives(arch)
        assert len(prims) == 20

    def test_stride1_skip_has_no_primitives(self, space_a):
        arch = Architecture.uniform(20, op_index=4, factor=1.0)
        prims = space_a.arch_primitives(arch)
        # stride-1 layers: identity skip -> no kernels
        stride1_layers = [
            i for i, g in enumerate(space_a.geometry) if g.stride == 1
        ]
        for i in stride1_layers:
            assert prims[i] == []

    def test_stem_head_primitives(self, space_a, rng):
        arch = space_a.sample(rng)
        extra = space_a.stem_head_primitives(arch)
        names = [p.name for p in extra]
        assert names[0] == "stem-conv3x3"
        assert "head-fc" in names

    def test_b_layout_heavier_than_a(self, space_a, space_b):
        arch = Architecture.uniform(20, op_index=0, factor=1.0)
        assert space_b.arch_flops(arch) > space_a.arch_flops(arch)


class TestConstruction:
    def test_candidate_list_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            SearchSpace(proxy(), candidate_ops=[[0]])

    def test_empty_candidates_raise(self):
        cfg = proxy()
        ops = [[0]] * cfg.num_layers
        ops[2] = []
        with pytest.raises(ValueError):
            SearchSpace(cfg, candidate_ops=ops)

    def test_out_of_range_candidate_raises(self):
        cfg = proxy()
        ops = [[0, 9]] * cfg.num_layers
        with pytest.raises(ValueError):
            SearchSpace(cfg, candidate_ops=ops)
