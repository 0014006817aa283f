"""Tests for progressive space shrinking (Sec. III-C)."""

import numpy as np
import pytest

from repro.core import (
    JointShrinking,
    Objective,
    ProgressiveSpaceShrinking,
    ShrinkDecision,
    SubspaceQuality,
)
from repro.core.shrinking import default_stage_layers, validate_stage_layers
from repro.space import SearchSpace, SpaceConfig, StageSpec, imagenet_a


def simple_objective(space):
    """Prefers more FLOPs up to a latency proxy target."""
    return Objective(
        accuracy_fn=lambda a: space.arch_flops(a) / 3e8,
        latency_fn=lambda a: space.arch_flops(a) / 1e7,
        target_ms=15.0,
        beta=-0.3,
    )


class TestStageSchedule:
    def test_paper_layers_for_l20(self):
        s1, s2 = default_stage_layers(20)
        # paper: layers 20,19,18,17 then 16,15,14,13 (1-based)
        assert s1 == (19, 18, 17, 16)
        assert s2 == (15, 14, 13, 12)

    def test_proxy_scales_down(self):
        s1, s2 = default_stage_layers(8)
        assert len(s1) == len(s2) == 1
        assert s1[0] == 7 and s2[0] == 6

    def test_stages_disjoint(self):
        s1, s2 = default_stage_layers(20)
        assert not set(s1) & set(s2)

    @pytest.mark.parametrize("num_layers", [1, 2, 3, 4])
    def test_small_spaces_get_a_valid_plan(self, num_layers):
        plan = default_stage_layers(num_layers)
        validate_stage_layers(plan, num_layers)
        assert plan[0] == (num_layers - 1,)

    def test_one_layer_space_shrinks_with_the_default_plan(self):
        space = SearchSpace(
            SpaceConfig(
                name="one-layer",
                input_size=16,
                num_classes=4,
                stem_channels=4,
                stages=(StageSpec(1, 8),),
                head_channels=8,
            )
        )
        quality = SubspaceQuality(simple_objective(space), num_samples=5, seed=0)
        result = ProgressiveSpaceShrinking(quality).run(space)
        assert [[d.layer for d in stage] for stage in result.stages] == [[0]]
        assert len(result.final_space.candidate_ops[0]) == 1

    def test_run_rejects_invalid_plan_before_estimating(self, proxy_space):
        quality = SubspaceQuality(
            simple_objective(proxy_space), num_samples=5, seed=0
        )
        shrinker = ProgressiveSpaceShrinking(quality, stage_layers=[(6, 7)])
        with pytest.raises(ValueError, match="not strictly descending"):
            shrinker.run(proxy_space)
        assert quality.evaluations == 0


class TestShrinkLayer:
    def test_picks_highest_quality_op(self, proxy_space):
        obj = simple_objective(proxy_space)
        quality = SubspaceQuality(obj, num_samples=40, seed=0)
        shrinker = ProgressiveSpaceShrinking(quality)
        space, decision = shrinker.shrink_layer(proxy_space, layer=7)
        assert decision.chosen_op == max(
            decision.qualities, key=decision.qualities.get
        )
        assert space.candidate_ops[7] == (decision.chosen_op,)

    def test_decision_covers_all_candidates(self, proxy_space):
        obj = simple_objective(proxy_space)
        quality = SubspaceQuality(obj, num_samples=20, seed=0)
        shrinker = ProgressiveSpaceShrinking(quality)
        _, decision = shrinker.shrink_layer(proxy_space, layer=5)
        assert set(decision.qualities) == set(proxy_space.candidate_ops[5])

    def test_margin(self):
        d = ShrinkDecision(layer=0, qualities={0: 1.0, 1: 0.6, 2: 0.9}, chosen_op=0)
        assert d.margin() == pytest.approx(0.1)

    def test_margin_single_candidate(self):
        d = ShrinkDecision(layer=0, qualities={0: 1.0}, chosen_op=0)
        assert d.margin() == 0.0


class TestProgressiveRun:
    def test_two_stages_fix_expected_layers(self):
        space = SearchSpace(imagenet_a())
        obj = simple_objective(space)
        quality = SubspaceQuality(obj, num_samples=10, seed=0)
        shrinker = ProgressiveSpaceShrinking(quality)
        result = shrinker.run(space)
        fixed = result.final_space.fixed_layers()
        assert set(fixed) == {19, 18, 17, 16, 15, 14, 13, 12}

    def test_three_orders_per_stage(self):
        """Each 4-layer stage removes K^4 = 625 ~ 10^2.8 of the space —
        the paper's 'three orders of magnitude'."""
        space = SearchSpace(imagenet_a())
        obj = simple_objective(space)
        quality = SubspaceQuality(obj, num_samples=5, seed=0)
        result = ProgressiveSpaceShrinking(quality).run(space)
        removed = result.orders_of_magnitude_removed()
        assert len(removed) == 2
        for orders in removed:
            assert orders == pytest.approx(np.log10(5 ** 4), rel=1e-6)

    def test_progressive_costs_k_times_layers(self):
        """Complexity claim: 5 x 4 subspace evaluations per stage, not 5^4."""
        space = SearchSpace(imagenet_a())
        obj = simple_objective(space)
        n = 10
        quality = SubspaceQuality(obj, num_samples=n, seed=0)
        result = ProgressiveSpaceShrinking(quality).run(space)
        # 2 stages x 4 layers x 5 ops x n samples
        assert result.quality_evaluations == 2 * 4 * 5 * n

    def test_tune_hook_called_between_stages(self, proxy_space):
        calls = []
        obj = simple_objective(proxy_space)
        quality = SubspaceQuality(obj, num_samples=5, seed=0)
        shrinker = ProgressiveSpaceShrinking(
            quality, tune_hook=lambda space, stage: calls.append(stage)
        )
        shrinker.run(proxy_space)
        assert calls == [0]  # once, between the two stages

    def test_custom_stage_layers(self, proxy_space):
        obj = simple_objective(proxy_space)
        quality = SubspaceQuality(obj, num_samples=5, seed=0)
        shrinker = ProgressiveSpaceShrinking(quality, stage_layers=[(3, 2), (1,)])
        result = shrinker.run(proxy_space)
        assert set(result.final_space.fixed_layers()) == {3, 2, 1}

    def test_decisions_recorded_in_order(self, proxy_space):
        obj = simple_objective(proxy_space)
        quality = SubspaceQuality(obj, num_samples=5, seed=0)
        shrinker = ProgressiveSpaceShrinking(quality, stage_layers=[(7, 6)])
        result = shrinker.run(proxy_space)
        assert [d.layer for d in result.decisions()] == [7, 6]


class TestJointShrinking:
    def test_exponential_evaluations(self, proxy_space):
        """The naive joint evaluation costs K^layers quality estimates —
        625 for a 4-layer stage vs. the progressive 20."""
        obj = simple_objective(proxy_space)
        quality = SubspaceQuality(obj, num_samples=2, seed=0)
        joint = JointShrinking(quality)
        _, evals = joint.run_stage(proxy_space, layers=(7, 6))
        assert evals == 5 ** 2 * 2  # 25 subspaces x N=2 F-calls each

    def test_fixes_requested_layers(self, proxy_space):
        obj = simple_objective(proxy_space)
        quality = SubspaceQuality(obj, num_samples=2, seed=0)
        space, _ = JointShrinking(quality).run_stage(proxy_space, layers=(7, 6))
        assert set(space.fixed_layers()) == {7, 6}
