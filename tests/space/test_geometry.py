"""Derived layer geometry against the stage plan it comes from.

A space's per-layer stride, channel maximum and candidate factors are
derived from its config; no input from outside the config reaches them.
So the invariant is held here, over every bundled preset and a shrunk
space, rather than checked at run time.
"""

from dataclasses import replace

import pytest

from repro.space import SearchSpace, imagenet_a, imagenet_b, mini, proxy


def stage_plan_violations(space):
    """Every way ``space``'s geometry contradicts its stage plan: stride
    2 only at a stage start, the stage's channels as each layer's
    maximum, and candidate factors on the config's grid."""
    config = space.config
    expected = []  # (stride, max_out_channels) per layer
    for stage in config.stages:
        expected.append((2, stage.channels))
        expected.extend([(1, stage.channels)] * (stage.num_blocks - 1))
    if len(space.geometry) != len(expected):
        return [
            f"geometry has {len(space.geometry)} layers but the stage "
            f"plan sums to {len(expected)}"
        ]
    problems = [
        f"layer {geom.layer}: stride {geom.stride} and "
        f"{geom.max_out_channels} channels, the stage plan says "
        f"{stride} and {channels}"
        for geom, (stride, channels) in zip(space.geometry, expected)
        if (geom.stride, geom.max_out_channels) != (stride, channels)
    ]
    for layer, factors in enumerate(space.candidate_factors):
        off_grid = [f for f in factors if f not in config.channel_factors]
        if off_grid:
            problems.append(
                f"layer {layer}: candidate factors {off_grid} are not on "
                "the config's factor grid"
            )
    return problems


class TestStagePlan:
    @pytest.mark.parametrize("factory", [imagenet_a, imagenet_b, mini, proxy])
    def test_presets_are_clean(self, factory):
        assert stage_plan_violations(SearchSpace(factory())) == []

    def test_shrunk_space_is_still_clean(self):
        shrunk = SearchSpace(proxy()).fix_operator(0, 3)
        assert stage_plan_violations(shrunk) == []

    def test_off_grid_candidate_factor_fires(self):
        tampered = SearchSpace(proxy())
        tampered.candidate_factors[2] = (0.25, 1.0)
        assert stage_plan_violations(tampered) == [
            "layer 2: candidate factors [0.25] are not on the config's "
            "factor grid"
        ]

    def test_stride_off_a_stage_start_fires(self):
        tampered = SearchSpace(proxy())
        # A copy: the geometry list is shared by every space of a config.
        tampered.geometry = list(tampered.geometry)
        tampered.geometry[1] = replace(tampered.geometry[1], stride=2)
        (problem,) = stage_plan_violations(tampered)
        assert problem.startswith("layer 1: stride 2")
