"""The retired space rules' fixtures (RD203, RD204, RD205), held where
each invariant now lives (docs/static_analysis.md, "Retired rules").

An encoding is checked by ``SearchSpace.contains``; a shrink plan by
``validate_stage_layers``, which ``HSCoNAS`` calls before stage 1
profiles a single LUT cell. Geometry is derived from the config alone,
so RD204's cases are ``TestStagePlan`` in ``tests/space/test_geometry.py``.
"""

import pytest

from repro.core import EvolutionConfig, HSCoNAS, HSCoNASConfig
from repro.core.shrinking import default_stage_layers, validate_stage_layers
from repro.hardware import MeasurementLedger, get_device
from repro.space import Architecture, SearchSpace, imagenet_a, imagenet_b, mini, proxy


@pytest.fixture(scope="module")
def space():
    return SearchSpace(proxy())


class TestEncoding:
    def test_member_architecture_is_clean(self, space, rng):
        assert space.contains(space.sample(rng))

    def test_wrong_layer_count_fires(self, space):
        assert not space.contains(Architecture.uniform(space.num_layers + 1))

    def test_shrink_plan_violation_fires(self, space, rng):
        # Pin the last layer to op 1, then encode an arch using op 2
        # there — valid in the full space, invalid after shrinking.
        last = space.num_layers - 1
        shrunk = space.fix_operator(last, 1)
        arch = space.sample(rng).with_op(last, 2)
        assert space.contains(arch)
        assert not shrunk.contains(arch)

    def test_off_grid_factor_fires(self, space, rng):
        assert not space.contains(space.sample(rng).with_factor(0, 0.55))


def _fails_before_stage_1(monkeypatch, space, plan, reason):
    """Run the pipeline with ``plan``; it must raise ``ValueError``
    matching ``reason`` without profiling a LUT cell."""
    ledgers = []

    def recording_ledger():
        ledgers.append(MeasurementLedger())
        return ledgers[-1]

    monkeypatch.setattr("repro.core.search.MeasurementLedger", recording_ledger)
    config = HSCoNASConfig(
        lut_samples_per_cell=1,
        bias_calibration_archs=2,
        quality_samples=2,
        shrink_stage_layers=plan,
        evolution=EvolutionConfig(generations=1, population_size=4, num_parents=2),
    )
    with pytest.raises(ValueError, match=reason):
        HSCoNAS(space, get_device("edge"), config).run()
    assert all(ledger.lut_cells == 0 for ledger in ledgers)


class TestShrinkPlan:
    def test_paper_schedule_is_clean(self):
        # Every bundled preset's default schedule, as `--domain` used
        # to check it.
        for factory in (imagenet_a, imagenet_b, mini, proxy):
            num_layers = SearchSpace(factory()).num_layers
            validate_stage_layers(default_stage_layers(num_layers), num_layers)

    def test_imagenet_a_schedule_is_clean(self):
        space_a = SearchSpace(imagenet_a())
        plan = default_stage_layers(space_a.num_layers)
        assert plan[0] == (19, 18, 17, 16)  # the paper's stage 1
        HSCoNAS(space_a, get_device("edge"), HSCoNASConfig(shrink_stage_layers=plan))

    def test_ascending_stage_fires(self, monkeypatch, space):
        _fails_before_stage_1(
            monkeypatch, space, ((5, 6, 7),), "not strictly descending"
        )

    def test_front_to_back_stages_fire(self, monkeypatch, space):
        # Stage 2 must precede stage 1's earliest fixed layer.
        _fails_before_stage_1(monkeypatch, space, ((5, 4), (7, 6)), "does not precede")

    def test_duplicate_layer_fires(self, monkeypatch, space):
        _fails_before_stage_1(
            monkeypatch, space, ((7, 6), (6, 5)), "layer 6 is fixed twice"
        )

    def test_out_of_range_layer_fires(self, monkeypatch, space):
        _fails_before_stage_1(monkeypatch, space, ((space.num_layers,),), "outside")

    def test_empty_stage_fires(self, monkeypatch, space):
        _fails_before_stage_1(monkeypatch, space, ((),), "fixes no layers")
