"""LUT-coverage checker: complete LUTs are silent, hole-punched LUTs
name the exact missing cell and its nearest present neighbour."""

import pytest

from repro.hardware import LatencyLUT, get_device
from repro.hardware.lut import _cell_key, layer_cin_choices
from repro.lint.findings import Severity
from repro.lint.lut_check import check_lut_coverage
from repro.space import SearchSpace, imagenet_a, proxy


@pytest.fixture(scope="module")
def space():
    return SearchSpace(proxy())


@pytest.fixture(scope="module")
def device():
    return get_device("edge")


@pytest.fixture()
def lut(space, device):
    return LatencyLUT.build(space, device, samples_per_cell=1, seed=0)


class TestReachableSet:
    """The checker reads the build's own enumeration, LatencyLUT.cells."""

    def test_matches_lut_build_enumeration(self, space, lut):
        cells = LatencyLUT.cells(space)
        reachable = {_cell_key(*key) for key in cells.keys[cells.operators]}
        assert reachable == set(cells.entry_keys) == set(lut.entries)
        assert len(cells.keys) == len(cells.costs) == len(cells.kinds)

    def test_head_widths_match_lut(self, space, lut):
        assert sorted(LatencyLUT.cells(space).head_cins) == sorted(lut.head_ms)

    def test_enumeration_is_per_layer_cin_op_factor(self, space):
        cells = LatencyLUT.cells(space)
        expected = [
            (layer, op, cin, factor)
            for layer in range(space.num_layers)
            for cin in layer_cin_choices(space, layer)
            for op in space.candidate_ops[layer]
            for factor in space.candidate_factors[layer]
        ]
        assert list(cells.keys[cells.operators]) == expected
        assert cells.kinds[0] == "stem"
        assert set(cells.kinds[cells.heads]) == {"head"}

    def test_equal_spaces_share_one_enumeration(self, space):
        again = SearchSpace(proxy())
        assert LatencyLUT.cells(again) is LatencyLUT.cells(space)
        shrunk = space.fix_operator(space.num_layers - 1, 2)
        assert LatencyLUT.cells(shrunk) is not LatencyLUT.cells(space)


class TestCoverage:
    def test_full_lut_is_clean(self, space, lut):
        assert check_lut_coverage(space, lut) == []

    def test_removed_cell_is_named_exactly(self, space, lut):
        victim = sorted(lut.entries)[7]
        del lut.entries[victim]
        findings = check_lut_coverage(space, lut)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule_id == "RD201"
        assert f.severity is Severity.ERROR
        layer, op, cin, factor = victim
        assert f"layer={layer} op={op} cin={cin}" in f.message
        assert f"factor={factor}" in f.message
        assert "nearest existing cell" in f.message

    def test_removed_head_cell_fires_rd202(self, space, lut):
        victim = sorted(lut.head_ms)[0]
        del lut.head_ms[victim]
        findings = check_lut_coverage(space, lut)
        assert [f.rule_id for f in findings] == ["RD202"]
        assert f"cin={victim}" in findings[0].message

    def test_many_missing_cells_are_summarized(self, space, lut):
        for key in list(lut.entries)[:80]:
            del lut.entries[key]
        findings = check_lut_coverage(space, lut, max_reports=10)
        rd201 = [f for f in findings if f.rule_id == "RD201"]
        assert len(rd201) == 11  # 10 named + 1 summary
        assert "70 more missing cells" in rd201[-1].message

    def test_device_mismatch_warns(self, space, lut):
        findings = check_lut_coverage(space, lut, expected_device="gpu")
        assert [f.rule_id for f in findings] == ["RD200"]
        assert findings[0].severity is Severity.WARNING

    def test_shrunk_space_reachable_subset(self, space, device, lut):
        shrunk = space.fix_operator(space.num_layers - 1, 2)
        assert check_lut_coverage(shrunk, lut) == []
        # Remove a cell only the *shrunk* space cares about.
        layer = space.num_layers - 1
        cin = layer_cin_choices(space, layer)[0]
        factor = space.candidate_factors[layer][0]
        del lut.entries[_cell_key(layer, 2, cin, factor)]
        assert check_lut_coverage(shrunk, lut) != []


class TestImagenetAPreset:
    """Acceptance: the full imagenet_a LUT has zero missing cells; with
    one cell removed the checker names that exact cell statically."""

    @pytest.fixture(scope="class")
    def space_a(self):
        return SearchSpace(imagenet_a())

    @pytest.fixture(scope="class")
    def lut_a(self, space_a):
        return LatencyLUT.build(
            space_a, get_device("edge"), samples_per_cell=1, seed=0
        )

    def test_full_lut_zero_missing(self, space_a, lut_a):
        assert check_lut_coverage(space_a, lut_a) == []

    def test_one_removed_cell_is_pinpointed(self, space_a, lut_a):
        victim = _cell_key(12, 3, 128, 0.7)
        assert victim in lut_a.entries
        entries = dict(lut_a.entries)
        del entries[victim]
        punched = LatencyLUT(
            lut_a.device_key, entries,
            stem_ms=lut_a.stem_ms, head_ms=lut_a.head_ms,
        )
        findings = check_lut_coverage(space_a, punched)
        assert len(findings) == 1
        assert findings[0].rule_id == "RD201"
        assert "layer=12 op=3 cin=128 factor=0.7" in findings[0].message
