"""LUT coverage (retired rules RD201/RD202), now ``LatencyLUT.uncovered``:
a complete LUT has no hole, a hole-punched one names the exact missing
cell and its nearest present neighbour. ``HSCoNAS`` applies it to every
LUT a resume restores (``tests/test_cli.py`` covers that path)."""

import pytest

from repro.cli import main as repro_main
from repro.hardware import LatencyLUT, get_device
from repro.hardware.lut import _cell_key, layer_cin_choices
from repro.runstate import RunDir
from repro.space import SearchSpace, imagenet_a, mini, proxy


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
    """The coverage check reads the build's own enumeration,
    LatencyLUT.cells."""

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
        assert lut.uncovered(space) == (0, "")

    def test_removed_cell_is_named_exactly(self, space, lut):
        victim = sorted(lut.entries)[7]
        del lut.entries[victim]
        missing, message = lut.uncovered(space)
        assert missing == 1
        layer, op, cin, factor = victim
        assert f"layer={layer} op={op} cin={cin}" in message
        assert f"factor={factor}" in message
        assert "nearest existing cell" in message

    def test_removed_head_cell_fires_rd202(self, space, lut):
        victim = sorted(lut.head_ms)[0]
        del lut.head_ms[victim]
        missing, message = lut.uncovered(space)
        assert missing == 1
        assert message.startswith(f"LUT has no head cell for cin={victim};")
        assert "nearest existing head cell" in message

    def test_many_missing_cells_are_summarized(self, space, lut):
        # One count and the first hole, not one line per hole.
        first = min(lut.entries)
        for key in sorted(lut.entries)[:80]:
            del lut.entries[key]
        missing, message = lut.uncovered(space)
        assert missing == 80
        assert message.startswith(
            f"LUT has no cell for layer={first[0]} op={first[1]} "
            f"cin={first[2]} factor={first[3]}"
        )

    def test_shrunk_space_reachable_subset(self, space, device, lut):
        shrunk = space.fix_operator(space.num_layers - 1, 2)
        assert lut.uncovered(shrunk) == (0, "")
        # Remove a cell only the *shrunk* space cares about.
        layer = space.num_layers - 1
        cin = layer_cin_choices(space, layer)[0]
        factor = space.candidate_factors[layer][0]
        del lut.entries[_cell_key(layer, 2, cin, factor)]
        assert lut.uncovered(shrunk)[0] == 1


class TestImagenetAPreset:
    """The full imagenet_a LUT has zero missing cells; with one cell
    removed the check names that exact cell."""

    @pytest.fixture(scope="class")
    def space_a(self):
        return SearchSpace(imagenet_a())

    @pytest.fixture(scope="class")
    def lut_a(self, space_a):
        return LatencyLUT.build(
            space_a, get_device("edge"), samples_per_cell=1, seed=0
        )

    def test_full_lut_zero_missing(self, space_a, lut_a):
        assert lut_a.uncovered(space_a) == (0, "")

    def test_one_removed_cell_is_pinpointed(self, space_a, lut_a):
        victim = _cell_key(12, 3, 128, 0.7)
        assert victim in lut_a.entries
        entries = dict(lut_a.entries)
        del entries[victim]
        punched = LatencyLUT(
            lut_a.device_key, entries,
            stem_ms=lut_a.stem_ms, head_ms=lut_a.head_ms,
        )
        missing, message = punched.uncovered(space_a)
        assert missing == 1
        assert "layer=12 op=3 cin=128 factor=0.7" in message


class TestDomainCli:
    """What the retired ``--domain --lut``/``--build-lut`` modes proved,
    checked where a LUT enters a run: a resume reads its LUT back from
    JSON, and ``HSCoNAS`` refuses it unless ``uncovered`` allows it."""

    def test_saved_lut_coverage_clean(self):
        space = SearchSpace(proxy())
        lut = LatencyLUT.build(
            space, get_device("edge"), samples_per_cell=1, seed=0
        )
        assert LatencyLUT.from_json(lut.to_json()).uncovered(space) == (0, "")

    def test_hole_punched_lut_fails_and_names_cell(self):
        space = SearchSpace(proxy())
        lut = LatencyLUT.build(
            space, get_device("edge"), samples_per_cell=1, seed=0
        )
        victim = sorted(lut.entries)[0]
        del lut.entries[victim]
        missing, message = LatencyLUT.from_json(lut.to_json()).uncovered(space)
        assert missing == 1
        layer, op, cin, _factor = victim
        assert f"layer={layer} op={op} cin={cin}" in message

    def test_build_lut_coverage(self):
        space = SearchSpace(mini())
        lut = LatencyLUT.build(space, get_device("edge"), samples_per_cell=1)
        assert lut.uncovered(space) == (0, "")

    def test_missing_lut_file_is_one_line_error(self, tmp_path, capsys):
        # The LUT a resume reads is the completed predictor checkpoint.
        argv = ["--out", str(tmp_path / "out"), "shrink", "--layout", "mini",
                "--quality-samples", "2"]
        run_dir = str(tmp_path / "run")
        assert repro_main(argv + ["--run-dir", run_dir]) == 0
        RunDir.open(run_dir)._checkpoint_path("predictor").unlink()
        capsys.readouterr()
        assert repro_main(argv + ["--resume", run_dir]) == 2
        err = capsys.readouterr().err
        assert "predictor" in err and "is missing" in err
        assert err.count("\n") == 1
