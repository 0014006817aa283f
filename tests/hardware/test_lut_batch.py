"""Batched LUT/predictor queries vs. their scalar counterparts.

``sum_ops_ms_batch`` and ``predict_many`` replace per-architecture dict
walks with one fancy-indexed gather over :meth:`LatencyLUT.as_table`;
the contract is *bit-exact* agreement with the scalar path, not just
approximate, so search trajectories are unchanged by the rewrite.
"""

import numpy as np
import pytest

from repro.hardware import (
    DenseLatencyTable,
    LatencyLUT,
    LatencyPredictor,
    MeasurementLedger,
    get_device,
)
from repro.space import Architecture, SearchSpace, mini, proxy
from repro.space.operators import NUM_OPERATORS

NUM_ARCHS = 200


@pytest.fixture(scope="module")
def device():
    return get_device("cpu")


@pytest.fixture(scope="module", params=["proxy", "mini"])
def space(request):
    """Both spaces: ``mini`` has the 0.75 factor (quantizes to 0.8)."""
    cfg = proxy() if request.param == "proxy" else mini()
    return SearchSpace(cfg)


@pytest.fixture(scope="module")
def lut(space, device):
    return LatencyLUT.build(space, device, samples_per_cell=2, seed=0)


@pytest.fixture(scope="module")
def archs(space):
    rng = np.random.default_rng(99)
    return [space.sample(rng) for _ in range(NUM_ARCHS)]


class TestDenseTable:
    def test_shape_and_memoization(self, space, lut):
        table = lut.as_table()
        assert isinstance(table, DenseLatencyTable)
        assert table.num_layers == space.num_layers
        assert table.cells.ndim == 4 and table.cells.shape[3] == 11
        assert lut.as_table() is table  # memoized

    def test_known_cell_roundtrip(self, space, lut):
        table = lut.as_table()
        cin = space.config.stem_channels
        factor = space.candidate_factors[0][0]
        decile = int(round(round(factor, 1) * 10))
        assert table.cells[0, 0, cin, decile] == lut.lookup(0, 0, cin, factor)

    def test_missing_cells_are_nan(self, lut):
        table = lut.as_table()
        # Factor decile 0 (factor 0.0) is never profiled.
        assert np.isnan(table.cells[0, 0, :, 0]).all()

    def test_scatter_matches_the_per_entry_fill(self, lut):
        """Built, restored and degraded (cells missing, a NaN cell) LUTs
        and an empty one fill exactly what the per-entry loop fills."""
        restored = LatencyLUT.from_json(lut.to_json())
        kept = dict(list(lut.entries.items())[::3])
        kept[next(iter(kept))] = float("nan")
        degraded = LatencyLUT(lut.device_key, kept, lut.stem_ms, lut.head_ms)
        empty = LatencyLUT(lut.device_key, {})
        for case in (lut, restored, degraded, empty):
            keys = case.entries
            shape = (
                1 + max((k[0] for k in keys), default=-1),
                max(NUM_OPERATORS, 1 + max((k[1] for k in keys), default=0)),
                1 + max((k[2] for k in keys), default=0),
                11,
            )
            expected = np.full(shape, np.nan)
            for (layer, op, cin, factor), ms in keys.items():
                expected[layer, op, cin, int(round(factor * 10))] = ms
            assert case.as_table().cells.tobytes() == expected.tobytes()


class TestBatchSums:
    def test_batch_matches_scalar_exactly(self, space, lut, archs):
        scalar = np.array([lut.sum_ops_ms(a, space) for a in archs])
        batch = lut.sum_ops_ms_batch(archs, space)
        # Bit-exact, not approx: identical accumulation order.
        np.testing.assert_array_equal(batch, scalar)

    def test_empty_batch(self, space, lut):
        out = lut.sum_ops_ms_batch([], space)
        assert out.shape == (0,)

    def test_single_arch_batch(self, space, lut, archs):
        out = lut.sum_ops_ms_batch(archs[:1], space)
        assert out[0] == lut.sum_ops_ms(archs[0], space)

    def test_missing_cell_raises_keyerror(self, space, lut):
        bad = Architecture(
            tuple(0 for _ in range(space.num_layers)),
            tuple(0.04 for _ in range(space.num_layers)),
        )
        with pytest.raises(KeyError, match="nearest existing cell"):
            lut.sum_ops_ms_batch([bad], space)

    def test_wrong_length_architectures_raise_the_scalar_error(self, space, lut):
        # One layer too many and one too few fill exactly 2L genes, so
        # the batch must check each architecture, not the gene count.
        longer = Architecture.uniform(space.num_layers + 1)
        shorter = Architecture.uniform(space.num_layers - 1)
        with pytest.raises(ValueError) as scalar:
            lut.sum_ops_ms(shorter, space)
        with pytest.raises(ValueError) as batched:
            lut.sum_ops_ms_batch([shorter, longer], space)
        assert str(batched.value) == str(scalar.value)
        with pytest.raises(ValueError, match="space expects"):
            lut.sum_ops_ms_batch([longer, shorter], space)


class TestPredictMany:
    def test_matches_scalar_exactly(self, space, lut, archs):
        predictor = LatencyPredictor(lut, space)
        predictor.bias_ms = 1.375  # exercise the bias addition too
        many = predictor.predict_many(archs)
        assert many == [predictor.predict(a) for a in archs]

    def test_ledger_counts_batch_predictions(self, space, lut, archs):
        ledger = MeasurementLedger()
        predictor = LatencyPredictor(lut, space, ledger=ledger)
        before = ledger.predictor_queries
        predictor.predict_many(archs[:7])
        assert ledger.predictor_queries == before + 7
