"""Tests for linear, norm, activation, pooling, shuffle, mask layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    ChannelMask,
    ChannelShuffle,
    GlobalAvgPool2d,
    HSwish,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    channel_concat,
    channel_split,
)
from repro.nn.layers.mask import channels_kept, make_mask
from tests.helpers import check_layer_gradients


class TestLinear:
    def test_forward_known(self):
        lin = Linear(2, 2, rng=np.random.default_rng(0))
        lin.weight.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        lin.bias.data = np.array([1.0, -1.0])
        out = lin(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[4.0, 7.0]])

    def test_gradients(self):
        rng = np.random.default_rng(0)
        lin = Linear(3, 4, rng=rng)
        check_layer_gradients(lin, rng.normal(size=(5, 3)))

    def test_wrong_shape_raises(self):
        lin = Linear(3, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            lin(np.zeros((2, 5)))

    def test_no_bias(self):
        lin = Linear(3, 4, bias=False, rng=np.random.default_rng(0))
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1


class TestBatchNorm:
    def test_normalizes_in_training(self):
        bn = BatchNorm2d(3)
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 2.0, size=(8, 3, 4, 4))
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_move_toward_batch(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = np.ones((4, 2, 3, 3)) * 10.0
        bn(x)
        np.testing.assert_allclose(bn.running_mean, [5.0, 5.0])

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        bn.eval()
        out = bn(np.full((1, 1, 1, 1), 4.0))
        assert out[0, 0, 0, 0] == pytest.approx(1.0, rel=1e-3)

    def test_affine_parameters_apply(self):
        bn = BatchNorm2d(1)
        bn.gamma.data[:] = 3.0
        bn.beta.data[:] = 1.0
        rng = np.random.default_rng(0)
        out = bn(rng.normal(size=(16, 1, 4, 4)))
        assert out.mean() == pytest.approx(1.0, abs=1e-8)

    def test_gradients(self):
        rng = np.random.default_rng(0)
        bn = BatchNorm2d(2)
        check_layer_gradients(bn, rng.normal(size=(4, 2, 3, 3)), rtol=1e-3)

    def test_weight_decay_excluded(self):
        bn = BatchNorm2d(2)
        assert not bn.gamma.weight_decay
        assert not bn.beta.weight_decay

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(np.zeros((1, 2, 4, 4)))

    def test_reset_running_stats(self):
        bn = BatchNorm2d(2)
        bn(np.random.default_rng(0).normal(3.0, size=(4, 2, 3, 3)))
        bn.reset_running_stats()
        np.testing.assert_array_equal(bn.running_mean, 0.0)
        np.testing.assert_array_equal(bn.running_var, 1.0)


class TestActivations:
    def test_relu_clips_negative(self):
        out = ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_gradients(self):
        rng = np.random.default_rng(0)
        check_layer_gradients(ReLU(), rng.normal(size=(3, 4)) + 0.1)

    def test_sigmoid_range(self):
        out = Sigmoid()(np.linspace(-10, 10, 21))
        assert out.min() > 0.0 and out.max() < 1.0

    def test_sigmoid_gradients(self):
        rng = np.random.default_rng(0)
        check_layer_gradients(Sigmoid(), rng.normal(size=(3, 4)))

    def test_hswish_known_points(self):
        h = HSwish()
        np.testing.assert_allclose(h(np.array([-3.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_hswish_gradients(self):
        rng = np.random.default_rng(0)
        # keep away from the kinks at +-3 where numerical gradients lie
        x = np.clip(rng.normal(size=(4, 4)), -2.5, 2.5)
        check_layer_gradients(HSwish(), x)

    def test_identity_passthrough(self):
        x = np.ones((2, 2))
        ident = Identity()
        assert ident(x) is x
        assert ident.backward(x) is x


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradients(self):
        rng = np.random.default_rng(0)
        # Distinct values so argmax is unique (numerical grad validity).
        x = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
        check_layer_gradients(MaxPool2d(2), x, check_params=False)

    def test_maxpool_padding_never_wins(self):
        # All inputs negative: zero padding would win every border cell.
        x = -np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(3, stride=1, padding=1)(x)
        expected = [
            [-1, -1, -2, -3],
            [-1, -1, -2, -3],
            [-5, -5, -6, -7],
            [-9, -9, -10, -11],
        ]
        np.testing.assert_array_equal(out[0, 0], expected)

    def test_maxpool_padded_strided_values(self):
        x = -np.arange(1, 26, dtype=np.float64).reshape(1, 1, 5, 5)
        out = MaxPool2d(3, stride=2, padding=1)(x)
        np.testing.assert_array_equal(out[0, 0], [[-1, -2, -4],
                                                  [-6, -7, -9],
                                                  [-16, -17, -19]])

    @pytest.mark.parametrize("k,stride,padding", [(3, 1, 1), (3, 2, 1), (2, 2, 1)])
    def test_maxpool_padded_gradients_all_negative(self, k, stride, padding):
        rng = np.random.default_rng(1)
        # Distinct, strictly negative values: every max is a real input.
        x = -(rng.permutation(50) + 1.0).reshape(1, 2, 5, 5)
        check_layer_gradients(
            MaxPool2d(k, stride=stride, padding=padding), x, check_params=False
        )

    def test_avgpool_values(self):
        x = np.ones((1, 2, 4, 4))
        out = AvgPool2d(2)(x)
        np.testing.assert_allclose(out, np.ones((1, 2, 2, 2)))

    def test_avgpool_gradients(self):
        rng = np.random.default_rng(0)
        check_layer_gradients(AvgPool2d(2), rng.normal(size=(2, 2, 4, 4)),
                              check_params=False)

    def test_gap_shape_and_value(self):
        x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
        out = GlobalAvgPool2d()(x)
        np.testing.assert_allclose(out, [[1.5, 5.5]])

    def test_gap_gradients(self):
        rng = np.random.default_rng(0)
        check_layer_gradients(GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)),
                              check_params=False)


class TestShuffle:
    def test_shuffle_permutation(self):
        x = np.arange(4, dtype=np.float64).reshape(1, 4, 1, 1)
        out = ChannelShuffle(2)(x)
        np.testing.assert_array_equal(out.ravel(), [0, 2, 1, 3])

    def test_backward_is_inverse(self):
        rng = np.random.default_rng(0)
        shuffle = ChannelShuffle(2)
        x = rng.normal(size=(2, 8, 3, 3))
        np.testing.assert_array_equal(shuffle.backward(shuffle(x)), x)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            ChannelShuffle(2)(np.zeros((1, 3, 2, 2)))

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            ChannelShuffle(0)

    def test_split_concat_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 6, 3, 3))
        a, b = channel_split(x, 2)
        np.testing.assert_array_equal(channel_concat(a, b), x)

    def test_split_out_of_range_raises(self):
        with pytest.raises(ValueError):
            channel_split(np.zeros((1, 4, 2, 2)), 4)


class TestChannelMask:
    @pytest.mark.parametrize("max_ch,factor,expected", [
        (5, 0.5, 3),   # the paper's example: 5 x 0.5 ~= 3
        (10, 0.1, 1),
        (10, 1.0, 10),
        (7, 0.45, 3),
        (1, 0.1, 1),   # never below one channel
    ])
    def test_channels_kept(self, max_ch, factor, expected):
        assert channels_kept(max_ch, factor) == expected

    def test_bad_factor_raises(self):
        with pytest.raises(ValueError):
            channels_kept(4, 0.0)
        with pytest.raises(ValueError):
            channels_kept(4, 1.5)

    def test_mask_is_prefix(self):
        mask = make_mask(6, 0.5)
        np.testing.assert_array_equal(mask, [1, 1, 1, 0, 0, 0])

    def test_forward_zeroes_masked(self):
        m = ChannelMask(4, factor=0.5)
        out = m(np.ones((1, 4, 2, 2)))
        assert out[0, :2].sum() == 8.0
        assert out[0, 2:].sum() == 0.0

    def test_backward_blocks_masked_grads(self):
        m = ChannelMask(4, factor=0.5)
        g = m.backward(np.ones((1, 4, 2, 2)))
        assert g[0, 2:].sum() == 0.0

    def test_set_factor_retargets(self):
        m = ChannelMask(10, factor=0.2)
        assert m.active_channels == 2
        m.set_factor(0.9)
        assert m.active_channels == 9

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError):
            ChannelMask(4)(np.zeros((1, 5, 2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        max_ch=st.integers(min_value=1, max_value=64),
        factor=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_kept_bounds_property(self, max_ch, factor):
        kept = channels_kept(max_ch, factor)
        assert 1 <= kept <= max_ch

    @settings(max_examples=20, deadline=None)
    @given(max_ch=st.integers(min_value=2, max_value=32))
    def test_kept_monotone_in_factor(self, max_ch):
        factors = np.linspace(0.05, 1.0, 12)
        kepts = [channels_kept(max_ch, f) for f in factors]
        assert kepts == sorted(kepts)
