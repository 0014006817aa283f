"""SupernetFastEval: bit-exact float batching, gated int8, stage timing."""

import numpy as np
import pytest

from repro.nn import assert_no_eval_caches, ranking_fidelity
from repro.nn.inference import CACHE_ATTRS
from repro.nn.layers.conv import Conv2d
from repro.space import Architecture, SearchSpace, mini, proxy
from repro.supernet import Supernet, SupernetFastEval
from repro.supernet.fast_eval import _depthwise_taps
from repro.train import SupernetTrainer, TrainConfig, top_k_accuracy


@pytest.fixture()
def trained(tiny_supernet, tiny_space, tiny_loader):
    """A briefly trained tiny supernet (real BN stats, non-random logits)."""
    trainer = SupernetTrainer(
        tiny_supernet, tiny_loader, TrainConfig(base_lr=0.1, seed=0)
    )
    trainer.train_epochs(tiny_space, epochs=2)
    return trainer


def sample_archs(space, n, seed=7):
    rng = np.random.default_rng(seed)
    return [space.sample(rng) for _ in range(n)]


def per_arch_eval_logits(net, archs, images):
    """Reference: one eval-mode module forward per architecture."""
    net.eval()
    out = []
    for arch in archs:
        net.set_architecture(arch)
        out.append(net.forward(images))
    net.train()
    return np.stack(out)


class TestFloatPathBitExact:
    def test_forward_matches_module_eval_forward(
        self, trained, tiny_space, tiny_dataset
    ):
        net = trained.supernet
        images = tiny_dataset.test_x[:6]
        (arch,) = sample_archs(tiny_space, 1)
        ref = per_arch_eval_logits(net, [arch], images)[0]
        fast = SupernetFastEval(net).forward(arch, images)
        np.testing.assert_array_equal(fast, ref)

    def test_forward_many_bit_exact(self, trained, tiny_space, tiny_dataset):
        net = trained.supernet
        images = tiny_dataset.test_x[:6]
        archs = sample_archs(tiny_space, 8)
        ref = per_arch_eval_logits(net, archs, images)
        fast = SupernetFastEval(net).forward_many(archs, images)
        np.testing.assert_array_equal(fast, ref)

    def test_forward_many_chunked_bit_exact(
        self, trained, tiny_space, tiny_dataset
    ):
        net = trained.supernet
        images = tiny_dataset.test_x[:6]
        archs = sample_archs(tiny_space, 7)
        fe = SupernetFastEval(net)
        full = fe.forward_many(archs, images)
        chunked = fe.forward_many(archs, images, chunk_archs=3)
        np.testing.assert_array_equal(chunked, full)

    def test_accuracy_many_matches_per_arch_reference(
        self, trained, tiny_space, tiny_dataset
    ):
        net = trained.supernet
        images = tiny_dataset.test_x[:8]
        labels = tiny_dataset.test_y[:8]
        archs = sample_archs(tiny_space, 5)
        ref_logits = per_arch_eval_logits(net, archs, images)
        expected = [top_k_accuracy(l, labels, k=1) for l in ref_logits]
        fe = SupernetFastEval(net)
        assert fe.accuracy_many(archs, images, labels) == expected
        assert fe.accuracy(archs[0], images, labels) == expected[0]

    def test_leaves_no_caches_and_restores_mode(
        self, trained, tiny_space, tiny_dataset
    ):
        net = trained.supernet
        archs = sample_archs(tiny_space, 3)
        images = tiny_dataset.test_x[:4]
        # Scrub the trainer's leftover caches (training forwards cache
        # on every path they sampled) so the assertion below isolates
        # what the *fast path* allocates: nothing.
        for m in net.modules():
            for attr in CACHE_ATTRS:
                if getattr(m, attr, None) is not None:
                    setattr(m, attr, None)
        assert_no_eval_caches(net)
        net.train()
        fe = SupernetFastEval(net)
        fe.forward_many(archs, images)
        assert_no_eval_caches(net)
        assert all(m.training for m in net.modules())


class TestInt8Path:
    def test_logits_close_to_float(self, trained, tiny_space, tiny_dataset):
        net = trained.supernet
        images = tiny_dataset.test_x[:6]
        archs = sample_archs(tiny_space, 6)
        ref = SupernetFastEval(net).forward_many(archs, images)
        int8 = SupernetFastEval(net, precision="int8").forward_many(
            archs, images
        )
        assert int8.shape == ref.shape
        assert np.all(np.isfinite(int8))
        # Weight-only int8 is an approximation; logits stay within a
        # small absolute band of the float forward on this scale of net.
        assert float(np.abs(int8 - ref).max()) < 0.5
        assert np.corrcoef(int8.ravel(), ref.ravel())[0, 1] > 0.999

    def test_ranking_fidelity_gate(self, trained, tiny_space, tiny_dataset):
        net = trained.supernet
        images = tiny_dataset.test_x[:16]
        labels = tiny_dataset.test_y[:16]
        archs = sample_archs(tiny_space, 30, seed=11)
        float_logits = SupernetFastEval(net).forward_many(archs, images)
        int8_logits = SupernetFastEval(net, precision="int8").forward_many(
            archs, images
        )
        idx = np.arange(images.shape[0])
        ref = [float(l[idx, labels].mean()) for l in float_logits]
        fast = [float(l[idx, labels].mean()) for l in int8_logits]
        gate = ranking_fidelity(ref, fast, top_k=3)
        assert gate["kendall_tau"] >= 0.99
        assert gate["top_k_overlap"] == 1.0
        assert gate["passed"]

    def test_single_and_batched_int8_agree(
        self, trained, tiny_space, tiny_dataset
    ):
        net = trained.supernet
        images = tiny_dataset.test_x[:4]
        archs = sample_archs(tiny_space, 4)
        fe = SupernetFastEval(net, precision="int8")
        batched = fe.forward_many(archs, images)
        singles = np.stack([fe.forward(a, images) for a in archs])
        np.testing.assert_array_equal(batched, singles)


class TestApiAndTiming:
    def test_rejects_unknown_precision(self, tiny_supernet):
        with pytest.raises(ValueError, match="precision"):
            SupernetFastEval(tiny_supernet, precision="fp16")

    def test_rejects_empty_and_bad_chunk(
        self, trained, tiny_space, tiny_dataset
    ):
        fe = SupernetFastEval(trained.supernet)
        with pytest.raises(ValueError, match="at least one"):
            fe.forward_many([], tiny_dataset.test_x[:2])
        with pytest.raises(ValueError, match="chunk_archs"):
            fe.forward_many(
                sample_archs(tiny_space, 2),
                tiny_dataset.test_x[:2],
                chunk_archs=0,
            )

    def test_rejects_layer_count_mismatch(
        self, trained, proxy_space, tiny_dataset
    ):
        fe = SupernetFastEval(trained.supernet)
        wrong = sample_archs(proxy_space, 1)
        with pytest.raises(ValueError, match="layers"):
            fe.forward_many(wrong, tiny_dataset.test_x[:2])

    def test_stage_times_accumulate_and_reset(
        self, trained, tiny_space, tiny_dataset
    ):
        fe = SupernetFastEval(trained.supernet)
        fe.accuracy_many(
            sample_archs(tiny_space, 3),
            tiny_dataset.test_x[:4],
            tiny_dataset.test_y[:4],
        )
        times = fe.stage_times()
        assert times["total_s"] > 0.0
        assert times["gemm_s"] > 0.0
        assert times["scoring_s"] > 0.0
        attributed = (
            times["im2col_s"] + times["gemm_s"] + times["scoring_s"]
            + times["other_s"]
        )
        assert attributed <= times["total_s"] + times["scoring_s"] + 1e-9
        # BN and masking are parts of other_s (which, like the total,
        # leaves out scoring).
        assert times["bn_s"] > 0.0
        assert times["mask_s"] > 0.0
        parts = times["bn_s"] + times["mask_s"]
        assert parts <= times["other_s"] + times["scoring_s"] + 1e-9
        fe.reset_stage_times()
        assert all(v == 0.0 for v in fe.stage_times().values())


def prefix_sharing_batch(space, seed=3):
    """Architectures that share work in every way ``forward_many`` uses.

    Duplicates, prefixes shared up to every layer, and factor pairs that
    keep the same channels on 8-channel layers (0.2/0.3 keep 2, 0.7/0.8
    keep 6), shuffled so equal paths are not adjacent.
    """
    rng = np.random.default_rng(seed)
    base = space.sample(rng)
    archs = [base, base, space.sample(rng)]
    for li in range(space.num_layers):
        ops = list(base.ops)
        ops[li] = (ops[li] + 1) % 5
        archs.append(Architecture(tuple(ops), base.factors))
    for a, b in ((0.2, 0.3), (0.7, 0.8)):
        for factor in (a, b):
            archs.append(
                Architecture(base.ops, (factor, factor) + base.factors[2:])
            )
    archs += [archs[3], archs[-1], base]
    order = rng.permutation(len(archs))
    return [archs[i] for i in order]


class TestPrefixSharing:
    @pytest.mark.parametrize("chunk", [None, 1, 3, "len"])
    def test_float_bit_exact_per_arch(
        self, trained, tiny_space, tiny_dataset, chunk
    ):
        net = trained.supernet
        images = tiny_dataset.test_x[:5]
        archs = prefix_sharing_batch(tiny_space)
        chunk_archs = len(archs) if chunk == "len" else chunk
        ref = per_arch_eval_logits(net, archs, images)
        fast = SupernetFastEval(net).forward_many(
            archs, images, chunk_archs=chunk_archs
        )
        np.testing.assert_array_equal(fast, ref)

    @pytest.mark.parametrize("chunk", [None, 1, 3, "len"])
    def test_int8_batched_matches_single(
        self, trained, tiny_space, tiny_dataset, chunk
    ):
        images = tiny_dataset.test_x[:4]
        archs = prefix_sharing_batch(tiny_space, seed=5)
        chunk_archs = len(archs) if chunk == "len" else chunk
        fe = SupernetFastEval(trained.supernet, precision="int8")
        batched = fe.forward_many(archs, images, chunk_archs=chunk_archs)
        singles = np.stack([fe.forward(a, images) for a in archs])
        np.testing.assert_array_equal(batched, singles)

    @staticmethod
    def count_op_calls(fe, net):
        """Record ``(layer, images)`` per operator forward of ``fe``."""
        op_layer = {
            id(block.ops[op]): li
            for li, block in enumerate(net.blocks)
            for op in range(len(block.ops))
        }
        calls = []
        dispatch = fe._module

        def counting(m, x):
            if id(m) in op_layer:
                calls.append((op_layer[id(m)], x.shape[0]))
            return dispatch(m, x)

        fe._module = counting
        return calls

    def test_identical_archs_run_each_op_once(
        self, trained, tiny_space, tiny_dataset
    ):
        net = trained.supernet
        images = tiny_dataset.test_x[:6]
        n = images.shape[0]
        (arch,) = sample_archs(tiny_space, 1)
        single = SupernetFastEval(net).forward(arch, images)
        fe = SupernetFastEval(net)
        calls = self.count_op_calls(fe, net)
        logits = fe.forward_many([arch] * 10, images)
        assert calls == [(li, n) for li in range(len(net.blocks))]
        del calls[:]
        # Chunks of 4, 4 and 2 copies: one row per chunk.
        chunked = fe.forward_many([arch] * 10, images, chunk_archs=4)
        assert calls == [(li, n) for li in range(len(net.blocks))] * 3
        for row in np.concatenate([logits, chunked]):
            np.testing.assert_array_equal(row, single)

    def test_factors_keeping_same_channels_share_a_row(
        self, trained, tiny_space, tiny_dataset
    ):
        net = trained.supernet
        images = tiny_dataset.test_x[:3]
        (base,) = sample_archs(tiny_space, 1)
        # Layers 0 and 1 have 8 channels: 0.7 and 0.8 both keep 6. Every
        # layer keeps more than half its channels, so no stride-1 unit
        # sees a dead right half and every layer runs its operator.
        later = (1.0,) * (tiny_space.num_layers - 2)
        archs = [Architecture(base.ops, (f, f) + later) for f in (0.7, 0.8)]
        fe = SupernetFastEval(net)
        calls = self.count_op_calls(fe, net)
        logits = fe.forward_many(archs, images)
        assert calls == [(li, 3) for li in range(len(net.blocks))]
        np.testing.assert_array_equal(
            logits, per_arch_eval_logits(net, archs, images)
        )


def dead_live_batch():
    """Architectures whose stride-1 layers (1 and 3 of the tiny space)
    see dead and live right halves, all four shuffle operators, and the
    boundaries: layer 0 keeps 4 (= C/2, dead) or 5 (= C/2 + 1, live)
    of 8 channels, layer 2 keeps 8 (dead) or 9 (live) of 16.
    """
    archs = []
    for op in range(4):
        for f0, f2 in ((0.5, 0.55), (0.6, 0.5), (0.2, 1.0), (1.0, 0.3)):
            archs.append(Architecture((op, op, (op + 1) % 4, op), (f0, 1.0, f2, 0.7)))
    archs.append(Architecture((4, 0, 4, 3), (0.5, 0.5, 0.5, 1.0)))
    order = np.random.default_rng(0).permutation(len(archs))
    return [archs[i] for i in order]


class TestDeadRightHalves:
    """Stride-1 units whose input's right half the mask zeroed."""

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_float_matches_per_arch(self, trained, tiny_dataset, chunk):
        net = trained.supernet
        images = tiny_dataset.test_x[:5]
        archs = dead_live_batch()
        ref = per_arch_eval_logits(net, archs, images)
        fast = SupernetFastEval(net).forward_many(archs, images, chunk_archs=chunk)
        np.testing.assert_array_equal(fast, ref)

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_int8_batched_matches_single(self, trained, tiny_dataset, chunk):
        images = tiny_dataset.test_x[:5]
        archs = dead_live_batch()
        fe = SupernetFastEval(trained.supernet, precision="int8")
        batched = fe.forward_many(archs, images, chunk_archs=chunk)
        singles = np.stack([fe.forward(a, images) for a in archs])
        np.testing.assert_array_equal(batched, singles)

    @pytest.mark.parametrize("precision", ["float", "int8"])
    def test_nan_in_masked_half_stays_nan(self, trained, tiny_dataset, precision):
        net = trained.supernet
        # Layer 0's skip ends in a BN; NaN statistics on channels 4..7
        # put NaN exactly where a 0.5 mask zeroes (0 * NaN is NaN), so
        # layer 1 sees a right half that is masked but not zero.
        net.blocks[0].ops[4].proj.layers[1].running_mean[4:] = np.nan
        images = tiny_dataset.test_x[:4]
        poisoned = Architecture((4, 1, 0, 0), (0.5, 1.0, 1.0, 1.0))
        clean = Architecture((0, 1, 0, 0), (0.5, 1.0, 1.0, 1.0))
        fe = SupernetFastEval(net, precision=precision)
        fast = fe.forward_many([poisoned, clean, poisoned], images)
        if precision == "float":
            ref = per_arch_eval_logits(net, [poisoned, clean, poisoned], images)
        else:
            ref = np.stack([fe.forward(a, images) for a in (poisoned, clean, poisoned)])
        np.testing.assert_array_equal(fast, ref)
        assert np.isnan(fast[[0, 2]]).all()
        assert np.isfinite(fast[1]).all()

    @staticmethod
    def record_calls(fe, net):
        """Record ``(layer, "op" | "branch", images)`` per forward of a
        layer's operator or of a stride-1 operator's branch."""
        names = {}
        for li, block in enumerate(net.blocks):
            for m in block.ops:
                names[id(m)] = (li, "op")
                if getattr(m, "stride", 2) == 1 and hasattr(m, "branch"):
                    names[id(m.branch)] = (li, "branch")
        calls = []
        dispatch = fe._module

        def recording(m, x):
            if id(m) in names:
                calls.append(names[id(m)] + (x.shape[0],))
            return dispatch(m, x)

        fe._module = recording
        return calls

    def test_dead_rows_skip_the_branch(self, trained, tiny_dataset):
        net = trained.supernet
        images = tiny_dataset.test_x[:3]
        ops = (0, 1, 0, 2)
        dead = [Architecture(ops, (f, 1.0, 1.0, 1.0)) for f in (0.2, 0.5)]
        live = Architecture(ops, (0.6, 1.0, 1.0, 1.0))
        fe = SupernetFastEval(net)
        calls = self.record_calls(fe, net)
        logits = fe.forward_many(dead + [live], images)
        layer1 = [c for c in calls if c[0] == 1]
        # The live row runs the operator (and so its branch) on its 3
        # images; both dead rows share one branch pass on a zero image.
        assert layer1 == [(1, "op", 3), (1, "branch", 3), (1, "branch", 1)]
        np.testing.assert_array_equal(
            logits, per_arch_eval_logits(net, dead + [live], images)
        )
        del calls[:]
        # All rows dead, over three chunks: no operator call at layer 1,
        # one zero-image branch pass for the whole call.
        fe.forward_many(dead * 3, images, chunk_archs=2)
        assert [c for c in calls if c[0] == 1] == [(1, "branch", 1)]


def reference_depthwise_taps(x, taps, k, stride, padding):
    """The per-tap loop over strided 4-D views that the int8 path used."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.empty((n, c, out_h, out_w), dtype=np.float32)
    tmp = np.empty_like(out)
    for ki in range(k):
        for kj in range(k):
            view = xp[
                :, :, ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ]
            tap = taps[None, :, ki * k + kj, :, None]
            if ki == 0 and kj == 0:
                np.multiply(view, tap, out=out)
            else:
                np.multiply(view, tap, out=tmp)
                out += tmp
    return out


@pytest.mark.parametrize("n", [1, 3, 700])
@pytest.mark.parametrize("k,stride", [(3, 1), (5, 1), (7, 1), (3, 2), (7, 2)])
def test_depthwise_taps_match_per_tap_loop(n, k, stride):
    rng = np.random.default_rng(k * 10 + stride)
    x = rng.standard_normal((n, 6, 9, 7)).astype(np.float32)
    taps = rng.integers(-127, 128, size=(6, k * k, 1)).astype(np.float32)
    got = _depthwise_taps(x, taps, k, stride, k // 2)
    want = reference_depthwise_taps(x, taps, k, stride, k // 2)
    assert got.shape == want.shape and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


def depthwise_geometries(config, stride):
    """``(channels, input size)`` of a space's stride-``stride``
    depthwise convolutions: a stride-2 unit's left and branch halves on
    the stage input, a stride-1 unit's branch on half the channels."""
    hw, cin = config.input_size // 2, config.stem_channels
    out = set()
    for stage in config.stages:
        half = stage.channels // 2
        if stride == 2:
            out |= {(cin, hw), (half, hw)}
        hw //= 2
        if stride == 1:
            out.add((half, hw))
        cin = stage.channels
    return sorted(out)


def depthwise_calls(fe):
    """Count the convolutions ``fe`` unfolds channel-major."""
    calls = []
    depthwise = fe._depthwise

    def counting(conv, x):
        out = depthwise(conv, x)
        if out is not None:
            calls.append(x.shape)
        return out

    fe._depthwise = counting
    return calls


def eval_conv(conv, x):
    conv.eval()
    try:
        return conv.forward(x)
    finally:
        conv.train()


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestChannelMajorDepthwise:
    """The channel-major depthwise unfold against ``Conv2d.forward``."""

    @pytest.mark.parametrize("n", [1, 8, 80])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("config", [proxy(), mini()], ids=["proxy", "mini"])
    def test_bit_exact_on_space_geometries(self, tiny_supernet, config, k, stride, n):
        # 80 images of 8x8 outputs with 49 taps is 3136 rows x 49
        # columns per channel: a GEMV OpenBLAS would thread unblocked.
        fe = SupernetFastEval(tiny_supernet)
        calls = depthwise_calls(fe)
        rng = np.random.default_rng(100 * k + 10 * stride + n)
        for c, hw in depthwise_geometries(config, stride):
            conv = Conv2d(c, c, k, stride=stride, padding=k // 2, groups=c, rng=rng)
            x = rng.standard_normal((n, c, hw, hw))
            x[x < -1.5] = -0.0
            del calls[:]
            got = fe._conv(conv, x)
            assert_same_bits(got, eval_conv(conv, x))
            out_hw = ((hw + 2 * (k // 2) - k) // stride + 1) ** 2
            # The one geometry left per image: 2x2 outputs of one image.
            assert len(calls) == (0 if out_hw * n % 8 else 1)

    @pytest.mark.parametrize("stride,hw", [(1, 7), (2, 14)])
    def test_odd_output_takes_per_image_unfold(self, tiny_supernet, stride, hw):
        # 7x7 outputs: 49 rows per image, one in the kernel's scalar tail.
        fe = SupernetFastEval(tiny_supernet)
        calls = depthwise_calls(fe)
        rng = np.random.default_rng(stride)
        for k in (3, 5, 7):
            conv = Conv2d(8, 8, k, stride=stride, padding=k // 2, groups=8, rng=rng)
            x = rng.standard_normal((16, 8, hw, hw))
            assert_same_bits(fe._conv(conv, x), eval_conv(conv, x))
        assert calls == []

    def test_forward_many_proxy_chunks_match_per_arch(self):
        space = SearchSpace(proxy())
        net = Supernet(space, seed=0)
        images = np.random.default_rng(1).standard_normal((8, 3, 32, 32))
        archs = sample_archs(space, 24, seed=5)
        fe = SupernetFastEval(net)
        calls = depthwise_calls(fe)
        fast = fe.forward_many(archs, images, chunk_archs=10)
        assert calls
        np.testing.assert_array_equal(fast, per_arch_eval_logits(net, archs, images))


class TestStemMemo:
    @staticmethod
    def count_stem_calls(fe, net):
        calls = []
        dispatch = fe._module

        def counting(m, x):
            if m is net.stem:
                calls.append(x.shape[0])
            return dispatch(m, x)

        fe._module = counting
        return calls

    def test_equal_images_reuse_the_stem(self, trained, tiny_space, tiny_dataset):
        net = trained.supernet
        images = tiny_dataset.test_x[:6].copy()
        archs = sample_archs(tiny_space, 5)
        fe = SupernetFastEval(net)
        calls = self.count_stem_calls(fe, net)
        first = fe.forward_many(archs, images, chunk_archs=2)
        assert calls == [6]
        again = fe.forward_many(archs, images.copy())
        single = fe.forward(archs[0], images.copy())
        assert calls == [6]
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(single, first[0])

    def test_changed_pixel_recomputes(self, trained, tiny_space, tiny_dataset):
        net = trained.supernet
        images = tiny_dataset.test_x[:6].copy()
        archs = sample_archs(tiny_space, 4)
        fe = SupernetFastEval(net)
        calls = self.count_stem_calls(fe, net)
        fe.forward_many(archs, images)
        images[3, 1, 5, 7] += 0.25
        fast = fe.forward_many(archs, images)
        assert calls == [6, 6]
        np.testing.assert_array_equal(fast, per_arch_eval_logits(net, archs, images))

    def test_memo_is_read_only(self, trained, tiny_dataset):
        fe = SupernetFastEval(trained.supernet)
        images = tiny_dataset.test_x[:4].copy()
        out = fe._stem(images)
        assert fe._stem(images.copy()) is out
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            fe._stem_memo[0][0, 0, 0, 0] = 1.0
