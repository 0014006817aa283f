"""Tests for the accuracy surrogate and its calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy import (
    ACCURACY_ANCHORS,
    AccuracySurrogate,
    fit_capacity_curve,
    fit_top5_mapping,
    frontier_curve,
)
from repro.accuracy.calibration import CapacityCurve
from repro.accuracy.features import extract_features
from repro.accuracy.surrogate import _digest_residual
from repro.space import Architecture, SearchSpace


class TestCapacityCurve:
    def test_monotone_decreasing_in_flops(self):
        curve = frontier_curve()
        errors = [curve.error_at(f) for f in (100e6, 200e6, 400e6, 800e6)]
        assert errors == sorted(errors, reverse=True)

    def test_frontier_passes_near_mobilenetv3(self):
        # MobileNetV3-Large: 219M MACs, 24.8% top-1 error.
        assert frontier_curve().error_at(219e6) == pytest.approx(24.8, abs=0.4)

    def test_nonpositive_flops_raises(self):
        with pytest.raises(ValueError):
            frontier_curve().error_at(0.0)

    def test_fit_reduces_residuals_vs_flat(self):
        curve = fit_capacity_curve()
        flat_err = np.mean(
            [(a[2] - np.mean([x[2] for x in ACCURACY_ANCHORS])) ** 2
             for a in ACCURACY_ANCHORS]
        )
        fit_err = np.mean(
            [(a[2] - curve.error_at(a[1])) ** 2 for a in ACCURACY_ANCHORS]
        )
        # The anchor cloud is nearly FLOPs-flat (that scatter is *why*
        # the surrogate models architecture quality separately), so the
        # fit may only match the flat baseline to numerical tolerance.
        assert fit_err <= flat_err + 1e-6


class TestTop5Mapping:
    def test_fitted_on_paper_pairs(self):
        mapping = fit_top5_mapping()
        # Table I pairs: 24.8 top-1 <-> 7.5 top-5, 26.7 <-> 8.7.
        assert mapping.top5_of(24.8) == pytest.approx(7.5, abs=0.25)
        assert mapping.top5_of(26.7) == pytest.approx(8.7, abs=0.25)

    def test_monotone(self):
        mapping = fit_top5_mapping()
        assert mapping.top5_of(23.0) < mapping.top5_of(28.0)

    def test_floor(self):
        mapping = fit_top5_mapping()
        assert mapping.top5_of(0.0) >= 0.1


class TestFeatures:
    def test_depth_and_skips(self, space_a):
        arch = Architecture((0, 4) * 10, (1.0,) * 20)
        feats = extract_features(space_a, arch)
        assert feats.depth == 10
        assert feats.num_layers == 20

    def test_factor_stats(self, space_a):
        arch = Architecture.uniform(20, 0, 0.5)
        feats = extract_features(space_a, arch)
        assert feats.mean_factor == pytest.approx(0.5)
        assert feats.std_factor == pytest.approx(0.0)
        assert feats.min_factor == pytest.approx(0.5)

    def test_kernel_and_diversity(self, space_a):
        arch = Architecture((0, 1, 2, 3) * 5, (1.0,) * 20)
        feats = extract_features(space_a, arch)
        assert feats.num_distinct_ops == 4
        assert 3.0 < feats.mean_kernel < 5.0

    def test_all_skip_arch(self, space_a):
        arch = Architecture.uniform(20, 4, 1.0)
        feats = extract_features(space_a, arch)
        assert feats.depth == 0
        assert feats.mean_kernel == 0.0


class TestSurrogate:
    @pytest.fixture(scope="class")
    def surrogate(self, space_a):
        return AccuracySurrogate(space_a)

    def test_deterministic(self, surrogate, space_a, rng):
        arch = space_a.sample(rng)
        assert surrogate.top1_error(arch) == surrogate.top1_error(arch)
        assert surrogate.proxy_accuracy(arch) == surrogate.proxy_accuracy(arch)

    def test_bigger_network_more_accurate(self, surrogate):
        small = Architecture.uniform(20, 0, 0.4)
        large = Architecture.uniform(20, 0, 1.0)
        assert surrogate.top1_error(large) < surrogate.top1_error(small)

    def test_excessive_skips_penalized(self, surrogate, space_a):
        normal = Architecture.uniform(20, 0, 1.0)
        skippy = Architecture((0,) * 5 + (4,) * 15, (1.0,) * 20)
        # the skip-heavy net is cheaper but must lose far more accuracy
        # than its FLOPs reduction alone would explain
        flops_only = surrogate.curve.error_at(space_a.arch_flops(skippy))
        assert surrogate.top1_error(skippy) > flops_only + 1.0
        assert surrogate.top1_error(skippy) > surrogate.top1_error(normal)

    def test_bottleneck_penalized(self, surrogate):
        smooth = Architecture.uniform(20, 0, 0.7)
        pinched = smooth.with_factor(10, 0.1)
        assert surrogate.top1_error(pinched) > surrogate.top1_error(smooth)

    def test_error_in_plausible_range(self, surrogate, space_a, rng):
        for _ in range(25):
            err = surrogate.top1_error(space_a.sample(rng))
            assert 15.0 < err < 60.0

    def test_top5_below_top1(self, surrogate, space_a, rng):
        arch = space_a.sample(rng)
        assert surrogate.top5_error(arch) < surrogate.top1_error(arch)

    def test_accuracy_complements_error(self, surrogate, space_a, rng):
        arch = space_a.sample(rng)
        assert surrogate.accuracy(arch) == pytest.approx(
            (100.0 - surrogate.top1_error(arch)) / 100.0
        )

    def test_proxy_below_standalone(self, surrogate, space_a, rng):
        """Weight-sharing accuracy is systematically lower."""
        for _ in range(10):
            arch = space_a.sample(rng)
            assert surrogate.proxy_accuracy(arch) < surrogate.accuracy(arch)

    def test_proxy_rank_correlated(self, surrogate, space_a):
        from repro.hardware.metrics import spearman

        rng = np.random.default_rng(3)
        archs = [space_a.sample(rng) for _ in range(60)]
        proxy = [surrogate.proxy_accuracy(a) for a in archs]
        standalone = [surrogate.accuracy(a) for a in archs]
        assert spearman(proxy, standalone) > 0.8

    def test_residual_creates_scatter(self, space_a):
        surrogate = AccuracySurrogate(space_a)
        base = Architecture.uniform(20, 0, 1.0)
        variants = [base.with_factor(0, f) for f in (0.9, 1.0)]
        errs = [surrogate.top1_error(a) for a in variants]
        assert errs[0] != errs[1]

    def test_invalid_sigma_raises(self, space_a):
        with pytest.raises(ValueError):
            AccuracySurrogate(space_a, residual_sigma=-1.0)

    def test_custom_curve_respected(self, space_a, rng):
        flat = CapacityCurve(floor=30.0, scale=0.0001, gamma=0.5)
        surrogate = AccuracySurrogate(space_a, curve=flat, residual_sigma=0.0)
        arch = Architecture.uniform(20, 0, 1.0)
        assert surrogate.top1_error(arch) == pytest.approx(30.0, abs=0.5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bounds_property(self, space_a, seed):
        surrogate = AccuracySurrogate(space_a)
        arch = space_a.sample(np.random.default_rng(seed))
        assert 5.0 <= surrogate.top1_error(arch) <= 95.0
        assert 0.0 <= surrogate.proxy_accuracy(arch) <= 1.0


class TestCostCallCounts:
    """``proxy_accuracy`` scores an architecture from one FLOPs count and
    one digest; a second computation of either must not creep back."""

    @staticmethod
    def _count(monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_proxy_accuracy_computes_flops_and_digest_once(
        self, space_a, monkeypatch
    ):
        surrogate = AccuracySurrogate.for_space(space_a)
        archs = [space_a.sample(np.random.default_rng(s)) for s in range(25)]
        flops_calls = self._count(monkeypatch, SearchSpace, "arch_flops")
        digest_calls = self._count(monkeypatch, Architecture, "digest")
        for arch in archs:
            del flops_calls[:], digest_calls[:]
            surrogate.proxy_accuracy(arch)
            assert len(flops_calls) == 1
            assert len(digest_calls) == 1
            assert digest_calls[0] is arch

    def test_proxy_accuracy_is_top1_plus_gap_and_residual(self, space_a):
        surrogate = AccuracySurrogate.for_space(space_a)
        for seed in range(25):
            arch = space_a.sample(np.random.default_rng(seed))
            error = surrogate.top1_error(arch) + surrogate.proxy_gap
            error += _digest_residual(
                arch.digest(), salt="proxy", sigma=surrogate.proxy_sigma
            )
            expected = float(np.clip((100.0 - error) / 100.0, 0.0, 1.0))
            assert surrogate.proxy_accuracy(arch) == expected
