"""Tests for the architecture encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import Architecture

_FACTORS = [round(0.1 * i, 1) for i in range(1, 11)]

@st.composite
def arch_strategy(draw):
    """Random valid architectures (matched ops/factors lengths)."""
    length = draw(st.integers(min_value=1, max_value=20))
    ops = tuple(draw(st.lists(st.integers(0, 4), min_size=length, max_size=length)))
    factors = tuple(
        draw(st.lists(st.sampled_from(_FACTORS), min_size=length, max_size=length))
    )
    return Architecture(ops, factors)


def make_arch(ops, factors):
    return Architecture(tuple(ops), tuple(factors))


class TestValidation:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            make_arch([0, 1], [1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            make_arch([], [])

    def test_bad_op_raises(self):
        with pytest.raises(ValueError):
            make_arch([7], [1.0])

    def test_bad_factor_raises(self):
        with pytest.raises(ValueError):
            make_arch([0], [0.0])
        with pytest.raises(ValueError):
            make_arch([0], [1.5])

    def test_post_init_coerces(self):
        arch = make_arch([np.int64(0), 1], [np.float32(0.5), 1])
        assert arch.ops == (0, 1) and arch.factors == (0.5, 1.0)
        assert all(type(o) is int for o in arch.ops)
        assert all(type(f) is float for f in arch.factors)

    def test_from_candidates_equals_validated(self):
        trusted = Architecture.from_candidates((0, 4), (0.5, 1.0))
        checked = make_arch([0, 4], [0.5, 1.0])
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert trusted.key() == checked.key()
        assert trusted.digest() == checked.digest()


class TestIdentity:
    def test_key_equality(self):
        a = make_arch([0, 1], [0.5, 1.0])
        b = make_arch([0, 1], [0.5, 1.0])
        assert a == b
        assert a.key() == b.key()

    def test_digest_stable(self):
        a = make_arch([0, 1, 2], [0.5, 1.0, 0.3])
        assert a.digest() == make_arch([0, 1, 2], [0.5, 1.0, 0.3]).digest()

    def test_digest_differs(self):
        a = make_arch([0, 1], [0.5, 1.0])
        b = make_arch([0, 2], [0.5, 1.0])
        c = make_arch([0, 1], [0.5, 0.9])
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_hashable_in_set(self):
        archs = {make_arch([0], [1.0]), make_arch([0], [1.0]), make_arch([1], [1.0])}
        assert len(archs) == 2


class TestIntrospection:
    def test_depth_counts_non_skips(self):
        arch = make_arch([0, 4, 1, 4], [1.0] * 4)
        assert arch.depth() == 2
        assert arch.num_layers == 4

    def test_operator_names(self):
        arch = make_arch([0, 4], [1.0, 1.0])
        assert arch.operator_names() == ("shuffle3x3", "skip")

    def test_with_op(self):
        arch = make_arch([0, 0], [1.0, 1.0])
        mutated = arch.with_op(1, 3)
        assert mutated.ops == (0, 3)
        assert arch.ops == (0, 0)  # original untouched

    def test_with_factor(self):
        arch = make_arch([0, 0], [1.0, 1.0])
        mutated = arch.with_factor(0, 0.5)
        assert mutated.factors == (0.5, 1.0)

    def test_uniform_constructor(self):
        arch = Architecture.uniform(5, op_index=2, factor=0.8)
        assert arch.ops == (2,) * 5
        assert arch.factors == (0.8,) * 5

    def test_str_contains_ops(self):
        text = str(make_arch([0], [0.5]))
        assert "shuffle3x3" in text and "0.5" in text


class TestSerialization:
    def test_roundtrip(self):
        arch = make_arch([0, 3, 4], [0.2, 1.0, 0.7])
        assert Architecture.from_dict(arch.to_dict()) == arch

    @settings(max_examples=50, deadline=None)
    @given(arch=arch_strategy())
    def test_roundtrip_property(self, arch):
        restored = Architecture.from_dict(arch.to_dict())
        assert restored == arch
        assert restored.digest() == arch.digest()

    @settings(max_examples=30, deadline=None)
    @given(arch=arch_strategy())
    def test_depth_bounds_property(self, arch):
        assert 0 <= arch.depth() <= arch.num_layers
