"""Breeding by the raw-word scan is numpy's breeding.

The reference below is ``GenerationalSearch``'s ``_breed``,
``_crossover`` and ``_mutate`` as they were written with numpy's own
per-call draws. The scan must give the same children, leave the
generator in the same ``bit_generator.state`` (``has_uint32`` and
``uinteger`` included, since checkpoints save it) and continue with the
same next draw.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.streams as streams
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.nsga2 import Nsga2Config, Nsga2Search
from repro.space import Architecture
from repro.space.search_space import pick
from tests.core.test_sampling_stream import SPACES, assert_same_stream


def reference_crossover(a, b, rng):
    take_a = rng.random(a.num_layers) < 0.5
    ops = tuple(a.ops[i] if take_a[i] else b.ops[i] for i in range(a.num_layers))
    factors = tuple(
        a.factors[i] if take_a[i] else b.factors[i] for i in range(a.num_layers)
    )
    return Architecture(ops, factors)


def reference_mutate(space, p, arch, rng):
    ops = list(arch.ops)
    factors = list(arch.factors)
    for layer in range(arch.num_layers):
        if rng.random() < p:
            ops[layer] = pick(rng, space.candidate_ops[layer])
        if rng.random() < p:
            factors[layer] = pick(rng, space.candidate_factors[layer])
    return Architecture(tuple(ops), tuple(factors))


def reference_breed(space, cfg, parents, rng):
    needed = cfg.population_size - len(parents)
    seen = {p.arch.key() for p in parents}
    children = []
    attempts = 0
    while len(children) < needed and attempts < needed * 40:
        attempts += 1
        child = parents[int(rng.integers(len(parents)))].arch
        if rng.random() < cfg.crossover_prob and len(parents) > 1:
            other = parents[int(rng.integers(len(parents)))].arch
            child = reference_crossover(child, other, rng)
        if rng.random() < cfg.mutation_prob:
            child = reference_mutate(space, cfg.per_layer_mutation_prob, child, rng)
        if child.key() in seen or not space.contains(child):
            continue
        seen.add(child.key())
        children.append(child)
    if len(children) < needed:
        children += space.sample_many(rng, needed - len(children))
    return children


def make_search(engine, space, **config):
    if engine == "ea":
        return EvolutionarySearch(
            space, objective=None, config=EvolutionConfig(**config)
        )
    return Nsga2Search(space, None, None, config=Nsga2Config(**config))


def parents_of(space, count, seed):
    """``count`` distinct members of ``space`` (fewer if it is smaller)."""
    archs = list(dict.fromkeys(space.sample_many(np.random.default_rng(seed), count)))
    return [SimpleNamespace(arch=arch) for arch in archs]


def check_breed(search, parents, seed, buffered=False):
    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    if buffered:  # start with a high half in has_uint32/uinteger
        assert new_rng.integers(9) == old_rng.integers(9)
        assert new_rng.bit_generator.state["has_uint32"] == 1
    children = search._breed(parents, new_rng)
    expected = reference_breed(search.space, search.config, parents, old_rng)
    assert children == expected
    assert all(type(o) is int for c in children for o in c.ops)
    assert all(type(f) is float for c in children for f in c.factors)
    assert_same_stream(new_rng, old_rng)
    return children


@pytest.mark.parametrize("engine", ["ea", "nsga2"])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_breed_matches_reference(engine, name):
    space = SPACES[name]()
    search = make_search(engine, space, population_size=24)
    for seed in range(12):
        parents = parents_of(space, 12, 500 + seed)
        check_breed(search, parents, seed, buffered=seed % 2 == 1)


@pytest.mark.parametrize("crossover", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("mutation", [0.0, 0.25, 1.0])
def test_breed_probabilities(crossover, mutation):
    space = SPACES["mini"]()
    search = make_search(
        "ea",
        space,
        population_size=30,
        num_parents=10,
        crossover_prob=crossover,
        mutation_prob=mutation,
        per_layer_mutation_prob=0.4,
    )
    for seed in range(6):
        check_breed(search, parents_of(space, 10, seed), seed, buffered=seed == 5)


def test_breed_from_a_single_parent():
    """No crossover partner: every child is a mutant or a sample."""
    for name in ("a", "mini", "all-pinned"):
        space = SPACES[name]()
        search = make_search("ea", space, population_size=8, num_parents=1)
        for seed in range(6):
            check_breed(search, parents_of(space, 1, seed), seed, buffered=seed % 2)


def test_starved_breed_fills_from_samples():
    """A one-architecture space rejects every child; ``sample_many``
    refills from the generator state the decoder handed back."""
    space = SPACES["all-pinned"]()
    search = make_search("nsga2", space, population_size=6)
    parents = parents_of(space, 3, 0)
    assert len(parents) == 1
    children = check_breed(search, parents, seed=4, buffered=True)
    assert children == [parents[0].arch] * 5


def test_breed_without_fast_path_is_the_same(monkeypatch):
    space = SPACES["proxy-narrowed"]()
    search = make_search("ea", space, population_size=20, num_parents=8)
    parents = parents_of(space, 8, 3)
    fast = check_breed(search, parents, seed=7, buffered=True)
    monkeypatch.setattr(streams, "FAST_PATH", False)
    assert check_breed(search, parents, seed=7, buffered=True) == fast


def test_crossover_and_mutate_draw_from_a_generator():
    space = SPACES["a"]()
    search = make_search("ea", space, per_layer_mutation_prob=0.5)
    a, b = space.sample_many(np.random.default_rng(1), 2)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        assert search._crossover(a, b, rng) == reference_crossover(a, b, reference)
        assert search._mutate(a, rng) == reference_mutate(space, 0.5, a, reference)
        assert_same_stream(rng, reference)


def check_breed_at(search, parents, state):
    """``check_breed`` from an arbitrary ``bit_generator.state``."""
    new_rng = np.random.default_rng(0)
    old_rng = np.random.default_rng(0)
    new_rng.bit_generator.state = old_rng.bit_generator.state = state
    children = search._breed(parents, new_rng)
    assert children == reference_breed(search.space, search.config, parents, old_rng)
    assert_same_stream(new_rng, old_rng)


def test_breed_lemire_rejection():
    """A buffered half of 0 is redrawn for ``integers(3)``: its product's
    low word, 0, is below ``(2**32 - 3) % 3 = 1``."""
    space = SPACES["mini"]()
    search = make_search("ea", space, population_size=12, num_parents=3)
    parents = parents_of(space, 3, 0)
    state = np.random.default_rng(5).bit_generator.state
    state.update(has_uint32=1, uinteger=0)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    rng.integers(3)
    # The buffered half was rejected and a fresh word's low half taken.
    assert rng.bit_generator.state["has_uint32"] == 1
    check_breed_at(search, parents, state)


def test_breed_reads_across_blocks(monkeypatch):
    """Blocks no longer than an attempt's reserve: every attempt and
    redraw that reaches a block's end reads the next one."""
    monkeypatch.setattr(streams, "_SCAN_BLOCK", 7)
    for engine in ("ea", "nsga2"):
        for name in sorted(SPACES):
            space = SPACES[name]()
            search = make_search(engine, space, population_size=24)
            for seed in range(4):
                parents = parents_of(space, 12, 700 + seed)
                check_breed(search, parents, seed, buffered=seed % 2 == 1)


def test_breed_reads_past_a_default_block(monkeypatch):
    reads = []

    def counted(bit_generator, words, doubles, size):
        reads.append(size)
        return read_block(bit_generator, words, doubles, size)

    read_block = streams.read_block
    monkeypatch.setattr(streams, "read_block", counted)
    space = SPACES["a"]()
    search = make_search("nsga2", space, population_size=60)
    check_breed(search, parents_of(space, 30, 1), seed=2, buffered=True)
    assert len(reads) >= 2


def test_breed_syncs_the_generator_on_an_exception(monkeypatch):
    """An exception out of the scan leaves the generator where the
    per-call loop, stopped at the same point, leaves it."""
    space = SPACES["mini"]()
    search = make_search("ea", space, population_size=30, num_parents=10)
    parents = parents_of(space, 10, 4)
    contains = type(space).contains
    calls = []

    def failing(self, arch):
        calls.append(arch)
        if len(calls) % 7 == 0:
            raise RuntimeError("stop")
        return contains(self, arch)

    monkeypatch.setattr(type(space), "contains", failing)
    new_rng = np.random.default_rng(3)
    old_rng = np.random.default_rng(3)
    with pytest.raises(RuntimeError):
        search._breed(parents, new_rng)
    with pytest.raises(RuntimeError):
        reference_breed(space, search.config, parents, old_rng)
    assert calls[:7] == calls[7:]
    assert_same_stream(new_rng, old_rng)


def test_breed_on_other_bit_generators():
    """A generator other than ``PCG64`` breeds through numpy's calls."""
    space = SPACES["a-narrowed"]()
    search = make_search("nsga2", space, population_size=20)
    parents = parents_of(space, 10, 6)
    for seed in range(3):
        new_rng = np.random.Generator(np.random.MT19937(seed))
        old_rng = np.random.Generator(np.random.MT19937(seed))
        children = search._breed(parents, new_rng)
        assert children == reference_breed(space, search.config, parents, old_rng)
        new_state = new_rng.bit_generator.state["state"]
        old_state = old_rng.bit_generator.state["state"]
        assert np.array_equal(new_state["key"], old_state["key"])
        assert new_state["pos"] == old_state["pos"]
        assert new_rng.random() == old_rng.random()
