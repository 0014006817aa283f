"""Uniform draws stay on the historical ``rng.choice`` stream.

``SearchSpace.sample`` and the EA/NSGA-II mutations draw a candidate as
``cands[int(rng.integers(len(cands)))]`` (``repro.space.search_space.pick``).
This must give exactly the architectures the ``rng.choice(cands)``
formulation gave and leave every Generator in the same state, or every
seeded search, checkpoint and tabular fingerprint would drift.
"""

import numpy as np
import pytest

from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.nsga2 import Nsga2Config, Nsga2Search
from repro.space import Architecture, SearchSpace, space_for_layout

SEEDS = range(40)


def choice_sample(space, rng):
    """``SearchSpace.sample`` as it was written with ``rng.choice``."""
    ops = tuple(int(rng.choice(cands)) for cands in space.candidate_ops)
    factors = tuple(float(rng.choice(cands)) for cands in space.candidate_factors)
    return Architecture(ops, factors)


def choice_mutate(space, p, arch, rng):
    """The EA/NSGA-II ``_mutate`` as it was written with ``rng.choice``."""
    ops = list(arch.ops)
    factors = list(arch.factors)
    for layer in range(arch.num_layers):
        if rng.random() < p:
            ops[layer] = int(rng.choice(space.candidate_ops[layer]))
        if rng.random() < p:
            factors[layer] = float(rng.choice(space.candidate_factors[layer]))
    return Architecture(tuple(ops), tuple(factors))


def narrowed(space):
    """Shrunk space with single-candidate layers (ops and factors)."""
    ops = [list(c) for c in space.candidate_ops]
    factors = [list(c) for c in space.candidate_factors]
    for layer in range(0, space.num_layers, 2):
        ops[layer] = [layer % 5]
    factors[1] = [space.config.channel_factors[-1]]
    factors[-1] = list(space.config.channel_factors[:2])
    return SearchSpace(space.config, ops, factors)


SPACES = {
    "a": lambda: space_for_layout("a"),
    "mini": lambda: space_for_layout("mini"),
    "a-narrowed": lambda: narrowed(space_for_layout("a")),
    "proxy-narrowed": lambda: narrowed(space_for_layout("proxy")),
    "all-pinned": lambda: SearchSpace(
        space_for_layout("mini").config,
        [[3]] * 4,
        [[0.75]] * 4,
    ),
}


def assert_same_stream(new_rng, old_rng):
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    # And the streams continue identically.
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("name", sorted(SPACES))
def test_sample_matches_choice_stream(name):
    space = SPACES[name]()
    for seed in SEEDS:
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        for _ in range(25):
            arch = space.sample(new_rng)
            assert arch == choice_sample(space, old_rng)
            assert all(type(o) is int for o in arch.ops)
            assert all(type(f) is float for f in arch.factors)
        assert_same_stream(new_rng, old_rng)


@pytest.mark.parametrize("engine", ["ea", "nsga2"])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_mutate_matches_choice_stream(engine, name):
    space = SPACES[name]()
    p = 0.5  # dense mutation: many draws per call
    if engine == "ea":
        search = EvolutionarySearch(
            space, objective=None, config=EvolutionConfig(per_layer_mutation_prob=p)
        )
    else:
        search = Nsga2Search(
            space, None, None, config=Nsga2Config(per_layer_mutation_prob=p)
        )
    for seed in SEEDS:
        parents = np.random.default_rng(1000 + seed)
        new_rng = np.random.default_rng(seed)
        old_rng = np.random.default_rng(seed)
        for _ in range(10):
            arch = space.sample(parents)
            assert search._mutate(arch, new_rng) == choice_mutate(
                space, p, arch, old_rng
            )
        assert_same_stream(new_rng, old_rng)
