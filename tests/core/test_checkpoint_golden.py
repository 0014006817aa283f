"""Every checkpoint a tiny EA and NSGA-II run saves, pinned by sha256.

A checkpoint stores the rng's full ``bit_generator.state`` after every
generation (``has_uint32``/``uinteger`` included) next to the
population, so these hashes catch any change to breeding's draw order
or to the state it leaves behind, including changes the final
population alone would not show. The digests were recorded with
numpy's own per-call draws in ``_breed``.
"""

import hashlib
import json

import pytest

from repro.core import EvolutionConfig, EvolutionarySearch, Objective
from repro.core.nsga2 import Nsga2Config, Nsga2Search
from repro.runstate import MemoryCheckpoint
from repro.space import space_for_layout


class HashingCheckpoint(MemoryCheckpoint):
    """Keeps the sha256 of each save's canonical JSON."""

    def __init__(self):
        super().__init__()
        self.digests = []

    def save(self, payload, complete=False):
        super().save(payload, complete=complete)
        text = json.dumps(self.payload, sort_keys=True)
        self.digests.append(hashlib.sha256(text.encode()).hexdigest())


def run(engine, layout):
    space = space_for_layout(layout)
    ckpt = HashingCheckpoint()
    if engine == "ea":
        objective = Objective(
            accuracy_fn=lambda a: min(1.0, (space.arch_flops(a) / 2.5e5) ** 0.5),
            latency_fn=lambda a: space.arch_flops(a) / 1e4,
            target_ms=15.0,
            beta=-0.5,
        )
        config = EvolutionConfig(
            generations=5,
            population_size=12,
            num_parents=5,
            per_layer_mutation_prob=0.3,
            seed=11,
        )
        EvolutionarySearch(space, objective, config, checkpoint=ckpt).run()
    else:
        config = Nsga2Config(
            generations=5,
            population_size=12,
            per_layer_mutation_prob=0.3,
            seed=11,
        )
        Nsga2Search(
            space,
            accuracy_fn=lambda a: space.arch_flops(a) / 3e5,
            latency_fn=lambda a: space.arch_flops(a) / 1e4,
            config=config,
            checkpoint=ckpt,
        ).run()
    return ckpt.digests


GOLDEN = {
    ("ea", "mini"): [
        "e90ed03bc9b2996425db2baec89d4f8df35d38acafd114a8471b05660b18f5f4",
        "8b6f4ce6e88615aca20e93b4dee065d5c1309ed5879f5ce8aef6b1e5ed627667",
        "03d83ab7763ce9c897c36d8b4f2b39616386a18d4630ec92fa59fbc469e9d4d7",
        "b37307ca7a1f7783cae53097fa258a11a87c9d604fd4bbcc8ce8a1d94e29e53a",
        "26910f58f92a9b02e46a5a0fe19aa2a28eef10d386814efb9abe2d1e14bf86bc",
        "26910f58f92a9b02e46a5a0fe19aa2a28eef10d386814efb9abe2d1e14bf86bc",
    ],
    ("ea", "proxy"): [
        "606438c8608ba2752f1babad1fe15acb7a2e75f2feed0819e62d0d10a77cfb87",
        "a2772eb8b1d1a71004d8ebf2feb567e97a761c0eb330120e2aa85e2da38c0957",
        "d091ea7a48c438a6fe8fa9643236bd65fb21bbee485df70c91b466c562d18c65",
        "7a3ec8d222e14047a7550f819762b304b6c7fe3c046158d890c4ab3203b9a696",
        "7037a2572401bc00991a453bc641c5041db2bd13412ce6dee93f6a4d5471e4f5",
        "7037a2572401bc00991a453bc641c5041db2bd13412ce6dee93f6a4d5471e4f5",
    ],
    ("nsga2", "mini"): [
        "68d7f76d0819540388044c9714804705dae808a71634e32ace7494ce4826b02d",
        "12964bfc2448df44f41eda817fa38021454dafd99c5a144fb0be6ae3f8bf6932",
        "b113b6693fbcfc50a731097f140162421ffe19fa27998bf457dfc88c59f23bfc",
        "fc6ee7fa08f811bb5b539e82a3989f5ea757b1b3332b156b0242801bb2fe4b07",
        "c31fef655ea8ab6c425e87f36d2b7940f893fa97b8686fe72de3b9611d5d5207",
        "c31fef655ea8ab6c425e87f36d2b7940f893fa97b8686fe72de3b9611d5d5207",
    ],
    ("nsga2", "proxy"): [
        "3e86dfb1ff8668ee352495dbfe02c6e88764ecbbf1e4ab68e5032d0a4a673866",
        "e77ca04af8cf4139f4a924364b10963b49adfd3511e32cca21dc4168e8d581ce",
        "aca261277df77ae87fa16c7300d5918ced15469849e2c230bf9dceb755463d83",
        "7eeedfa2878512af32bde4dc67f5f6812e25a941f70a436bacc1a2d61468250a",
        "ec6f8b22028ecfd6cf0b8266e1c807dc7c7cecb6a71d1705c056949dfc74a963",
        "ec6f8b22028ecfd6cf0b8266e1c807dc7c7cecb6a71d1705c056949dfc74a963",
    ],
}


@pytest.mark.parametrize("engine", ["ea", "nsga2"])
@pytest.mark.parametrize("layout", ["mini", "proxy"])
def test_checkpoint_saves_match_golden(engine, layout):
    assert run(engine, layout) == GOLDEN[(engine, layout)]
