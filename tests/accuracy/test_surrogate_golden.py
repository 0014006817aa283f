"""The accuracy surrogate's batched scores, pinned by sha256.

Each digest covers a column of scores as ``float.hex`` text, one value
per line, so a last-bit slip in the features, the error model, the
residual streams or the tabulated index decoding changes it even where
the end-to-end fingerprints would not show it.

The digests were recorded from the build that scored each architecture
through a per-architecture :class:`ArchFeatures` and two residual
draws, one per salt.
"""

import hashlib

import numpy as np

from repro.accuracy import AccuracySurrogate
from repro.space import SearchSpace, space_for_layout
from repro.tabular import tabulate


def _sha256(values) -> str:
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


TABULAR_MINI = "f0c47ac85e0fc0193f4776ce6c3967462e5a6699e775519aa81825be8ef54e46"
SAMPLED_A = "59987bb96db7a8d285b0ed3d578491af35f40ca21173105d1717a3b4499a8f31"


def test_tabulated_accuracy_column():
    config = space_for_layout("mini").config
    space = SearchSpace(config, candidate_ops=[(0, 1, 2)] * config.num_layers)
    table = tabulate(space, ("edge", "cpu"), seed=0, recipe="search")
    assert _sha256(table.accuracy_column()) == TABULAR_MINI


def test_sampled_layout_a_scores():
    space = space_for_layout("a")
    archs = space.sample_many(np.random.default_rng(0), 2000)
    scores = AccuracySurrogate(space).proxy_accuracy_many(archs)
    assert _sha256(scores) == SAMPLED_A
