"""Architecture sampling utilities."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


def sample_uniform(space: SearchSpace, rng: np.random.Generator) -> Architecture:
    """Uniformly sample one architecture (paper's ``arch ~ U(A)``)."""
    return space.sample(rng)


def sample_architectures(
    space: SearchSpace,
    count: int,
    rng: np.random.Generator,
    unique: bool = False,
    max_attempts_factor: int = 50,
) -> List[Architecture]:
    """Sample ``count`` architectures from the space.

    With ``unique=True`` duplicates are rejected (bounded by
    ``count * max_attempts_factor`` attempts, which only matters for
    tiny shrunk spaces).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not unique:
        return space.sample_many(rng, count)

    seen = set()
    out: List[Architecture] = []
    attempts = 0
    limit = max(count * max_attempts_factor, 10)
    while len(out) < count and attempts < limit:
        arch = space.sample(rng)
        attempts += 1
        if arch.key() in seen:
            continue
        seen.add(arch.key())
        out.append(arch)
    if len(out) < count:
        raise RuntimeError(
            f"could only draw {len(out)}/{count} unique architectures; "
            "the (shrunk) space may be smaller than requested"
        )
    return out
