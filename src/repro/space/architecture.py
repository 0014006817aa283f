"""Architecture encoding ``arch = {op^l, c^l}`` for l = 1..L.

An :class:`Architecture` is an immutable pair of tuples — operator
indices and channel scaling factors — plus serialization and identity
helpers. All mutation happens in the evolutionary-search module by
constructing new instances.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.space.operators import IS_SKIP, NUM_OPERATORS, get_operator


@functools.lru_cache(maxsize=4096)
def _factor_text(factor: float) -> str:
    """JSON text of a factor rounded to six places, as in a digest.

    Memoized: factors come from a few candidate grids, and every scored
    architecture's digest writes one per layer.
    """
    return repr(round(factor, 6))


@dataclass(frozen=True)
class Architecture:
    """One point in the search space.

    Attributes
    ----------
    ops:
        Operator index per layer (``0..K-1``).
    factors:
        Channel scaling factor per layer, each in ``(0, 1]``.
    """

    ops: Tuple[int, ...]
    factors: Tuple[float, ...]

    def __post_init__(self) -> None:
        # Coerce numpy scalars (rng.choice / rng.integers outputs) so
        # hashing, equality, and JSON serialization are type-stable.
        object.__setattr__(self, "ops", tuple(int(o) for o in self.ops))
        object.__setattr__(self, "factors", tuple(float(f) for f in self.factors))
        if len(self.ops) != len(self.factors):
            raise ValueError(
                f"ops ({len(self.ops)}) and factors ({len(self.factors)}) "
                "must have the same length"
            )
        if not self.ops:
            raise ValueError("architecture must have at least one layer")
        for op in self.ops:
            if not 0 <= op < NUM_OPERATORS:
                raise ValueError(f"operator index {op} out of range")
        for f in self.factors:
            if not 0.0 < f <= 1.0:
                raise ValueError(f"channel factor {f} outside (0, 1]")

    @classmethod
    def from_candidates(
        cls, ops: Tuple[int, ...], factors: Tuple[float, ...]
    ) -> "Architecture":
        """An architecture built without coercion or validation.

        Only for genes taken as they are from a :class:`SearchSpace`'s
        candidate tuples or from other architectures: equal-length,
        non-empty tuples of Python ``int`` operator indices and
        ``float`` factors in ``(0, 1]``, which both already guarantee.
        """
        arch = object.__new__(cls)
        object.__setattr__(arch, "ops", ops)
        object.__setattr__(arch, "factors", factors)
        return arch

    # -- identity ------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.ops)

    def key(self) -> Tuple:
        """Hashable identity (used for dedup in EA populations)."""
        return (self.ops, self.factors)

    def digest(self) -> str:
        """Stable short hash, also used to seed per-arch surrogate noise."""
        # Byte for byte the text of ``json.dumps({"ops": ..., "factors":
        # [round(f, 6) ...]}, sort_keys=True)``: JSON writes ints and
        # finite floats with their ``repr``.
        payload = '{"factors": [%s], "ops": [%s]}' % (
            ", ".join(map(_factor_text, self.factors)),
            ", ".join(map(repr, self.ops)),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- introspection ---------------------------------------------------------

    def operator_names(self) -> Tuple[str, ...]:
        return tuple(get_operator(i).name for i in self.ops)

    def depth(self) -> int:
        """Number of non-skip layers (effective depth)."""
        return sum(1 for i in self.ops if not IS_SKIP[i])

    def with_op(self, layer: int, op_index: int) -> "Architecture":
        """Copy with one layer's operator replaced."""
        ops = list(self.ops)
        ops[layer] = op_index
        return Architecture(tuple(ops), self.factors)

    def with_factor(self, layer: int, factor: float) -> "Architecture":
        """Copy with one layer's channel factor replaced."""
        factors = list(self.factors)
        factors[layer] = factor
        return Architecture(self.ops, tuple(factors))

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> Dict:
        return {"ops": list(self.ops), "factors": list(self.factors)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "Architecture":
        return cls(tuple(payload["ops"]), tuple(payload["factors"]))

    @classmethod
    def uniform(cls, num_layers: int, op_index: int = 0, factor: float = 1.0) -> "Architecture":
        """All-same-operator architecture (useful in tests and baselines)."""
        return cls((op_index,) * num_layers, (factor,) * num_layers)

    def __str__(self) -> str:
        parts = [
            f"{get_operator(op).name}@{f:.1f}" for op, f in zip(self.ops, self.factors)
        ]
        return "Arch[" + ", ".join(parts) + "]"

