"""Columnar tabular NAS benchmark (HW-NAS-Bench style).

Precomputes accuracy and per-device latency (plus optional energy) for
a set of architectures and serves them as vectorized column lookups —
the standard way to let search-algorithm research iterate without
touching the simulator (or, in the real world, the device farm).
Architectures are keyed by their exact mixed-radix index
(:mod:`repro.space.encoding`), so the table is stable across processes
and compact on disk.

Storage is columnar (``np.ndarray`` per metric), which is what makes
replay fast: scoring an EA generation is one fancy-indexed gather per
column instead of a Python loop over per-architecture dictionaries.
Small spaces (the ``mini`` demo space: 50 625 architectures) can be
tabulated *exhaustively*; paper-scale spaces are sampled without
replacement.

Every table knows the :func:`space_fingerprint` of the space it was
built from; the artifact (:mod:`repro.tabular.artifact`) records it
together with a schema version so a table can never be silently
replayed against the wrong space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.runstate.atomic import sha256_text
from repro.space.architecture import Architecture
from repro.space.encoding import (
    _layer_choices,
    index_to_architecture,
    space_cardinality,
)
from repro.space.operators import NUM_OPERATORS
from repro.space.search_space import SearchSpace

# Exhaustive tabulation guard (paper-scale spaces must be sampled).
EXHAUSTIVE_CAP = 1_000_000

_INT64_MAX = 2**63 - 1


def _factor_centile(factor: float) -> int:
    """Integer centile key of a channel factor (0.75 -> 75).

    Centiles (not deciles) because Python's banker's rounding makes
    ``round(0.75 * 10)`` collide with ``round(0.8 * 10)``; at centile
    resolution every candidate factor in every layout is distinct.
    """
    return int(round(factor * 100))


def space_fingerprint(space: SearchSpace) -> str:
    """A content hash pinning the space a table was built from.

    Covers the cardinality and the exact per-layer (operator, factor)
    candidate sets — so a shrunk space, a different layout, or a
    different factor grid all produce different fingerprints — plus the
    config identity fields that change what the metrics *mean* (input
    resolution, class count).
    """
    config = space.config
    payload = {
        "name": config.name,
        "input_size": int(config.input_size),
        "num_classes": int(config.num_classes),
        "cardinality": str(space_cardinality(space)),
        "layers": [
            {
                "ops": [int(op) for op in space.candidate_ops[layer]],
                "factor_centiles": [
                    _factor_centile(f)
                    for f in space.candidate_factors[layer]
                ],
            }
            for layer in range(space.num_layers)
        ],
    }
    return sha256_text(json.dumps(payload, sort_keys=True))


def sample_indices(
    space: SearchSpace, num_archs: int, seed: int
) -> List[int]:
    """``num_archs`` distinct architecture indices, sorted ascending.

    When the cardinality fits in int64 this is a single
    ``rng.choice(total, replace=False)`` — no rejection loop, so asking
    for a large fraction of the space (or all of it) cannot stall or
    give up early. Paper-scale cardinalities (~9.5e33) fall back to
    rejection sampling over raw index draws, where the acceptance rate
    is indistinguishable from 1.
    """
    total = space_cardinality(space)
    target = min(num_archs, total)
    rng = np.random.default_rng(seed)
    if total <= _INT64_MAX:
        drawn = rng.choice(total, size=target, replace=False)
        return [int(i) for i in np.sort(drawn)]
    radices = [
        len(_layer_choices(space, layer))
        for layer in range(space.num_layers)
    ]
    picked: set = set()
    attempts = 0
    while len(picked) < target and attempts < target * 50:
        attempts += 1
        index = 0
        for radix in radices:
            index = index * radix + int(rng.integers(radix))
        picked.add(index)
    return sorted(picked)


def resolve_indices(
    space: SearchSpace, num_archs: Optional[int], seed: int
) -> Tuple[List[int], bool]:
    """The (sorted indices, exhaustive?) pair a build request names.

    ``num_archs=None`` means exhaustive (guarded by
    :data:`EXHAUSTIVE_CAP`); a count saturating the cardinality is
    exhaustive too.
    """
    total = space_cardinality(space)
    if num_archs is None:
        if total > EXHAUSTIVE_CAP:
            raise ValueError(
                f"space has {total} architectures; exhaustive "
                "tabulation is capped at 1e6 — pass num_archs instead"
            )
        return list(range(total)), True
    if num_archs < 1:
        raise ValueError("num_archs must be >= 1 (or None for exhaustive)")
    indices = sample_indices(space, num_archs, seed)
    return indices, len(indices) == total


def decode_indices(
    space: SearchSpace, indices: Sequence[int]
) -> List[Architecture]:
    """Vectorized ``index_to_architecture`` over a batch.

    Bit-identical to the scalar decoder — the per-layer digits are the
    same mixed-radix remainders, just computed with one array modulo
    per layer, and each layer's digits pick its genes with one gather.
    The genes come back through ``tolist`` as Python ``int``/``float``,
    as the digest requires.
    """
    indices = list(indices)
    if not indices:
        return []
    total = space_cardinality(space)
    if total > _INT64_MAX or max(indices) > _INT64_MAX:
        return [index_to_architecture(space, i) for i in indices]
    remainder = np.asarray(indices, dtype=np.int64)
    if remainder.min() < 0 or remainder.max() >= total:
        bad = int(remainder.min()) if remainder.min() < 0 else int(remainder.max())
        raise ValueError(f"index {bad} outside [0, {total})")
    # Gene columns, last layer first (the order the digits come out in).
    op_columns: List[List[int]] = []
    factor_columns: List[List[float]] = []
    for layer in reversed(range(space.num_layers)):
        layer_ops, layer_factors = zip(*_layer_choices(space, layer))
        digits = remainder % len(layer_ops)
        remainder //= len(layer_ops)
        op_columns.append(np.array(layer_ops)[digits].tolist())
        factor_columns.append(np.array(layer_factors)[digits].tolist())
    return [
        Architecture.from_candidates(ops, factors)
        for ops, factors in zip(
            zip(*reversed(op_columns)), zip(*reversed(factor_columns))
        )
    ]


@dataclass(frozen=True)
class TableEntry:
    """Precomputed metrics of one architecture (one device's latency)."""

    latency_ms: float
    accuracy: float
    energy_mj: Optional[float] = None


class TabularBenchmark:
    """An immutable arch -> metrics table over one search space.

    Construction is keyword-only and columnar: sorted architecture
    ``indices`` plus an ``accuracy`` column and one latency column per
    device. Use :meth:`build` to tabulate from evaluation functions, or
    :func:`repro.tabular.load_artifact` to reopen a saved artifact.
    """

    def __init__(
        self,
        space: SearchSpace,
        *,
        indices: Sequence[int],
        accuracy: Sequence[float],
        latency: Dict[str, Sequence[float]],
        energy: Optional[Sequence[float]] = None,
        exhaustive: bool = False,
        primary_device: Optional[str] = None,
        recipe: str = "custom",
        build_seed: int = 0,
    ):
        self.space = space
        self.exhaustive = bool(exhaustive)
        self.recipe = str(recipe)
        self.build_seed = int(build_seed)
        self.fingerprint = space_fingerprint(space)
        self._indices = [int(i) for i in indices]
        if self._indices != sorted(set(self._indices)):
            raise ValueError("indices must be sorted and distinct")
        if not latency:
            raise ValueError("at least one latency column is required")
        n = len(self._indices)
        self._accuracy = self._column("accuracy", accuracy, n)
        self._latency = {
            str(name): self._column(f"latency[{name}]", col, n)
            for name, col in sorted(latency.items())
        }
        self._energy = (
            self._column("energy", energy, n) if energy is not None else None
        )
        self.primary_device = (
            str(primary_device)
            if primary_device is not None
            else next(iter(self._latency))
        )
        if self.primary_device not in self._latency:
            raise ValueError(
                f"primary device {self.primary_device!r} has no latency "
                f"column; table has {self.devices}"
            )
        total = space_cardinality(space)
        self._cardinality = total
        self._index_arr = (
            np.asarray(self._indices, dtype=np.int64)
            if (n == 0 or self._indices[-1] <= _INT64_MAX)
            else None
        )
        if self._index_arr is not None:
            self._index_arr.flags.writeable = False
        self._positions: Optional[Dict[int, int]] = None
        self._encoder_tables = None

    @staticmethod
    def _column(name: str, values, n: int) -> np.ndarray:
        col = np.ascontiguousarray(values, dtype=np.float64)
        if col.shape != (n,):
            raise ValueError(
                f"column {name} has shape {col.shape}, expected ({n},)"
            )
        col.flags.writeable = False
        return col

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        space: SearchSpace,
        latency_fn: Callable[[Architecture], float],
        accuracy_fn: Callable[[Architecture], float],
        energy_fn: Optional[Callable[[Architecture], float]] = None,
        num_archs: Optional[int] = 1000,
        seed: int = 0,
        *,
        device: str = "default",
        latency_many_fn: Optional[Callable] = None,
        accuracy_many_fn: Optional[Callable] = None,
        workers: int = 0,
        backend: str = "auto",
        recipe: str = "custom",
    ) -> "TabularBenchmark":
        """Tabulate the space into one latency column named ``device``.

        ``num_archs=None`` tabulates *exhaustively* (guarded to spaces
        of at most one million architectures); otherwise ``num_archs``
        distinct architectures are sampled uniformly without
        replacement. Evaluation fans out through
        :func:`repro.parallel.create_backend` (``workers``/``backend``
        are wall-clock-only: columns are bit-identical for any
        setting), and the batched ``*_many`` functions — when given —
        score whole chunks per call instead of looping per
        architecture.
        """
        indices, exhaustive = resolve_indices(space, num_archs, seed)
        archs = decode_indices(space, indices)

        def _eval_rows(batch: Sequence[Architecture]) -> List[tuple]:
            batch = list(batch)
            if latency_many_fn is not None:
                lats = [float(v) for v in latency_many_fn(batch)]
            else:
                lats = [float(latency_fn(a)) for a in batch]
            if accuracy_many_fn is not None:
                accs = [float(v) for v in accuracy_many_fn(batch)]
            else:
                accs = [float(accuracy_fn(a)) for a in batch]
            if energy_fn is not None:
                ens: List[float] = [float(energy_fn(a)) for a in batch]
            else:
                ens = []
            return list(zip(lats, accs, ens)) if ens else [
                (lat, acc) for lat, acc in zip(lats, accs)
            ]

        from repro.parallel.backend import create_backend

        with create_backend(backend, _eval_rows, workers=workers) as pool:
            rows = pool.map(archs)
        return cls(
            space,
            indices=indices,
            accuracy=[r[1] for r in rows],
            latency={device: [r[0] for r in rows]},
            energy=(
                [r[2] for r in rows] if energy_fn is not None else None
            ),
            exhaustive=exhaustive,
            primary_device=device,
            recipe=recipe,
            build_seed=seed,
        )

    # -- columnar access ----------------------------------------------------------

    @property
    def devices(self) -> Tuple[str, ...]:
        """Latency column names, sorted."""
        return tuple(self._latency)

    @property
    def indices(self) -> Tuple[int, ...]:
        """Tabulated architecture indices, sorted ascending."""
        return tuple(self._indices)

    def accuracy_column(self) -> np.ndarray:
        """The (read-only) accuracy column, row-aligned with ``indices``."""
        return self._accuracy

    def latency_column(self, device: Optional[str] = None) -> np.ndarray:
        """The (read-only) latency column of one device (default primary)."""
        name = self.primary_device if device is None else device
        if name not in self._latency:
            raise KeyError(
                f"no latency column for device {name!r}; "
                f"table has {self.devices}"
            )
        return self._latency[name]

    def energy_column(self) -> Optional[np.ndarray]:
        """The (read-only) energy column, or ``None`` if not tabulated."""
        return self._energy

    # -- row addressing -----------------------------------------------------------

    def _encoder(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``[layer, op, factor centile]`` digit table (-1 where
        the pair is not a candidate) and each layer's place value."""
        if self._encoder_tables is None:
            space = self.space
            digits = np.full(
                (space.num_layers, NUM_OPERATORS, 101), -1, dtype=np.int64
            )
            radices = []
            for layer in range(space.num_layers):
                choices = _layer_choices(space, layer)
                for digit, (op, factor) in enumerate(choices):
                    digits[layer, op, _factor_centile(factor)] = digit
                radices.append(len(choices))
            places = [1] * space.num_layers
            for layer in reversed(range(space.num_layers - 1)):
                places[layer] = places[layer + 1] * radices[layer + 1]
            # Paper-scale places overflow int64; those sum Python ints.
            dtype = np.int64 if self._cardinality <= _INT64_MAX else object
            self._encoder_tables = (digits, np.array(places, dtype=dtype))
        return self._encoder_tables

    def indices_of(self, archs: Sequence[Architecture]) -> List[int]:
        """Mixed-radix indices of a batch (``architecture_to_index``):
        each gene pair's digit gathered from a dense table, then one
        place-value dot product per row.

        Raises ``ValueError`` for architectures outside the space.
        """
        digits, places = self._encoder()
        try:
            ops, factors = self.space.gene_arrays(archs)
        except ValueError:
            raise ValueError("architecture is not a member of the space") from None
        centiles = np.rint(factors * 100)
        # A factor off the centile grid would borrow the digit of the
        # candidate it rounds to. The tolerance is ``SearchSpace.contains``'
        # 1e-9; ``<=`` fails a NaN too.
        if not (np.abs(factors - centiles / 100) <= 1e-9).all():
            raise ValueError("architecture is not a member of the space")
        centiles = centiles.astype(np.int64)
        rows = digits[np.arange(self.space.num_layers), ops, centiles]
        if (rows < 0).any():
            raise ValueError("architecture is not a member of the space")
        return (rows.astype(places.dtype) @ places).tolist()

    def _miss_error(self) -> KeyError:
        return KeyError(
            "architecture not tabulated "
            f"(table holds {len(self)} of {self._cardinality})"
        )

    def rows_of(self, archs: Sequence[Architecture]) -> np.ndarray:
        """Row positions of a batch — the replay hot path.

        On an exhaustive table the row *is* the index, so this is pure
        arithmetic; sampled tables binary-search the sorted index
        column. Untabulated architectures raise ``KeyError`` — replay
        must never silently fall back to live evaluation.
        """
        indices = self.indices_of(archs)
        if self.exhaustive:
            return np.asarray(indices, dtype=np.int64)
        if self._index_arr is not None:
            wanted = np.asarray(indices, dtype=np.int64)
            pos = np.searchsorted(self._index_arr, wanted)
            pos = np.minimum(pos, max(len(self._index_arr) - 1, 0))
            if len(self._index_arr) == 0 or not np.all(
                self._index_arr[pos] == wanted
            ):
                raise self._miss_error()
            return pos
        if self._positions is None:
            self._positions = {
                index: row for row, index in enumerate(self._indices)
            }
        try:
            return np.asarray(
                [self._positions[i] for i in indices], dtype=np.int64
            )
        except KeyError:
            raise self._miss_error() from None

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._indices)

    def __contains__(self, arch: Architecture) -> bool:
        try:
            self.rows_of([arch])
        except (ValueError, KeyError):
            return False
        return True

    def _entry(self, row: int, latency: np.ndarray) -> TableEntry:
        return TableEntry(
            latency_ms=float(latency[row]),
            accuracy=float(self._accuracy[row]),
            energy_mj=(
                float(self._energy[row]) if self._energy is not None else None
            ),
        )

    def query(
        self, arch: Architecture, device: Optional[str] = None
    ) -> TableEntry:
        """O(1) metrics lookup; raises ``KeyError`` for untabulated archs."""
        latency = self.latency_column(device)
        row = int(self.rows_of([arch])[0])
        return self._entry(row, latency)

    def entries(
        self, device: Optional[str] = None
    ) -> Iterator[Tuple[Architecture, TableEntry]]:
        """Iterate (architecture, entry) pairs (index order)."""
        latency = self.latency_column(device)
        for row, index in enumerate(self._indices):
            yield (
                index_to_architecture(self.space, index),
                self._entry(row, latency),
            )

    def best_under(
        self, latency_budget_ms: float, device: Optional[str] = None
    ) -> Tuple[Architecture, TableEntry]:
        """Most accurate tabulated architecture within a latency budget.

        On an exhaustive table this is the space's *true* optimum — the
        oracle answer search algorithms are benchmarked against. One
        masked argmax over the columns (ties resolve to the lowest
        index, deterministically).
        """
        latency = self.latency_column(device)
        feasible = latency <= latency_budget_ms
        if not bool(feasible.any()):
            raise ValueError(f"no entry within {latency_budget_ms} ms")
        row = int(np.argmax(np.where(feasible, self._accuracy, -np.inf)))
        return (
            index_to_architecture(self.space, self._indices[row]),
            self._entry(row, latency),
        )
