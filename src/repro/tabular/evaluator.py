"""Vectorized replay scoring against a :class:`TabularBenchmark`.

:class:`TabularEvaluator` is the bridge between the searchers and the
table's dense columns: a generation of architectures becomes one row-
position batch (:meth:`TabularBenchmark.rows_of`) plus one fancy-
indexed gather per metric — no per-architecture round trips. Wire it
into the search stack as the ``eval_many_fn`` of a
:class:`~repro.parallel.TabularBackend`:

* EA / pipeline replay — build the Eq. 1 objective with
  :meth:`TabularEvaluator.objective` and pass
  :meth:`TabularEvaluator.evaluate_many` bound to it to the backend;
* NSGA-II front replay — pass :meth:`bi_objective_many` directly.

Untabulated architectures raise ``KeyError`` (from ``rows_of``): a
replay that silently fell back to live evaluation would not be a
replay, so there is deliberately no fallback path here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.objective import EvaluatedArch, Objective
from repro.space.architecture import Architecture
from repro.tabular.table import TabularBenchmark


class TabularEvaluator:
    """Score architectures by gathering one device's recorded columns."""

    def __init__(
        self, table: TabularBenchmark, device: Optional[str] = None
    ):
        self.table = table
        self.device = (
            table.primary_device if device is None else str(device)
        )
        if self.device not in table.devices:
            raise ValueError(
                f"no latency column for device {self.device!r}; "
                f"table has {table.devices}"
            )
        self._latency = table.latency_column(self.device)
        self._accuracy = table.accuracy_column()

    def objective(self, target_ms: float, beta: float) -> Objective:
        """The Eq. 1 objective scored from this device's columns."""
        return Objective(
            accuracy_fn=self.accuracy,
            latency_fn=self.latency,
            target_ms=target_ms,
            beta=beta,
            accuracy_many_fn=self.accuracy_many,
            latency_many_fn=self.latency_many,
        )

    # -- scalar lookups (Objective accuracy_fn / latency_fn) ----------------------

    def accuracy(self, arch: Architecture) -> float:
        return float(self._accuracy[int(self.table.rows_of([arch])[0])])

    def latency(self, arch: Architecture) -> float:
        return float(self._latency[int(self.table.rows_of([arch])[0])])

    # -- batched lookups (Objective *_many_fn / backend eval_many_fn) -------------

    def accuracy_many(
        self, archs: Sequence[Architecture]
    ) -> List[float]:
        rows = self.table.rows_of(archs)
        return [float(v) for v in self._accuracy[rows]]

    def latency_many(self, archs: Sequence[Architecture]) -> List[float]:
        rows = self.table.rows_of(archs)
        return [float(v) for v in self._latency[rows]]

    def evaluate_many(
        self, objective: Objective, archs: Sequence[Architecture]
    ) -> List[EvaluatedArch]:
        """``objective.evaluate_many(archs)`` for an :meth:`objective` of
        this evaluator, both columns gathered through one row lookup."""
        archs = list(archs)
        rows = self.table.rows_of(archs)
        score = objective.score_parts
        return [
            EvaluatedArch(
                arch=arch, accuracy=accuracy, latency_ms=latency,
                score=score(accuracy, latency),
            )
            for arch, accuracy, latency in zip(
                archs, self._accuracy[rows].tolist(), self._latency[rows].tolist()
            )
        ]

    def bi_objective_many(self, archs: Sequence[Architecture]) -> List:
        """(latency, accuracy) points for NSGA-II, one gather per column."""
        from repro.core.nsga2 import BiObjective

        archs = list(archs)
        rows = self.table.rows_of(archs)
        latency = self._latency[rows]
        accuracy = self._accuracy[rows]
        return [
            BiObjective(
                arch=arch,
                latency_ms=float(latency[i]),
                accuracy=float(accuracy[i]),
            )
            for i, arch in enumerate(archs)
        ]
