"""Subspace quality estimation (paper Eq. 4 / Definition 1).

``Q(A_sub) = (1/N) * sum_i F(arch_i, T)`` over ``N`` architectures
sampled uniformly from the subspace. The paper uses ``N = 100``
(sufficient per Radosavovic et al., "On Network Design Spaces for
Visual Recognition").

The estimator draws its ``N`` samples first and then scores them in one
:meth:`~repro.core.objective.Objective.evaluate_many` call, so a
batched latency predictor serves the whole sample with a single LUT
gather; an optional shared :class:`~repro.core.cache.EvaluationCache`
additionally makes architectures re-drawn across overlapping subspaces
free. Neither changes the estimate: draws, per-architecture scores, and
the accumulation order are identical to the one-at-a-time loop.

Seeding is keyed by an explicit **estimate index**, not by call order:
estimate ``i`` always draws from ``SeedSequence(seed, spawn_key=(i,))``
— the same stream the i-th ``spawn()`` child of ``SeedSequence(seed)``
would produce, so historical results are unchanged — which makes a
subspace's draw independent of *when* it is evaluated. That is both a
reproducibility fix (inserting an extra estimate no longer perturbs
every later one) and the property that lets :meth:`estimate_many` hand
a batch of subspaces to the multiprocess
:class:`~repro.parallel.WorkerPool` in any dispatch order and still
match the serial loop bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.objective import Objective
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


class SubspaceQuality:
    """Monte-Carlo estimator of subspace quality.

    Parameters
    ----------
    objective:
        The trade-off objective ``F`` (Eq. 1).
    num_samples:
        ``N`` in Eq. 4; the paper fixes 100.
    seed:
        Base seed. Estimate ``i`` uses the stream
        ``SeedSequence(seed, spawn_key=(i,))``; callers may pass ``i``
        explicitly, otherwise an internal counter allocates the next
        index — so a fresh estimator remains fully reproducible while
        explicit indices decouple draws from evaluation order.
    cache:
        Optional shared evaluation cache. ``evaluations`` still counts
        every F() draw (the paper's complexity accounting), even when a
        draw is served from cache.
    evaluator:
        Optional :class:`~repro.parallel.EvaluationBackend`; the
        multiprocess one (:class:`~repro.parallel.WorkerPool`) fans
        the N objective evaluations out across worker processes.
        Results are bit-identical with or without it.
    """

    def __init__(
        self,
        objective: Objective,
        num_samples: int = 100,
        seed: int = 0,
        cache: Optional[EvaluationCache] = None,
        evaluator=None,
    ):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.objective = objective
        self.num_samples = num_samples
        self._entropy = seed
        self._next_index = 0
        self.evaluations = 0  # total F() calls, for the complexity claim
        self.cache = cache
        self.evaluator = evaluator

    # -- seeding -----------------------------------------------------------------

    def rng_for(self, index: int) -> np.random.Generator:
        """The generator estimate ``index`` draws its N samples from."""
        if index < 0:
            raise ValueError("estimate index must be >= 0")
        return np.random.default_rng(
            np.random.SeedSequence(self._entropy, spawn_key=(index,))
        )

    def reserve_indices(self, count: int) -> List[int]:
        """Claim the next ``count`` estimate indices (for batched calls)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        start = self._next_index
        self._next_index += count
        return list(range(start, start + count))

    # -- checkpointing -----------------------------------------------------------

    def state(self) -> dict:
        """Resumable state: the index counter and the F() call count.

        Indexed seeding means no generator state needs saving — estimate
        ``i`` always draws the same stream, so restoring the counter is
        enough for a resumed run to allocate the same indices.
        """
        return {
            "next_index": self._next_index,
            "evaluations": self.evaluations,
        }

    def set_state(self, state: dict) -> None:
        self._next_index = int(state["next_index"])
        self.evaluations = int(state["evaluations"])

    # -- estimation --------------------------------------------------------------

    def estimate(
        self,
        subspace: SearchSpace,
        rng: Optional[np.random.Generator] = None,
        index: Optional[int] = None,
    ) -> float:
        """``Q(subspace)`` — the mean objective of N uniform samples.

        ``index`` pins the sample stream regardless of call order;
        without it the internal counter assigns the next index. An
        explicit ``rng`` bypasses indexed seeding entirely (the caller
        owns the stream).
        """
        if rng is None:
            indices = None if index is None else [index]
            return self.estimate_many([subspace], indices)[0]
        return self._mean_scores(subspace.sample_many(rng, self.num_samples))[0]

    def estimate_many(
        self,
        subspaces: Sequence[SearchSpace],
        indices: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """``Q`` for several subspaces with one batched evaluation.

        Sampling happens up front (per-subspace, from each subspace's
        indexed stream), then the concatenated sample is scored in a
        single ``evaluate_many``/cache call — with a parallel evaluator
        the whole ``len(subspaces) x N`` batch fans out at once instead
        of subspace by subspace. Bit-identical to calling
        :meth:`estimate` per subspace with the same indices: draws and
        per-architecture scores match, and a shared cache sees the same
        first-occurrence evaluation order, so hit/miss totals agree.
        """
        subspaces = list(subspaces)
        if not subspaces:
            return []
        if indices is None:
            indices = self.reserve_indices(len(subspaces))
        indices = list(indices)
        if len(indices) != len(subspaces):
            raise ValueError(
                f"got {len(indices)} indices for {len(subspaces)} subspaces"
            )
        archs = []
        for subspace, index in zip(subspaces, indices):
            archs += subspace.sample_many(self.rng_for(index), self.num_samples)
        return self._mean_scores(archs)

    def _mean_scores(self, archs: List[Architecture]) -> List[float]:
        """Mean objective of each run of N samples, scored in one batch."""
        if self.evaluator is not None:
            eval_many = self.evaluator.map
        else:
            eval_many = self.objective.evaluate_many
        if self.cache is not None:
            evaluated = self.cache.get_or_eval_many(archs, eval_many)
        else:
            evaluated = eval_many(archs)
        self.evaluations += len(archs)
        qualities = []
        for start in range(0, len(archs), self.num_samples):
            total = 0.0
            for e in evaluated[start : start + self.num_samples]:
                total += e.score
            qualities.append(total / self.num_samples)
        return qualities
