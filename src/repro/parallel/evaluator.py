"""The multiprocess evaluation backend: one :class:`WorkerPool` behind
the :class:`~repro.parallel.backend.EvaluationBackend` interface.

One :class:`ParallelEvaluator` wraps one batched evaluation function
(typically :meth:`~repro.core.objective.Objective.evaluate_many`) and is
shared by every search phase that scores architectures — subspace
quality, progressive shrinking, and the evolutionary search — so a
single set of forked workers serves the whole run.

The division of labour that keeps parallel runs bit-exact with serial:

* **All randomness stays in the parent.** Architectures are sampled (or
  bred) before dispatch; the evaluation function draws nothing.
* **The cache stays in the parent.** Callers route batches through
  :meth:`~repro.core.cache.EvaluationCache.get_or_eval_many` with
  :meth:`map` as the miss evaluator, so deduplication, hit/miss
  accounting, and insertion order are byte-for-byte the serial
  semantics; only the deduplicated misses fan out to workers.
* **Order survives dispatch.** :class:`WorkerPool` reassembles chunk
  results by index, independent of worker scheduling.

With ``workers <= 1`` (the default) every call degrades to invoking the
evaluation function inline — the evaluator is then pure plumbing, which
is what makes ``workers`` a wall-clock-only knob.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.cache import EvaluationCache
from repro.parallel.backend import EvaluationBackend
from repro.parallel.pool import WorkerPool


class ParallelEvaluator(EvaluationBackend):
    """Fan a batched evaluation function out across worker processes.

    Parameters
    ----------
    eval_many_fn:
        ``archs -> results``, one result per architecture, deterministic
        per architecture. Captured by the workers at fork time (never
        pickled), so closures over objectives/predictors/trainers work.
    workers:
        Worker process count; ``<= 1`` evaluates inline in the parent.
    cache:
        Optional :class:`EvaluationCache` consulted by
        :meth:`evaluate_many`. Lives in the parent only — workers never
        see it — so cache semantics are identical to serial runs.
    on_worker_items:
        Optional ``count -> None`` callback invoked after each
        :meth:`map` with the number of items that were evaluated in
        worker processes (parent-side evaluations are excluded). Side
        effects the evaluation function performs on parent state —
        ledger accounting, most relevantly — happen in the workers'
        address space and vanish with them; this hook lets the owner
        replay them, keeping cost accounting identical to serial runs.
    chunk_size, max_retries, dispatch_timeout_s:
        Forwarded to :class:`WorkerPool` (``dispatch_timeout_s`` arms
        its hang watchdog).
    """

    name = "multiprocess"

    def __init__(
        self,
        eval_many_fn: Callable[[List], Sequence],
        workers: int = 0,
        cache: Optional[EvaluationCache] = None,
        on_worker_items: Optional[Callable[[int], None]] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 1,
        dispatch_timeout_s: Optional[float] = None,
    ):
        super().__init__(cache=cache)
        self._pool = WorkerPool(
            eval_many_fn,
            workers=workers,
            chunk_size=chunk_size,
            max_retries=max_retries,
            dispatch_timeout_s=dispatch_timeout_s,
        )
        self.on_worker_items = on_worker_items

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def parallel(self) -> bool:
        """Whether evaluations actually run in worker processes."""
        return self._pool.parallel

    def map(self, archs: Sequence) -> List:
        archs = list(archs)
        self.batches += 1
        self.items += len(archs)
        parent_before = self._pool.items_run_in_parent
        results = self._pool.map(archs)
        if self.on_worker_items is not None:
            in_parent = self._pool.items_run_in_parent - parent_before
            if len(archs) > in_parent:
                self.on_worker_items(len(archs) - in_parent)
        return results

    def set_cancel(self, token) -> None:
        """Install (or clear, with ``None``) a cooperative cancel token.

        The pool checks it between dispatch waits, so an expired
        deadline stops within one chunk wait rather than one batch.
        """
        self._pool.set_cancel(token)

    def sync(self) -> str:
        """Make workers see the parent's current evaluation state.

        Call after anything the evaluation function depends on mutates
        (e.g. supernet tuning between shrinking stages). Forked workers
        snapshot parent memory, so the pool is restarted and the next
        dispatch re-forks from current parent state.
        """
        self._pool.restart()
        return "restarted"

    def stats(self) -> dict:
        """Dispatch/fault counters for run artifacts and logs."""
        pool = self._pool
        out = super().stats()
        out.update(
            workers=pool.workers,
            parallel=pool.parallel,
            chunks_dispatched=pool.chunks_dispatched,
            chunk_retries=pool.chunk_retries,
            serial_fallbacks=pool.serial_fallbacks,
            pool_rebuilds=pool.pool_rebuilds,
            hang_kills=pool.hang_kills,
        )
        return out

    def close(self) -> None:
        """Shut worker processes down."""
        self._pool.close()
