"""Pluggable evaluation backends behind one search-facing interface.

Every consumer of architecture evaluations — subspace quality (Eq. 4),
progressive shrinking, the Sec. III-D EA, NSGA-II, LUT builds — talks to
an :class:`EvaluationBackend`:

* :meth:`~EvaluationBackend.map` — evaluate a batch, order-preserving,
  no caching (each consumer owns its
  :class:`~repro.core.cache.EvaluationCache` and passes ``map`` as the
  miss evaluator);
* :meth:`~EvaluationBackend.sync` — make the backend observe parent
  state mutated since construction (supernet tuning between shrink
  stages); a no-op wherever evaluation already runs in-process;
* :meth:`~EvaluationBackend.stats`, :meth:`~EvaluationBackend.close`,
  and context-manager support.

Three implementations ship, one per execution mode:
:class:`SerialBackend` (inline calls — the default, bit-exact with the
historical serial path), :class:`~repro.parallel.pool.WorkerPool` (the
multiprocess backend over forked workers), and :class:`TabularBackend`
(a serial backend over recorded columns, the replay path of
:class:`repro.tabular.TabularBenchmark`).

Live backends are built by :func:`create_backend` — the only sanctioned
place that constructs a :class:`~repro.parallel.pool.WorkerPool`
outside this package (lint rule RL107 enforces this). Name ``"auto"``
keeps the historical behaviour of the ``workers`` knob: ``workers >= 2``
selects multiprocess, anything else serial, and results are
bit-identical either way (see ``docs/parallel.md``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

# The live backend names every ``backend`` knob accepts; a tabular
# replay is chosen separately (``"tabular"`` plus a recorded table).
BACKEND_NAMES = ("auto", "serial", "multiprocess")


class EvaluationBackend:
    """Interface every evaluation backend implements.

    The base class provides batch counters, the cancel token, trivial
    lifecycle, and context-manager support; subclasses supply
    :meth:`map` and override whatever else is non-trivial for them.
    """

    name = "base"

    def __init__(self):
        self.batches = 0
        self.items = 0
        self.cancel_token = None

    # -- evaluation --------------------------------------------------------------

    def map(self, archs: Sequence) -> List:
        """Evaluate ``archs`` (no caching), preserving input order."""
        raise NotImplementedError

    def set_cancel(self, token) -> None:
        """Install (or clear, with ``None``) a cooperative cancel token.

        In-process backends check it at each :meth:`map` entry; the
        multiprocess backend additionally polls between dispatch waits.
        """
        self.cancel_token = token

    def _check_cancel(self) -> None:
        token = self.cancel_token
        if token is not None:
            token.check(stage=self.name, batches=self.batches)

    # -- state synchronization ----------------------------------------------------

    def sync(self) -> str:
        """Observe parent-state mutations; returns the strategy used."""
        return "noop"

    # -- observability / lifecycle -----------------------------------------------

    def stats(self) -> dict:
        """Dispatch counters for run artifacts and logs."""
        return {"backend": self.name, "batches": self.batches,
                "items": self.items}

    def close(self) -> None:
        """Release any resources (worker processes)."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(EvaluationBackend):
    """Evaluate inline in the calling process.

    The default backend, and the reference for bit-exactness: its
    :meth:`map` is a direct call to the evaluation function, exactly
    what the pre-backend code path did with ``workers <= 1``.
    """

    name = "serial"

    def __init__(self, eval_many_fn: Callable[[List], Sequence]):
        super().__init__()
        self.eval_many_fn = eval_many_fn

    def map(self, archs: Sequence) -> List:
        self._check_cancel()
        archs = list(archs)
        self.batches += 1
        self.items += len(archs)
        return list(self.eval_many_fn(archs))


class TabularBackend(SerialBackend):
    """Replay recorded results instead of evaluating.

    ``eval_many_fn`` must be a pure lookup over recorded columns — e.g.
    an :class:`repro.core.Objective` whose accuracy/latency functions
    are a :class:`repro.tabular.TabularEvaluator`'s vectorized gathers,
    one fancy-indexed gather per generation. Missing architectures
    raise ``KeyError``: a tabular run that silently fell back to live
    evaluation would not be a replay. Built directly, never through
    :func:`create_backend`, which makes live backends only.
    """

    name = "tabular"

    # Own attribute rather than inherited: instrumentation that wraps
    # ``SerialBackend.map`` and ``TabularBackend.map`` separately then
    # counts each replay batch once, not twice.
    map = SerialBackend.map


def create_backend(
    name: str = "auto",
    eval_many_fn: Optional[Callable[[List], Sequence]] = None,
    workers: int = 0,
    on_worker_items: Optional[Callable[[int], None]] = None,
) -> EvaluationBackend:
    """Build a live evaluation backend by name — the single factory.

    ``"auto"`` resolves to ``"multiprocess"`` when ``workers >= 2`` and
    to ``"serial"`` otherwise, preserving the historical meaning of
    ``workers``. Both backends require ``eval_many_fn``. Replay is not a
    live evaluation, so replay sites build a :class:`TabularBackend`
    over recorded columns themselves. ``on_worker_items`` is the
    multiprocess backend's ledger-replay hook (see
    :class:`~repro.parallel.pool.WorkerPool`); the serial backend
    performs those side effects inline and ignores it.
    """
    if name == "tabular":
        raise ValueError(
            "create_backend builds live backends only; replay a recorded "
            "table with TabularBackend(eval_many_fn) over its columns"
        )
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if name == "auto":
        name = "multiprocess" if workers >= 2 else "serial"
    if eval_many_fn is None:
        raise ValueError(f"{name} backend requires eval_many_fn")
    if name == "serial":
        return SerialBackend(eval_many_fn)
    # Import here: the pool's fork machinery is never needed by the
    # in-process backends.
    from repro.parallel.pool import WorkerPool

    return WorkerPool(
        eval_many_fn, workers=workers, on_worker_items=on_worker_items
    )
