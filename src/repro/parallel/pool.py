"""The multiprocess evaluation backend: chunked, order-preserving
parallel map over forked workers.

One :class:`WorkerPool` wraps one batched evaluation function
(typically :meth:`~repro.core.objective.Objective.evaluate_many`) and is
shared by every search phase that scores architectures — subspace
quality, progressive shrinking, the evolutionary search, and the
parallel LUT build — so a single set of forked workers serves the whole
run. All randomness and every evaluation cache stay in the parent:
architectures are sampled or bred before dispatch, and callers route
batches through
:meth:`~repro.core.cache.EvaluationCache.get_or_eval_many` with
:meth:`WorkerPool.map` as the miss evaluator, so only deduplicated
misses fan out. Design constraints, in order:

1. **Determinism** — results are keyed by chunk index and reassembled in
   submission order, so the output is independent of worker scheduling.
   The chunk function itself must be deterministic per item (every
   search-stack evaluation function is); the pool adds no randomness.
2. **No pickling of the work function** — the pool only starts under the
   ``fork`` start method, where the chunk function (typically a closure
   over an :class:`~repro.core.objective.Objective`, a device model, or
   a trainer) is inherited by reference at fork time. Only the *items*
   and *results* cross the process boundary and must be picklable.
3. **Crash containment** — a worker dying (OOM kill, segfault, explicit
   ``SIGKILL``) breaks the executor; the pool rebuilds it and retries
   the in-flight chunks, and any chunk that keeps failing is evaluated
   serially in the parent. A crashed worker can therefore never change
   results — only cost wall-clock. The other way round, a worker whose
   parent dies exits within ``_PARENT_POLL_S``: a killed parent leaves
   no orphaned workers behind.
4. **Hang containment** — with ``dispatch_timeout_s`` set, a window
   that makes no progress for that long is treated as hung: the worker
   processes are killed outright, the executor is rebuilt, and the
   in-flight chunks are retried. A chunk that hangs on every allowed
   attempt raises :class:`WorkerHangError` — it is *not* retried
   serially, because a hanging chunk function would then wedge the
   parent, which is exactly what the watchdog exists to prevent.
5. **Bounded in-flight work** — at most ``inflight_per_worker`` chunks
   per worker are submitted at a time, bounding parent-side memory for
   pickled tasks and pending results.

A cooperative :class:`~repro.resilience.deadline.CancelToken` installed
via :meth:`WorkerPool.set_cancel` is checked between dispatches; on
expiry the workers are killed (in-flight chunks would otherwise keep
burning CPU) and :class:`~repro.resilience.deadline.DeadlineExceeded`
propagates with the pool's progress counters attached.

Platforms without ``fork`` (Windows, macOS under spawn) degrade to the
serial path — same results, no processes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.parallel.backend import EvaluationBackend
from repro.resilience.deadline import DeadlineExceeded


class WorkerHangError(RuntimeError):
    """A chunk exceeded the dispatch timeout on every allowed attempt."""

Item = TypeVar("Item")
Result = TypeVar("Result")

# Worker-side chunk function, installed once per worker process by the
# pool initializer. Module-level so the task sent through the call queue
# is just ``(_run_chunk, chunk_id, items)`` — always picklable.
_WORKER_CHUNK_FN: Optional[Callable] = None


# How often a worker checks that the process that forked it is alive.
_PARENT_POLL_S = 0.5

# How long closing a pool waits for its workers to exit before killing
# them; idle workers exit within milliseconds.
_JOIN_TIMEOUT_S = 1.0


def _exit_with_parent(parent_pid: int) -> None:
    """Exit the worker once its parent is gone.

    A parent killed outright (``SIGKILL``, OOM) cannot shut its pool
    down, and its workers, reparented, would block on the call queue
    forever.
    """
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _init_worker(chunk_fn: Callable, parent_pid: int) -> None:
    global _WORKER_CHUNK_FN
    _WORKER_CHUNK_FN = chunk_fn
    threading.Thread(
        target=_exit_with_parent,
        args=(parent_pid,),
        name="repro-parent-watch",
        daemon=True,
    ).start()


def _run_chunk(chunk_id: int, items: List) -> tuple:
    assert _WORKER_CHUNK_FN is not None, "worker initializer did not run"
    return chunk_id, list(_WORKER_CHUNK_FN(items))


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count knob: ``None``/``0``/``1`` mean serial."""
    if workers is None or workers <= 1:
        return 0
    return int(workers)


class WorkerPool(EvaluationBackend):
    """Apply a chunk function over items across forked worker processes.

    The ``multiprocess`` :class:`~repro.parallel.backend.EvaluationBackend`;
    :func:`~repro.parallel.backend.create_backend` builds it.

    Parameters
    ----------
    chunk_fn:
        ``items -> results`` over a *list* of items, returning one result
        per item in order (e.g. ``Objective.evaluate_many``). Runs in the
        workers — and in the parent, for the serial path and the crash
        fallback — so it must be deterministic per item. It is captured
        by reference at fork time and never pickled.
    workers:
        Number of worker processes; ``<= 1`` disables the pool (pure
        serial execution in the parent).
    on_worker_items:
        Optional ``count -> None`` callback invoked after each
        :meth:`map` with the number of items that were evaluated in
        worker processes (parent-side evaluations are excluded). Side
        effects the chunk function performs on parent state — ledger
        accounting, most relevantly — happen in the workers' address
        space and vanish with them; this hook lets the owner replay
        them, keeping cost accounting identical to serial runs.
    chunk_size:
        Items per dispatched chunk. Defaults to splitting the input into
        ``~4`` chunks per worker, balancing scheduling slack against
        per-chunk IPC overhead.
    max_retries:
        How many times a chunk is re-dispatched after a worker crash
        (or hang kill) before the parent evaluates it serially (crash)
        or :class:`WorkerHangError` is raised (hang).
    inflight_per_worker:
        Bound on submitted-but-unfinished chunks per worker.
    dispatch_timeout_s:
        Optional hang watchdog: when no in-flight chunk completes for
        this long, the worker processes are killed and the window's
        chunks are retried on a fresh pool. ``None`` (the default)
        disables the watchdog — historical behaviour.
    """

    name = "multiprocess"

    _CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        chunk_fn: Callable[[List[Item]], Sequence[Result]],
        workers: int = 0,
        on_worker_items: Optional[Callable[[int], None]] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 1,
        inflight_per_worker: int = 2,
        dispatch_timeout_s: Optional[float] = None,
    ):
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if inflight_per_worker < 1:
            raise ValueError("inflight_per_worker must be >= 1")
        if dispatch_timeout_s is not None and dispatch_timeout_s <= 0:
            raise ValueError("dispatch_timeout_s must be positive")
        super().__init__()
        self._chunk_fn = chunk_fn
        self.on_worker_items = on_worker_items
        self.workers = resolve_workers(workers)
        self._chunk_size = chunk_size
        self._max_retries = max_retries
        self._max_inflight = max(1, self.workers) * inflight_per_worker
        self._dispatch_timeout_s = dispatch_timeout_s
        self._executor: Optional[ProcessPoolExecutor] = None
        # Dispatch/fault counters, surfaced by stats().
        self.chunks_dispatched = 0
        self.chunk_retries = 0
        self.serial_fallbacks = 0
        self.pool_rebuilds = 0
        self.hang_kills = 0
        # Items chunk_fn evaluated in the parent (serial path + crash
        # fallback). Splits parent-side from worker-side work for
        # on_worker_items: worker-side chunk_fn calls can't reach
        # parent state.
        self.items_run_in_parent = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether map() will actually use worker processes."""
        return self.workers >= 2 and fork_available()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(self._chunk_fn, os.getpid()),
            )
        return self._executor

    def _discard_executor(self, grace_s: float = _JOIN_TIMEOUT_S) -> None:
        """Shut the executor down and wait until its workers are reaped.

        ``shutdown(wait=False)`` alone returns while the workers are
        still alive: the executor's manager thread sends each a
        sentinel and joins them, and a busy worker exits only after its
        chunk. The manager thread gets ``grace_s`` to finish; if it has
        not, the workers are killed and it gets ``_JOIN_TIMEOUT_S``
        more. Only the manager thread joins the workers (two threads
        reaping one child can leave it listed as running).
        """
        executor = self._executor
        if executor is None:
            return
        self._executor = None
        manager = executor._executor_manager_thread
        processes = list((executor._processes or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        if manager is None:  # nothing was ever submitted
            return
        manager.join(grace_s)
        if manager.is_alive():
            for proc in processes:
                try:
                    proc.kill()
                except (OSError, ValueError):  # already gone / closed
                    pass
            manager.join(_JOIN_TIMEOUT_S)

    def _kill_workers(self) -> None:
        """SIGKILL the worker processes and drop the executor.

        Used by the hang watchdog and the deadline path: a stuck (or
        no-longer-wanted) chunk cannot be cancelled cooperatively once
        it is inside ``chunk_fn``, so the only way to reclaim the CPU
        is to kill the process running it. Results are unaffected —
        killed chunks are either retried or abandoned with the map.
        """
        self._discard_executor(grace_s=0.0)

    def _check_cancel(self) -> None:
        # The token (see set_cancel) is checked between dispatches —
        # before each serial chunk and each time the dispatch wait
        # wakes — and on expiry the workers are killed before
        # DeadlineExceeded propagates.
        token = self.cancel_token
        if token is not None:
            token.check(
                stage="worker-pool",
                chunks_dispatched=self.chunks_dispatched,
            )

    def sync(self) -> str:
        """Drop the worker processes; the next map() re-forks them.

        Forked workers snapshot the parent's memory at creation time, so
        a caller that mutates evaluation state (e.g. tunes the supernet
        between shrinking stages) syncs the pool to make the workers
        see it.
        """
        self._discard_executor()
        return "restarted"

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        self._discard_executor()

    def stats(self) -> dict:
        """Dispatch/fault counters for run artifacts and logs."""
        out = super().stats()
        out.update(
            workers=self.workers,
            parallel=self.parallel,
            chunks_dispatched=self.chunks_dispatched,
            chunk_retries=self.chunk_retries,
            serial_fallbacks=self.serial_fallbacks,
            pool_rebuilds=self.pool_rebuilds,
            hang_kills=self.hang_kills,
        )
        return out

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- mapping -----------------------------------------------------------------

    def _resolve_chunk_size(self, num_items: int) -> int:
        if self._chunk_size is not None:
            return self._chunk_size
        target_chunks = max(1, self.workers) * self._CHUNKS_PER_WORKER
        return max(1, -(-num_items // target_chunks))

    def _run_serial(self, items: List[Item]) -> List[Result]:
        self._check_cancel()
        results = list(self._chunk_fn(items))
        if len(results) != len(items):
            raise ValueError(
                f"chunk_fn returned {len(results)} results for "
                f"{len(items)} items"
            )
        self.items_run_in_parent += len(items)
        return results

    def map(self, items: Sequence[Item]) -> List[Result]:
        """``chunk_fn`` over ``items``; order-preserving, crash-tolerant."""
        items = list(items)
        self.batches += 1
        self.items += len(items)
        parent_before = self.items_run_in_parent
        results = self._map(items)
        in_workers = len(items) - (self.items_run_in_parent - parent_before)
        if in_workers and self.on_worker_items is not None:
            self.on_worker_items(in_workers)
        return results

    def _map(self, items: List[Item]) -> List[Result]:
        if not items:
            return []
        if not self.parallel:
            return self._run_serial(items)

        size = self._resolve_chunk_size(len(items))
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        results: Dict[int, List[Result]] = {}
        attempts = [0] * len(chunks)
        remaining = deque(range(len(chunks)))

        while len(results) < len(chunks):
            window: Dict[int, object] = {}
            try:
                self._check_cancel()
                executor = self._ensure_executor()
                self._dispatch(executor, chunks, remaining, window)
                last_progress = time.monotonic()
                while window:
                    done, _ = wait(
                        list(window.values()),
                        timeout=self._wait_timeout_s(),
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # Woke without progress: the caller's deadline
                        # may have expired (check raises), or the
                        # window may be hung (watchdog kills), or this
                        # was just a cancel-poll tick (loop again).
                        self._check_cancel()
                        if (
                            self._dispatch_timeout_s is not None
                            and time.monotonic() - last_progress
                            >= self._dispatch_timeout_s
                        ):
                            self._handle_hang(
                                window, attempts, remaining
                            )
                            break
                        continue
                    last_progress = time.monotonic()
                    for future in done:
                        cid = next(
                            c for c, f in window.items() if f is future
                        )
                        returned_id, values = future.result()
                        del window[cid]
                        if len(values) != len(chunks[returned_id]):
                            raise ValueError(
                                f"chunk_fn returned {len(values)} results "
                                f"for {len(chunks[returned_id])} items"
                            )
                        results[returned_id] = values
                    self._dispatch(executor, chunks, remaining, window)
            except BrokenProcessPool:
                # A worker died. Every chunk still in the window is
                # unaccounted for: retry each a bounded number of times
                # on a fresh pool, then fall back to evaluating it in
                # the parent — results are identical either way because
                # chunk_fn is deterministic.
                self.pool_rebuilds += 1
                self._discard_executor()
                for cid in sorted(window):
                    attempts[cid] += 1
                    if attempts[cid] > self._max_retries:
                        self.serial_fallbacks += 1
                        results[cid] = self._run_serial(chunks[cid])
                    else:
                        self.chunk_retries += 1
                        remaining.append(cid)
            except DeadlineExceeded:
                # The caller's deadline expired mid-dispatch. The
                # in-flight chunks would keep burning CPU in the
                # workers; kill them before propagating.
                self._kill_workers()
                raise

        return [value for cid in range(len(chunks)) for value in results[cid]]

    def _dispatch(self, executor, chunks, remaining, window) -> None:
        """Submit queued chunks until the in-flight window is full.

        A chunk leaves ``remaining`` only once ``submit`` has returned:
        a pool that a dead worker broke raises ``BrokenProcessPool``
        from ``submit``, and the chunk must still be queued for the
        retry, or ``map`` would wait for it forever.
        """
        while remaining and len(window) < self._max_inflight:
            cid = remaining[0]
            window[cid] = executor.submit(_run_chunk, cid, chunks[cid])
            remaining.popleft()
            self.chunks_dispatched += 1

    def _wait_timeout_s(self) -> Optional[float]:
        """How long one dispatch wait may block.

        Bounded by the hang watchdog (if configured) and by a short
        poll tick whenever a cancel token is installed — the token has
        no wakeup callback, so expiry is detected by polling. ``None``
        (wait forever) only when neither is in play.
        """
        candidates = []
        if self._dispatch_timeout_s is not None:
            candidates.append(self._dispatch_timeout_s)
        token = self.cancel_token
        if token is not None:
            remaining = token.remaining_s()
            poll = 0.5 if remaining is None else min(0.5, remaining)
            candidates.append(max(0.01, poll))
        return min(candidates) if candidates else None

    def _handle_hang(self, window: Dict, attempts, remaining) -> None:
        """The watchdog fired: kill the workers, retry the window.

        Every in-flight chunk is charged an attempt (the pool cannot
        tell which one is stuck). A chunk out of attempts raises
        :class:`WorkerHangError` instead of falling back to the serial
        path — running a hanging chunk function in the parent would
        hang the parent.
        """
        self.hang_kills += 1
        self.pool_rebuilds += 1
        self._kill_workers()
        for cid in sorted(window):
            attempts[cid] += 1
            if attempts[cid] > self._max_retries:
                raise WorkerHangError(
                    f"chunk {cid} made no progress within "
                    f"{self._dispatch_timeout_s}s on {attempts[cid]} "
                    "attempts; workers killed"
                )
            self.chunk_retries += 1
            remaining.append(cid)
