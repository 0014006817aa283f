"""Process-pool evaluation engine: parallel search, bit-exact with serial.

Layers, bottom to top:

* :mod:`~repro.parallel.backend` — the :class:`EvaluationBackend`
  interface the search stack talks to (counters, cancel token,
  lifecycle), its serial and tabular-replay implementations, and the
  :func:`create_backend` factory for live backends.
* :class:`~repro.parallel.pool.WorkerPool` — the multiprocess backend:
  forked workers, chunked order-preserving dispatch, crash retry with
  serial fallback; :meth:`~WorkerPool.sync` re-forks the workers after
  parent state changes.

See ``docs/parallel.md`` for the architecture and determinism
guarantees, and ``docs/performance.md`` for backend selection.
"""

from repro.parallel.backend import (
    BACKEND_NAMES,
    EvaluationBackend,
    SerialBackend,
    TabularBackend,
    create_backend,
)
from repro.parallel.pool import (
    WorkerHangError,
    WorkerPool,
    fork_available,
    resolve_workers,
)

__all__ = [
    "BACKEND_NAMES",
    "EvaluationBackend",
    "SerialBackend",
    "TabularBackend",
    "WorkerHangError",
    "WorkerPool",
    "create_backend",
    "fork_available",
    "resolve_workers",
]
