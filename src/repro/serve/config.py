"""Daemon configuration for ``python -m repro.serve``.

:class:`ServeConfig` is a frozen dataclass so one config object can be
shared across the server, the service, and tests without aliasing
surprises. Defaults are chosen for a local smoke deployment: loopback
host, ephemeral port, auto backend, warm nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.parallel.backend import BACKEND_NAMES
from repro.serve.query import FrontQuery


def warm_query_from_spec(spec: str) -> FrontQuery:
    """Parse a ``--warm`` spec ``device:layout[:seed]`` into a query.

    Warm pairs key on (device, layout) because one front covers every
    latency target (see :mod:`repro.serve.query`); the optional seed
    pins a non-default stream.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"warm spec {spec!r} must be device:layout or device:layout:seed"
        )
    kwargs = {"device": parts[0], "layout": parts[1]}
    if len(parts) == 3:
        try:
            kwargs["seed"] = int(parts[2])
        except ValueError as exc:
            raise ValueError(
                f"warm spec {spec!r} has a non-integer seed {parts[2]!r}"
            ) from exc
    return FrontQuery(**kwargs)


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to bind, evaluate, and persist.

    Parameters
    ----------
    host, port:
        Bind address. ``port=0`` asks the OS for an ephemeral port; the
        bound port is printed at startup and recorded in the state
        directory's ``endpoint.json``.
    backend, workers:
        Evaluation backend for cache-missing front computations —
        exactly the CLI's ``--backend``/``--workers`` knobs; results
        are bit-identical for any combination.
    front_cache_size:
        LRU cap on cached fronts (:class:`~repro.core.EvaluationCache`
        semantics). ``None`` = unbounded.
    state_dir:
        Optional crash-safe state directory (:mod:`repro.runstate`).
        When set, every computed front is persisted atomically and
        reloaded on the next start — a kill + restart serves the same
        bytes without recomputing.
    warm:
        Fronts to precompute before accepting traffic (popular
        (device, layout) pairs). Restored snapshot entries satisfy warm
        specs without recomputation.
    table:
        Optional tabular artifact directory
        (:func:`repro.tabular.save_artifact`). Queries the artifact
        covers — matching layout fingerprint, device column, and build
        seed, on an exhaustive ``"front"``-recipe table — are replayed
        from its columns instead of searched live: same bytes,
        milliseconds instead of seconds. Everything else still runs
        the live recipe.
    metrics_window:
        How many recent request latencies the p50/p99 estimates cover.
    quiet:
        Suppress per-request access logging (metrics still record).
    max_inflight, queue_depth, queue_timeout_s:
        Admission control (``docs/robustness.md``, "Online
        resilience"). ``max_inflight`` caps concurrently-computing
        query requests (``None`` = unlimited, the historical
        behaviour); beyond it up to ``queue_depth`` requests wait up to
        ``queue_timeout_s`` before being shed with a deterministic 503.
    retry_after_s:
        The ``Retry-After`` header value on shed responses.
    breaker_failures, breaker_cooldown_s, hang_timeout_s:
        Circuit breaker around live front computation:
        ``breaker_failures`` consecutive failures open it for
        ``breaker_cooldown_s``; a computation slower than
        ``hang_timeout_s`` counts as a failure even when it returns
        (``None`` disables the hang budget). While open, queries answer
        from a degraded fallback (tabular replay or nearest cached
        front), flagged ``degraded: true``.
    chaos:
        Optional chaos-injection spec string
        (:meth:`repro.resilience.ChaosSpec.parse`), e.g.
        ``"seed=7,error=0.3,burst=2"``. Faults live front computations
        only — warmup and replay are never chaos-faulted. For the
        chaos harness; leave ``None`` in production.
    """

    host: str = "127.0.0.1"
    port: int = 0
    backend: str = "auto"
    workers: int = 0
    front_cache_size: Optional[int] = 64
    state_dir: Optional[str] = None
    warm: Tuple[FrontQuery, ...] = field(default_factory=tuple)
    table: Optional[str] = None
    metrics_window: int = 1024
    quiet: bool = False
    max_inflight: Optional[int] = None
    queue_depth: int = 16
    queue_timeout_s: float = 30.0
    retry_after_s: int = 1
    breaker_failures: int = 5
    breaker_cooldown_s: float = 30.0
    hang_timeout_s: Optional[float] = None
    chaos: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {BACKEND_NAMES}"
            )
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} out of range")
        if self.front_cache_size is not None and self.front_cache_size < 1:
            raise ValueError("front_cache_size must be >= 1 or None")
        if self.metrics_window < 1:
            raise ValueError("metrics_window must be >= 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 or None")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.queue_timeout_s <= 0:
            raise ValueError("queue_timeout_s must be positive")
        if self.retry_after_s < 1:
            raise ValueError("retry_after_s must be >= 1")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be positive")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive or None")
        if self.chaos is not None:
            # Validate eagerly so a bad spec fails at config time, not
            # on the first faulted request.
            from repro.resilience import ChaosSpec

            ChaosSpec.parse(self.chaos)
