"""The search-as-a-service core: resolve queries to fronts, fast.

:class:`SearchService` is the transport-independent heart of the
daemon (the HTTP layer in :mod:`repro.serve.server` is a thin skin
over it, which is also what makes it unit-testable without sockets).
It layers four speedups over the offline pipeline, none of which may
change a single byte of any result:

1. **Front cache** — computed fronts are memoized in an
   :class:`~repro.core.EvaluationCache` keyed by
   :meth:`FrontQuery.key`, with the PR-5 LRU/eviction/stats semantics.
   A hit is a dictionary lookup; the paper-scale search behind it ran
   exactly once.
2. **Request coalescing** — concurrent *identical* queries (same
   canonical key) share one in-flight computation: the first caller
   computes, the rest block on an event and receive the same object.
   Queries differing in any key field (seed included) never coalesce.
3. **Warm state** — popular fronts are precomputed before traffic is
   accepted, and (with a state directory) every computed front is
   persisted through :mod:`repro.runstate` atomic checkpoints so a
   killed daemon restarts warm, serving bit-identical bytes without
   recomputation.
4. **Encode once** — a healthy answer without ``target_ms`` is a pure
   function of its cached front, so its response bytes are encoded the
   first time it is served and kept with the entry
   (:attr:`CachedFront.body`); a warm hit sends them as they are.

Cache-missing computations funnel through the shared
:mod:`repro.serve.pipeline` recipe — the same code path as ``repro
front`` — with population batches scored by ``predict_many`` via the
PR-6 :class:`~repro.parallel.EvaluationBackend`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core import EvaluationCache, Nsga2Result
from repro.core.nsga2 import BiObjective
from repro.resilience import (
    AdmissionController,
    BreakerOpenError,
    CancelToken,
    ChaosSpec,
    CircuitBreaker,
    DeadlineExceeded,
)
from repro.runstate import PhaseCheckpoint, RunDir
from repro.runstate.manifest import MANIFEST_NAME
from repro.serve.config import ServeConfig
from repro.serve.metrics import ServeMetrics
from repro.serve.pipeline import (
    front_pipeline,
    front_search,
    replay_front_search,
    space_for_layout,
)
from repro.serve.query import FrontQuery

# Identity of the on-disk state (RunDir kind + config fingerprint).
STATE_KIND = "serve"
STATE_FORMAT = 1
# How many (device, layout, seed) predictor bundles stay resident.
# Predictor builds are deterministic, so eviction is a recompute, not
# a correctness event; the cap keeps hostile seed sweeps from growing
# the daemon without bound.
PREDICTOR_CACHE_SIZE = 8
# How often a coalescing follower wakes to check its leader is still
# alive (and its own deadline). Small enough that a died-mid-compute
# leader stalls followers for about a second, large enough to cost
# nothing on the healthy path.
_LEADER_POLL_S = 1.0


def cancel_token_from_payload(payload: dict) -> Optional[CancelToken]:
    """Pop an optional ``deadline_ms`` field into a :class:`CancelToken`.

    Mutates ``payload`` (the field is not a :class:`FrontQuery` key).
    ``None`` when no deadline was requested; ``ValueError`` on a
    non-positive or non-numeric value.
    """
    raw = payload.pop("deadline_ms", None)
    if raw is None:
        return None
    try:
        deadline_ms = float(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"deadline_ms must be a number: {raw!r}") from exc
    if deadline_ms <= 0:
        raise ValueError(f"deadline_ms must be positive: {deadline_ms!r}")
    return CancelToken.after_ms(deadline_ms)


def _json_bytes(payload: dict) -> bytes:
    """The canonical response encoding: sorted keys, trailing newline.

    Determinism here is load-bearing: the coalescing and warm-restart
    contracts promise *byte*-identical responses for identical queries.
    """
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


@dataclass(frozen=True)
class CachedFront:
    """One resolved front: the query that names it plus the result."""

    query: FrontQuery
    front: Tuple[BiObjective, ...]
    num_evaluations: int

    @classmethod
    def of(cls, query: FrontQuery, result: Nsga2Result) -> "CachedFront":
        """The cacheable form of one search ``result`` for ``query``."""
        return cls(
            query=query,
            front=tuple(result.front),
            num_evaluations=result.num_evaluations,
        )

    def key(self) -> Tuple:
        return self.query.key()

    def response(
        self, query: FrontQuery, target_ms: Optional[float] = None
    ) -> dict:
        """The healthy answer to ``query`` from this front, before any
        ``target_ms`` cut or degraded flag."""
        return {
            "query": query.to_dict(),
            "target_ms": target_ms,
            "num_evaluations": self.num_evaluations,
            "front": [p.to_dict() for p in self.front],
        }

    @cached_property
    def body(self) -> bytes:
        """The encoded healthy answer without ``target_ms``, built once.

        Such an answer depends on nothing but this entry: the query it
        echoes is this entry's, since the cache key is every query
        field. The bytes live and die with the entry; they are neither
        compared nor snapshotted (:meth:`to_dict`).
        """
        return _json_bytes(self.response(self.query))

    def to_dict(self) -> dict:
        return {
            "query": self.query.to_dict(),
            "front": [p.to_dict() for p in self.front],
            "num_evaluations": self.num_evaluations,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CachedFront":
        return cls(
            query=FrontQuery.from_dict(payload["query"]),
            front=tuple(
                BiObjective.from_dict(p) for p in payload["front"]
            ),
            num_evaluations=int(payload["num_evaluations"]),
        )


class _InFlight:
    """One in-progress front computation other threads can wait on."""

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.value: Optional[CachedFront] = None
        self.error: Optional[BaseException] = None
        # The computing thread. Followers poll it: a leader that dies
        # without publishing (thread killed, interpreter teardown)
        # would otherwise strand them on ``ready`` forever.
        self.leader = threading.current_thread()


class SearchService:
    """Resolve ``(space, device, seed, knobs)`` queries to Pareto fronts.

    Thread-safe: the HTTP server calls :meth:`resolve` from one thread
    per connection. All cache and coalescing bookkeeping happens under
    one lock; the expensive front computation itself runs outside it.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = ServeMetrics(window=config.metrics_window)
        self._lock = threading.Lock()
        self._front_cache = EvaluationCache(
            max_size=config.front_cache_size
        )
        self._inflight: Dict[Tuple, _InFlight] = {}
        self._bundles: "OrderedDict[Tuple, tuple]" = OrderedDict()
        self._table = self._load_table()
        self._layout_fingerprints: Dict[str, str] = {}
        self._checkpoint = self._open_state()
        self._restore()
        # Overload resilience (docs/robustness.md, "Online resilience").
        self.admission = AdmissionController(
            capacity=config.max_inflight,
            queue_depth=config.queue_depth,
            queue_timeout_s=config.queue_timeout_s,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_failures,
            cooldown_s=config.breaker_cooldown_s,
            hang_timeout_s=config.hang_timeout_s,
        )
        self._chaos = (
            ChaosSpec.parse(config.chaos).injector()
            if config.chaos is not None
            else None
        )

    # -- crash-safe state ---------------------------------------------------------

    def _open_state(self) -> Optional[PhaseCheckpoint]:
        if self.config.state_dir is None:
            return None
        path = Path(self.config.state_dir)
        expect = {"format": STATE_FORMAT}
        if (path / MANIFEST_NAME).exists():
            run = RunDir.open(
                path, expect_kind=STATE_KIND, expect_config=expect
            )
        else:
            run = RunDir.create(path, STATE_KIND, expect, ("fronts",))
        return PhaseCheckpoint(run, "fronts")

    def _restore(self) -> None:
        """Reload the front cache from the last persisted snapshot."""
        if self._checkpoint is None:
            return
        saved = self._checkpoint.load()
        if saved is None:
            return
        self._front_cache.restore(
            saved["cache"],
            CachedFront.from_dict,
            key_fn=lambda value: value.query.key(),
        )
        self.metrics.record_restored(len(self._front_cache))

    def persist(self) -> None:
        """Atomically snapshot the front cache (counters included).

        Called after every cache-missing computation and at shutdown;
        a crash between calls loses at most fronts computed since the
        last call, never corrupts the snapshot (write-then-rename).
        """
        if self._checkpoint is None:
            return
        with self._lock:
            snapshot = self._front_cache.snapshot(CachedFront.to_dict)
        self._checkpoint.save({"format": STATE_FORMAT, "cache": snapshot})

    # -- tabular replay -----------------------------------------------------------

    def _load_table(self):
        """The configured tabular artifact, schema/checksum-verified.

        A bad artifact (corrupt columns, wrong schema, no recorded
        layout) raises at startup — refusing to serve beats serving
        fronts that silently came from the wrong table.
        """
        if self.config.table is None:
            return None
        # Local import: repro.tabular builds its columns through this
        # package's recipes, so the static dependency stays one-way.
        from repro.tabular import load_artifact

        return load_artifact(self.config.table)

    def _table_covers(self, query: FrontQuery, any_seed: bool = False) -> bool:
        """Whether the artifact can answer ``query`` bit-identically.

        Replay is only byte-equal to the live recipe when the table is
        exhaustive (the NSGA-II run samples freely), was built with the
        ``"front"`` recipe at the query's seed, has the query's device
        column, and fingerprints to the query's layout space. Anything
        else falls through to the live search — coverage is decided
        per query, never silently approximated. ``any_seed`` drops the
        seed condition: the degraded fallback's looser test.
        """
        table = self._table
        return (
            table is not None
            and table.exhaustive
            and table.recipe == "front"
            and (any_seed or table.build_seed == query.seed)
            and query.device in table.devices
            and self._fingerprint_matches(query.layout)
        )

    def _replay(self, query: FrontQuery, cancel=None) -> CachedFront:
        """``query`` answered from the artifact's columns."""
        result = replay_front_search(
            self._table.space,
            self._table,
            query.device,
            seed=query.seed,
            generations=query.generations,
            population_size=query.population_size,
            cancel=cancel,
        )
        return CachedFront.of(query, result)

    # -- evaluation ---------------------------------------------------------------

    def _bundle(self, device: str, layout: str, seed: int):
        """(space, surrogate, predictor) for a query, built once.

        The bundle is deterministic in its key, so the small LRU here
        is purely a wall-clock optimization shared by every query that
        agrees on device/layout/seed.
        """
        key = (device, layout, seed)
        with self._lock:
            if key in self._bundles:
                self._bundles.move_to_end(key)
                return self._bundles[key]
        # Built outside the lock: LUT builds take seconds and must not
        # block unrelated cache-hit traffic. Two racing builders do
        # redundant (identical) work; last insert wins harmlessly.
        space = space_for_layout(layout)
        stage = front_pipeline(
            space,
            device,
            seed,
            workers=self.config.workers,
            backend=self.config.backend,
        )
        bundle = (space, stage.surrogate, stage.build_predictor())
        with self._lock:
            self._bundles[key] = bundle
            self._bundles.move_to_end(key)
            while len(self._bundles) > PREDICTOR_CACHE_SIZE:
                self._bundles.popitem(last=False)
        return bundle

    def _compute(
        self, query: FrontQuery, warm: bool, cancel=None
    ) -> CachedFront:
        if self._table_covers(query):
            # Replay is milliseconds of column gathers — never breaker-
            # gated (it is itself the degraded-mode fallback) and never
            # chaos-faulted.
            cached = self._replay(query, cancel=cancel)
            self.metrics.record_front_computation(
                warm=warm, replayed=True
            )
            return cached
        # The breaker guards only live computation; allow() is called
        # outside self._lock so a cooling-down breaker never blocks
        # cache-hit traffic.
        if not self.breaker.allow():
            raise BreakerOpenError(
                "circuit open for live front computation "
                f"(state={self.breaker.state})"
            )
        started = time.perf_counter()
        try:
            if self._chaos is not None and not warm:
                # Warmup is exempt: a chaos daemon must still come up.
                self._chaos.inject()
            space, surrogate, predictor = self._bundle(
                query.device, query.layout, query.seed
            )
            result = front_search(
                space,
                predictor,
                seed=query.seed,
                generations=query.generations,
                population_size=query.population_size,
                workers=self.config.workers,
                backend=self.config.backend,
                surrogate=surrogate,
                cancel=cancel,
            )
        except DeadlineExceeded:
            # The client's deadline, not the backend's health — unless
            # the computation also blew the hang budget, in which case
            # the backend is the problem.
            elapsed = time.perf_counter() - started
            if (
                self.config.hang_timeout_s is not None
                and elapsed >= self.config.hang_timeout_s
            ):
                self.breaker.record_failure(hang=True)
            raise
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success(
            elapsed_s=time.perf_counter() - started
        )
        self.metrics.record_front_computation(warm=warm)
        if result.backend_stats is not None:
            self.metrics.add_backend_stats(result.backend_stats)
        return CachedFront.of(query, result)

    # -- the cached, coalescing front resolver ------------------------------------

    def _await_leader(self, key: Tuple, flight: _InFlight, cancel) -> bool:
        """Follower wait: ``True`` when the leader published, ``False``
        when it died unpublished (the stale flight is removed and the
        caller should retake leadership).

        The wait is bounded (:data:`_LEADER_POLL_S` per tick) so a
        leader thread that dies without running its ``finally`` block —
        killed, or torn down mid-compute — strands no followers; each
        tick also checks the follower's own deadline.
        """
        while not flight.ready.wait(timeout=_LEADER_POLL_S):
            if cancel is not None:
                cancel.check(stage="coalesce-wait")
            if not flight.leader.is_alive():
                with self._lock:
                    if self._inflight.get(key) is flight:
                        del self._inflight[key]
                self.metrics.record_leader_requeued()
                return False
        return True

    def front(
        self, query: FrontQuery, warm: bool = False, cancel=None
    ) -> CachedFront:
        """The front for ``query`` — cached, coalesced, bit-exact.

        Exactly one computation runs per canonical key at any moment;
        concurrent identical queries wait on it and share its result.
        ``cancel`` (a :class:`~repro.resilience.CancelToken`) bounds
        both the computation (checked per generation) and any coalesced
        wait.
        """
        key = query.key()
        while True:
            with self._lock:
                if query in self._front_cache:
                    # Counted hit + LRU touch; the eval_fn can never run.
                    return self._front_cache.get_or_eval(
                        query, _unreachable
                    )
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                self.metrics.record_coalesced()
                if not self._await_leader(key, flight, cancel):
                    # Leader died unpublished; retake leadership.
                    continue
                if flight.error is not None:
                    if isinstance(flight.error, DeadlineExceeded):
                        # The *leader's* deadline expired, not ours —
                        # recompute under our own (possibly absent)
                        # deadline instead of inheriting its 504.
                        continue
                    raise flight.error
                if flight.value is not None:
                    return flight.value
                # Leader vanished without a value (only possible on
                # interpreter teardown paths); recompute.
                continue
            try:
                value = self._compute(query, warm=warm, cancel=cancel)
                with self._lock:
                    # Counted miss + insertion (+ LRU eviction if full).
                    value = self._front_cache.get_or_eval(
                        query, lambda _q: value
                    )
                flight.value = value
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.ready.set()
            self.persist()
            return value

    # -- request-facing API --------------------------------------------------------

    def resolve(self, payload: dict, cancel=None) -> dict:
        """One query request -> one JSON-ready response.

        ``payload`` carries :class:`FrontQuery` fields plus an optional
        ``target_ms``; with a target, the response adds the most
        accurate front member within it (``best``/``feasible``) — the
        millisecond ``knee_under`` cut of the cached front. An optional
        ``deadline_ms`` field bounds the request (504 upstream on
        expiry); pre-built tokens arrive via ``cancel``.

        Healthy responses are byte-identical to the pre-resilience
        daemon (no new keys). When the circuit is open the response is
        served from a fallback and flagged ``"degraded": true`` with a
        ``degraded_reason`` — degraded fronts are never cached and
        never persisted.
        """
        return self._response(*self._lookup(payload, cancel))

    def resolve_bytes(self, payload: dict, cancel=None) -> bytes:
        """:meth:`resolve`, encoded: the body the daemon answers with.

        A healthy answer without ``target_ms`` is its entry's memoized
        :attr:`CachedFront.body`; every other answer is encoded anew.
        """
        query, target, cached, degraded_reason = self._lookup(
            payload, cancel
        )
        if target is None and degraded_reason is None:
            return cached.body
        return _json_bytes(
            self._response(query, target, cached, degraded_reason)
        )

    def _lookup(
        self, payload: dict, cancel
    ) -> Tuple[FrontQuery, Optional[float], CachedFront, Optional[str]]:
        """Parse one request and find its front: ``(query, target_ms,
        front, degraded_reason)``, the reason ``None`` when healthy."""
        payload = dict(payload)
        if cancel is None:
            cancel = cancel_token_from_payload(payload)
        else:
            payload.pop("deadline_ms", None)
        target = payload.pop("target_ms", None)
        if target is not None:
            try:
                target = float(target)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"target_ms must be a number: {target!r}"
                ) from exc
        query = FrontQuery.from_dict(payload)
        try:
            return query, target, self.front(query, cancel=cancel), None
        except BreakerOpenError:
            cached, degraded_reason = self._degraded_fallback(query)
            self.metrics.record_degraded()
            return query, target, cached, degraded_reason

    @staticmethod
    def _response(
        query: FrontQuery,
        target: Optional[float],
        cached: CachedFront,
        degraded_reason: Optional[str],
    ) -> dict:
        response = cached.response(query, target)
        if degraded_reason is not None:
            response["degraded"] = True
            response["degraded_reason"] = degraded_reason
            if cached.query != query:
                response["served_query"] = cached.query.to_dict()
        if target is not None:
            try:
                best = Nsga2Result(front=list(cached.front)).knee_under(
                    target
                )
            except ValueError:
                response["best"] = None
                response["feasible"] = False
            else:
                response["best"] = best.to_dict()
                response["feasible"] = True
        return response

    # -- graceful degradation ------------------------------------------------------

    def _fingerprint_matches(self, layout: str) -> bool:
        """Whether the loaded artifact fingerprints to ``layout``'s space."""
        with self._lock:
            fingerprint = self._layout_fingerprints.get(layout)
        if fingerprint is None:
            from repro.tabular import space_fingerprint

            # Computed outside the lock: deriving a fingerprint walks
            # the whole space definition. Two racing computations get
            # identical results; last insert wins harmlessly.
            fingerprint = space_fingerprint(space_for_layout(layout))
            with self._lock:
                self._layout_fingerprints[layout] = fingerprint
        return fingerprint == self._table.fingerprint

    def _degraded_fallback(
        self, query: FrontQuery
    ) -> Tuple[CachedFront, str]:
        """Answer ``query`` without live computation (circuit open).

        Preference order:

        1. **Tabular replay at the query's seed** when the artifact
           fingerprints to the query's layout and has its device —
           even though the columns were recorded at the *table's*
           build seed, so the bytes differ from a live search (which
           is exactly why the response is flagged degraded rather
           than served silently).
        2. **Nearest cached front** for the same (device, layout):
           deterministically the entry with the smallest seed distance
           (ties to the smaller seed).
        3. Nothing available: re-raise :class:`BreakerOpenError` (the
           HTTP layer sheds with 503 + ``Retry-After``).

        Fallback results are returned, never cached: the moment the
        breaker closes, the next identical query recomputes the real
        bytes.
        """
        if self._table_covers(query, any_seed=True):
            reason = (
                "circuit open; replayed from tabular artifact built "
                f"at seed {self._table.build_seed}"
            )
            return self._replay(query), reason
        with self._lock:
            candidates = [
                entry
                for entry in self._front_cache.values()
                if entry.query.device == query.device
                and entry.query.layout == query.layout
            ]
        if candidates:
            nearest = min(
                candidates,
                key=lambda e: (
                    abs(e.query.seed - query.seed),
                    e.query.seed,
                    e.query.key(),
                ),
            )
            reason = (
                "circuit open; nearest cached front "
                f"(seed {nearest.query.seed})"
            )
            return nearest, reason
        raise BreakerOpenError(
            "circuit open and no degraded fallback available "
            "(no covering table, no cached front for "
            f"{query.device}/{query.layout})"
        )

    def warm_start(self) -> int:
        """Precompute the configured warm fronts; returns how many
        were computed fresh (snapshot-restored ones are already warm)."""
        computed_before = self.metrics.total_front_computations()
        for query in self.config.warm:
            self.front(query, warm=True)
        return self.metrics.total_front_computations() - computed_before

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` payload (front-cache stats included)."""
        with self._lock:
            cache_stats = self._front_cache.stats()
        return self.metrics.snapshot(
            front_cache_stats=cache_stats,
            admission=self.admission.snapshot(),
            breaker=self.breaker.snapshot(),
        )

    def close(self) -> None:
        """Final persist — part of the graceful-drain contract."""
        self.persist()


def _unreachable(query: FrontQuery) -> CachedFront:
    raise AssertionError(
        f"cache hit for {query!r} invoked the eval function"
    )


__all__ = ["CachedFront", "SearchService", "cancel_token_from_payload"]
