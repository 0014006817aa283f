"""SearchService: caching, coalescing, bit-exactness, warm restart."""

import json
import threading
import time
from dataclasses import replace

import pytest

from repro.accuracy import AccuracySurrogate
from repro.serve import FrontQuery, SearchService, ServeConfig
from repro.serve.pipeline import (
    build_front_predictor,
    front_search,
    space_for_layout,
)
from repro.serve.service import CachedFront, _json_bytes

from tests.serve.conftest import SMALL_QUERY_KW

# The expected EvaluationCache.stats() schema — the single cache-stats
# shape shared by SearchResult, ShrinkResult, and /metrics.
CACHE_STATS_KEYS = {"size", "hits", "misses", "evictions", "hit_rate"}


def _offline_front(query: FrontQuery):
    """The offline pipeline run with entirely fresh objects."""
    space = space_for_layout(query.layout)
    predictor = build_front_predictor(space, query.device, query.seed)
    return front_search(
        space,
        predictor,
        seed=query.seed,
        generations=query.generations,
        population_size=query.population_size,
        backend="serial",
        surrogate=AccuracySurrogate(space),
    )


class TestCachingAndExactness:
    def test_served_front_is_bit_identical_to_offline(
        self, serial_config, small_query
    ):
        service = SearchService(serial_config)
        served = service.front(small_query)
        offline = _offline_front(small_query)
        assert served.num_evaluations == offline.num_evaluations
        assert len(served.front) == len(offline.front)
        for got, want in zip(served.front, offline.front):
            assert got.arch.ops == want.arch.ops
            assert got.arch.factors == want.arch.factors
            assert got.latency_ms == want.latency_ms  # bit-equal floats
            assert got.accuracy == want.accuracy

    def test_repeat_query_is_a_cache_hit_not_a_recompute(
        self, serial_config, small_query
    ):
        service = SearchService(serial_config)
        first = service.front(small_query)
        second = service.front(small_query)
        assert second is first
        assert service.metrics.front_computations == 1
        stats = service.metrics_snapshot()["front_cache"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction_with_tiny_cache(self, serial_config):
        config = replace(serial_config, front_cache_size=1)
        service = SearchService(config)
        q1 = FrontQuery(**SMALL_QUERY_KW)
        q2 = replace(q1, seed=q1.seed + 1)
        service.front(q1)
        service.front(q2)  # evicts q1
        service.front(q1)  # recompute
        assert service.metrics.front_computations == 3
        stats = service.metrics_snapshot()["front_cache"]
        assert stats["evictions"] == 2
        assert stats["size"] == 1

    def test_metrics_cache_stats_use_the_shared_schema(
        self, serial_config, small_query
    ):
        service = SearchService(serial_config)
        service.front(small_query)
        stats = service.metrics_snapshot()["front_cache"]
        assert set(stats) == CACHE_STATS_KEYS

    def test_backend_dispatch_counters_roll_up(
        self, serial_config, small_query
    ):
        service = SearchService(serial_config)
        served = service.front(small_query)
        backend = service.metrics_snapshot()["backend"]
        assert backend["runs_by_backend"] == {"serial": 1}
        assert backend["items"] == served.num_evaluations
        assert backend["batches"] >= 1


class TestResolve:
    def test_resolve_with_target_adds_knee_cut(
        self, serial_config, small_query
    ):
        service = SearchService(serial_config)
        response = service.resolve(
            {**SMALL_QUERY_KW, "target_ms": 1e9}
        )
        assert response["feasible"] is True
        assert response["best"] in response["front"]
        assert response["query"] == small_query.to_dict()

    def test_resolve_with_unreachable_target_is_infeasible(
        self, serial_config
    ):
        service = SearchService(serial_config)
        response = service.resolve(
            {**SMALL_QUERY_KW, "target_ms": 1e-9}
        )
        assert response["feasible"] is False
        assert response["best"] is None
        assert response["front"]  # the front itself is still served

    def test_resolve_without_target_omits_best(self, serial_config):
        service = SearchService(serial_config)
        response = service.resolve(dict(SMALL_QUERY_KW))
        assert "best" not in response and "feasible" not in response

    def test_resolve_rejects_bad_target_and_unknown_fields(
        self, serial_config
    ):
        service = SearchService(serial_config)
        with pytest.raises(ValueError, match="target_ms"):
            service.resolve({**SMALL_QUERY_KW, "target_ms": "soon"})
        with pytest.raises(ValueError, match="unknown query field"):
            service.resolve({**SMALL_QUERY_KW, "tarmac": 1})


def _gate_compute(monkeypatch):
    """Patch _compute to block until released, counting real calls."""
    release = threading.Event()
    computed = []
    original = SearchService._compute

    def gated(self, query, warm, cancel=None):
        computed.append(query)
        assert release.wait(timeout=60), "gate never released"
        return original(self, query, warm, cancel=cancel)

    monkeypatch.setattr(SearchService, "_compute", gated)
    return release, computed


def _await_value(read, want, timeout=30.0):
    deadline = time.monotonic() + timeout
    while read() < want:
        assert time.monotonic() < deadline, "condition never reached"
        time.sleep(0.005)


class TestCoalescing:
    def test_identical_concurrent_queries_share_one_computation(
        self, monkeypatch, serial_config, small_query
    ):
        service = SearchService(serial_config)
        release, computed = _gate_compute(monkeypatch)
        results = [None] * 5

        def worker(i):
            results[i] = service.front(small_query)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(5)
        ]
        for t in threads:
            t.start()
        # One leader is inside the gated compute; the other four must
        # all have registered as coalesced followers before we release.
        _await_value(lambda: service.metrics.coalesced, 4)
        assert len(computed) == 1
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert len(computed) == 1
        assert all(r is results[0] for r in results)
        # Identical object => identical serialized bytes, trivially.
        payloads = {
            json.dumps(r.to_dict(), sort_keys=True) for r in results
        }
        assert len(payloads) == 1
        assert service.metrics.front_computations == 1

    def test_queries_differing_by_seed_do_not_coalesce(
        self, monkeypatch, serial_config, small_query
    ):
        service = SearchService(serial_config)
        release, computed = _gate_compute(monkeypatch)
        other = replace(small_query, seed=small_query.seed + 1)
        results = {}

        def worker(query):
            results[query.seed] = service.front(query)

        threads = [
            threading.Thread(target=worker, args=(q,))
            for q in (small_query, other)
        ]
        for t in threads:
            t.start()
        # Both are leaders of distinct keys: two real computations are
        # in flight simultaneously, nobody coalesces.
        _await_value(lambda: len(computed), 2)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert service.metrics.coalesced == 0
        assert service.metrics.front_computations == 2
        assert results[small_query.seed].query != results[other.seed].query

    def test_leader_failure_propagates_to_followers(
        self, monkeypatch, serial_config, small_query
    ):
        service = SearchService(serial_config)
        release = threading.Event()

        def exploding(self, query, warm, cancel=None):
            assert release.wait(timeout=60)
            raise RuntimeError("boom")

        monkeypatch.setattr(SearchService, "_compute", exploding)
        errors = []

        def worker():
            try:
                service.front(small_query)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        _await_value(lambda: service.metrics.coalesced, 2)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert errors == ["boom"] * 3
        # A failed computation must not poison the cache.
        assert len(service._front_cache) == 0
        assert not service._inflight


class TestWarmRestart:
    def test_restart_restores_and_serves_identical_bytes(
        self, tmp_path, small_query
    ):
        config = ServeConfig(
            backend="serial", quiet=True, state_dir=str(tmp_path / "state")
        )
        first = SearchService(config)
        served = first.front(small_query)
        payload = json.dumps(served.to_dict(), sort_keys=True)
        # No close(): persist-after-compute alone must survive a kill.
        del first

        second = SearchService(config)
        assert second.metrics.restored_fronts == 1
        restored = second.front(small_query)
        assert second.metrics.front_computations == 0
        assert json.dumps(restored.to_dict(), sort_keys=True) == payload

    def test_warm_start_precomputes_and_restores_skip_recompute(
        self, tmp_path, small_query
    ):
        config = ServeConfig(
            backend="serial",
            quiet=True,
            state_dir=str(tmp_path / "state"),
            warm=(small_query,),
        )
        first = SearchService(config)
        assert first.warm_start() == 1
        assert first.metrics.warm_precomputed == 1
        first.close()

        second = SearchService(config)
        assert second.warm_start() == 0  # satisfied from the snapshot
        assert second.metrics.front_computations == 0

    def test_cached_front_roundtrips_through_snapshot_payload(
        self, serial_config, small_query
    ):
        service = SearchService(serial_config)
        served = service.front(small_query)
        clone = CachedFront.from_dict(
            json.loads(json.dumps(served.to_dict()))
        )
        assert clone == served
        assert clone.key() == small_query.key()


class TestEncodedBody:
    """A healthy answer without ``target_ms`` is encoded once per cached
    front; every other answer is encoded per request."""

    def test_computed_front_is_encoded_once(self, serial_config):
        service = SearchService(serial_config)
        payload = dict(SMALL_QUERY_KW)
        body = service.resolve_bytes(payload)
        assert body == _json_bytes(service.resolve(payload))
        assert service.resolve_bytes(payload) is body

    def test_coalesced_followers_share_the_leaders_body(
        self, monkeypatch, serial_config
    ):
        service = SearchService(serial_config)
        release, computed = _gate_compute(monkeypatch)
        bodies = [None] * 3

        def worker(i):
            bodies[i] = service.resolve_bytes(dict(SMALL_QUERY_KW))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        _await_value(lambda: service.metrics.coalesced, 2)
        release.set()
        for t in threads:
            t.join(timeout=60)
        assert len(computed) == 1
        assert all(body is bodies[0] for body in bodies)
        assert bodies[0] == _json_bytes(service.resolve(dict(SMALL_QUERY_KW)))

    def test_restored_front_encodes_the_same_bytes(self, tmp_path):
        config = ServeConfig(
            backend="serial", quiet=True, state_dir=str(tmp_path / "state")
        )
        payload = dict(SMALL_QUERY_KW)
        first = SearchService(config)
        body = first.resolve_bytes(payload)
        first.close()
        saved = first._checkpoint.load()["cache"]["entries"]
        # The snapshot holds the front, not its encoded bytes.
        assert [set(entry) for entry in saved] == [
            {"query", "front", "num_evaluations"}
        ]

        second = SearchService(config)
        assert second.resolve_bytes(payload) == body
        assert _json_bytes(second.resolve(payload)) == body
        assert second.metrics.front_computations == 0

    def test_target_and_degraded_answers_are_never_memoized(
        self, small_query
    ):
        service = SearchService(
            ServeConfig(backend="serial", quiet=True, breaker_failures=1)
        )
        with_target = {**SMALL_QUERY_KW, "target_ms": 1e9}
        body = service.resolve_bytes(with_target)
        assert body == _json_bytes(service.resolve(with_target))
        entry = service.front(small_query)
        assert "body" not in vars(entry)

        service.breaker.record_failure()
        degraded = {**SMALL_QUERY_KW, "seed": small_query.seed + 6}
        body = service.resolve_bytes(degraded)
        assert json.loads(body)["degraded"] is True
        assert body == _json_bytes(service.resolve(degraded))
        assert "body" not in vars(entry)
