"""EvaluationBackend: factory semantics and cross-backend equivalence.

The contract under test: the backend is a pure dispatch knob. A search
run gives *byte-identical* results (JSON fingerprints of the
``SearchResult``) whether evaluations go through the default inline
path, an explicit :class:`SerialBackend`, the multiprocess backend, or
a :class:`TabularBackend` replaying recorded results.
"""

import json

import pytest

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    Nsga2Config,
    Nsga2Search,
    Objective,
    SubspaceQuality,
)
from repro.hardware import LatencyLUT, get_device
from repro.parallel import (
    BACKEND_NAMES,
    EvaluationBackend,
    SerialBackend,
    TabularBackend,
    WorkerPool,
    create_backend,
    fork_available,
)
from repro.space import space_for_layout
from repro.tabular import TabularBenchmark, tabulate

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)


def make_objective(space):
    """Deterministic FLOPs-based Eq. 1 objective (no device needed)."""
    return Objective(
        accuracy_fn=lambda a: space.arch_flops(a) / 3e8,
        latency_fn=lambda a: space.arch_flops(a) / 1e7,
        target_ms=15.0,
        beta=-0.3,
    )


def fingerprint(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


def nsga2_fingerprint(result) -> bytes:
    """Nsga2Result has no to_dict; serialize its fields directly."""
    payload = {
        "front": [
            (p.arch.key(), p.latency_ms, p.accuracy) for p in result.front
        ],
        "population": [
            (p.arch.key(), p.latency_ms, p.accuracy)
            for p in result.population
        ],
        "num_evaluations": result.num_evaluations,
    }
    return json.dumps(payload, sort_keys=True).encode()


def backend_name(name, workers):
    with create_backend(name, lambda a: a, workers=workers) as backend:
        return backend.name


class TestResolveAndFactory:
    def test_auto_resolution_tracks_workers(self):
        assert backend_name("auto", workers=0) == "serial"
        assert backend_name("auto", workers=1) == "serial"
        assert backend_name("auto", workers=2) == "multiprocess"
        assert backend_name("serial", workers=8) == "serial"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("threads", eval_many_fn=lambda a: a)

    def test_required_arguments(self):
        with pytest.raises(ValueError, match="eval_many_fn"):
            create_backend("serial")
        with pytest.raises(ValueError, match="eval_many_fn"):
            create_backend("multiprocess")

    def test_factory_types_and_names(self):
        serial = create_backend("serial", eval_many_fn=lambda a: a)
        assert isinstance(serial, SerialBackend)
        assert serial.name == "serial"
        mp = create_backend("multiprocess", eval_many_fn=lambda a: a)
        assert isinstance(mp, WorkerPool)
        assert isinstance(mp, EvaluationBackend)
        assert mp.name == "multiprocess"
        mp.close()
        tab = TabularBackend(lambda a: a)
        assert isinstance(tab, SerialBackend)
        assert tab.name == "tabular"
        assert BACKEND_NAMES == ("auto", "serial", "multiprocess")

    def test_multiprocess_stats_keys(self):
        with create_backend("multiprocess", lambda a: a, workers=2) as mp:
            mp.map([1, 2, 3])
            stats = mp.stats()
        assert set(stats) == {
            "backend", "batches", "items", "workers", "parallel",
            "chunks_dispatched", "chunk_retries", "serial_fallbacks",
            "pool_rebuilds", "hang_kills",
        }
        assert (stats["backend"], stats["batches"], stats["items"]) == (
            "multiprocess", 1, 3,
        )

    def test_factory_rejects_tabular(self):
        # Replay is not a live evaluation: the factory refuses the
        # name rather than evaluating live under it.
        with pytest.raises(ValueError, match="TabularBackend"):
            create_backend("tabular", eval_many_fn=lambda a: a)

    @pytest.mark.parametrize("builder", ["lut", "tabulate", "table"])
    def test_live_builders_reject_tabular(self, builder):
        space = space_for_layout("mini")
        with pytest.raises(ValueError, match="TabularBackend"):
            if builder == "lut":
                LatencyLUT.build(space, get_device("edge"), backend="tabular")
            elif builder == "tabulate":
                tabulate(space, ("edge",), num_archs=20, backend="tabular")
            else:
                TabularBenchmark.build(
                    space,
                    latency_fn=space.arch_flops,
                    accuracy_fn=space.arch_flops,
                    num_archs=20,
                    backend="tabular",
                )


BACKENDS = ("serial", "tabular", pytest.param("multiprocess", marks=needs_fork))


def make_backend(name, eval_many_fn):
    if name == "tabular":
        return TabularBackend(eval_many_fn)
    return create_backend(name, eval_many_fn, workers=2)


class TestSerialBackend:
    def test_map_preserves_order_and_counts(self):
        backend = SerialBackend(lambda archs: [a * 10 for a in archs])
        assert backend.map([3, 1, 2]) == [30, 10, 20]
        assert backend.map((4,)) == [40]
        assert backend.batches == 2
        assert backend.stats() == {
            "backend": "serial", "batches": 2, "items": 4,
        }

    @pytest.mark.parametrize("name", BACKENDS)
    def test_sync_and_context_manager(self, name):
        with make_backend(name, lambda archs: list(archs)) as backend:
            assert backend.map([1, 2]) == [1, 2]
            expected = "restarted" if name == "multiprocess" else "noop"
            assert backend.sync() == expected
        closed = []
        backend.close = lambda: closed.append(True)
        with backend:
            pass
        assert closed == [True]


class TestTabularBackend:
    def test_replays_and_raises_on_miss(self):
        table = {1: "one", 2: "two"}
        backend = TabularBackend(lambda archs: [table[a] for a in archs])
        assert backend.map([2, 1]) == ["two", "one"]
        with pytest.raises(KeyError):
            backend.map([3])

    def test_batched_replay_via_eval_many_fn(self):
        batches = []

        def gather(archs):
            batches.append(list(archs))
            return [a * 3 for a in archs]

        backend = TabularBackend(gather)
        assert backend.map([2, 1, 4]) == [6, 3, 12]
        # One vectorized gather per batch, never per-item lookups.
        assert batches == [[2, 1, 4]]
        assert backend.stats() == {
            "backend": "tabular", "batches": 1, "items": 3,
        }

    def test_batched_replay_miss_propagates(self):
        def gather(archs):
            raise KeyError("architecture not tabulated")

        backend = TabularBackend(eval_many_fn=gather)
        with pytest.raises(KeyError, match="not tabulated"):
            backend.map([1])

    def test_owns_its_map(self):
        # Instrumentation patches SerialBackend.map and TabularBackend.map
        # separately; an inherited map would count replay batches twice.
        assert "map" in vars(TabularBackend)


@needs_fork
class TestParallelEvaluatorSync:
    def test_sync_reforks_workers_onto_current_parent_state(self):
        state = {"offset": 0}

        def eval_many(archs):
            return [a + state["offset"] for a in archs]

        archs = [1, 2, 3, 4]
        with create_backend("multiprocess", eval_many, workers=2) as backend:
            assert backend.parallel
            assert backend.map(archs) == [1, 2, 3, 4]
            # The workers forked before the mutation: they keep their
            # snapshot until the pool is re-forked.
            state["offset"] = 100
            assert backend.map(archs) == [1, 2, 3, 4]
            assert backend.sync() == "restarted"
            assert backend.map(archs) == [101, 102, 103, 104]
            assert backend.stats()["chunks_dispatched"] > 0


class TestSearchFingerprints:
    CFG = dict(generations=3, population_size=10, num_parents=4, seed=5)

    def _run_ea(self, space, evaluator):
        obj = make_objective(space)
        return EvolutionarySearch(
            space, obj, EvolutionConfig(**self.CFG), evaluator=evaluator
        ).run()

    def test_explicit_serial_backend_matches_inline(self, proxy_space):
        baseline = fingerprint(self._run_ea(proxy_space, None))
        obj = make_objective(proxy_space)
        with create_backend("serial", obj.evaluate_many) as backend:
            explicit = fingerprint(self._run_ea(proxy_space, backend))
        assert explicit == baseline

    @needs_fork
    def test_multiprocess_backend_matches_inline(self, proxy_space):
        baseline = fingerprint(self._run_ea(proxy_space, None))
        obj = make_objective(proxy_space)
        with create_backend(
            "multiprocess", obj.evaluate_many, workers=2
        ) as backend:
            assert backend.parallel
            parallel = fingerprint(self._run_ea(proxy_space, backend))
        assert parallel == baseline

    def test_tabular_replay_matches_live_run(self, proxy_space):
        obj = make_objective(proxy_space)
        table = {}

        def recording_eval_many(archs):
            results = obj.evaluate_many(archs)
            for arch, res in zip(archs, results):
                table[arch.key()] = res
            return results

        with create_backend("serial", recording_eval_many) as backend:
            live = fingerprint(self._run_ea(proxy_space, backend))
        # Replay: same seeds -> same candidate stream -> every lookup
        # hits; a miss would KeyError, which is the tabular contract.
        with TabularBackend(
            lambda archs: [table[a.key()] for a in archs]
        ) as backend:
            replay = fingerprint(self._run_ea(proxy_space, backend))
        assert replay == live

    def test_quality_estimate_identical_across_backends(self, proxy_space):
        obj = make_objective(proxy_space)
        baseline = SubspaceQuality(obj, num_samples=30, seed=7).estimate(
            proxy_space
        )
        with create_backend("serial", obj.evaluate_many) as backend:
            serial = SubspaceQuality(
                obj, num_samples=30, seed=7, evaluator=backend
            ).estimate(proxy_space)
        assert serial == baseline

    def test_nsga2_identical_across_backends(self, proxy_space):
        obj = make_objective(proxy_space)

        def run(**kwargs):
            return Nsga2Search(
                proxy_space,
                accuracy_fn=obj.accuracy_fn,
                latency_fn=obj.latency_fn,
                config=Nsga2Config(
                    generations=3, population_size=12, seed=2
                ),
                **kwargs,
            ).run()

        baseline = nsga2_fingerprint(run())
        explicit = nsga2_fingerprint(run(backend="serial"))
        assert explicit == baseline

    @needs_fork
    def test_nsga2_multiprocess_matches_serial(self, proxy_space):
        obj = make_objective(proxy_space)

        def run(**kwargs):
            return Nsga2Search(
                proxy_space,
                accuracy_fn=obj.accuracy_fn,
                latency_fn=obj.latency_fn,
                config=Nsga2Config(
                    generations=3, population_size=12, seed=2
                ),
                **kwargs,
            ).run()

        baseline = nsga2_fingerprint(run())
        parallel = nsga2_fingerprint(run(backend="multiprocess", workers=2))
        assert parallel == baseline

    def test_base_class_map_is_abstract(self):
        backend = EvaluationBackend()
        with pytest.raises(NotImplementedError):
            backend.map([1])
