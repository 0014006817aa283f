"""Serial vs parallel bit-exactness across every wired call site.

The contract under test: ``workers`` is a pure wall-clock knob. Every
assertion here is exact equality — no tolerances — between a serial run
and a run whose evaluations fanned out across worker processes.
"""

import os
import signal

import pytest

from repro.core import (
    EvaluationCache,
    EvolutionConfig,
    EvolutionarySearch,
    HSCoNAS,
    HSCoNASConfig,
    Nsga2Config,
    Nsga2Search,
    Objective,
    ProgressiveSpaceShrinking,
    SubspaceQuality,
)
from repro.hardware import LatencyLUT
from repro.hardware.calibration import calibrated_devices
from repro.parallel import create_backend, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

PARENT_PID = os.getpid()


def make_objective(space, state=None):
    """Deterministic FLOPs-based Eq. 1 objective (no device needed).

    ``state`` (a mutable dict) stands in for tunable supernet weights:
    mutating it changes every accuracy, the way tuning would.
    """
    state = state if state is not None else {"scale": 1.0}
    return Objective(
        accuracy_fn=lambda a: state["scale"] * space.arch_flops(a) / 3e8,
        latency_fn=lambda a: space.arch_flops(a) / 1e7,
        target_ms=15.0,
        beta=-0.3,
    )


class TestQualityEstimate:
    def test_estimate_matches_serial(self, proxy_space):
        obj = make_objective(proxy_space)
        serial = SubspaceQuality(obj, num_samples=40, seed=7).estimate(
            proxy_space
        )
        with create_backend(
            "multiprocess", obj.evaluate_many, workers=2
        ) as evaluator:
            parallel = SubspaceQuality(
                obj, num_samples=40, seed=7, evaluator=evaluator
            ).estimate(proxy_space)
        assert parallel == serial

    def test_estimate_many_matches_estimate_loop(self, proxy_space):
        obj = make_objective(proxy_space)
        subspaces = [
            proxy_space.fix_operator(0, op)
            for op in proxy_space.candidate_ops[0]
        ]
        loop = SubspaceQuality(obj, num_samples=25, seed=3)
        expected = [loop.estimate(s) for s in subspaces]
        with create_backend(
            "multiprocess", obj.evaluate_many, workers=2
        ) as evaluator:
            batched = SubspaceQuality(
                obj, num_samples=25, seed=3, evaluator=evaluator
            ).estimate_many(subspaces)
        assert batched == expected

    def test_estimate_many_preserves_shared_cache_accounting(
        self, proxy_space
    ):
        obj = make_objective(proxy_space)
        subspaces = [
            proxy_space.fix_operator(1, op)
            for op in proxy_space.candidate_ops[1]
        ]
        cache_loop = EvaluationCache()
        loop = SubspaceQuality(obj, num_samples=30, seed=9, cache=cache_loop)
        expected = [loop.estimate(s) for s in subspaces]
        cache_batch = EvaluationCache()
        batched = SubspaceQuality(
            obj, num_samples=30, seed=9, cache=cache_batch
        ).estimate_many(subspaces)
        assert batched == expected
        assert cache_batch.stats() == cache_loop.stats()

    def test_explicit_index_decouples_from_call_order(self, proxy_space):
        # The satellite fix: an estimate's draw depends only on its
        # index, never on how many estimates ran before it.
        obj = make_objective(proxy_space)
        s0 = proxy_space.fix_operator(0, 0)
        s1 = proxy_space.fix_operator(0, 1)
        a = SubspaceQuality(obj, num_samples=20, seed=5)
        q0_first = a.estimate(s0, index=0)
        q1_second = a.estimate(s1, index=1)
        b = SubspaceQuality(obj, num_samples=20, seed=5)
        assert b.estimate(s1, index=1) == q1_second
        assert b.estimate(s0, index=0) == q0_first

    def test_internal_counter_matches_explicit_indices(self, proxy_space):
        obj = make_objective(proxy_space)
        s = proxy_space.fix_operator(0, 2)
        implicit = SubspaceQuality(obj, num_samples=20, seed=5)
        explicit = SubspaceQuality(obj, num_samples=20, seed=5)
        assert implicit.estimate(s) == explicit.estimate(s, index=0)
        assert implicit.estimate(s) == explicit.estimate(s, index=1)

    def test_reserve_indices_are_consecutive(self, proxy_space):
        q = SubspaceQuality(make_objective(proxy_space), num_samples=5)
        assert q.reserve_indices(3) == [0, 1, 2]
        assert q.reserve_indices(2) == [3, 4]
        with pytest.raises(ValueError):
            q.reserve_indices(0)

    def test_index_count_mismatch_raises(self, proxy_space):
        q = SubspaceQuality(make_objective(proxy_space), num_samples=5)
        with pytest.raises(ValueError, match="indices"):
            q.estimate_many([proxy_space, proxy_space], indices=[0])


class TestWorkerItemAccounting:
    def test_parallel_map_reports_worker_items(self, proxy_space, rng):
        obj = make_objective(proxy_space)
        archs = [proxy_space.sample(rng) for _ in range(12)]
        counts = []
        with create_backend(
            "multiprocess", obj.evaluate_many, workers=2,
            on_worker_items=counts.append,
        ) as evaluator:
            evaluator.map(archs)
        assert sum(counts) == len(archs)

    def test_serial_map_reports_nothing(self, proxy_space, rng):
        # Inline evaluation already performs its own parent-side
        # accounting; replaying it would double-count.
        obj = make_objective(proxy_space)
        archs = [proxy_space.sample(rng) for _ in range(5)]
        counts = []
        with create_backend(
            "multiprocess", obj.evaluate_many, workers=0,
            on_worker_items=counts.append,
        ) as evaluator:
            evaluator.map(archs)
        assert counts == []


class TestShrinkEquivalence:
    def _run(self, space, workers, state=None):
        state = state if state is not None else {"scale": 1.0}
        obj = make_objective(space, state)
        cache = EvaluationCache()

        def tune_hook(shrunk_space, stage_idx):
            # Stands in for supernet tuning: every accuracy changes.
            state["scale"] *= 1.1

        with create_backend(
            "multiprocess", obj.evaluate_many, workers=workers
        ) as evaluator:
            quality = SubspaceQuality(
                obj,
                num_samples=20,
                seed=11,
                cache=cache,
                evaluator=evaluator,
            )
            return ProgressiveSpaceShrinking(
                quality, tune_hook=tune_hook
            ).run(space)

    def test_two_stage_shrink_identical(self, proxy_space):
        serial = self._run(proxy_space, workers=0)
        parallel = self._run(proxy_space, workers=2)
        assert parallel.to_dict() == serial.to_dict()
        assert parallel.final_space.candidate_ops == (
            serial.final_space.candidate_ops
        )
        assert len(serial.stages) == 2
        assert serial.cache_stats is not None
        assert len(serial.stage_cache_stats) == 2


class TestSearchEquivalence:
    def _ea(self, space, workers):
        obj = make_objective(space)
        cfg = EvolutionConfig(
            generations=4, population_size=12, num_parents=5, seed=2
        )
        cache = EvaluationCache()
        with create_backend(
            "multiprocess", obj.evaluate_many, workers=workers
        ) as evaluator:
            return EvolutionarySearch(
                space, obj, cfg, cache=cache, evaluator=evaluator
            ).run()

    def test_ea_identical(self, tiny_space):
        serial = self._ea(tiny_space, workers=0)
        parallel = self._ea(tiny_space, workers=2)
        assert parallel.to_dict() == serial.to_dict()
        assert parallel.cache_stats == serial.cache_stats

    def test_nsga2_identical(self, tiny_space):
        def run(workers):
            return Nsga2Search(
                tiny_space,
                accuracy_fn=lambda a: tiny_space.arch_flops(a) / 3e8,
                latency_fn=lambda a: tiny_space.arch_flops(a) / 1e7,
                config=Nsga2Config(
                    generations=4, population_size=8, seed=6
                ),
                workers=workers,
            ).run()

        serial = run(0)
        parallel = run(2)
        assert [p.arch for p in parallel.front] == [
            p.arch for p in serial.front
        ]
        assert [p.latency_ms for p in parallel.population] == [
            p.latency_ms for p in serial.population
        ]
        assert parallel.num_evaluations == serial.num_evaluations


class TestLutAndPipeline:
    def test_lut_build_identical(self, proxy_space):
        device = calibrated_devices()["edge"]
        serial = LatencyLUT.build(
            proxy_space, device, samples_per_cell=3, seed=4, workers=0
        )
        parallel = LatencyLUT.build(
            proxy_space, device, samples_per_cell=3, seed=4, workers=2
        )
        assert parallel.entries == serial.entries
        assert parallel.stem_ms == serial.stem_ms
        assert parallel.head_ms == serial.head_ms

    def test_full_pipeline_identical(self, proxy_space):
        device = calibrated_devices()["edge"]

        def run(workers):
            cfg = HSCoNASConfig(
                target_ms=34.0,
                seed=0,
                workers=workers,
                quality_samples=15,
                evolution=EvolutionConfig(
                    generations=3, population_size=8, num_parents=3, seed=3
                ),
            )
            return HSCoNAS(proxy_space, device, cfg).run()

        serial = run(0)
        parallel = run(2)
        assert parallel.arch == serial.arch
        assert parallel.search.to_dict() == serial.search.to_dict()
        assert parallel.shrink.to_dict() == serial.shrink.to_dict()
        assert parallel.predicted_latency_ms == serial.predicted_latency_ms
        assert parallel.measured_latency_ms == serial.measured_latency_ms
        # Search-cost accounting is part of the wall-clock-knob contract:
        # predictor queries made inside workers are replayed into the
        # parent ledger, so the cost summary matches the serial run.
        assert parallel.ledger.summary() == serial.ledger.summary()


class TestFaultInjection:
    def test_killed_worker_does_not_change_quality_estimate(
        self, proxy_space, tmp_path
    ):
        # A worker dies mid-chunk during a parallel quality estimate;
        # the retry must deliver the exact serial result.
        obj = make_objective(proxy_space)
        serial = SubspaceQuality(obj, num_samples=40, seed=7).estimate(
            proxy_space
        )
        sentinel = tmp_path / "kill"
        sentinel.touch()

        def murderous_eval_many(archs):
            try:
                os.remove(str(sentinel))
            except FileNotFoundError:
                pass
            else:
                if os.getpid() != PARENT_PID:
                    os.kill(os.getpid(), signal.SIGKILL)
            return obj.evaluate_many(archs)

        with create_backend(
            "multiprocess", murderous_eval_many, workers=2
        ) as evaluator:
            parallel = SubspaceQuality(
                obj, num_samples=40, seed=7, evaluator=evaluator
            ).estimate(proxy_space)
            stats = evaluator.stats()
        assert parallel == serial
        assert stats["pool_rebuilds"] >= 1
