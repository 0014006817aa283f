"""Interrupt/resume equivalence for every checkpointed component.

Each test kills a component mid-run (the checkpoint raises
``KeyboardInterrupt`` after N saves — the in-process stand-in for
SIGKILL; the subprocess version lives in
``tests/integration/test_crash_resume.py``), resumes from the saved
state, and asserts the result is bit-identical to an uninterrupted run.
"""

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    Objective,
    ProgressiveSpaceShrinking,
    SubspaceQuality,
)
from repro.core.cache import EvaluationCache
from repro.core.nsga2 import Nsga2Config, Nsga2Search
from repro.data import BatchLoader
from repro.runstate import MemoryCheckpoint
from repro.supernet import Supernet
from repro.train import SupernetTrainer, TrainConfig


class InterruptingCheckpoint(MemoryCheckpoint):
    """Raises KeyboardInterrupt right after the Nth save lands.

    The payload is already persisted when the interrupt fires — exactly
    the window a SIGKILL between checkpoint and next progress hits.
    """

    def __init__(self, stop_after):
        super().__init__()
        self.stop_after = stop_after

    def save(self, payload, complete=False):
        super().save(payload, complete=complete)
        if self.stop_after is not None and self.saves >= self.stop_after:
            self.stop_after = None  # resume runs to completion
            raise KeyboardInterrupt("injected crash after checkpoint")


def make_objective(space):
    return Objective(
        accuracy_fn=lambda a: min(1.0, (space.arch_flops(a) / 2.5e5) ** 0.5),
        latency_fn=lambda a: space.arch_flops(a) / 1e4,
        target_ms=15.0,
        beta=-0.5,
    )


def ea_fingerprint(result):
    return {
        "best": result.best.arch.key(),
        "best_score": result.best.score,
        "per_gen_best": [g.best.score for g in result.generations],
        "num_generations": len(result.generations),
        "num_evaluations": result.num_evaluations,
    }


class TestEvolutionResume:
    CFG = EvolutionConfig(
        generations=6, population_size=8, num_parents=4, seed=5
    )

    def test_resume_mid_run_is_bit_exact(self, proxy_space):
        obj = make_objective(proxy_space)
        baseline = EvolutionarySearch(proxy_space, obj, self.CFG).run()

        ckpt = InterruptingCheckpoint(stop_after=3)
        cache = EvaluationCache()
        with pytest.raises(KeyboardInterrupt):
            EvolutionarySearch(
                proxy_space, obj, self.CFG, cache=cache, checkpoint=ckpt
            ).run()
        # The pipeline restores the shared cache from owner_state; the
        # unit test stands that in by reusing the same cache object.
        resumed = EvolutionarySearch(
            proxy_space, obj, self.CFG, cache=cache, checkpoint=ckpt
        ).run()
        assert ea_fingerprint(resumed) == ea_fingerprint(baseline)


def nsga2_fingerprint(result):
    return {
        "front": [
            (p.arch.key(), p.latency_ms, p.accuracy) for p in result.front
        ],
        "population": [p.arch.key() for p in result.population],
        "num_evaluations": result.num_evaluations,
    }


class TestNsga2Resume:
    CFG = Nsga2Config(generations=5, population_size=8, seed=2)

    def _search(self, space, cache=None, checkpoint=None):
        return Nsga2Search(
            space,
            accuracy_fn=lambda a: space.arch_flops(a) / 3e5,
            latency_fn=lambda a: space.arch_flops(a) / 1e4,
            config=self.CFG,
            cache=cache,
            checkpoint=checkpoint,
        )

    def test_resume_mid_run_is_bit_exact(self, proxy_space):
        baseline = self._search(proxy_space).run()
        ckpt = InterruptingCheckpoint(stop_after=2)
        cache = EvaluationCache()
        with pytest.raises(KeyboardInterrupt):
            self._search(proxy_space, cache=cache, checkpoint=ckpt).run()
        resumed = self._search(proxy_space, cache=cache, checkpoint=ckpt).run()
        assert nsga2_fingerprint(resumed) == nsga2_fingerprint(baseline)


def run_search(engine, space, cache=None, checkpoint=None, **config):
    """Fingerprint of one ``engine`` run ("ea" or "nsga2")."""
    if engine == "ea":
        cfg = EvolutionConfig(num_parents=config["population_size"] // 2, **config)
        return ea_fingerprint(
            EvolutionarySearch(
                space, make_objective(space), cfg, cache=cache, checkpoint=checkpoint
            ).run()
        )
    return nsga2_fingerprint(
        Nsga2Search(
            space,
            accuracy_fn=lambda a: space.arch_flops(a) / 3e5,
            latency_fn=lambda a: space.arch_flops(a) / 1e4,
            config=Nsga2Config(**config),
            cache=cache,
            checkpoint=checkpoint,
        ).run()
    )


@pytest.mark.parametrize("engine", ["ea", "nsga2"])
class TestSearchResume:
    """Resume contracts the EA and NSGA-II share through one loop."""

    def test_resume_of_complete_run_skips_work(self, proxy_space, engine):
        cfg = dict(generations=6, population_size=8, seed=5)
        ckpt = MemoryCheckpoint()
        cache = EvaluationCache()
        first = run_search(engine, proxy_space, cache, ckpt, **cfg)
        misses, saves = cache.misses, ckpt.saves
        again = run_search(engine, proxy_space, cache, ckpt, **cfg)
        assert cache.misses == misses  # nothing re-evaluated
        assert ckpt.saves == saves  # nothing re-saved
        assert again == first

    def test_interrupt_at_every_boundary(self, proxy_space, engine):
        """No matter which checkpoint the crash lands on, resume matches."""
        cfg = dict(generations=3, population_size=6, seed=1)
        baseline = run_search(engine, proxy_space, **cfg)
        for stop_after in (1, 2, 3):
            ckpt = InterruptingCheckpoint(stop_after=stop_after)
            cache = EvaluationCache()
            with pytest.raises(KeyboardInterrupt):
                run_search(engine, proxy_space, cache, ckpt, **cfg)
            resumed = run_search(engine, proxy_space, cache, ckpt, **cfg)
            assert resumed == baseline, (
                f"mismatch when interrupted after save #{stop_after}"
            )


def shrink_fingerprint(result):
    return {
        "decisions": [
            (d.layer, d.chosen_op, d.qualities)
            for stage in result.stages
            for d in stage
        ],
        "sizes": result.stage_log10_sizes,
        "quality_evaluations": result.quality_evaluations,
        "final_ops": result.final_space.candidate_ops,
    }


class TestShrinkingResume:
    def _quality(self, space):
        return SubspaceQuality(
            make_objective(space), num_samples=20, seed=0
        )

    def test_resume_mid_stage_is_bit_exact(self, proxy_space):
        baseline = ProgressiveSpaceShrinking(
            self._quality(proxy_space)
        ).run(proxy_space)

        ckpt = InterruptingCheckpoint(stop_after=1)
        with pytest.raises(KeyboardInterrupt):
            ProgressiveSpaceShrinking(
                self._quality(proxy_space), checkpoint=ckpt
            ).run(proxy_space)
        resumed = ProgressiveSpaceShrinking(
            self._quality(proxy_space), checkpoint=ckpt
        ).run(proxy_space)
        assert shrink_fingerprint(resumed) == shrink_fingerprint(baseline)

    def test_completed_tune_hook_not_rerun(self, proxy_space):
        calls = []

        def hook(space, stage_idx):
            calls.append(stage_idx)

        # Saves: decision, stage record, tune hook, ... — interrupt
        # right after the tune-hook completion lands.
        ckpt = InterruptingCheckpoint(stop_after=3)
        with pytest.raises(KeyboardInterrupt):
            ProgressiveSpaceShrinking(
                self._quality(proxy_space), tune_hook=hook, checkpoint=ckpt
            ).run(proxy_space)
        assert calls == [0]
        ProgressiveSpaceShrinking(
            self._quality(proxy_space), tune_hook=hook, checkpoint=ckpt
        ).run(proxy_space)
        assert calls == [0]  # stage-0 tuning ran exactly once overall


class TestTrainerResume:
    def _trainer(self, tiny_space, tiny_dataset):
        supernet = Supernet(tiny_space, seed=0)
        loader = BatchLoader(
            tiny_dataset.train_x, tiny_dataset.train_y, batch_size=8, seed=0
        )
        return SupernetTrainer(
            supernet, loader, TrainConfig(base_lr=0.05, seed=0)
        )

    def test_resume_mid_training_is_bit_exact(self, tiny_space, tiny_dataset):
        baseline = self._trainer(tiny_space, tiny_dataset)
        losses = baseline.train_epochs(tiny_space, epochs=3)
        expected_weights = baseline.supernet.state_dict()

        ckpt = InterruptingCheckpoint(stop_after=1)
        with pytest.raises(KeyboardInterrupt):
            self._trainer(tiny_space, tiny_dataset).train_epochs(
                tiny_space, epochs=3, checkpoint=ckpt
            )
        resumed = self._trainer(tiny_space, tiny_dataset)
        resumed_losses = resumed.train_epochs(
            tiny_space, epochs=3, checkpoint=ckpt
        )
        assert resumed_losses == losses
        assert resumed.global_step == baseline.global_step
        restored = resumed.supernet.state_dict()
        assert set(restored) == set(expected_weights)
        for key, value in expected_weights.items():
            assert np.array_equal(restored[key], value), key

    def test_resume_of_complete_training_returns_losses(
        self, tiny_space, tiny_dataset
    ):
        ckpt = MemoryCheckpoint()
        first = self._trainer(tiny_space, tiny_dataset)
        losses = first.train_epochs(tiny_space, epochs=2, checkpoint=ckpt)
        again = self._trainer(tiny_space, tiny_dataset)
        assert again.train_epochs(
            tiny_space, epochs=2, checkpoint=ckpt
        ) == losses
        # The restored trainer carries the completed run's end state
        # (weights + step counter) without re-training anything.
        assert again.global_step == first.global_step
        assert ckpt.saves == 2  # no new checkpoint was written
