"""Cooperative deadline propagation through the search stack.

Contracts (docs/robustness.md, "Online resilience"):

* an expired token stops a search at the next per-generation check and
  the raised :class:`DeadlineExceeded` carries generation-granular
  partial progress;
* a token that never expires changes nothing — bit-identical results.
"""

import pytest

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    Nsga2Config,
    Nsga2Search,
)
from repro.resilience import CancelToken, DeadlineExceeded

from tests.core.test_evolution import make_objective


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, by: float) -> None:
        self.now += by


def _nsga2(space, cancel=None, generations=6):
    return Nsga2Search(
        space,
        accuracy_fn=lambda a: min(
            1.0, (space.arch_flops(a) / 2.5e5) ** 0.5
        ),
        latency_fn=lambda a: space.arch_flops(a) / 1e4,
        config=Nsga2Config(
            generations=generations, population_size=12, seed=0
        ),
        cancel=cancel,
    )


class TestNsga2Cancel:
    def test_pre_expired_token_raises_before_any_generation(
        self, proxy_space
    ):
        token = CancelToken()
        token.cancel()
        with pytest.raises(DeadlineExceeded) as excinfo:
            _nsga2(proxy_space, cancel=token).run()
        progress = excinfo.value.progress
        assert progress["stage"] == "nsga2"
        assert progress["generations_done"] == 0
        assert progress["total_generations"] == 6

    def test_mid_run_expiry_reports_partial_generations(
        self, proxy_space
    ):
        clock = FakeClock()
        token = CancelToken(deadline_s=100.0, clock=clock)
        search = _nsga2(proxy_space, cancel=token)

        # Expire the token after the third per-generation check by
        # driving the injected clock from the progress callback.
        original_check = token.check

        def ticking_check(**progress):
            if progress.get("generations_done", 0) >= 3:
                clock.advance(1000.0)
            original_check(**progress)

        token.check = ticking_check
        with pytest.raises(DeadlineExceeded) as excinfo:
            search.run()
        progress = excinfo.value.progress
        assert progress["generations_done"] == 3
        assert 0 < progress["evaluations"] <= 12 * 6
        # Cancellation granularity: the search stopped within one
        # generation of the expiry, not at the end of the run.
        assert progress["generations_done"] < 6

    def test_generous_token_is_bit_identical_to_no_token(
        self, proxy_space
    ):
        bare = _nsga2(proxy_space).run()
        timed = _nsga2(
            proxy_space, cancel=CancelToken(deadline_s=3600)
        ).run()
        assert [p.arch for p in bare.front] == [
            p.arch for p in timed.front
        ]
        assert [p.latency_ms for p in bare.front] == [
            p.latency_ms for p in timed.front
        ]
        assert [p.accuracy for p in bare.front] == [
            p.accuracy for p in timed.front
        ]


class TestEvolutionCancel:
    def _search(self, space, cancel=None):
        return EvolutionarySearch(
            space,
            make_objective(space),
            EvolutionConfig(
                generations=5,
                population_size=10,
                num_parents=5,
                seed=0,
            ),
            cancel=cancel,
        )

    def test_pre_expired_token_raises_with_progress(self, proxy_space):
        token = CancelToken()
        token.cancel()
        with pytest.raises(DeadlineExceeded) as excinfo:
            self._search(proxy_space, cancel=token).run()
        progress = excinfo.value.progress
        assert progress["stage"] == "evolution"
        assert progress["generations_done"] == 0
        assert progress["total_generations"] == 5

    def test_generous_token_is_bit_identical_to_no_token(
        self, proxy_space
    ):
        bare = self._search(proxy_space).run()
        timed = self._search(
            proxy_space, cancel=CancelToken(deadline_s=3600)
        ).run()
        assert bare.best.arch == timed.best.arch
        assert bare.best.score == timed.best.score
        assert len(bare.generations) == len(timed.generations)


def _evolution(space, cancel=None, generations=5):
    return EvolutionarySearch(
        space,
        make_objective(space),
        EvolutionConfig(
            generations=generations,
            population_size=10,
            num_parents=5,
            seed=0,
        ),
        cancel=cancel,
    )


@pytest.mark.parametrize("stage", ["evolution", "nsga2"])
def test_checks_count_generations_already_evaluated(proxy_space, stage):
    """One check per generation, before it is bred: 0, 1, ..., G-1."""
    make = {"evolution": _evolution, "nsga2": _nsga2}[stage]
    token = CancelToken(deadline_s=3600)
    done = []
    original_check = token.check

    def recording_check(**progress):
        # The evaluation backend also checks the token between
        # dispatches, under its own stage name.
        if progress.get("stage") == stage:
            done.append(progress["generations_done"])
        original_check(**progress)

    token.check = recording_check
    make(proxy_space, cancel=token, generations=5).run()
    assert done == [0, 1, 2, 3, 4]
