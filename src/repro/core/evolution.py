"""Evolutionary architecture search (paper Sec. III-D).

The EA maximizes the Eq. 1 objective over the (shrunk) search space with
the paper's hyper-parameters: 20 generations, population 50, 20 parents,
crossover probability 0.25 and mutation probability 0.25. Crossover and
mutation act on *both* the operator gene and the channel-factor gene of
each layer — "efficient explorations not only on the operator level but
also on the channel level".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.generational import GenerationalSearch
from repro.core.objective import EvaluatedArch, Objective
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


@dataclass(frozen=True)
class EvolutionConfig:
    """EA hyper-parameters; defaults match the paper."""

    generations: int = 20
    population_size: int = 50
    num_parents: int = 20
    crossover_prob: float = 0.25
    mutation_prob: float = 0.25
    per_layer_mutation_prob: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 1 or self.population_size < 2:
            raise ValueError("need >= 1 generation and population >= 2")
        if not 1 <= self.num_parents <= self.population_size:
            raise ValueError("num_parents must be in [1, population_size]")
        for p in (self.crossover_prob, self.mutation_prob, self.per_layer_mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


@dataclass
class GenerationRecord:
    """Everything evaluated in one generation."""

    index: int
    population: List[EvaluatedArch]

    @property
    def best(self) -> EvaluatedArch:
        return max(self.population, key=lambda e: e.score)

    def latencies(self) -> List[float]:
        return [e.latency_ms for e in self.population]

    def accuracies(self) -> List[float]:
        return [e.accuracy for e in self.population]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "population": [e.to_dict() for e in self.population],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GenerationRecord":
        return cls(
            index=int(payload["index"]),
            population=[EvaluatedArch.from_dict(e) for e in payload["population"]],
        )


@dataclass
class SearchResult:
    """Outcome of one EA run."""

    best: EvaluatedArch
    generations: List[GenerationRecord] = field(default_factory=list)
    num_evaluations: int = 0
    # Hit/miss/size counters of the evaluation cache at the end of the
    # run — how much of the search the memo actually absorbed.
    cache_stats: Optional[dict] = None

    def all_evaluated(self) -> List[EvaluatedArch]:
        return [e for g in self.generations for e in g.population]

    def best_per_generation(self) -> List[EvaluatedArch]:
        return [g.best for g in self.generations]

    # -- (de)serialization (archiving search runs as JSON artifacts) --------

    def to_dict(self) -> dict:
        return {
            "best": self.best.to_dict(),
            "num_evaluations": self.num_evaluations,
            "cache_stats": self.cache_stats,
            "generations": [g.to_dict() for g in self.generations],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchResult":
        result = cls(best=EvaluatedArch.from_dict(payload["best"]))
        result.num_evaluations = int(payload["num_evaluations"])
        result.cache_stats = payload.get("cache_stats")
        result.generations = [
            GenerationRecord.from_dict(g) for g in payload["generations"]
        ]
        return result


class EvolutionarySearch(GenerationalSearch):
    """Regularized-evolution-style search over a :class:`SearchSpace`.

    Parameters
    ----------
    space, objective, config:
        The (shrunk) search space, the Eq. 1 objective, and the EA
        hyper-parameters.
    cache:
        Optional shared :class:`~repro.core.cache.EvaluationCache`. The
        pipeline passes the same cache it used during space shrinking so
        architectures already scored there are free; by default the
        search memoizes privately (weight sharing makes re-evaluation
        cheap but the predictor result is deterministic anyway).
    evaluator:
        Optional :class:`~repro.parallel.EvaluationBackend`; the
        multiprocess one (:class:`~repro.parallel.WorkerPool`) fans
        each generation's evaluations across worker processes. Breeding
        (all rng use) stays in the parent, so results are bit-identical
        with or without it.
    checkpoint:
        Optional checkpoint slot (e.g.
        :class:`~repro.runstate.PhaseCheckpoint`). When set, the search
        saves its full resumable state — rng stream, every generation
        evaluated so far, and the evaluation count — after each
        generation, and :meth:`run` continues from the saved point
        instead of starting over. A resumed run is bit-identical to an
        uninterrupted one.
    cancel:
        Optional cooperative :class:`~repro.resilience.CancelToken`,
        checked once per generation (and forwarded to the evaluator
        between dispatches). Expiry raises
        :class:`~repro.resilience.DeadlineExceeded` carrying the
        generation counters as partial progress; combined with a
        checkpoint, the generations completed before expiry remain
        resumable. Checks draw no randomness, so a run that finishes in
        time is bit-identical with or without a token.
    """

    STAGE = "evolution"

    def __init__(
        self,
        space: SearchSpace,
        objective: Objective,
        config: Optional[EvolutionConfig] = None,
        cache: Optional[EvaluationCache] = None,
        evaluator=None,
        checkpoint=None,
        cancel=None,
    ):
        super().__init__(
            space,
            config if config is not None else EvolutionConfig(),
            cache,
            checkpoint,
            cancel,
        )
        self.objective = objective
        self.evaluator = evaluator
        self._result: Optional[SearchResult] = None

    def run(self) -> SearchResult:
        """Run the EA; deterministic for a fixed config seed.

        A run resumed from a checkpoint — killed at any point — matches
        the uninterrupted run in every number of the final
        :class:`SearchResult`.
        """
        self._evolve(self.evaluator, self.objective.evaluate_many)
        self._result.num_evaluations = self._evaluations()
        self._result.cache_stats = self.cache.stats()
        return self._result

    # -- generational hooks ------------------------------------------------------

    def _initial_archs(self, rng: np.random.Generator) -> List[Architecture]:
        return self.space.sample_many(rng, self.config.population_size)

    def _select(self, population: List[EvaluatedArch]) -> List[EvaluatedArch]:
        # Elitism: parents survive; the rest of the population is
        # regenerated from them.
        ranked = sorted(population, key=lambda e: e.score, reverse=True)
        return ranked[: self.config.num_parents]

    def _record(self, gen: int, population: List[EvaluatedArch]) -> None:
        record = GenerationRecord(gen, population)
        best = record.best
        if gen == 0:
            self._result = SearchResult(best=best)
        elif best.score > self._result.best.score:
            self._result.best = best
        self._result.generations.append(record)

    def _state(self, next_generation: int) -> dict:
        return {
            "next_generation": next_generation,
            "best": self._result.best.to_dict(),
            "generations": [g.to_dict() for g in self._result.generations],
        }

    def _restore(self, saved: dict) -> Tuple[int, List[EvaluatedArch]]:
        self._result = SearchResult(
            best=EvaluatedArch.from_dict(saved["best"]),
            generations=[GenerationRecord.from_dict(g) for g in saved["generations"]],
        )
        return int(saved["next_generation"]), self._result.generations[-1].population


class RandomSearch:
    """Uniform random search baseline (the EA ablation comparator)."""

    def __init__(self, space: SearchSpace, objective: Objective, budget: int, seed: int = 0):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.space = space
        self.objective = objective
        self.budget = budget
        self.seed = seed

    def run(self) -> SearchResult:
        rng = np.random.default_rng(self.seed)
        evaluated = [
            self.objective.evaluate(arch)
            for arch in self.space.sample_many(rng, self.budget)
        ]
        record = GenerationRecord(0, evaluated)
        return SearchResult(
            best=record.best,
            generations=[record],
            num_evaluations=len(evaluated),
        )
