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
from typing import List, Optional

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.objective import EvaluatedArch, Objective
from repro.runstate.rng import generator_state, set_generator_state
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace, pick

CHECKPOINT_FORMAT = 1


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
            "generations": [
                {
                    "index": g.index,
                    "population": [e.to_dict() for e in g.population],
                }
                for g in self.generations
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchResult":
        result = cls(best=EvaluatedArch.from_dict(payload["best"]))
        result.num_evaluations = int(payload["num_evaluations"])
        result.cache_stats = payload.get("cache_stats")
        result.generations = [
            GenerationRecord(
                index=int(g["index"]),
                population=[
                    EvaluatedArch.from_dict(e) for e in g["population"]
                ],
            )
            for g in payload["generations"]
        ]
        return result


class EvolutionarySearch:
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
        Optional :class:`~repro.parallel.ParallelEvaluator` that fans
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
        self.space = space
        self.objective = objective
        self.config = config if config is not None else EvolutionConfig()
        self.cache = cache if cache is not None else EvaluationCache()
        self.evaluator = evaluator
        self.checkpoint = checkpoint
        self.cancel = cancel

    # -- genetic operators ------------------------------------------------------

    def _crossover(
        self, a: Architecture, b: Architecture, rng: np.random.Generator
    ) -> Architecture:
        """Uniform crossover: each layer's (op, factor) pair comes from
        one of the two parents."""
        take_a = rng.random(a.num_layers) < 0.5
        ops = tuple(
            a.ops[i] if take_a[i] else b.ops[i] for i in range(a.num_layers)
        )
        factors = tuple(
            a.factors[i] if take_a[i] else b.factors[i] for i in range(a.num_layers)
        )
        return Architecture(ops, factors)

    def _mutate(self, arch: Architecture, rng: np.random.Generator) -> Architecture:
        """Per-layer resampling of the op and/or factor genes."""
        ops = list(arch.ops)
        factors = list(arch.factors)
        p = self.config.per_layer_mutation_prob
        for layer in range(arch.num_layers):
            if rng.random() < p:
                ops[layer] = pick(rng, self.space.candidate_ops[layer])
            if rng.random() < p:
                factors[layer] = pick(rng, self.space.candidate_factors[layer])
        return Architecture(tuple(ops), tuple(factors))

    def _make_child(
        self, parents: List[EvaluatedArch], rng: np.random.Generator
    ) -> Architecture:
        """One offspring: crossover w.p. 0.25, mutation w.p. 0.25,
        otherwise clone a parent (then dedup forces diversity)."""
        idx = rng.integers(len(parents))
        child = parents[idx].arch
        if rng.random() < self.config.crossover_prob and len(parents) > 1:
            other = parents[int(rng.integers(len(parents)))].arch
            child = self._crossover(child, other, rng)
        if rng.random() < self.config.mutation_prob:
            child = self._mutate(child, rng)
        return child

    # -- cancellation ------------------------------------------------------------

    def _check_cancel(self, generations_done: int, misses_before: int) -> None:
        if self.cancel is not None:
            self.cancel.check(
                stage="evolution",
                generations_done=generations_done,
                total_generations=self.config.generations,
                evaluations=self.cache.misses - misses_before,
            )

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, arch: Architecture) -> EvaluatedArch:
        return self.cache.get_or_eval(arch, self.objective.evaluate)

    def _eval_batch(self, archs: List[Architecture]) -> List[EvaluatedArch]:
        """Score a batch through the cache (misses fan out if parallel).

        Batched semantics are bit-identical to mapping :meth:`_evaluate`:
        misses are evaluated in first-occurrence order, duplicate and
        already-cached architectures cost the same hits, and
        ``Objective.evaluate_many`` matches ``evaluate`` per item.
        """
        eval_many = (
            self.evaluator.map
            if self.evaluator is not None
            else self.objective.evaluate_many
        )
        return self.cache.get_or_eval_many(archs, eval_many)

    # -- checkpointing -----------------------------------------------------------

    def _save_checkpoint(
        self,
        rng: np.random.Generator,
        result: SearchResult,
        misses_before: int,
        next_generation: int,
        complete: bool = False,
    ) -> None:
        if self.checkpoint is None:
            return
        self.checkpoint.save(
            {
                "format": CHECKPOINT_FORMAT,
                "next_generation": next_generation,
                "rng": generator_state(rng),
                "best": result.best.to_dict(),
                "generations": [
                    {
                        "index": g.index,
                        "population": [e.to_dict() for e in g.population],
                    }
                    for g in result.generations
                ],
                # Fresh-evaluation count relative to *this run's* cache
                # baseline; a resumed run re-derives its baseline from
                # it so the final ``num_evaluations`` matches exactly.
                "evaluations_so_far": self.cache.misses - misses_before,
            },
            complete=complete,
        )

    def _restore(self, saved: dict) -> SearchResult:
        if int(saved.get("format", 0)) != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported EA checkpoint format {saved.get('format')!r}"
            )
        result = SearchResult(best=EvaluatedArch.from_dict(saved["best"]))
        result.generations = [
            GenerationRecord(
                index=int(g["index"]),
                population=[
                    EvaluatedArch.from_dict(e) for e in g["population"]
                ],
            )
            for g in saved["generations"]
        ]
        return result

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SearchResult:
        """Run the EA; deterministic for a fixed config seed.

        Each generation *breeds* first (every rng draw, dedup, and
        containment check — parent-side, sequential) and *evaluates*
        second (one batch). Evaluation consumes no randomness, so the
        reordering leaves the rng stream — and therefore the whole
        run — identical to evaluating each child as it is bred.

        With a ``checkpoint``, a run killed at any point replays the
        completed generations from the saved state (restoring the rng
        stream mid-sequence) and continues; every number in the final
        :class:`SearchResult` matches the uninterrupted run.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        misses_before = self.cache.misses

        result: Optional[SearchResult] = None
        start_gen = 1
        if self.checkpoint is not None:
            saved = self.checkpoint.load()
            if saved is not None:
                result = self._restore(saved)
                set_generator_state(rng, saved["rng"])
                misses_before = self.cache.misses - int(
                    saved["evaluations_so_far"]
                )
                start_gen = int(saved["next_generation"])
                if self.checkpoint.is_complete():
                    result.num_evaluations = self.cache.misses - misses_before
                    result.cache_stats = self.cache.stats()
                    return result

        forwarded_cancel = self.cancel is not None and hasattr(
            self.evaluator, "set_cancel"
        )
        if forwarded_cancel:
            self.evaluator.set_cancel(self.cancel)
        try:
            if result is None:
                self._check_cancel(0, misses_before)
                population = self._eval_batch(
                    [
                        self.space.sample(rng)
                        for _ in range(cfg.population_size)
                    ]
                )
                result = SearchResult(
                    best=max(population, key=lambda e: e.score)
                )
                result.generations.append(
                    GenerationRecord(0, list(population))
                )
                self._save_checkpoint(
                    rng, result, misses_before, next_generation=1
                )
            else:
                population = list(result.generations[-1].population)

            for gen in range(start_gen, cfg.generations):
                self._check_cancel(gen, misses_before)
                self._run_generation(
                    gen, population, result, rng, misses_before
                )
                population = result.generations[-1].population
        finally:
            # The evaluator outlives this run (the caller owns it);
            # leaving a request-scoped token installed would expire
            # every later run through it.
            if forwarded_cancel:
                self.evaluator.set_cancel(None)

        # Fresh objective evaluations this run — identical to the old
        # ``len(private_dict)`` accounting when the cache is private, and
        # still meaningful when a shared cache arrives pre-warmed.
        result.num_evaluations = self.cache.misses - misses_before
        result.cache_stats = self.cache.stats()
        self._save_checkpoint(
            rng,
            result,
            misses_before,
            next_generation=cfg.generations,
            complete=True,
        )
        return result

    def _run_generation(
        self,
        gen: int,
        population: List[EvaluatedArch],
        result: SearchResult,
        rng: np.random.Generator,
        misses_before: int,
    ) -> None:
        """Breed and score generation ``gen`` in place on ``result``."""
        cfg = self.config
        ranked = sorted(population, key=lambda e: e.score, reverse=True)
        parents = ranked[: cfg.num_parents]
        # Elitism: parents survive; the rest of the population is
        # regenerated from them.
        child_archs: List[Architecture] = []
        seen = {p.arch.key() for p in parents}
        attempts = 0
        needed = cfg.population_size - len(parents)
        while len(child_archs) < needed and attempts < needed * 40:
            attempts += 1
            child = self._make_child(parents, rng)
            if child.key() in seen:
                continue
            if not self.space.contains(child):
                continue
            seen.add(child.key())
            child_archs.append(child)
        # If dedup starved us (tiny shrunk spaces), fill with samples.
        while len(child_archs) < needed:
            child_archs.append(self.space.sample(rng))
        children = self._eval_batch(child_archs)
        record = GenerationRecord(gen, parents + children)
        result.generations.append(record)
        if record.best.score > result.best.score:
            result.best = record.best
        self._save_checkpoint(
            rng, result, misses_before, next_generation=gen + 1
        )


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
            self.objective.evaluate(self.space.sample(rng))
            for _ in range(self.budget)
        ]
        record = GenerationRecord(0, evaluated)
        return SearchResult(
            best=record.best,
            generations=[record],
            num_evaluations=len(evaluated),
        )
