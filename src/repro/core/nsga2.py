"""NSGA-II multi-objective search — a Pareto-front extension.

The paper folds accuracy and latency into one scalar (Eq. 1), which
finds one architecture per constraint ``T``. A deployment team usually
wants the whole accuracy/latency *front* in a single search; this module
provides it with the standard NSGA-II machinery (fast non-dominated
sorting + crowding distance) over the same genetic operators as the
Sec. III-D EA. The front it returns can then be cut at any latency
budget — equivalent to sweeping ``T`` in Eq. 1, at a fraction of the
evaluations (see ``benchmarks/bench_nsga2_front.py``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.generational import GenerationalSearch
from repro.space.architecture import Architecture
from repro.space.operators import NUM_OPERATORS
from repro.space.search_space import SearchSpace


@dataclass(frozen=True)
class BiObjective:
    """An architecture scored on (latency to minimize, accuracy to maximize)."""

    arch: Architecture
    latency_ms: float
    accuracy: float

    def dominates(self, other: "BiObjective") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        no_worse = (
            self.latency_ms <= other.latency_ms
            and self.accuracy >= other.accuracy
        )
        better = (
            self.latency_ms < other.latency_ms
            or self.accuracy > other.accuracy
        )
        return no_worse and better

    def to_dict(self) -> dict:
        return {
            "arch": self.arch.to_dict(),
            "latency_ms": self.latency_ms,
            "accuracy": self.accuracy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BiObjective":
        return cls(
            arch=Architecture.from_dict(payload["arch"]),
            latency_ms=float(payload["latency_ms"]),
            accuracy=float(payload["accuracy"]),
        )


@dataclass(frozen=True)
class Nsga2Config:
    """NSGA-II hyper-parameters (genetic operators match the EA's)."""

    generations: int = 20
    population_size: int = 50
    crossover_prob: float = 0.25
    mutation_prob: float = 0.25
    per_layer_mutation_prob: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 1 or self.population_size < 4:
            raise ValueError("need >= 1 generation and population >= 4")
        for p in (self.crossover_prob, self.mutation_prob,
                  self.per_layer_mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


@dataclass
class Nsga2Result:
    """Final population and its first non-dominated front."""

    front: List[BiObjective]
    population: List[BiObjective] = field(default_factory=list)
    num_evaluations: int = 0
    # Dispatch counters of the evaluation backend that scored the run
    # (EvaluationBackend.stats()); surfaced in artifacts and /metrics.
    backend_stats: Optional[Dict] = None

    def knee_under(self, latency_budget_ms: float) -> BiObjective:
        """Most accurate front member within a latency budget."""
        feasible = [p for p in self.front if p.latency_ms <= latency_budget_ms]
        if not feasible:
            raise ValueError(
                f"no front member within {latency_budget_ms} ms "
                f"(front spans {min(p.latency_ms for p in self.front):.1f}-"
                f"{max(p.latency_ms for p in self.front):.1f} ms)"
            )
        return max(feasible, key=lambda p: p.accuracy)


def non_dominated_sort(points: List[BiObjective]) -> List[List[int]]:
    """Fast non-dominated sorting; returns index fronts, best first.

    The fronts are peeled off one ``(n, n)`` domination matrix, in the
    order of Deb's pairwise loop (``_select``, :func:`crowding_distance`
    and the final front all sort stably, so the order is part of the
    result). That loop appends a point to the next front when its last
    dominator in the current front releases it, so the next front is
    ordered by that dominator's position in the current front, ties by
    ascending index. A NaN objective fails every comparison, so such a
    point neither dominates nor is dominated, as in
    :meth:`BiObjective.dominates`.
    """
    n = len(points)
    lat = np.fromiter((p.latency_ms for p in points), np.float64, n)
    acc = np.fromiter((p.accuracy for p in points), np.float64, n)
    lat_i, lat_j = lat[:, None], lat[None, :]
    acc_i, acc_j = acc[:, None], acc[None, :]
    # dominates[i, j]: point i dominates point j.
    dominates = (lat_i <= lat_j) & (acc_i >= acc_j) & (
        (lat_i < lat_j) | (acc_i > acc_j)
    )
    remaining = dominates.sum(axis=0)
    fronts: List[List[int]] = []
    current = np.flatnonzero(remaining == 0)
    while current.size:
        fronts.append(current.tolist())
        released = dominates[current]
        remaining -= released.sum(axis=0)
        members = np.flatnonzero(released.any(axis=0) & (remaining == 0))
        # Position in ``current`` of each member's last dominator.
        last = len(current) - 1 - released[::-1, members].argmax(axis=0)
        current = members[np.lexsort((members, last))]
    return fronts


def crowding_distance(points: List[BiObjective], front: List[int]) -> Dict[int, float]:
    """Crowding distance of each front member (bigger = more isolated)."""
    if not front:
        return {}
    distance = {i: 0.0 for i in front}
    for key in ("latency_ms", "accuracy"):
        ordered = sorted(front, key=lambda i: getattr(points[i], key))
        lo = getattr(points[ordered[0]], key)
        hi = getattr(points[ordered[-1]], key)
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for prev, cur, nxt in zip(ordered, ordered[1:], ordered[2:]):
            gap = getattr(points[nxt], key) - getattr(points[prev], key)
            distance[cur] += gap / span
    return distance


class Nsga2Search(GenerationalSearch):
    """NSGA-II over a search space with (latency, accuracy) objectives."""

    STAGE = "nsga2"

    def __init__(
        self,
        space: SearchSpace,
        accuracy_fn: Callable[[Architecture], float],
        latency_fn: Callable[[Architecture], float],
        config: Nsga2Config = Nsga2Config(),
        cache: Optional[EvaluationCache] = None,
        workers: int = 0,
        backend: str = "auto",
        checkpoint=None,
        latency_many_fn: Optional[
            Callable[[List[Architecture]], "List[float]"]
        ] = None,
        evaluator=None,
        cancel=None,
        accuracy_many_fn: Optional[
            Callable[[List[Architecture]], "List[float]"]
        ] = None,
    ):
        # The shared-cache contract: a cache passed in here must only
        # ever hold BiObjective values (i.e. be private to NSGA-II runs
        # over the same accuracy/latency functions). ``checkpoint``
        # saves the state once per generation; a resumed run is
        # bit-identical. ``cancel`` is an optional cooperative
        # CancelToken (repro.resilience.deadline), checked once per
        # generation and forwarded to the evaluation backend.
        super().__init__(space, config, cache, checkpoint, cancel)
        self.accuracy_fn = accuracy_fn
        self.latency_fn = latency_fn
        # Optional batched counterparts ``archs -> [value]`` (e.g.
        # LatencyPredictor.predict_many, AccuracySurrogate.
        # proxy_accuracy_many). Each must return exactly what its scalar
        # function would per architecture — the batched path is a
        # throughput knob, never a semantics change.
        self.latency_many_fn = latency_many_fn
        self.accuracy_many_fn = accuracy_many_fn
        # Worker processes for population evaluation; 0/1 = serial.
        # Results are identical either way (see docs/parallel.md).
        # ``backend`` picks the evaluation backend explicitly; "auto"
        # resolves from ``workers`` (docs/performance.md).
        self.workers = workers
        self.backend = backend
        # Optional externally-owned EvaluationBackend; when set, the
        # search uses it for population batches (and does not close it)
        # instead of constructing one from ``backend``/``workers`` —
        # this is how the serving layer funnels every query through one
        # observable backend.
        self.evaluator = evaluator
        self._population: List[BiObjective] = []

    def eval_many(self, archs: List[Architecture]) -> List[BiObjective]:
        """Uncached batch scoring (the worker-pool chunk function).

        With ``latency_many_fn``/``accuracy_many_fn`` set, one batched
        call scores each objective (bit-exact with the scalar path by
        contract).
        """
        archs = list(archs)
        if self.latency_many_fn is not None:
            latencies = [float(v) for v in self.latency_many_fn(archs)]
        else:
            latencies = [self.latency_fn(a) for a in archs]
        if self.accuracy_many_fn is not None:
            accuracies = list(self.accuracy_many_fn(archs))
        else:
            accuracies = [self.accuracy_fn(a) for a in archs]
        return [
            BiObjective(arch=a, latency_ms=lat, accuracy=acc)
            for a, lat, acc in zip(archs, latencies, accuracies)
        ]

    def run(self) -> Nsga2Result:
        """Run NSGA-II; deterministic for a fixed config seed.

        As in :class:`~repro.core.evolution.EvolutionarySearch`, each
        generation breeds first (all rng use, parent-side) and scores
        the offspring in one cached batch — with ``workers >= 2`` the
        batch fans out across processes, with identical results.
        """
        from repro.parallel.backend import create_backend

        # An externally-owned evaluator outlives this run (the caller
        # closes it); an internally-built one is torn down on exit.
        if self.evaluator is not None:
            backend_ctx = contextlib.nullcontext(self.evaluator)
        else:
            backend_ctx = create_backend(
                self.backend, self.eval_many, workers=self.workers
            )
        with backend_ctx as pool:
            population = self._evolve(pool)
            pool_stats = pool.stats()
        fronts = non_dominated_sort(population)
        front = sorted(
            (population[i] for i in fronts[0]), key=lambda p: p.latency_ms
        )
        return Nsga2Result(
            front=front,
            population=population,
            num_evaluations=self._evaluations(),
            backend_stats=pool_stats,
        )

    # -- generational hooks ------------------------------------------------------

    def _corner_architectures(self) -> List[Architecture]:
        """Full-width single-operator networks — high-latency anchors.

        Uniform sampling almost never draws the slow-accurate corner of
        the space, so the front would otherwise take many generations to
        stretch there; seeding with the corners is standard practice.
        """
        space = self.space
        factors = tuple(max(f) for f in space.candidate_factors)
        corners = []
        for op in range(NUM_OPERATORS):
            arch = Architecture(
                tuple(op if op in ops else ops[0] for ops in space.candidate_ops),
                factors,
            )
            if space.contains(arch):
                corners.append(arch)
        return corners

    def _initial_archs(self, rng: np.random.Generator) -> List[Architecture]:
        size = self.config.population_size
        seeds = self._corner_architectures()[: size // 2]
        return seeds + self.space.sample_many(rng, size - len(seeds))

    def _select(self, population: List[BiObjective]) -> List[BiObjective]:
        """The best half by (front rank, descending crowding)."""
        ranked: List[int] = []
        for front in non_dominated_sort(population):
            crowd = crowding_distance(population, front)
            ranked.extend(sorted(front, key=lambda i: -crowd[i]))
        return [population[i] for i in ranked[: self.config.population_size // 2]]

    def _record(self, gen: int, population: List[BiObjective]) -> None:
        self._population = population

    def _state(self, next_generation: int) -> dict:
        return {
            "completed_generations": next_generation - 1,
            "population": [p.to_dict() for p in self._population],
        }

    def _restore(self, saved: dict) -> Tuple[int, List[BiObjective]]:
        self._population = [BiObjective.from_dict(p) for p in saved["population"]]
        return int(saved["completed_generations"]) + 1, self._population
