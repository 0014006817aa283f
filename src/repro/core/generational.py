"""The generational search loop shared by the EA and NSGA-II.

Both engines breed with the Sec. III-D genetic operators — uniform
crossover and per-layer mutation of the operator and channel-factor
genes — and differ only in how they pick parents: the EA keeps the top
``num_parents`` by Eq. 1 score, NSGA-II keeps the best half by front
rank and crowding distance. :class:`GenerationalSearch` owns everything
else: the rng stream, the evaluation-cache baseline, checkpoint
save/resume, cooperative cancellation, and the breed-then-score loop.

A subclass supplies ``STAGE`` (the cancel-progress label) and five
hooks: ``_initial_archs(rng)``, ``_select(population)``,
``_record(gen, population)``, ``_state(next_generation)`` and
``_restore(saved)``.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np

from repro import streams
from repro.core.cache import EvaluationCache
from repro.runstate.rng import generator_state, set_generator_state
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace, pick

CHECKPOINT_FORMAT = 1

_MASK32 = 0xFFFFFFFF


class GenerationalSearch:
    """Breed, score, select — for ``config.generations`` generations.

    ``config`` needs ``generations``, ``population_size``,
    ``crossover_prob``, ``mutation_prob``, ``per_layer_mutation_prob``
    and ``seed``. Population members are the cache's values; they only
    need an ``arch`` attribute here.
    """

    STAGE = ""

    def __init__(
        self,
        space: SearchSpace,
        config,
        cache: Optional[EvaluationCache],
        checkpoint,
        cancel,
    ):
        self.space = space
        self.config = config
        self.cache = cache if cache is not None else EvaluationCache()
        self.checkpoint = checkpoint
        self.cancel = cancel
        self._misses_before = 0

    # -- engine hooks --------------------------------------------------------------

    def _initial_archs(self, rng: np.random.Generator) -> List[Architecture]:
        """Generation 0, before scoring."""
        raise NotImplementedError

    def _select(self, population: list) -> list:
        """The parents that survive into the next generation."""
        raise NotImplementedError

    def _record(self, gen: int, population: list) -> None:
        """Take note of generation ``gen``'s scored population."""
        raise NotImplementedError

    def _state(self, next_generation: int) -> dict:
        """The engine's checkpoint keys, generations ``< next_generation`` done."""
        raise NotImplementedError

    def _restore(self, saved: dict) -> Tuple[int, list]:
        """Undo :meth:`_state`: ``(next_generation, population)``."""
        raise NotImplementedError

    # -- genetic operators ------------------------------------------------------

    def _crossover(self, a: Architecture, b: Architecture, rng) -> Architecture:
        """Uniform crossover: each layer's (op, factor) pair comes from
        one of the two parents."""
        take_a = [draw < 0.5 for draw in rng.random(a.num_layers)]
        ops = tuple(x if t else y for t, x, y in zip(take_a, a.ops, b.ops))
        factors = tuple(
            x if t else y for t, x, y in zip(take_a, a.factors, b.factors)
        )
        return Architecture.from_candidates(ops, factors)

    def _mutate(self, arch: Architecture, rng) -> Architecture:
        """Per-layer resampling of the op and/or factor genes."""
        ops = list(arch.ops)
        factors = list(arch.factors)
        p = self.config.per_layer_mutation_prob
        candidate_ops = self.space.candidate_ops
        candidate_factors = self.space.candidate_factors
        for layer in range(arch.num_layers):
            if rng.random() < p:
                ops[layer] = pick(rng, candidate_ops[layer])
            if rng.random() < p:
                factors[layer] = pick(rng, candidate_factors[layer])
        return Architecture.from_candidates(tuple(ops), tuple(factors))

    def _breed(self, parents: list, rng: np.random.Generator) -> List[Architecture]:
        """Offspring that refill the population from ``parents``.

        Each child is a parent, crossed over w.p. ``crossover_prob`` and
        mutated w.p. ``mutation_prob``; duplicates and children outside
        the space are redrawn. If dedup starves the search (tiny shrunk
        spaces), uniform samples fill the rest.

        A ``PCG64`` generator on the fast path is bred by :meth:`_scan`,
        any other by numpy's calls: the same children and final state.
        """
        cfg = self.config
        needed = cfg.population_size - len(parents)
        archs = [p.arch for p in parents]
        seen = {arch.key() for arch in archs}
        if streams.FAST_PATH and type(rng.bit_generator) is np.random.PCG64:
            children = self._scan(archs, seen, needed, rng.bit_generator)
        else:
            children = []
            for _ in range(needed * 40):
                child = archs[int(rng.integers(len(archs)))]
                if rng.random() < cfg.crossover_prob and len(archs) > 1:
                    other = archs[int(rng.integers(len(archs)))]
                    child = self._crossover(child, other, rng)
                if rng.random() < cfg.mutation_prob:
                    child = self._mutate(child, rng)
                key = child.key()
                if key in seen or not self.space.contains(child):
                    continue
                seen.add(key)
                children.append(child)
                if len(children) == needed:
                    break
        if len(children) < needed:
            children += self.space.sample_many(rng, needed - len(children))
        return children

    def _scan(
        self, archs: list, seen: set, needed: int, bit_generator: np.random.PCG64
    ) -> List[Architecture]:
        """:meth:`_breed`'s numpy calls as one scan over raw words, as numpy
        decodes them: ``random()`` is the next word's double; ``integers(n)``
        maps the buffered high half, else the next word's low half (its
        high half buffered), by Lemire's multiply-shift, redrawn while the
        low word is below ``2**32 % n``. A parent copy (no crossover,
        no mutation hit) builds no key. The generator is synced however
        the scan ends."""
        cfg = self.config
        space = self.space
        count = len(archs)
        parent_limit = (1 << 32) % count  # numpy's (2**32 - n) % n
        cross = cfg.crossover_prob if count > 1 else -1.0
        per_layer = cfg.per_layer_mutation_prob
        # Genes in draw order: each layer's operator, then its factor.
        genes = [c for pair in zip(space.candidate_ops, space.candidate_factors)
                 for c in pair]
        layers = space.num_layers
        reserve = 4 * layers + 4  # an attempt's words, Lemire redraws aside
        start = bit_generator.state
        has_half, half = start["has_uint32"], start["uinteger"]
        words, doubles = [], []  # raw words, and the double of each
        read = functools.partial(
            streams.read_block, bit_generator, words, doubles, reserve
        )
        pos, last = 0, -1  # an attempt or a redraw at ``pos <= last`` fits
        children: List[Architecture] = []
        try:
            for _ in range(needed * 40):
                if pos > last:
                    last = read() - reserve
                product = 0
                while count > 1:
                    if has_half:
                        has_half, product = 0, half * count
                    else:
                        word = words[pos]
                        pos, half, has_half = pos + 1, word >> 32, 1
                        product = (word & _MASK32) * count
                    if product & _MASK32 >= parent_limit:
                        break
                    last = read() - reserve if pos > last else last
                child = archs[product >> 32]
                ops, factors = child.ops, child.factors
                changed = doubles[pos] < cross
                pos += 1
                if changed:
                    while True:
                        if has_half:
                            has_half, product = 0, half * count
                        else:
                            word = words[pos]
                            pos, half, has_half = pos + 1, word >> 32, 1
                            product = (word & _MASK32) * count
                        if product & _MASK32 >= parent_limit:
                            break
                        last = read() - reserve if pos > last else last
                    other = archs[product >> 32]
                    take = doubles[pos : pos + layers]
                    pos += layers
                    ops = [a if t < 0.5 else b for t, a, b in zip(take, ops, other.ops)]
                    factors = [a if t < 0.5 else b
                               for t, a, b in zip(take, factors, other.factors)]
                pos += 1
                if doubles[pos - 1] < cfg.mutation_prob:
                    for gene, cands in enumerate(genes):
                        pos += 1
                        if doubles[pos - 1] >= per_layer:
                            continue
                        n, product = len(cands), 0
                        while n > 1:
                            if has_half:
                                has_half, product = 0, half * n
                            else:
                                word = words[pos]
                                pos, half, has_half = pos + 1, word >> 32, 1
                                product = (word & _MASK32) * n
                            if product & _MASK32 >= (1 << 32) % n:
                                break
                            last = read() - reserve if pos > last else last
                        if not changed:
                            ops, factors, changed = list(ops), list(factors), True
                        genome = factors if gene & 1 else ops
                        genome[gene >> 1] = cands[product >> 32]
                if not changed or (key := (tuple(ops), tuple(factors))) in seen:
                    continue
                arch = Architecture.from_candidates(*key)
                if not space.contains(arch):
                    continue
                seen.add(key)
                children.append(arch)
                if len(children) == needed:
                    break
        finally:
            streams.sync(bit_generator, start, pos, has_half, half)
        return children

    # -- bookkeeping ---------------------------------------------------------------

    def _evaluations(self) -> int:
        """Fresh objective evaluations this run.

        Counted against the cache's miss counter, so a shared cache that
        arrives pre-warmed still yields this run's own count.
        """
        return self.cache.misses - self._misses_before

    def _check_cancel(self, generations_done: int) -> None:
        if self.cancel is not None:
            self.cancel.check(
                stage=self.STAGE,
                generations_done=generations_done,
                total_generations=self.config.generations,
                evaluations=self._evaluations(),
            )

    def _save(
        self, rng: np.random.Generator, next_generation: int, complete: bool = False
    ) -> None:
        if self.checkpoint is None:
            return
        self.checkpoint.save(
            {
                "format": CHECKPOINT_FORMAT,
                **self._state(next_generation),
                "rng": generator_state(rng),
                # Relative to *this run's* cache baseline; a resumed run
                # re-derives its baseline from it so the final
                # evaluation count matches exactly.
                "evaluations_so_far": self._evaluations(),
            },
            complete=complete,
        )

    # -- main loop ---------------------------------------------------------------

    def _evolve(self, evaluator=None, score_many=None) -> list:
        """Run (or resume) the search; returns the final population.

        Misses are scored through ``evaluator.map`` when an evaluator is
        given, else through ``score_many``. Each generation *breeds*
        first (every rng draw, dedup, and containment check — sequential,
        in this process) and *scores* second (one cached batch).
        Scoring consumes no randomness, so the run is identical to
        scoring each child as it is bred, with or without an evaluator.

        With a ``checkpoint``, the state is saved after every generation
        and a killed run continues from the last save, restoring the rng
        stream mid-sequence; a complete checkpoint returns at once. With
        a ``cancel`` token, expiry raises
        :class:`~repro.resilience.DeadlineExceeded` at the next check,
        once per generation with ``generations_done`` populations
        already scored. Checks draw no randomness.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._misses_before = self.cache.misses
        population = None
        start = 1
        saved = self.checkpoint.load() if self.checkpoint is not None else None
        if saved is not None:
            if int(saved.get("format", 0)) != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"unsupported {self.STAGE} checkpoint format "
                    f"{saved.get('format')!r}"
                )
            start, population = self._restore(saved)
            set_generator_state(rng, saved["rng"])
            self._misses_before = self.cache.misses - int(
                saved["evaluations_so_far"]
            )
            if self.checkpoint.is_complete():
                return population

        if evaluator is not None:
            score_many = evaluator.map
        # Forward the deadline so the evaluator also stops between chunk
        # dispatches. The evaluator outlives this run (its owner closes
        # it); leaving a request-scoped token installed would expire
        # every later run through it.
        forwarded_cancel = self.cancel is not None and hasattr(
            evaluator, "set_cancel"
        )
        if forwarded_cancel:
            evaluator.set_cancel(self.cancel)
        try:
            if population is None:
                self._check_cancel(0)
                population = self.cache.get_or_eval_many(
                    self._initial_archs(rng), score_many
                )
                self._record(0, population)
                self._save(rng, next_generation=1)
            for gen in range(start, cfg.generations):
                self._check_cancel(gen)
                parents = self._select(population)
                children = self._breed(parents, rng)
                population = parents + self.cache.get_or_eval_many(
                    children, score_many
                )
                self._record(gen, population)
                self._save(rng, next_generation=gen + 1)
        finally:
            if forwarded_cancel:
                evaluator.set_cancel(None)
        self._save(rng, next_generation=cfg.generations, complete=True)
        return population
