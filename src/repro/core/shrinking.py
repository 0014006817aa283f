"""Progressive space shrinking (paper Sec. III-C).

The paper shrinks the space in two stages, working backwards from the
output: stage 1 fixes the operator of layers 20, 19, 18, 17 (1-based) —
after the supernet has trained 100 epochs — and stage 2 fixes layers 16,
15, 14, 13 after 15 tuning epochs. For each layer, every candidate
operator defines a subspace (that operator pinned, everything else
free); the operator whose subspace has the highest quality ``Q`` wins.
Later layers are evaluated first and stay fixed while earlier layers are
considered, which is what makes the procedure cost ``K x (layers)``
quality estimates instead of ``K^layers``.

Each stage removes ``(K * n_factors)^4 / n_factors^4 = K^4 = 625 ~ 10^2.8``
— "three orders of magnitude" in the paper's words — from the space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.quality import SubspaceQuality
from repro.space.search_space import SearchSpace

CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class ShrinkDecision:
    """Outcome of shrinking one layer."""

    layer: int
    qualities: Dict[int, float]  # candidate op -> Q
    chosen_op: int

    def margin(self) -> float:
        """Quality gap between the winner and the runner-up."""
        ranked = sorted(self.qualities.values(), reverse=True)
        if len(ranked) < 2:
            return 0.0
        return ranked[0] - ranked[1]


@dataclass
class ShrinkResult:
    """Full record of a (multi-stage) shrinking run."""

    initial_log10_size: float
    stages: List[List[ShrinkDecision]] = field(default_factory=list)
    stage_log10_sizes: List[float] = field(default_factory=list)
    quality_evaluations: int = 0
    final_space: Optional[SearchSpace] = None
    # Shared-cache effectiveness: cumulative counters snapshotted after
    # each stage, and at the end of the run (None without a cache).
    stage_cache_stats: List[Dict[str, int]] = field(default_factory=list)
    cache_stats: Optional[Dict[str, int]] = None

    def decisions(self) -> List[ShrinkDecision]:
        return [d for stage in self.stages for d in stage]

    def orders_of_magnitude_removed(self) -> List[float]:
        """log10 size reduction per stage (paper claims ~3 per stage)."""
        out = []
        prev = self.initial_log10_size
        for size in self.stage_log10_sizes:
            out.append(prev - size)
            prev = size
        return out

    def to_dict(self) -> dict:
        """JSON-ready trace of the run (for CLI artifacts)."""
        return {
            "initial_log10_size": self.initial_log10_size,
            "stage_log10_sizes": list(self.stage_log10_sizes),
            "quality_evaluations": self.quality_evaluations,
            "stages": [
                [
                    {
                        "layer": d.layer,
                        "qualities": {str(op): q for op, q in d.qualities.items()},
                        "chosen_op": d.chosen_op,
                        "margin": d.margin(),
                    }
                    for d in stage
                ]
                for stage in self.stages
            ],
            "stage_cache_stats": list(self.stage_cache_stats),
            "cache_stats": self.cache_stats,
        }


def default_stage_layers(num_layers: int) -> Tuple[Tuple[int, ...], ...]:
    """The paper's two stage schedules, adapted to ``num_layers``.

    For L=20 this yields (19, 18, 17, 16) and (15, 14, 13, 12) in
    0-based indexing — the paper's layers 20..17 and 16..13. Smaller
    spaces (the proxy config) shrink proportionally: a fifth of the
    layers per stage, at least one layer each. A one-layer space has no
    layer left for a second stage, so its plan is that one layer.
    """
    per_stage = max(1, num_layers // 5)
    stage1 = tuple(range(num_layers - 1, num_layers - 1 - per_stage, -1))
    stage2 = tuple(
        range(
            num_layers - 1 - per_stage,
            max(-1, num_layers - 1 - 2 * per_stage),
            -1,
        )
    )
    return (stage1, stage2) if stage2 else (stage1,)


def validate_stage_layers(
    stage_layers: Sequence[Sequence[int]], num_layers: int
) -> None:
    """Raise ``ValueError`` unless the plan fixes layers back-to-front.

    The paper's procedure (Sec. III-C, Fig. 5) fixes layers strictly
    back-to-front: every stage fixes at least one layer of
    ``[0, num_layers)``, no layer is fixed twice, layers descend within
    a stage, and every layer of stage ``s+1`` precedes the earliest
    layer of stage ``s``.
    """
    seen = set()
    bound = num_layers  # every layer of the next stage lies below this
    for stage, layers in enumerate(stage_layers):
        layers = list(layers)
        if not layers:
            raise ValueError(f"shrink plan stage {stage} fixes no layers")
        for layer in layers:
            if not 0 <= layer < num_layers:
                raise ValueError(
                    f"shrink plan stage {stage}: layer {layer} outside "
                    f"[0, {num_layers})"
                )
            if layer in seen:
                raise ValueError(
                    f"shrink plan stage {stage}: layer {layer} is fixed twice"
                )
            seen.add(layer)
        if any(b >= a for a, b in zip(layers, layers[1:])):
            raise ValueError(
                f"shrink plan stage {stage}: layers {layers} are not "
                "strictly descending (back-to-front)"
            )
        if layers[0] >= bound:
            raise ValueError(
                f"shrink plan stage {stage} fixes layer {layers[0]}, which "
                "does not precede the previous stage's earliest fixed "
                f"layer {bound}"
            )
        bound = layers[-1]


class ProgressiveSpaceShrinking:
    """Layer-by-layer, back-to-front operator fixing.

    Parameters
    ----------
    quality:
        The Monte-Carlo quality estimator (Eq. 4).
    stage_layers:
        Layer schedules, one tuple per stage (0-based indices,
        evaluated in order). Defaults to the paper's two 4-layer stages.
    tune_hook:
        Optional callback invoked *between* stages with the shrunk
        space — the paper tunes the supernet 15 epochs here; the
        pipeline passes the supernet trainer through this hook. If the
        quality estimator carries a shared
        :class:`~repro.core.cache.EvaluationCache`, it is cleared after
        every hook invocation: tuning changes the proxy accuracy, so
        memoized objective values from earlier stages would be stale.
    checkpoint:
        Optional checkpoint slot (e.g.
        :class:`~repro.runstate.PhaseCheckpoint`). When set, every
        per-layer decision (and every stage boundary and tune-hook
        completion) is saved; :meth:`run` replays the saved decisions —
        re-fixing operators without re-estimating — and continues from
        the first undecided layer, bit-identical to an uninterrupted
        run.
    """

    def __init__(
        self,
        quality: SubspaceQuality,
        stage_layers: Optional[Sequence[Sequence[int]]] = None,
        tune_hook: Optional[Callable[[SearchSpace, int], None]] = None,
        checkpoint=None,
    ):
        self.quality = quality
        self.stage_layers = (
            [tuple(s) for s in stage_layers] if stage_layers is not None else None
        )
        self.tune_hook = tune_hook
        self.checkpoint = checkpoint

    def shrink_layer(
        self, space: SearchSpace, layer: int
    ) -> Tuple[SearchSpace, ShrinkDecision]:
        """Fix the best operator for one layer (later layers already fixed).

        The K candidate-operator subspaces are scored in one
        :meth:`~repro.core.quality.SubspaceQuality.estimate_many` call —
        with a parallel evaluator all ``K x N`` objective evaluations
        fan out together. Estimate indices are reserved up front in
        candidate order, so the draws (and therefore every Q value and
        the insertion-order tie-break) match the sequential loop.
        """
        ops = list(space.candidate_ops[layer])
        subspaces = [
            space.restrict_to_operator_subspace(layer, op) for op in ops
        ]
        indices = self.quality.reserve_indices(len(ops))
        estimates = self.quality.estimate_many(subspaces, indices)
        qualities: Dict[int, float] = dict(zip(ops, estimates))
        chosen = max(qualities, key=lambda op: qualities[op])
        return space.fix_operator(layer, chosen), ShrinkDecision(
            layer=layer, qualities=qualities, chosen_op=chosen
        )

    # -- checkpointing ------------------------------------------------------------

    def _save_checkpoint(
        self,
        result: ShrinkResult,
        tuned_stages: int,
        evals_before: int,
        complete: bool = False,
    ) -> None:
        if self.checkpoint is None:
            return
        self.checkpoint.save(
            {
                "format": CHECKPOINT_FORMAT,
                "stages": [
                    [
                        {
                            "layer": d.layer,
                            "qualities": {
                                str(op): q for op, q in d.qualities.items()
                            },
                            "chosen_op": d.chosen_op,
                        }
                        for d in stage
                    ]
                    for stage in result.stages
                ],
                "stage_log10_sizes": list(result.stage_log10_sizes),
                "stage_cache_stats": list(result.stage_cache_stats),
                "tuned_stages": tuned_stages,
                "quality": self.quality.state(),
                "quality_evaluations_so_far": (
                    self.quality.evaluations - evals_before
                ),
            },
            complete=complete,
        )

    @staticmethod
    def _restore_stages(saved: dict) -> List[List[ShrinkDecision]]:
        if int(saved.get("format", 0)) != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported shrink checkpoint format {saved.get('format')!r}"
            )
        return [
            [
                ShrinkDecision(
                    layer=int(d["layer"]),
                    qualities={
                        int(op): float(q)
                        for op, q in d["qualities"].items()
                    },
                    chosen_op=int(d["chosen_op"]),
                )
                for d in stage
            ]
            for stage in saved["stages"]
        ]

    def run(self, space: SearchSpace) -> ShrinkResult:
        """Execute all shrinking stages; returns the full record.

        With a ``checkpoint``, saved per-layer decisions are *replayed*
        (the chosen operator is re-fixed without re-estimating — the
        estimator's indexed seeding makes that safe) and the run
        continues from the first undecided layer. A tune hook that
        already completed is not re-run.
        """
        stage_layers = (
            self.stage_layers
            if self.stage_layers is not None
            else list(default_stage_layers(space.num_layers))
        )
        validate_stage_layers(stage_layers, space.num_layers)
        evals_before = self.quality.evaluations
        result = ShrinkResult(initial_log10_size=space.log10_size())
        cache = getattr(self.quality, "cache", None)

        tuned_stages = 0
        if self.checkpoint is not None:
            saved = self.checkpoint.load()
            if saved is not None:
                result.stages = self._restore_stages(saved)
                result.stage_log10_sizes = [
                    float(s) for s in saved["stage_log10_sizes"]
                ]
                result.stage_cache_stats = [
                    dict(s) for s in saved["stage_cache_stats"]
                ]
                tuned_stages = int(saved["tuned_stages"])
                self.quality.set_state(saved["quality"])
                evals_before = self.quality.evaluations - int(
                    saved["quality_evaluations_so_far"]
                )
                for decision in (d for st in result.stages for d in st):
                    space = space.fix_operator(
                        decision.layer, decision.chosen_op
                    )

        for stage_idx, layers in enumerate(stage_layers):
            if stage_idx < len(result.stages):
                decisions = result.stages[stage_idx]
            else:
                decisions = []
                result.stages.append(decisions)
            # Decisions are made in schedule order, so a partially
            # restored stage is a prefix of its layer list.
            for layer in list(layers)[len(decisions):]:
                space, decision = self.shrink_layer(space, layer)
                decisions.append(decision)
                self._save_checkpoint(result, tuned_stages, evals_before)
            if stage_idx >= len(result.stage_log10_sizes):
                result.stage_log10_sizes.append(space.log10_size())
                if cache is not None:
                    result.stage_cache_stats.append(cache.stats())
                self._save_checkpoint(result, tuned_stages, evals_before)
            if (
                self.tune_hook is not None
                and stage_idx < len(stage_layers) - 1
                and tuned_stages <= stage_idx
            ):
                self.tune_hook(space, stage_idx)
                if cache is not None:
                    cache.clear()
                # Tuning changed the weights the evaluation function
                # reads; a parallel evaluator must propagate that to its
                # workers (it re-forks them).
                evaluator = getattr(self.quality, "evaluator", None)
                if evaluator is not None:
                    evaluator.sync()
                tuned_stages = stage_idx + 1
                self._save_checkpoint(result, tuned_stages, evals_before)
        result.final_space = space
        result.quality_evaluations = self.quality.evaluations - evals_before
        if cache is not None:
            result.cache_stats = cache.stats()
        self._save_checkpoint(
            result, tuned_stages, evals_before, complete=True
        )
        return result


class JointShrinking:
    """The naive alternative the paper argues against: evaluate all
    ``K^(#layers)`` operator assignments of a stage jointly.

    Implemented for the complexity comparison benchmark
    (``5^4 = 625`` subspace evaluations vs. the progressive ``5 x 4 = 20``).
    """

    def __init__(self, quality: SubspaceQuality):
        self.quality = quality

    def run_stage(
        self, space: SearchSpace, layers: Sequence[int]
    ) -> Tuple[SearchSpace, int]:
        """Evaluate every joint assignment; returns (shrunk space, #evals)."""
        candidates = [space.candidate_ops[layer] for layer in layers]
        evals_before = self.quality.evaluations
        best_assignment = None
        best_q = -np.inf
        for assignment in product(*candidates):
            subspace = space
            for layer, op in zip(layers, assignment):
                subspace = subspace.fix_operator(layer, op)
            q = self.quality.estimate(subspace)
            if q > best_q:
                best_q = q
                best_assignment = assignment
        assert best_assignment is not None
        for layer, op in zip(layers, best_assignment):
            space = space.fix_operator(layer, op)
        return space, self.quality.evaluations - evals_before
