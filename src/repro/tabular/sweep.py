"""Scenario sweeps over a tabular artifact (Fig. 6 / Table I bands).

The paper's headline figures are single-seed runs because every point
used to cost a full supernet-backed search. With an exhaustive
:class:`TabularBenchmark` the same search replays in milliseconds, so
:func:`run_sweep` re-runs the Sec. III-D evolutionary search across a
grid of ``(device x latency-target x seed)`` scenarios in one process
and reports per-generation variance bands plus an oracle-gap summary —
hundreds of scenarios where one live search used to fit.

Each scenario is a faithful replay: the same
:class:`~repro.core.Objective`, the same EA configuration and seed,
scored through a :class:`~repro.parallel.TabularBackend` over the
table's columns — so any single scenario is bit-identical to the live
search it replaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.parallel.backend import TabularBackend
from repro.space.encoding import space_cardinality
from repro.tabular.evaluator import TabularEvaluator
from repro.tabular.table import TabularBenchmark


@dataclass(frozen=True)
class SweepScenario:
    """One (device, latency target, seed) replay."""

    device: str
    target_ms: float
    seed: int

    def label(self) -> str:
        return f"{self.device}@{self.target_ms:g}ms/seed{self.seed}"


@dataclass
class ScenarioResult:
    """One replayed search: final best plus per-generation curves."""

    scenario: SweepScenario
    best_accuracy: float
    best_latency_ms: float
    best_score: float
    num_evaluations: int
    best_score_curve: List[float]
    best_latency_curve: List[float]
    oracle_accuracy: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "device": self.scenario.device,
            "target_ms": self.scenario.target_ms,
            "seed": self.scenario.seed,
            "best_accuracy": self.best_accuracy,
            "best_latency_ms": self.best_latency_ms,
            "best_score": self.best_score,
            "num_evaluations": self.num_evaluations,
            "best_score_curve": self.best_score_curve,
            "best_latency_curve": self.best_latency_curve,
            "oracle_accuracy": self.oracle_accuracy,
        }


@dataclass
class SweepReport:
    """Every scenario result of one sweep, grouping helpers included."""

    generations: int
    population_size: int
    results: List[ScenarioResult]

    def group_label(self, result: ScenarioResult) -> str:
        return (
            f"{result.scenario.device}@{result.scenario.target_ms:g}ms"
        )

    def grouped_curves(self) -> Dict[str, List[List[float]]]:
        """Per-(device, target) best-score curves across seeds."""
        groups: Dict[str, List[List[float]]] = {}
        for result in self.results:
            groups.setdefault(self.group_label(result), []).append(
                result.best_score_curve
            )
        return groups

    def bands(self) -> Dict[str, Dict[str, List[float]]]:
        """Per-group generation-wise variance bands (Fig. 6 style)."""
        from repro.report.sweeps import generation_bands

        return {
            label: generation_bands(curves)
            for label, curves in self.grouped_curves().items()
        }

    def summary_rows(self) -> List[dict]:
        """One aggregate row per (device, target) across seeds."""
        from repro.report.sweeps import summarize_group

        groups: Dict[str, List[ScenarioResult]] = {}
        for result in self.results:
            groups.setdefault(self.group_label(result), []).append(result)
        return [
            summarize_group(label, [r.to_dict() for r in members])
            for label, members in groups.items()
        ]

    def to_dict(self) -> dict:
        return {
            "generations": self.generations,
            "population_size": self.population_size,
            "scenarios": [r.to_dict() for r in self.results],
            "bands": self.bands(),
            "summary": self.summary_rows(),
        }


def run_scenario(
    table: TabularBenchmark,
    scenario: SweepScenario,
    *,
    generations: int = 20,
    population_size: int = 50,
    num_parents: int = 20,
    beta: float = -0.5,
    oracle: bool = True,
) -> ScenarioResult:
    """Replay one evolutionary search against the table's columns."""
    evaluator = TabularEvaluator(table, device=scenario.device)
    objective = evaluator.objective(scenario.target_ms, beta)
    backend = TabularBackend(functools.partial(evaluator.evaluate_many, objective))
    try:
        result = EvolutionarySearch(
            table.space,
            objective,
            EvolutionConfig(
                generations=generations,
                population_size=population_size,
                num_parents=num_parents,
                seed=scenario.seed,
            ),
            evaluator=backend,
        ).run()
    finally:
        backend.close()
    oracle_accuracy: Optional[float] = None
    if oracle:
        try:
            _, entry = table.best_under(
                scenario.target_ms, device=scenario.device
            )
            oracle_accuracy = entry.accuracy
        except ValueError:
            oracle_accuracy = None
    bests = result.best_per_generation()
    return ScenarioResult(
        scenario=scenario,
        best_accuracy=result.best.accuracy,
        best_latency_ms=result.best.latency_ms,
        best_score=result.best.score,
        num_evaluations=result.num_evaluations,
        best_score_curve=[b.score for b in bests],
        best_latency_curve=[b.latency_ms for b in bests],
        oracle_accuracy=oracle_accuracy,
    )


def run_sweep(
    table: TabularBenchmark,
    *,
    targets: Sequence[float],
    seeds: Sequence[int],
    devices: Optional[Sequence[str]] = None,
    generations: int = 20,
    population_size: int = 50,
    num_parents: int = 20,
    beta: float = -0.5,
) -> SweepReport:
    """Replay the full ``(device x target x seed)`` scenario grid.

    Requires an *exhaustive* table: the EA samples freely from the
    space, and replay must never silently fall back to live
    evaluation, so a sampled table would abort mid-run on the first
    untabulated architecture.
    """
    if not table.exhaustive:
        raise ValueError(
            "scenario sweeps need an exhaustive table; this one holds "
            f"{len(table)} of {space_cardinality(table.space)} "
            "architectures — rebuild with num_archs=None"
        )
    devices = list(devices) if devices is not None else list(table.devices)
    results = []
    for device in devices:
        for target_ms in targets:
            for seed in seeds:
                results.append(
                    run_scenario(
                        table,
                        SweepScenario(
                            device=device,
                            target_ms=float(target_ms),
                            seed=int(seed),
                        ),
                        generations=generations,
                        population_size=population_size,
                        num_parents=num_parents,
                        beta=beta,
                    )
                )
    return SweepReport(
        generations=generations,
        population_size=population_size,
        results=results,
    )
