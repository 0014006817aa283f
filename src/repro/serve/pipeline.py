"""The one front-computation recipe both the CLI and the daemon run.

``repro front`` (offline) and :class:`repro.serve.SearchService`
(online) must produce bit-identical Pareto fronts for the same
``(layout, device, seed, config)`` — the serving layer is a
throughput/caching skin, never a semantics change. The only way to keep
that guarantee honest is for both to call the same functions; this
module is that shared recipe:

* :func:`space_for_layout` — layout name -> :class:`SearchSpace`
  (re-exported from :mod:`repro.space`, where the tabular artifact
  loader resolves the same names);
* :func:`front_pipeline` — the :class:`~repro.core.HSCoNAS` preset
  whose stage 1 (LUT build + Eq. 3 bias calibration, exactly as
  ``repro front`` has always seeded it) is the front recipe's
  predictor; :func:`build_front_predictor` runs that stage, and
  ``repro front`` runs it resumably through
  :meth:`~repro.core.HSCoNAS.checkpointed_predictor`;
* :func:`front_search` — the NSGA-II run, funneling population
  batches through ``predict_many`` and (optionally) an externally-owned
  :class:`~repro.parallel.EvaluationBackend`;
* :func:`replay_front_search` — the same NSGA-II run scored from a
  prebuilt tabular artifact's columns instead of a live predictor,
  bit-identical to :func:`front_search` when the artifact was built
  with the ``"front"`` recipe at the same seed.
"""

from __future__ import annotations

from typing import Optional

from repro.accuracy import AccuracySurrogate
from repro.core import (
    EvaluationCache,
    HSCoNAS,
    HSCoNASConfig,
    Nsga2Config,
    Nsga2Result,
    Nsga2Search,
)
from repro.hardware import LatencyPredictor
from repro.hardware.calibration import calibrated_devices
from repro.space import SearchSpace, space_for_layout

__all__ = [
    "space_for_layout",
    "front_pipeline",
    "build_front_predictor",
    "front_search",
    "replay_front_search",
]


def front_pipeline(
    space: SearchSpace,
    device_name: str,
    seed: int,
    workers: int = 0,
    backend: str = "auto",
) -> HSCoNAS:
    """The HSCoNAS preset whose stage 1 every front computation uses.

    Sampling budgets and seed offsets are the historical ``repro
    front`` recipe (2 samples per LUT cell, 25 calibration
    architectures, profiler seeded at ``seed``, calibration at
    ``seed + 1``) — changing any of them changes every served front.
    No retry policy and strict LUT lookups: a failed probe fails the
    build loudly. ``workers``/``backend`` only move the LUT build's
    wall-clock. Its surrogate is the recipe's plain
    :class:`~repro.accuracy.AccuracySurrogate`.
    """
    config = HSCoNASConfig(
        seed=seed,
        lut_samples_per_cell=2,
        bias_calibration_archs=25,
        retry=None,
        degraded_ok=False,
        workers=workers,
        backend=backend,
    )
    device = calibrated_devices()[device_name]
    return HSCoNAS(space, device, config, surrogate=AccuracySurrogate(space))


def build_front_predictor(
    space: SearchSpace,
    device_name: str,
    seed: int,
    workers: int = 0,
    backend: str = "auto",
) -> LatencyPredictor:
    """The calibrated latency predictor behind a front computation:
    stage 1 of :func:`front_pipeline`."""
    return front_pipeline(
        space, device_name, seed, workers=workers, backend=backend
    ).build_predictor()


def front_search(
    space: SearchSpace,
    predictor: LatencyPredictor,
    seed: int,
    generations: int = 20,
    population_size: int = 50,
    cache: Optional[EvaluationCache] = None,
    workers: int = 0,
    backend: str = "auto",
    checkpoint=None,
    evaluator=None,
    surrogate: Optional[AccuracySurrogate] = None,
    cancel=None,
) -> Nsga2Result:
    """One NSGA-II accuracy/latency front, deterministic in ``seed``.

    Latencies go through :meth:`LatencyPredictor.predict_many` (one LUT
    gather per population batch) and accuracies through
    :meth:`AccuracySurrogate.proxy_accuracy_many`, each bit-exact with
    its per-arch form. ``cancel`` is an optional
    :class:`~repro.resilience.CancelToken` checked per generation; a
    run that finishes before expiry is bit-identical with or without
    it.
    """
    if surrogate is None:
        surrogate = AccuracySurrogate(space)
    return Nsga2Search(
        space,
        accuracy_fn=surrogate.proxy_accuracy,
        latency_fn=predictor.predict,
        latency_many_fn=predictor.predict_many,
        accuracy_many_fn=surrogate.proxy_accuracy_many,
        config=Nsga2Config(
            seed=seed,
            generations=generations,
            population_size=population_size,
        ),
        cache=cache,
        workers=workers,
        backend=backend,
        checkpoint=checkpoint,
        evaluator=evaluator,
        cancel=cancel,
    ).run()


def replay_front_search(
    space: SearchSpace,
    table,
    device: str,
    seed: int,
    generations: int = 20,
    population_size: int = 50,
    cache: Optional[EvaluationCache] = None,
    checkpoint=None,
    cancel=None,
) -> Nsga2Result:
    """:func:`front_search` replayed from a tabular artifact's columns.

    Populations are scored by one vectorized gather per generation
    (:meth:`repro.tabular.TabularEvaluator.bi_objective_many`) through
    a :class:`~repro.parallel.TabularBackend` — no predictor, no
    surrogate, no per-arch lookups. Bit-identical to the live recipe
    when ``table`` was built with the ``"front"`` recipe at this seed;
    untabulated architectures raise ``KeyError`` rather than silently
    falling back to live evaluation.
    """
    from repro.parallel.backend import TabularBackend
    from repro.tabular.evaluator import TabularEvaluator

    replay = TabularEvaluator(table, device=device)
    evaluator = TabularBackend(replay.bi_objective_many)
    try:
        return Nsga2Search(
            space,
            accuracy_fn=replay.accuracy,
            latency_fn=replay.latency,
            latency_many_fn=replay.latency_many,
            config=Nsga2Config(
                seed=seed,
                generations=generations,
                population_size=population_size,
            ),
            cache=cache,
            checkpoint=checkpoint,
            evaluator=evaluator,
            cancel=cancel,
        ).run()
    finally:
        evaluator.close()
