"""The end-to-end HSCoNAS pipeline (paper Fig. 1).

Given a target device and latency constraint ``T``, the pipeline

1. builds the per-operator latency LUT by micro-benchmarking on the
   device and calibrates the bias ``B`` from ``M`` end-to-end
   measurements (Sec. III-A);
2. forms the Eq. 1 objective from the weight-sharing proxy accuracy and
   the latency *predictor* (no on-device measurement inside the loop);
3. progressively shrinks the search space (Sec. III-C);
4. runs the evolutionary search inside the shrunk space (Sec. III-D);
5. reports the discovered architecture with stand-alone accuracy and a
   fresh on-device latency measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from repro.accuracy.surrogate import AccuracySurrogate
from repro.core.cache import EvaluationCache
from repro.core.evolution import EvolutionConfig, EvolutionarySearch, SearchResult
from repro.core.objective import EvaluatedArch, Objective
from repro.core.quality import SubspaceQuality
from repro.core.shrinking import (
    ProgressiveSpaceShrinking,
    ShrinkResult,
    validate_stage_layers,
)
from repro.hardware.degradation import DegradationReport
from repro.hardware.device import DeviceModel
from repro.hardware.faults import FlakyDevice, RetryPolicy
from repro.hardware.ledger import MeasurementLedger
from repro.hardware.lut import LatencyLUT
from repro.hardware.predictor import LatencyPredictor
from repro.hardware.profiler import OnDeviceProfiler
from repro.parallel.backend import (
    BACKEND_NAMES,
    EvaluationBackend,
    TabularBackend,
    create_backend,
)
from repro.runstate import PhaseCheckpoint, RunDir, RunStateError
from repro.space.architecture import Architecture
from repro.space.search_space import SearchSpace


@dataclass(frozen=True)
class HSCoNASConfig:
    """All pipeline hyper-parameters; defaults follow the paper."""

    target_ms: float = 34.0
    beta: float = -0.5
    # Hardware modeling (Sec. III-A).
    lut_samples_per_cell: int = 4
    bias_calibration_archs: int = 40  # M in Eq. 3
    # Space shrinking (Sec. III-C).
    enable_shrinking: bool = True
    quality_samples: int = 100  # N in Eq. 4
    shrink_stage_layers: Optional[tuple] = None  # None = paper schedule
    # Evolutionary search (Sec. III-D).
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    seed: int = 0
    # Worker processes for LUT profiling, quality estimates, and EA
    # population scoring; 0/1 = serial. A pure wall-clock knob: results
    # are bit-identical for any value (see docs/parallel.md).
    workers: int = 0
    # Evaluation backend (docs/performance.md): "auto" picks
    # multiprocess when workers >= 2, serial otherwise — the historical
    # behaviour of the workers knob. "serial"/"multiprocess" force a
    # backend; forcing multiprocess with workers <= 1 still evaluates
    # inline. Results are bit-identical across backends. "tabular"
    # replays a prebuilt artifact (``table``) instead of evaluating:
    # shrinking and the EA score against the table's recorded columns,
    # bit-identical to a live run when the artifact was built with the
    # matching "search" recipe at the same seed and device.
    backend: str = "auto"
    # Tabular replay (docs/performance.md, "Tabular replay"): path of a
    # saved artifact directory (repro.tabular.save_artifact) and the
    # latency column to replay; None picks the artifact's primary
    # device. Only meaningful with backend="tabular".
    table: Optional[str] = None
    table_device: Optional[str] = None
    # Fault tolerance (docs/robustness.md). ``retry`` fights individual
    # probe failures during LUT building and measurement; its backoff
    # jitter never touches the measurement-noise stream, so a healthy
    # device's results are bit-identical with or without it.
    # ``degraded_ok`` lets the predictor serve missing LUT cells from
    # the nearest present cell (recorded on the degradation report)
    # instead of raising mid-search.
    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    degraded_ok: bool = True

    def __post_init__(self) -> None:
        if self.target_ms <= 0:
            raise ValueError("target_ms must be positive")
        if self.beta >= 0:
            raise ValueError("beta must be negative")
        if self.lut_samples_per_cell < 1 or self.bias_calibration_archs < 1:
            raise ValueError("LUT/bias sampling counts must be >= 1")
        if self.quality_samples < 1:
            raise ValueError("quality_samples must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.backend not in BACKEND_NAMES + ("tabular",):
            raise ValueError(
                f"backend must be one of {BACKEND_NAMES + ('tabular',)}, "
                f"got {self.backend!r}"
            )
        if self.backend == "tabular" and self.table is None:
            raise ValueError(
                "backend 'tabular' replays a prebuilt artifact; set "
                "HSCoNASConfig.table to a saved artifact directory "
                "(CLI: --backend tabular --table PATH)"
            )
        if self.table is not None and self.backend != "tabular":
            raise ValueError(
                "table is only meaningful with backend='tabular' "
                f"(got backend={self.backend!r})"
            )


@dataclass
class HSCoNASResult:
    """Everything produced by one pipeline run."""

    arch: Architecture
    top1_error: float
    top5_error: float
    predicted_latency_ms: float
    measured_latency_ms: float
    bias_ms: float
    search: SearchResult
    shrink: Optional[ShrinkResult]
    # None on a tabular replay (the artifact's columns replace it).
    predictor: Optional[LatencyPredictor]
    final_space: SearchSpace
    ledger: Optional[MeasurementLedger] = None
    degradation: Optional[DegradationReport] = None

    def summary(self) -> str:
        lines = [
            f"discovered architecture: {self.arch}",
            f"top-1/top-5 error: {self.top1_error:.1f}% / {self.top5_error:.1f}%",
            (
                f"latency: predicted {self.predicted_latency_ms:.1f} ms, "
                f"measured {self.measured_latency_ms:.1f} ms "
                f"(bias B = {self.bias_ms:+.2f} ms)"
            ),
            f"EA evaluations: {self.search.num_evaluations}",
        ]
        if self.shrink is not None:
            removed = sum(self.shrink.orders_of_magnitude_removed())
            lines.append(
                f"space shrinking: -{removed:.1f} orders of magnitude "
                f"({self.shrink.quality_evaluations} quality evaluations)"
            )
        if self.ledger is not None:
            lines.append(f"search cost: {self.ledger.summary()}")
        if self.degradation is not None and self.degradation.degraded():
            lines.append(f"measurement health: {self.degradation.summary()}")
        return "\n".join(lines)


class HSCoNAS:
    """Hardware-software co-design NAS for one device/target pair.

    Parameters
    ----------
    space:
        The initial search space ``A``.
    device:
        Target device model (simulated hardware).
    surrogate:
        Accuracy model; defaults to the calibrated ImageNet surrogate
        for the given space.
    config:
        Pipeline hyper-parameters.
    """

    def __init__(
        self,
        space: SearchSpace,
        device: DeviceModel,
        config: Optional[HSCoNASConfig] = None,
        surrogate: Optional[AccuracySurrogate] = None,
    ):
        self.space = space
        self.device = device
        self.config = config if config is not None else HSCoNASConfig()
        # A bad plan fails here, before stage 1 profiles a single cell.
        if self.config.shrink_stage_layers is not None:
            validate_stage_layers(
                self.config.shrink_stage_layers, space.num_layers
            )
        self.surrogate = (
            surrogate
            if surrogate is not None
            else AccuracySurrogate.for_space(space)
        )
        self.ledger = MeasurementLedger()
        # One degradation report spans the whole run: LUT-build faults,
        # measurement retries, and in-search fallbacks all land here.
        self.degradation = DegradationReport()
        self.profiler = OnDeviceProfiler(
            device,
            seed=self.config.seed,
            ledger=self.ledger,
            retry=self.config.retry,
            degradation=self.degradation,
        )

    # -- stage 1: hardware performance modeling ---------------------------------

    def build_predictor(self) -> LatencyPredictor:
        """Build the LUT and calibrate ``B`` (Eq. 2-3)."""
        cfg = self.config
        lut = LatencyLUT.build(
            self.space,
            self.device,
            samples_per_cell=cfg.lut_samples_per_cell,
            seed=cfg.seed,
            ledger=self.ledger,
            workers=cfg.workers,
            backend=cfg.backend,
            retry=cfg.retry,
        )
        predictor = LatencyPredictor(
            lut,
            self.space,
            ledger=self.ledger,
            degraded_ok=cfg.degraded_ok,
            degradation=self.degradation,
        )
        predictor.calibrate_bias(
            self.space,
            self.profiler,
            num_archs=cfg.bias_calibration_archs,
            seed=cfg.seed + 1,
        )
        return predictor

    # -- checkpoint plumbing -----------------------------------------------------

    PHASES = ("predictor", "shrink", "search")
    # Everything a resumed run needs to continue exactly where stage 1
    # left off; a payload missing any of these predates this format.
    _PREDICTOR_KEYS = ("lut", "bias_ms", "profiler_rng", "ledger", "degradation")
    # Optional: only a degraded run's report reads them, and older
    # checkpoints lack them.
    #   lut_fallbacks: the LUT's nearest-cell memo (``fallback_cells``)
    #   device_faults: a FlakyDevice's fault stream (``probe_retries``)

    def _restore_predictor(self, saved: dict, source: Path) -> LatencyPredictor:
        lut = LatencyLUT.from_json(saved["lut"])
        # The LUT may lack only the cells whose probes failed for good,
        # which a degraded build leaves out too.
        missing, first = lut.uncovered(self.space)
        failed = saved["degradation"].get("missing_cells", 0)
        if missing > failed:
            raise RunStateError(
                f"predictor checkpoint in {source} does not cover the "
                f"search space: {first} ({missing} missing, "
                f"{failed} recorded as failed probes); start a new run "
                "with --run-dir"
            )
        if "lut_fallbacks" in saved:
            lut.restore_fallback_state(saved["lut_fallbacks"])
        if "device_faults" in saved and isinstance(self.device, FlakyDevice):
            self.device.restore_fault_state(saved["device_faults"])
        self.ledger.restore(saved["ledger"])
        self.degradation.restore(saved["degradation"])
        self.profiler.set_rng_state(saved["profiler_rng"])
        predictor = LatencyPredictor(
            lut,
            self.space,
            bias_ms=float(saved["bias_ms"]),
            ledger=self.ledger,
            degraded_ok=self.config.degraded_ok,
            degradation=self.degradation,
        )
        predictor.calibrated = True
        return predictor

    def _predictor_payload(self, predictor: LatencyPredictor) -> dict:
        payload = {
            "format": 1,
            "lut": predictor.lut.to_json(),
            "lut_fallbacks": predictor.lut.fallback_state(),
            "bias_ms": predictor.bias_ms,
            "profiler_rng": self.profiler.rng_state(),
            "ledger": self.ledger.to_dict(),
            "degradation": self.degradation.to_dict(),
        }
        if isinstance(self.device, FlakyDevice):
            payload["device_faults"] = self.device.fault_state()
        return payload

    def checkpointed_predictor(
        self, run_state: Optional[RunDir]
    ) -> LatencyPredictor:
        """Stage 1, resumable: restore the LUT + bias from a completed
        ``predictor`` phase checkpoint, or build and checkpoint them.

        The profiler's measurement-noise rng state is saved *after*
        bias calibration, so the final verification measurement of a
        resumed run draws the same noise as an uninterrupted one. A
        restored LUT must hold every cell of the space except those its
        saved degradation report counts as failed probes; any other
        hole raises :class:`RunStateError` before the shrink phase.
        """
        if run_state is None:
            return self.build_predictor()
        checkpoint = PhaseCheckpoint(run_state, "predictor")
        saved = checkpoint.load()
        if saved is not None and checkpoint.is_complete():
            missing = [k for k in self._PREDICTOR_KEYS if k not in saved]
            if missing:
                raise RunStateError(
                    f"predictor checkpoint in {run_state.path} lacks "
                    f"{', '.join(missing)} (written by an older version); "
                    "start a new run with --run-dir"
                )
            return self._restore_predictor(saved, run_state.path)
        predictor = self.build_predictor()
        checkpoint.save(self._predictor_payload(predictor), complete=True)
        return predictor

    def _phase_checkpoint(
        self,
        run_state: Optional[RunDir],
        phase: str,
        cache: EvaluationCache,
        evaluator: EvaluationBackend,
    ) -> Optional[PhaseCheckpoint]:
        """The ``shrink``/``search`` checkpoint, or ``None`` unchecked.

        Every save piggybacks the pipeline-owned state (shared cache,
        ledger, degradation report, dispatch counters), so a resume
        restores the exact counters and memo the searcher saw — without
        the searchers knowing any of it exists.
        """
        if run_state is None:
            return None

        def save() -> dict:
            return {
                "cache": cache.snapshot(lambda e: e.to_dict()),
                "ledger": self.ledger.to_dict(),
                "degradation": self.degradation.to_dict(),
                "dispatch": [evaluator.batches, evaluator.items],
            }

        def restore(state: dict) -> None:
            cache.restore(state["cache"], EvaluatedArch.from_dict)
            self.ledger.restore(state["ledger"])
            self.degradation.restore(state["degradation"])
            evaluator.batches, evaluator.items = state.get(
                "dispatch", (evaluator.batches, evaluator.items)
            )

        return PhaseCheckpoint(
            run_state, phase, extra_save=save, extra_restore=restore
        )

    # -- tabular replay -----------------------------------------------------------

    def _replay_objective(self) -> Objective:
        """The Eq. 1 objective scored from a prebuilt tabular artifact.

        Loading verifies the artifact's schema, checksums, and space
        fingerprint (:mod:`repro.tabular.artifact`), so a wrong-space
        or corrupt table fails loudly here rather than replaying
        garbage. The table must be exhaustive: shrinking and the EA
        sample freely from the space, and replay never silently falls
        back to live evaluation.
        """
        cfg = self.config
        # Local import: repro.tabular builds tables *through* this
        # pipeline's recipes, so the dependency must stay one-way at
        # module-import time.
        from repro.space.encoding import space_cardinality
        from repro.tabular import TabularEvaluator, load_artifact

        table = load_artifact(cfg.table, space=self.space)
        if not table.exhaustive:
            raise ValueError(
                "pipeline replay needs an exhaustive table; "
                f"{cfg.table} holds {len(table)} of "
                f"{space_cardinality(self.space)} architectures — "
                "rebuild with num_archs=None"
            )
        return TabularEvaluator(table, device=cfg.table_device).objective(
            cfg.target_ms, cfg.beta
        )

    # -- run steps: stage 1 + objective, space shrinking -------------------------

    def _objective_and_backend(
        self, run_state: Optional[RunDir]
    ) -> Tuple[Optional[LatencyPredictor], Objective, EvaluationBackend]:
        """Stage 1 and the Eq. 1 objective, plus the one evaluation
        backend that serves every later phase.

        The predictor is ``None`` on a tabular replay: the artifact's
        columns *are* the predictor (and surrogate) outputs, recorded at
        build time.
        """
        cfg = self.config
        if cfg.backend == "tabular":
            objective = self._replay_objective()
            return None, objective, TabularBackend(objective.evaluate_many)
        predictor = self.checkpointed_predictor(run_state)
        objective = Objective(
            accuracy_fn=self.surrogate.proxy_accuracy,
            latency_fn=predictor.predict,
            target_ms=cfg.target_ms,
            beta=cfg.beta,
            accuracy_many_fn=self.surrogate.proxy_accuracy_many,
            latency_many_fn=predictor.predict_many,
        )
        # "auto" resolves to multiprocess when workers >= 2, serial
        # otherwise. Worker-side evaluations query the predictor in the
        # workers' address space, where its ledger increments are lost
        # — the hook replays them (one query per architecture) so
        # search-cost accounting matches the serial run. The serial
        # backend performs those increments inline and ignores the hook.
        evaluator = create_backend(
            cfg.backend,
            objective.evaluate_many,
            workers=cfg.workers,
            on_worker_items=self.ledger.record_prediction,
        )
        return predictor, objective, evaluator

    def _shrink(
        self,
        run_state: Optional[RunDir],
        objective: Objective,
        evaluator: EvaluationBackend,
        cache: EvaluationCache,
    ) -> ShrinkResult:
        """Progressive space shrinking of the initial space (Sec. III-C)."""
        cfg = self.config
        quality = SubspaceQuality(
            objective,
            num_samples=cfg.quality_samples,
            seed=cfg.seed + 2,
            cache=cache,
            evaluator=evaluator,
        )
        return ProgressiveSpaceShrinking(
            quality,
            stage_layers=cfg.shrink_stage_layers,
            checkpoint=self._phase_checkpoint(
                run_state, "shrink", cache, evaluator
            ),
        ).run(self.space)

    def shrink(
        self, run_state: Optional[RunDir] = None
    ) -> Tuple[ShrinkResult, dict]:
        """Stage 1 and space shrinking only — ``repro shrink``.

        Exactly the shrink phase :meth:`run` performs (same objective,
        quality seed, and checkpoints, so a run directory resumes the
        same way), stopping before the EA. Returns the shrink result
        and the evaluation backend's dispatch counters.
        """
        cache = EvaluationCache()
        _, objective, evaluator = self._objective_and_backend(run_state)
        self.ledger.freeze_measurements()
        with evaluator:
            result = self._shrink(run_state, objective, evaluator, cache)
            dispatch_stats = evaluator.stats()
        self.ledger.thaw_measurements()
        return result, dispatch_stats

    # -- full pipeline --------------------------------------------------------------

    def run(
        self, run_state: Optional[RunDir] = None, cancel=None
    ) -> HSCoNASResult:
        """Execute the whole pipeline and return the discovered network.

        With a ``run_state``, every phase boundary and every unit of
        intra-phase progress (per-layer shrink decisions, per-generation
        EA populations) is checkpointed crash-safely, and a killed run
        re-invoked with the same ``run_state`` resumes bit-exact — same
        architecture, same numbers — for any ``workers`` setting.

        ``cancel`` is an optional cooperative
        :class:`~repro.resilience.CancelToken` forwarded into the EA
        (checked per generation); an expired deadline raises
        :class:`~repro.resilience.DeadlineExceeded` with partial
        progress, and with a ``run_state`` the completed generations
        remain resumable.
        """
        cfg = self.config
        # One cache spans shrinking and the EA: the proxy accuracy and
        # the predictor (or the replay table) are both frozen for the
        # whole run, so a score computed during shrinking is still
        # valid when the EA re-visits the same architecture.
        eval_cache = EvaluationCache()
        predictor, objective, evaluator = self._objective_and_backend(
            run_state
        )

        # From here until the final verification measurement the search
        # is measurement-free — the property Eq. 2-3 buys. The frozen
        # ledger turns an accidental on-device call into a hard error.
        self.ledger.freeze_measurements()
        try:
            shrink_result: Optional[ShrinkResult] = None
            search_space = self.space
            if cfg.enable_shrinking:
                shrink_result = self._shrink(
                    run_state, objective, evaluator, eval_cache
                )
                assert shrink_result.final_space is not None
                search_space = shrink_result.final_space

            # The EA seed is always derived from the pipeline seed so that
            # one knob controls the whole run's determinism; the rest of the
            # EvolutionConfig (budgets, probabilities) is honoured as given.
            evolution_cfg = EvolutionConfig(
                generations=cfg.evolution.generations,
                population_size=cfg.evolution.population_size,
                num_parents=cfg.evolution.num_parents,
                crossover_prob=cfg.evolution.crossover_prob,
                mutation_prob=cfg.evolution.mutation_prob,
                per_layer_mutation_prob=cfg.evolution.per_layer_mutation_prob,
                seed=cfg.seed + 3,
            )
            search = EvolutionarySearch(
                search_space,
                objective,
                evolution_cfg,
                cache=eval_cache,
                evaluator=evaluator,
                checkpoint=self._phase_checkpoint(
                    run_state, "search", eval_cache, evaluator
                ),
                cancel=cancel,
            )
            search_result = search.run()
        finally:
            evaluator.close()

        self.ledger.thaw_measurements()
        best = search_result.best.arch
        if predictor is None:
            # Replay never touches a device: the recorded column is
            # both the prediction and the "measurement", and the bias
            # is whatever the build recipe calibrated into the column.
            predicted = objective.latency_fn(best)
            return HSCoNASResult(
                arch=best,
                top1_error=self.surrogate.top1_error(best),
                top5_error=self.surrogate.top5_error(best),
                predicted_latency_ms=predicted,
                measured_latency_ms=predicted,
                bias_ms=0.0,
                search=search_result,
                shrink=shrink_result,
                predictor=None,
                final_space=search_space,
                ledger=self.ledger,
                degradation=self.degradation,
            )
        return HSCoNASResult(
            arch=best,
            top1_error=self.surrogate.top1_error(best),
            top5_error=self.surrogate.top5_error(best),
            predicted_latency_ms=predictor.predict(best),
            measured_latency_ms=self.profiler.measure_ms(self.space, best),
            bias_ms=predictor.bias_ms,
            search=search_result,
            shrink=shrink_result,
            predictor=predictor,
            final_space=search_space,
            ledger=self.ledger,
            degradation=self.degradation,
        )
