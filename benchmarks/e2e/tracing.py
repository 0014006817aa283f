"""Spans and counters recorded from outside the program under test.

The benchmark never edits ``src/``. A traced pass times each layer by
swapping a public function or method for a wrapper that opens a span
(:func:`instrument`), and puts the original back when the pass ends.
Spans nest per thread; a span's *self time* is its duration minus the
time its direct child spans cover, so self times add up to the time of
the outermost spans without double counting.

Every span updates per-name aggregates (count, total, self). Spans
opened with ``record=True`` are also kept as individual events for the
Chrome trace; per-architecture calls (tens of thousands per run) are
aggregated only, which bounds memory and trace size.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class _Frame:
    __slots__ = ("id", "name", "start", "child_s", "rid", "record", "parent")

    def __init__(self, id_, name, start, rid, record, parent):
        self.id = id_
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.rid = rid
        self.record = record
        self.parent = parent


class Tracer:
    """In-memory spans with per-thread nesting, plus named counters.

    ``rid`` is the default workload/request id of spans that do not
    inherit one from an enclosing span (server threads, for instance).
    ``clock`` is injectable so tests can drive exact timings.
    """

    def __init__(
        self, rid: str = "", clock: Callable[[], float] = time.perf_counter
    ):
        self.clock = clock
        self.rid = rid
        self.origin = clock()
        self.events: List[dict] = []
        # name -> [count, total_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def paused(self):
        """Open no spans on this thread (the benchmark's own checks)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def is_paused(self) -> bool:
        return getattr(self._local, "paused", False)

    def begin(
        self, name: str, record: bool = True, rid: Optional[str] = None
    ) -> Optional[_Frame]:
        if self.is_paused():
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent.rid if parent is not None else self.rid
        frame = _Frame(
            next(self._ids), name, self.clock(), rid, record,
            parent.id if parent is not None else None,
        )
        stack.append(frame)
        return frame

    def end(self, frame: Optional[_Frame]) -> None:
        if frame is None:
            return
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            agg = self.totals.get(frame.name)
            if agg is None:
                agg = self.totals[frame.name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame.child_s
            if frame.record:
                self.events.append({
                    "name": frame.name,
                    "id": frame.id,
                    "parent": frame.parent,
                    "rid": frame.rid,
                    "start": frame.start,
                    "end": end,
                    "tid": threading.get_ident(),
                })

    @contextmanager
    def span(self, name: str, record: bool = True, rid: Optional[str] = None):
        frame = self.begin(name, record, rid)
        try:
            yield frame
        finally:
            self.end(frame)

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def count(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def chrome_trace(self) -> dict:
        """Recorded spans as Chrome trace-event JSON (Perfetto-viewable)."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": e["name"],
                    "cat": e["name"].split(".")[0],
                    "ph": "X",
                    "ts": (e["start"] - self.origin) * 1e6,
                    "dur": (e["end"] - e["start"]) * 1e6,
                    "pid": 1,
                    "tid": e["tid"],
                    "args": {"id": e["id"], "parent": e["parent"],
                             "rid": e["rid"]},
                }
                for e in self.events
            ],
        }


# -- patching ---------------------------------------------------------------------

Patch = Tuple[object, str, Callable[[Callable], Callable]]


@contextmanager
def instrument(patches: Iterable[Patch]):
    """Swap ``owner.attr`` for ``factory(original)``; restore on exit.

    Classmethods are unwrapped and rewrapped, so ``LatencyLUT.build``
    keeps working as a classmethod. An attribute inherited from a base
    class is deleted again on exit rather than pinned on the subclass.
    """
    applied = []
    try:
        for owner, attr, factory in patches:
            raw = inspect.getattr_static(owner, attr)
            owned = attr in vars(owner)
            if isinstance(raw, classmethod):
                new = classmethod(factory(raw.__func__))
            else:
                new = factory(raw)
            setattr(owner, attr, new)
            applied.append((owner, attr, raw, owned))
        yield
    finally:
        for owner, attr, raw, owned in reversed(applied):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def spanned(
    tracer: Tracer,
    name: str,
    record: bool = False,
    after: Optional[Callable[[Tracer, tuple, object], None]] = None,
):
    """Wrapper factory: time each call as span ``name``; ``after``
    derives counters from the call's arguments and result."""

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None and frame is not None:
                after(tracer, args, result)
            return result

        return wrapper

    return factory


def counted(tracer: Tracer, after: Callable[[Tracer, tuple, object], None]):
    """Wrapper factory that only derives counters (no span)."""

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not tracer.is_paused():
                after(tracer, args, result)
            return result

        return wrapper

    return factory


def _cache_counts(tracer: Tracer):
    """Span plus hit/miss deltas around ``get_or_eval_many``."""

    def factory(fn):
        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            hits, misses = cache.hits, cache.misses
            frame = tracer.begin("core.cache", False)
            try:
                return fn(cache, *args, **kwargs)
            finally:
                tracer.end(frame)
                if frame is not None:
                    tracer.add("core.cache_hits", cache.hits - hits)
                    tracer.add("core.cache_misses", cache.misses - misses)

        return wrapper

    return factory


def program_patches(tracer: Tracer) -> List[Patch]:
    """The layer boundaries of ``repro`` the traced pass times.

    Span names are ``<layer>.<call>``; the layer prefix is what the
    per-layer summary groups by. Methods are patched on their defining
    class, so calls made deep inside the program (``HSCoNAS.run`` ->
    ``LatencyLUT.build``) are timed too.
    """
    import repro.tabular.sweep as sweep_module
    from repro.accuracy import AccuracySurrogate
    from repro.core import (
        EvaluationCache,
        EvolutionarySearch,
        Nsga2Search,
        Objective,
        ProgressiveSpaceShrinking,
        SubspaceQuality,
    )
    from repro.hardware import LatencyLUT, LatencyPredictor, OnDeviceProfiler
    from repro.parallel.backend import SerialBackend, TabularBackend
    from repro.serve import SearchService, ServeClient
    from repro.space import SearchSpace
    from repro.supernet import SupernetFastEval
    from repro.tabular import TabularBenchmark, TabularEvaluator
    from repro.train.supernet_trainer import SupernetTrainer

    def n_archs(counter):
        # args[0] is self; args[1] the batch of architectures.
        return lambda t, args, result: t.add(counter, len(args[1]))

    def backend_counts(t, args, result):
        t.add("parallel.batches")
        t.add("parallel.items", len(result))

    def ea_counts(t, args, result):
        t.add("core.ea_generations", len(result.generations))
        t.add("core.ea_evaluations", result.num_evaluations)

    s = functools.partial(spanned, tracer)
    return [
        (LatencyLUT, "build", s(
            "hardware.lut_build", True,
            lambda t, args, lut: t.add("hardware.lut_cells", len(lut)),
        )),
        (LatencyPredictor, "calibrate_bias",
         s("hardware.bias_calibration", True)),
        (LatencyPredictor, "predict_many", s(
            "hardware.predict_many", False, n_archs("hardware.predicted_archs"),
        )),
        (LatencyPredictor, "predict", s(
            "hardware.predict", False,
            lambda t, args, result: t.add("hardware.predicted_archs"),
        )),
        (OnDeviceProfiler, "measure_ms", s("hardware.measure")),
        (AccuracySurrogate, "proxy_accuracy", s("accuracy.proxy_accuracy")),
        (SearchSpace, "arch_flops", s("space.arch_flops")),
        (SupernetFastEval, "accuracy_many", s(
            "supernet.accuracy_many", False, n_archs("supernet.archs"),
        )),
        (SupernetTrainer, "train_epochs", s("train.supernet", True)),
        (ProgressiveSpaceShrinking, "run", s(
            "core.shrink", True,
            lambda t, args, r: t.add(
                "core.quality_evaluations", r.quality_evaluations
            ),
        )),
        (ProgressiveSpaceShrinking, "shrink_layer",
         s("core.shrink_layer", True)),
        (SubspaceQuality, "estimate_many", s("core.quality")),
        (EvolutionarySearch, "run", s("core.ea", True, ea_counts)),
        (Nsga2Search, "run", s(
            "core.nsga2", True,
            lambda t, args, r: t.add(
                "core.nsga2_evaluations", r.num_evaluations
            ),
        )),
        (Nsga2Search, "eval_many", s("core.objective")),
        (Objective, "evaluate_many", s("core.objective")),
        (EvaluationCache, "get_or_eval_many", _cache_counts(tracer)),
        (SerialBackend, "map", counted(tracer, backend_counts)),
        (TabularBackend, "map", counted(tracer, backend_counts)),
        (sweep_module, "run_scenario", s("tabular.scenario")),
        (TabularEvaluator, "accuracy_many", s("tabular.gather")),
        (TabularEvaluator, "latency_many", s("tabular.gather")),
        (TabularBenchmark, "best_under", s("tabular.gather")),
        (ServeClient, "request_raw", s("serve.client")),
        (SearchService, "resolve", s("serve.resolve")),
        (SearchService, "front", s("serve.front")),
    ]


# -- per-layer summary ----------------------------------------------------------

# Layers whose spans run inside the benchmark's operations. Supernet
# training (``train.*``) runs in set-up and is reported in the span
# table only.
LAYERS = ("hardware", "accuracy", "space", "supernet", "core", "tabular",
          "serve")
# Server-side roots run on their own threads while a client span waits
# for them; their time is taken out of the client span's self time so
# every second is attributed once.
REMOTE_ROOTS = {"serve.resolve": "serve.client"}


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer, plus ``unattributed`` (op self time)."""
    layers = {layer: 0.0 for layer in LAYERS}
    layers["unattributed"] = 0.0
    for name, (_count, _total, self_s) in tracer.totals.items():
        layer = name.split(".", 1)[0]
        if layer == "op":
            layers["unattributed"] += self_s
        elif layer in layers:
            layers[layer] += self_s
    for remote, local in REMOTE_ROOTS.items():
        layer = local.split(".", 1)[0]
        moved = min(tracer.total_s(remote), tracer.self_s(local))
        layers[layer] -= moved
    return layers


def op_wall_s(tracer: Tracer) -> float:
    """Summed duration of the benchmark's operation spans (``op.*``)."""
    return sum(
        total for name, (_c, total, _s) in tracer.totals.items()
        if name.startswith("op.")
    )


def span_table(tracer: Tracer) -> Dict[str, dict]:
    return {
        name: {"count": int(c), "total_s": total, "self_s": self_s}
        for name, (c, total, self_s) in sorted(tracer.totals.items())
    }


def per_layer_metrics(
    tracer: Tracer, counters: Dict[str, float], cycles: int,
    overhead_pct: float,
) -> Dict[str, float]:
    """The per-layer metric values, per workload cycle (one seed).

    Times of layers every workload exercises are reported in seconds;
    each layer's share of operation wall time is reported in percent
    (zero where the workload bypasses the layer); counts come from
    counting wrappers and the workload itself.
    """
    counts = dict(tracer.counters)
    for name, value in counters.items():
        counts[name] = counts.get(name, 0) + value
    per = 1.0 / max(cycles, 1)
    wall = op_wall_s(tracer)
    layers = layer_self_times(tracer)
    accuracy_s = (
        tracer.total_s("accuracy.proxy_accuracy")
        + tracer.total_s("supernet.accuracy_many")
    )
    scored = tracer.count("accuracy.proxy_accuracy") + counts.get(
        "supernet.archs", 0
    )
    supernet_s = tracer.total_s("supernet.accuracy_many")
    hits = counts.get("core.cache_hits", 0)
    misses = counts.get("core.cache_misses", 0)

    def pct(part, whole):
        return 100.0 * part / whole if whole > 0 else 0.0

    metrics = {
        "hardware.lut_build_s": tracer.total_s("hardware.lut_build") * per,
        "hardware.bias_calibration_s":
            tracer.total_s("hardware.bias_calibration") * per,
        "hardware.predict_many_s":
            tracer.total_s("hardware.predict_many") * per,
        "hardware.lut_cells": counts.get("hardware.lut_cells", 0) * per,
        "hardware.device_measurements":
            tracer.count("hardware.measure") * per,
        "hardware.predicted_archs":
            counts.get("hardware.predicted_archs", 0) * per,
        "accuracy.eval_s": accuracy_s * per,
        "accuracy.us_per_arch": 1e6 * accuracy_s / scored if scored else 0.0,
        "accuracy.surrogate_archs":
            tracer.count("accuracy.proxy_accuracy") * per,
        "space.arch_flops_calls": tracer.count("space.arch_flops") * per,
        "supernet.archs": counts.get("supernet.archs", 0) * per,
        "core.self_s": layers["core"] * per,
        "core.shrink_decisions": tracer.count("core.shrink_layer") * per,
        "core.quality_evaluations":
            counts.get("core.quality_evaluations", 0) * per,
        "core.ea_generations": counts.get("core.ea_generations", 0) * per,
        "core.ea_evaluations": counts.get("core.ea_evaluations", 0) * per,
        "core.nsga2_evaluations":
            counts.get("core.nsga2_evaluations", 0) * per,
        "core.cache_hits": hits * per,
        "core.cache_misses": misses * per,
        "core.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "parallel.batches": counts.get("parallel.batches", 0) * per,
        "parallel.items": counts.get("parallel.items", 0) * per,
        "tabular.rows": counts.get("tabular.rows", 0) * per,
        "tabular.scenarios": tracer.count("tabular.scenario") * per,
        "tabular.artifact_bytes": counts.get("tabular.artifact_bytes", 0) * per,
        "serve.requests": counts.get("serve.requests", 0) * per,
        "serve.fronts_computed": counts.get("serve.fronts_computed", 0) * per,
        "serve.coalesced": counts.get("serve.coalesced", 0) * per,
        "serve.front_cache_hit_rate":
            counts.get("serve.front_cache_hit_rate", 0.0),
        "resilience.admitted": counts.get("resilience.admitted", 0) * per,
        "resilience.shed_total": counts.get("resilience.shed_total", 0) * per,
        "resilience.peak_in_flight":
            counts.get("resilience.peak_in_flight", 0),
        "resilience.breaker_failures":
            counts.get("resilience.breaker_failures", 0),
        "supernet.im2col_pct":
            pct(counts.get("supernet.im2col_s", 0.0), supernet_s),
        "supernet.gemm_pct": pct(counts.get("supernet.gemm_s", 0.0), supernet_s),
        "supernet.other_pct":
            pct(counts.get("supernet.other_s", 0.0), supernet_s),
        "trace.coverage_pct": pct(wall - layers["unattributed"], wall),
        "trace.overhead_pct": overhead_pct,
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_pct"] = pct(seconds, wall)
    return metrics
