"""The four end-to-end workloads and the harness that measures them.

Every workload drives ``repro`` through its public API only. A run
sets the workload up, then repeats *cycles* -- one per seed, starting
at ``--seed`` -- until ``--seconds`` have passed and at least
``MIN_CYCLES`` ran. Each cycle runs the
workload's *heavy* operation (the expensive request a user waits for)
and its *light* operations (the cheap, frequent request), checks the
outputs, and fingerprints them.

=============== ============================== ==================================
workload        heavy operation                light operation
=============== ============================== ==================================
search_a        ``repro search`` (HSCoNAS.run) one of 3 ``repro front`` recipes
supernet_proxy  predictor + Eq.-4 shrinking    one of 3 EAs in the shrunk space
tabular_mini    tabulate + save + load         one replayed sweep scenario
serve_mix       cold ``/front`` (HTTP)         warm ``/front`` hit (HTTP)
=============== ============================== ==================================

Sizes are constructor arguments (``DEFAULTS``), so tests run the same
code at tiny sizes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import report
from tracing import (
    Tracer,
    instrument,
    layer_self_times,
    op_wall_s,
    per_layer_metrics,
    program_patches,
    span_table,
)

from repro.accuracy import AccuracySurrogate
from repro.core import (
    EvaluationCache,
    EvolutionConfig,
    EvolutionarySearch,
    HSCoNAS,
    HSCoNASConfig,
    Objective,
    ProgressiveSpaceShrinking,
    SubspaceQuality,
)
from repro.data import BatchLoader
from repro.data.synthetic import SyntheticImageDataset
from repro.hardware.calibration import calibrated_devices
from repro.parallel import create_backend
from repro.runstate.atomic import atomic_write_json, atomic_write_text
from repro.serve import ServeClient, ServeConfig, start_server
from repro.serve.pipeline import build_front_predictor, front_search
from repro.space import SearchSpace, space_for_layout
from repro.space.architecture import Architecture
from repro.space.encoding import space_cardinality
from repro.space.operators import NUM_OPERATORS, get_operator
from repro.supernet import Supernet, SupernetFastEval
from repro.tabular import (
    SweepReport,
    load_artifact,
    run_sweep,
    save_artifact,
    tabulate,
)
from repro.tabular.build import recipe_predictor, recipe_surrogate
from repro.train.supernet_trainer import SupernetTrainer, TrainConfig

HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
GOLDEN_PATH = HERE / "golden.json"


# The host shares its physical cores with other tenants, whose load
# slows every instruction of this process -- CPU time grows with wall
# time -- by up to ~2x, switching on and off several times a second.
# While operations run, a timer interrupts the main thread every
# PROBE_INTERVAL_S to time a short fixed probe. The probes' own time is
# taken out of the operations' wall time, and each operation's latency
# is multiplied by the probe's reference time over the mean time of the
# probes that ran during it (else the last one before it), so the
# metrics read as times on the idle host.
#
# How much the load slows a piece of code depends on the code, so each
# workload names the probe parts that do its kinds of work:
# "interpreter" (tuple keys, dict updates, small-array numpy calls)
# and "gemm" (one BLAS matrix product). Each part's reference is its
# median on the idle baseline host (2-vCPU Intel Xeon, Python 3.11,
# numpy 2.4); they only set the scale.
REFERENCE_PROBE_S = {"interpreter": 0.00065, "gemm": 0.00066}
PROBE_INTERVAL_S = 0.05

# Runs measure at least this many cycles, whatever --seconds says, and
# peak memory is read when the last of them ends, so it covers the same
# work in every run: the daemon's caches grow with every cycle, and how
# many cycles fit in --seconds depends on the host.
MIN_CYCLES = 2


class HostProbe:
    """Samples the host's speed while operations run.

    The interpreter part never releases the GIL, so when it runs while
    another thread computes it times the host, not the other thread.
    """

    def __init__(self, parts: Tuple[str, ...] = ("interpreter",)):
        self.reference_s = sum(REFERENCE_PROBE_S[part] for part in parts)
        self._parts = [getattr(self, f"_{part}") for part in parts]
        self._small = [np.full((8, 8), float(i)) for i in range(8)]
        self._a = np.linspace(0.0, 1.0, 128 * 512).reshape(128, 512)
        self._b = np.linspace(0.0, 1.0, 512 * 256).reshape(512, 256)
        self.seconds: List[float] = []
        # (probes run, their seconds), replaced whole so that other
        # threads always read a consistent pair
        self.tally = (0, 0.0)
        self.last: Optional[float] = None
        self._busy = False

    def _interpreter(self) -> None:
        counts = {}
        for i in range(2000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + i
        total = 0.0
        for i in range(100):
            total += float((self._small[i % 8] * 1.5 + 0.5).sum())

    def _gemm(self) -> None:
        self._a @ self._b

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            for part in self._parts:
                part()
            elapsed = time.perf_counter() - start
            self.seconds.append(elapsed)
            count, spent = self.tally
            self.tally = (count + 1, spent + elapsed)
            self.last = elapsed
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Probe every PROBE_INTERVAL_S inside the block (main thread)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def since(self, before) -> Tuple[int, float]:
        """Probes run, and their seconds, since ``tally`` read ``before``."""
        count, spent = self.tally
        return count - before[0], spent - before[1]

    def factor(self, probe_s: Optional[float] = None) -> float:
        """Idle-host over current speed for a mean probe time of
        ``probe_s`` (default: every probe so far; 1 without probes)."""
        if probe_s is None:
            count, spent = self.tally
            probe_s = spent / count if count else self.reference_s
        return self.reference_s / probe_s


# A warm ``/front`` hit is mostly loopback connects and thread wake-ups,
# whose cost moves with where the host schedules the threads, not with
# the probe. Warm-hit timings are therefore rescaled by this constant
# over the median round trip of a fixed stdlib HTTP server, measured
# alternately with the hits. The constant is that round trip's median
# during warm bursts on the baseline host (the one of
# REFERENCE_PROBE_S); it only sets the scale.
REFERENCE_HTTP_MS = 0.75


class _FixedBody(BaseHTTPRequestHandler):
    body = bytes(7600)  # about one served front

    def do_GET(self):  # noqa: N802 - http.server's hook name
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


class HttpReference:
    """A stdlib HTTP/1.0 server answering every GET with fixed bytes,
    one connection and one handler thread per request like the daemon,
    so a round trip costs what a warm hit pays before any daemon code.
    """

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.server = ThreadingHTTPServer(  # repro-lint: disable=RL108
            ("127.0.0.1", 0), _FixedBody
        )
        self.server.daemon_threads = False
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()
        self.ms: List[float] = []

    def round_trip(self) -> None:
        host, port = self.server.server_address[:2]
        before = self.probe.tally
        start = time.perf_counter()
        conn = HTTPConnection(host, port, timeout=30)  # repro-lint: disable=RL108
        try:
            conn.request("GET", "/")
            conn.getresponse().read()
        finally:
            conn.close()
        wall = time.perf_counter() - start
        self.ms.append((wall - self.probe.since(before)[1]) * 1e3)

    def factor(self) -> float:
        """Idle-host over current round trip: multiply a hit's time by it."""
        if not self.ms:
            return 1.0
        return REFERENCE_HTTP_MS / statistics.median(self.ms)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


def fingerprint(payload) -> str:
    """Short sha256 of a JSON-ready payload (floats at full precision)."""
    text = json.dumps(payload, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def jsonable(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


class Recorder:
    """Operation latencies, failures and counters of one run.

    Thread-safe: the serving workload records from two client threads.
    With a tracer, every operation is also an ``op.<kind>`` root span.
    An operation's latency excludes the probes that ran during it.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 probe: Tuple[str, ...] = ("interpreter",)):
        self.tracer = tracer
        self.probe = HostProbe(probe)
        self.rid: Optional[str] = None
        # kind -> (milliseconds, probe seconds) of each successful
        # operation; the probe seconds are the mean of the probes that
        # ran during it, else the last one before it (None before any)
        self.samples: Dict[str, List[Tuple[float, Optional[float]]]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()

    def time(self, kind: str, fn: Callable, *args):
        """Run one operation; its latency lands in ``samples[kind]``.

        A raising operation counts as attempted, adds no latency, and
        re-raises for the caller to record.
        """
        frame = (
            self.tracer.begin(f"op.{kind}", True, self.rid)
            if self.tracer is not None else None
        )
        before = self.probe.tally
        last = self.probe.last
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            wall = time.perf_counter() - start
            count, spent = self.probe.since(before)
            if frame is not None:
                self.tracer.end(frame)
            with self._lock:
                self.attempted += 1
                if ok:
                    self.samples.setdefault(kind, []).append((
                        (wall - spent) * 1e3, spent / count if count else last
                    ))

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def fail(self, message: str) -> None:
        with self._lock:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def span(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)

    def checking(self):
        """The benchmark's own verification work: not traced."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.paused()


def _dominates(a, b) -> bool:
    return (
        a.latency_ms <= b.latency_ms and a.accuracy >= b.accuracy
        and (a.latency_ms < b.latency_ms or a.accuracy > b.accuracy)
    )


def _is_front(points) -> bool:
    """Sorted by latency and no member dominated by another."""
    latencies = [p.latency_ms for p in points]
    return bool(points) and latencies == sorted(latencies) and not any(
        _dominates(a, b) for a in points for b in points if a is not b
    )


class Workload:
    """Set-up in ``__init__``; one seed's operations in :meth:`cycle`."""

    name = ""
    DEFAULTS: dict = {}
    PROBE = ("interpreter",)  # the HostProbe parts that rescale timings

    def __init__(self, rec: Recorder, **sizes):
        unknown = set(sizes) - set(self.DEFAULTS)
        if unknown:
            raise ValueError(f"{self.name}: unknown sizes {sorted(unknown)}")
        self.rec = rec
        self.sizes = {**self.DEFAULTS, **sizes}

    def cycle(self, seed: int) -> dict:
        """Run one seed's operations; return the payload to fingerprint."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop state a previous cycle left behind (caches)."""

    def counters(self) -> Dict[str, float]:
        """Layer counters only the workload can read (end of run)."""
        return {}

    def details(self, traced: bool) -> dict:
        """Extra facts for the run's record (end of run)."""
        return {}

    def speed_factors(self) -> Dict[str, float]:
        """Per operation kind, a factor that replaces the probe's for
        that kind's timings (end of run)."""
        return {}

    def close(self) -> None:
        pass


class SearchA(Workload):
    """The paper pipeline: ``repro search`` then ``repro front`` on layout a.

    The accuracy surrogate and the space geometry do most of the work;
    the supernet does none. A cycle runs ``front_runs`` fronts (seeds
    ``seed * front_runs + k``), so a run's light median covers several.
    """

    name = "search_a"
    DEFAULTS = {
        "layout": "a", "device": "edge", "target_ms": 34.0,
        "quality_samples": 100, "generations": 20, "population_size": 50,
        "parents": 20, "front_generations": 20, "front_population": 50,
        "front_runs": 3,
    }

    def __init__(self, rec: Recorder, **sizes):
        super().__init__(rec, **sizes)
        self.space = space_for_layout(self.sizes["layout"])
        self.device = calibrated_devices()[self.sizes["device"]]

    def _search(self, seed: int):
        s = self.sizes
        config = HSCoNASConfig(
            target_ms=s["target_ms"],
            seed=seed,
            quality_samples=s["quality_samples"],
            evolution=EvolutionConfig(
                generations=s["generations"],
                population_size=s["population_size"],
                num_parents=s["parents"],
                seed=seed,
            ),
        )
        return HSCoNAS(self.space, self.device, config).run()

    def _front(self, seed: int):
        s = self.sizes
        predictor = build_front_predictor(self.space, s["device"], seed)
        return front_search(
            self.space,
            predictor,
            seed=seed,
            generations=s["front_generations"],
            population_size=s["front_population"],
            cache=EvaluationCache(),
            surrogate=AccuracySurrogate(self.space),
        )

    def cycle(self, seed: int) -> dict:
        runs = self.sizes["front_runs"]
        result = self.rec.time("heavy", self._search, seed)
        fronts = {
            front_seed: self.rec.time("light", self._front, front_seed)
            for front_seed in range(seed * runs, (seed + 1) * runs)
        }
        with self.rec.checking():
            self.rec.check(
                self.space.contains(result.arch),
                f"search seed {seed}: result outside the space",
            )
            self.rec.check(
                result.measured_latency_ms > 0,
                f"search seed {seed}: non-positive measured latency",
            )
            for front_seed, front in fronts.items():
                self.rec.check(
                    _is_front(front.front),
                    f"front seed {front_seed}: not a sorted non-dominated "
                    "front",
                )
        return {
            "search": {
                "architecture": result.arch.to_dict(),
                "top1_error": result.top1_error,
                "top5_error": result.top5_error,
                "predicted_latency_ms": result.predicted_latency_ms,
                "measured_latency_ms": result.measured_latency_ms,
                "bias_ms": result.bias_ms,
                "shrink": result.shrink.to_dict() if result.shrink else None,
                "result": result.search.to_dict(),
            },
            "fronts": {
                str(front_seed): {
                    "front": [p.to_dict() for p in front.front],
                    "evaluations": front.num_evaluations,
                }
                for front_seed, front in fronts.items()
            },
        }


class SupernetProxy(Workload):
    """Weight-sharing search: Eq.-4 shrinking, then ``ea_runs`` EAs in
    the shrunk space, scored by the trained proxy supernet
    (``SupernetFastEval`` float path, chunked to bound activation
    memory). The surrogate is not used. Each EA has its own seed and
    cache, so the EAs of a cycle are alike and a run's light median
    covers several of them.
    """

    name = "supernet_proxy"
    # Its operations split their time between interpreter work (the
    # predictor build, the search loops) and im2col + GEMM, which slows
    # under load about as much as one BLAS product: half as much.
    PROBE = ("interpreter", "gemm")
    DEFAULTS = {
        "layout": "proxy", "device": "edge", "train_epochs": 3,
        "train_per_class": 16, "images": 8, "chunk_archs": 10,
        "quality_samples": 12, "generations": 5, "population_size": 30,
        "parents": 12, "target_archs": 64, "op_table_archs": 100,
        "ea_runs": 3,
    }
    STAGES = ("im2col_s", "gemm_s", "scoring_s", "other_s")

    def __init__(self, rec: Recorder, **sizes):
        super().__init__(rec, **sizes)
        s = self.sizes
        self.space = space_for_layout(s["layout"])
        config = self.space.config
        # The supernet is fixed program state, seeded independently of
        # --seed, so fingerprints key on the search seed alone.
        data = SyntheticImageDataset.generate(
            num_classes=config.num_classes,
            train_per_class=s["train_per_class"],
            test_per_class=4,
            image_size=config.input_size,
            channels=config.input_channels,
            seed=0,
        )
        net = Supernet(self.space, seed=0)
        loader = BatchLoader(data.train_x, data.train_y, batch_size=16, seed=0)
        SupernetTrainer(net, loader, TrainConfig(base_lr=0.1, seed=0)).train_epochs(
            self.space, epochs=s["train_epochs"]
        )
        self.fast = SupernetFastEval(net, precision="float")
        self.images = data.test_x[: s["images"]]
        self.labels = data.test_y[: s["images"]]
        # The scorer keeps one im2col buffer per convolution, sized by
        # the architectures of the last chunk that used it, so the peak
        # memory a search reaches depends on its seed. A full chunk of
        # each operator allocates every buffer at its largest first:
        # peak memory is then the scorer's worst case on every seed.
        for op in range(NUM_OPERATORS):
            self._accuracy_many(
                [Architecture.uniform(self.space.num_layers, op, 1.0)]
                * s["chunk_archs"]
            )

    def _accuracy_many(self, archs):
        return self.fast.accuracy_many(
            archs, self.images, self.labels,
            chunk_archs=self.sizes["chunk_archs"],
        )

    def _accuracy(self, arch):
        return self._accuracy_many([arch])[0]

    def _shrink(self, seed: int):
        s = self.sizes
        predictor = build_front_predictor(self.space, s["device"], seed)
        rng = np.random.default_rng(seed)
        probe = [self.space.sample(rng) for _ in range(s["target_archs"])]
        objective = Objective(
            accuracy_fn=self._accuracy,
            latency_fn=predictor.predict,
            target_ms=float(np.median(predictor.predict_many(probe))),
            accuracy_many_fn=self._accuracy_many,
            latency_many_fn=predictor.predict_many,
        )
        cache = EvaluationCache()
        evaluator = create_backend("serial", objective.evaluate_many)
        quality = SubspaceQuality(
            objective,
            num_samples=s["quality_samples"],
            seed=seed + 2,
            cache=cache,
            evaluator=evaluator,
        )
        shrink = ProgressiveSpaceShrinking(quality).run(self.space)
        return objective, evaluator, shrink

    def _evolve(self, seed, objective, evaluator, space):
        s = self.sizes
        return EvolutionarySearch(
            space,
            objective,
            EvolutionConfig(
                generations=s["generations"],
                population_size=s["population_size"],
                num_parents=s["parents"],
                seed=seed,
            ),
            cache=EvaluationCache(),
            evaluator=evaluator,
        ).run()

    def cycle(self, seed: int) -> dict:
        s = self.sizes
        self.fast.reset_stage_times()
        objective, evaluator, shrink = self.rec.time(
            "heavy", self._shrink, seed
        )
        with evaluator:
            results = [
                self.rec.time(
                    "light", self._evolve, seed + 3 + k, objective, evaluator,
                    shrink.final_space,
                )
                for k in range(s["ea_runs"])
            ]
        stages = self.fast.stage_times()
        for stage in self.STAGES:
            self.rec.add(f"supernet.{stage}", stages[stage])
        with self.rec.checking():
            expected = s["quality_samples"] * sum(
                len(d.qualities) for d in shrink.decisions()
            )
            self.rec.check(
                shrink.quality_evaluations == expected,
                f"shrink seed {seed}: {shrink.quality_evaluations} quality "
                f"evaluations, expected {expected}",
            )
            for k, result in enumerate(results):
                self.rec.check(
                    shrink.final_space.contains(result.best.arch),
                    f"EA seed {seed + 3 + k}: best architecture outside "
                    "the shrunk space",
                )
        return {
            "target_ms": objective.target_ms,
            "shrink": shrink.to_dict(),
            "search": [result.to_dict() for result in results],
        }

    def details(self, traced: bool) -> dict:
        return {"op_table": self.op_table()} if traced else {}

    def op_table(self) -> Dict[str, float]:
        """Microseconds per architecture of ``accuracy_many`` over
        ``op_table_archs`` uniform architectures, per operator x width.

        Each operator's shapes are warmed with one untimed chunk first,
        so the table excludes one-off buffer allocation.
        """
        s = self.sizes
        layers = self.space.num_layers
        table = {}
        for op in range(NUM_OPERATORS):
            warm = Architecture.uniform(layers, op, 1.0)
            self._accuracy_many([warm] * s["chunk_archs"])
            for width in (0.2, 0.5, 1.0):
                archs = [Architecture.uniform(layers, op, width)] * s[
                    "op_table_archs"
                ]
                start = time.perf_counter()
                self._accuracy_many(archs)
                elapsed = time.perf_counter() - start
                key = (
                    f"supernet.op.{get_operator(op).name}"
                    f".w{round(width * 10)}.us_per_arch"
                )
                table[key] = 1e6 * elapsed / len(archs)
        return table


class TabularMini(Workload):
    """A bulk write beside a pure read: an exhaustive ``tabulate`` of a
    restricted ``mini`` space (the accuracy column dominates), saved and
    reloaded, then sweep scenarios replayed from the artifact (column
    gathers plus the EA core loop).
    """

    name = "tabular_mini"
    DEFAULTS = {
        "layout": "mini", "ops": (0, 1, 2), "devices": ("edge", "cpu"),
        "recipe": "search", "quantiles": (0.25, 0.5, 0.75),
        "scenario_seeds": 15, "generations": 20, "population_size": 50,
        "parents": 20,
    }

    def __init__(self, rec: Recorder, **sizes):
        super().__init__(rec, **sizes)
        s = self.sizes
        config = space_for_layout(s["layout"]).config
        self.space = SearchSpace(
            config, candidate_ops=[s["ops"]] * config.num_layers
        )
        self.workdir = Path(tempfile.mkdtemp(prefix=".tmp-tabular-", dir=HERE))

    def _build(self, seed: int):
        s = self.sizes
        with self.rec.span("tabular.tabulate"):
            table = tabulate(
                self.space, s["devices"], seed=seed, recipe=s["recipe"]
            )
        path = self.workdir / f"seed{seed}"
        with self.rec.span("tabular.save"):
            save_artifact(table, path)
        with self.rec.span("tabular.load"):
            loaded = load_artifact(path, space=self.space)
        size = sum(f.stat().st_size for f in path.iterdir())
        return table, loaded, size

    def _scenario(self, table, device, target, seed):
        s = self.sizes
        return run_sweep(
            table,
            targets=(target,),
            seeds=(seed,),
            devices=(device,),
            generations=s["generations"],
            population_size=s["population_size"],
            num_parents=s["parents"],
        ).results[0]

    def _live(self, seed, device, target, scenario_seed):
        """The replayed scenario's search, run live from the recipe."""
        s = self.sizes
        predictor = recipe_predictor(s["recipe"], self.space, device, seed)
        surrogate = recipe_surrogate(s["recipe"], self.space)
        objective = Objective(
            accuracy_fn=surrogate.proxy_accuracy,
            latency_fn=predictor.predict,
            target_ms=target,
            latency_many_fn=predictor.predict_many,
        )
        return EvolutionarySearch(
            self.space,
            objective,
            EvolutionConfig(
                generations=s["generations"],
                population_size=s["population_size"],
                num_parents=s["parents"],
                seed=scenario_seed,
            ),
        ).run()

    def cycle(self, seed: int) -> dict:
        s = self.sizes
        table, loaded, size = self.rec.time("heavy", self._build, seed)
        scenarios = []
        results = []
        for device in s["devices"]:
            column = loaded.latency_column(device)
            for q in s["quantiles"]:
                target = float(np.quantile(column, q))
                for i in range(s["scenario_seeds"]):
                    scenario_seed = seed * s["scenario_seeds"] + i
                    scenarios.append((device, target, scenario_seed))
                    results.append(self.rec.time(
                        "light", self._scenario, loaded, device, target,
                        scenario_seed,
                    ))
        sweep = SweepReport(
            generations=s["generations"],
            population_size=s["population_size"],
            results=results,
        )
        self.rec.add("tabular.rows", len(loaded))
        self.rec.add("tabular.artifact_bytes", size)
        with self.rec.checking():
            self._check(seed, table, loaded, scenarios[0], results[0])
        shutil.rmtree(self.workdir / f"seed{seed}")
        return {
            "accuracy": loaded.accuracy_column().tolist(),
            "latency": {
                d: loaded.latency_column(d).tolist() for d in loaded.devices
            },
            "sweep": sweep.to_dict(),
        }

    def _check(self, seed, table, loaded, scenario, replayed) -> None:
        check = self.rec.check
        check(
            loaded.exhaustive
            and len(loaded) == space_cardinality(self.space),
            f"table seed {seed}: not exhaustive",
        )
        same = np.array_equal(table.accuracy_column(), loaded.accuracy_column())
        for device in table.devices:
            same = same and np.array_equal(
                table.latency_column(device), loaded.latency_column(device)
            )
        check(same, f"table seed {seed}: reloaded columns differ")
        live = self._live(seed, *scenario)
        check(
            (live.best.accuracy, live.best.latency_ms, live.best.score,
             live.num_evaluations,
             [g.best.score for g in live.generations],
             [g.best.latency_ms for g in live.generations])
            == (replayed.best_accuracy, replayed.best_latency_ms,
                replayed.best_score, replayed.num_evaluations,
                replayed.best_score_curve, replayed.best_latency_curve),
            f"table seed {seed}: replayed scenario {scenario} differs from "
            "the live search",
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class ServeMix(Workload):
    """The daemon in-process (serial backend), driven over HTTP: cold
    layout-a fronts, each followed by a burst of warm hits from one
    closed-loop client over the fronts cached so far, then hits from one
    client thread while a second inserts misses.

    Warm hits come from a single client so their latency measures the
    request path, not two clients queueing for two cores; the bursts
    spread them over the whole run. Each warm hit is followed by one
    :class:`HttpReference` round trip, whose median rescales them.
    """

    name = "serve_mix"
    DEFAULTS = {
        "device": "edge", "layout": "a", "cold_queries": 4,
        "hits_per_burst": 250, "miss_layout": "proxy", "misses": 3,
        "generations": 20, "population_size": 50,
    }

    def __init__(self, rec: Recorder, **sizes):
        super().__init__(rec, **sizes)
        self.reference = HttpReference(rec.probe)
        try:
            self._start()
        except BaseException:
            self.reference.close()
            raise

    def _start(self) -> None:
        self.server, self.thread = start_server(
            ServeConfig(backend="serial", quiet=True)
        )
        self.client = ServeClient(*self.server.endpoint)

    def _stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.server.service.close()
        self.thread.join(timeout=30)

    def reset(self) -> None:
        self._stop()
        self.reference.ms.clear()
        self._start()

    def close(self) -> None:
        try:
            self._stop()
        finally:
            self.reference.close()

    def speed_factors(self) -> Dict[str, float]:
        return {"light": self.reference.factor()}

    def _path(self, layout: str, seed: int) -> str:
        s = self.sizes
        return (
            f"/front?device={s['device']}&layout={layout}&seed={seed}"
            f"&generations={s['generations']}"
            f"&population_size={s['population_size']}"
        )

    def _get(self, kind: str, path: str) -> bytes:
        status, body = self.rec.time(
            kind, self.client.request_raw, "GET", path
        )
        self.rec.check(status == 200, f"{kind} {path}: HTTP {status}")
        return body

    def _threads(self, targets) -> None:
        def guarded(target):
            try:
                target()
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                self.rec.fail(f"client thread: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=guarded, args=(t,)) for t in targets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            self.rec.check(not thread.is_alive(), "client thread hung")

    def _hits(self, kind, paths, bodies, count=None, stop=None,
              paired=False) -> None:
        """Closed-loop hits over ``paths``, each checked against the
        cold response, until ``count`` are sent or ``stop`` is set;
        ``paired`` follows each hit with a reference round trip."""
        i = 0
        while (count is None or i < count) and not (stop and stop.is_set()):
            path = paths[i % len(paths)]
            self.rec.check(
                self._get(kind, path) == bodies[path],
                f"{kind} hit {path}: body differs from the cold response",
            )
            if paired:
                self.reference.round_trip()
            i += 1

    def cycle(self, seed: int) -> dict:
        s = self.sizes
        cold = [
            self._path(s["layout"], seed * s["cold_queries"] + i)
            for i in range(s["cold_queries"])
        ]
        bodies = {}
        for i, path in enumerate(cold):
            bodies[path] = self._get("heavy", path)
            self._hits(
                "light", cold[: i + 1], bodies, s["hits_per_burst"],
                paired=True,
            )

        misses = [
            self._path(s["miss_layout"], seed * s["misses"] + i)
            for i in range(s["misses"])
        ]
        miss_bodies = {}
        done = threading.Event()

        def insert():
            try:
                for path in misses:
                    miss_bodies[path] = self._get("miss", path)
            finally:
                done.set()

        self._threads([
            insert, lambda: self._hits("mixed", cold, bodies, stop=done)
        ])

        with self.rec.checking():
            self._check_offline(seed * s["cold_queries"], bodies[cold[0]])
        return {
            "cold": {p: hashlib.sha256(b).hexdigest() for p, b in bodies.items()},
            "misses": {
                p: hashlib.sha256(b).hexdigest() for p, b in miss_bodies.items()
            },
        }

    def _check_offline(self, seed: int, body: bytes) -> None:
        """The served cold front equals the offline ``repro front`` run."""
        s = self.sizes
        space = space_for_layout(s["layout"])

        def compute():
            predictor = build_front_predictor(space, s["device"], seed)
            return front_search(
                space,
                predictor,
                seed=seed,
                generations=s["generations"],
                population_size=s["population_size"],
                cache=EvaluationCache(),
                surrogate=AccuracySurrogate(space),
            )

        offline = self.rec.time("offline", compute)
        served = json.loads(body)["front"]
        delta = max(
            (
                max(abs(got["latency_ms"] - want.latency_ms),
                    abs(got["accuracy"] - want.accuracy))
                for got, want in zip(served, offline.front)
            ),
            default=0.0,
        )
        same_archs = [p["arch"] for p in served] == [
            p.arch.to_dict() for p in offline.front
        ]
        self.rec.check(
            len(served) == len(offline.front) and same_archs and delta == 0.0,
            f"served front seed {seed} differs from offline "
            f"(max_abs_delta={delta})",
        )

    def details(self, traced: bool) -> dict:
        out = {"server_latency_ms": self.client.metrics()["latency_ms"]}
        if self.reference.ms:
            out["http_reference_ms"] = report.describe(self.reference.ms)
        return out

    def counters(self) -> Dict[str, float]:
        metrics = self.client.metrics()
        resilience = metrics["resilience"]
        return {
            "serve.requests": metrics["queries"]["total"],
            "serve.fronts_computed": metrics["fronts"]["computed"],
            "serve.coalesced": metrics["queries"]["coalesced"],
            "serve.front_cache_hit_rate": metrics["front_cache"]["hit_rate"],
            "resilience.admitted": resilience["admission"]["admitted"],
            "resilience.shed_total": resilience["shed_total"],
            "resilience.peak_in_flight":
                resilience["admission"]["peak_in_flight"],
            "resilience.breaker_failures": resilience["breaker"]["failures"],
        }


WORKLOADS = {
    cls.name: cls for cls in (SearchA, SupernetProxy, TabularMini, ServeMix)
}


# -- harness -------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


def setup_only(name: str, started: float) -> float:
    """Set one workload up; seconds from process start."""
    workload = WORKLOADS[name](Recorder())
    elapsed = time.perf_counter() - started
    workload.close()
    return elapsed


def _child_setup_s(name: str) -> float:
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = 15.0,
    trace: bool = False,
    sizes: Optional[dict] = None,
    setup_repeats: int = 1,
    trace_dir: Optional[str] = None,
    golden: Optional[dict] = None,
    started: Optional[float] = None,
    spec: Optional[dict] = None,
) -> dict:
    """Set up, run cycles for ``seconds``, check, and return the record.

    Untraced runs report the end-to-end metrics; set-up is repeated in
    ``setup_repeats - 1`` fresh processes and reported as the median.
    Traced runs first run the ``seed`` cycle untraced (the reference for
    the traced==untraced check and the tracing overhead), restart the
    workload's state, and report the per-layer metrics of the traced
    cycles.
    """
    started = time.perf_counter() if started is None else started
    spec = spec if spec is not None else report.load_spec()
    tracer = Tracer(rid=name) if trace else None
    rec = Recorder(tracer, WORKLOADS[name].PROBE)
    patches = program_patches(tracer) if trace else []
    with instrument(patches):
        workload = WORKLOADS[name](rec, **(sizes or {}))
    setup_s = [time.perf_counter() - started]
    fingerprints: Dict[str, str] = {}
    expected = {}
    entry = (golden or {}).get(name)
    if entry and entry["sizes"] == jsonable(workload.sizes):
        expected = entry["fingerprints"]
    overhead_pct = 0.0
    reference = None
    cycles = 0
    try:
        if not trace:
            setup_s += [_child_setup_s(name) for _ in range(setup_repeats - 1)]
        else:
            workload.rec = Recorder(probe=workload.PROBE)
            begun = time.perf_counter()
            reference = fingerprint(workload.cycle(seed))
            reference_wall = time.perf_counter() - begun
            rec.failures += workload.rec.failures
            workload.rec = rec
            workload.reset()
        loop_start = time.perf_counter()
        # Traced runs time spans, not latencies: no probes among them.
        sampling = nullcontext() if trace else rec.probe.sampling()
        with instrument(patches), sampling:
            while True:
                cycle_seed = seed + cycles
                rec.rid = f"{name}/seed{cycle_seed}"
                begun = time.perf_counter()
                try:
                    payload = workload.cycle(cycle_seed)
                except Exception as exc:  # noqa: BLE001 - a failed cycle
                    rec.fail(f"cycle seed {cycle_seed}: "
                             f"{type(exc).__name__}: {exc}")
                    payload = None
                wall = time.perf_counter() - begun
                if payload is not None:
                    fp = fingerprints[str(cycle_seed)] = fingerprint(payload)
                    want = expected.get(str(cycle_seed))
                    rec.check(
                        want is None or fp == want,
                        f"seed {cycle_seed}: fingerprint {fp} != golden {want}",
                    )
                    if cycles == 0 and reference is not None:
                        rec.check(
                            fp == reference,
                            f"seed {cycle_seed}: traced result differs "
                            "from the untraced one",
                        )
                        overhead_pct = 100.0 * (wall / reference_wall - 1.0)
                cycles += 1
                if cycles == MIN_CYCLES:
                    rss_mb = peak_rss_mb()
                if (cycles >= MIN_CYCLES
                        and time.perf_counter() - loop_start >= seconds):
                    break
        counters = {**rec.counters, **workload.counters()}
        details = workload.details(trace)
        overrides = workload.speed_factors()
    finally:
        workload.close()

    factor = rec.probe.factor()
    raw_samples, samples, factors = {}, {}, {}
    for kind, series in sorted(rec.samples.items()):
        scale = [overrides.get(kind, rec.probe.factor(p)) for _, p in series]
        raw_samples[f"{kind}_ms"] = [ms for ms, _ in series]
        samples[f"{kind}_ms"] = [ms * f for (ms, _), f in zip(series, scale)]
        factors[f"{kind}_ms"] = statistics.median(scale)
    raw_samples["setup_s"] = setup_s
    samples["setup_s"] = [value * factor for value in setup_s]
    if trace:
        values = per_layer_metrics(tracer, counters, cycles, overhead_pct)
        wanted = spec["per_layer"]
        details["spans"] = span_table(tracer)
        details["layer_self_s"] = layer_self_times(tracer)
        details["op_wall_s"] = op_wall_s(tracer)
        details["counters"] = {**tracer.counters, **counters}
    else:
        values = {
            "setup_s": statistics.median(samples["setup_s"]),
            "heavy_p50_ms": _median(rec, samples, "heavy_ms"),
            "light_p50_ms": _median(rec, samples, "light_ms"),
            "peak_rss_mb": rss_mb,
        }
        wanted = spec["end_to_end"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": jsonable(workload.sizes),
        "cycles": cycles,
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
        "samples": {k: report.describe(v) for k, v in samples.items() if v},
        "raw_samples": {
            k: report.describe(v) for k, v in raw_samples.items() if v
        },
        "speed_factor": factor,
        "speed_factors": factors,
        "probe_s": report.describe(rec.probe.seconds)
        if rec.probe.seconds else None,
        "fingerprints": fingerprints,
        "failures": rec.failures,
        "details": details,
    }
    if trace and trace_dir is not None:
        out = Path(trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}"
        atomic_write_text(
            out / f"{stem}.trace.json", json.dumps(tracer.chrome_trace())
        )
        atomic_write_json(out / f"{stem}.summary.json", {
            k: record[k]
            for k in ("workload", "seed", "cycles", "metrics", "details")
        }, indent=1)
    return record


def _median(rec: Recorder, samples: dict, key: str) -> float:
    if not samples.get(key):
        rec.fail(f"no successful {key[:-3]} operation")
        return 0.0
    return statistics.median(samples[key])


def golden_fingerprints(name: str, seeds) -> Dict[str, str]:
    """Fingerprints of default-size cycles, for ``golden.json``."""
    rec = Recorder()
    workload = WORKLOADS[name](rec)
    try:
        out = {str(s): fingerprint(workload.cycle(s)) for s in seeds}
    finally:
        workload.close()
    if rec.failures:
        raise RuntimeError(f"{name}: checks failed: {rec.failures}")
    return out
