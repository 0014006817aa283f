"""Hot-path micro-benchmarks: loop reference vs. vectorized rewrite.

Standalone script (not collected by pytest — ``testpaths`` excludes
``benchmarks/``); run it as::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick] [--out PATH]

Three hot paths are timed, each against the loop implementation the
vectorized code replaced:

1. **Depthwise/grouped convolution** — per-group Python loop
   (``grouped_conv2d_loop`` + ``grouped_conv2d_loop_backward``) vs. the
   single batched GEMM in :class:`repro.nn.layers.Conv2d`, forward and
   backward together.
2. **Batch latency prediction** — per-architecture
   :meth:`LatencyLUT.sum_ops_ms` over 5 000 sampled architectures vs.
   one :meth:`LatencyLUT.sum_ops_ms_batch` gather on the paper-scale
   ``imagenet_a`` space.
3. **Eq. 4 quality estimate on the real supernet**
   (``eq4_quality_estimate``) — the pre-PR path (one training-style
   supernet forward per candidate via
   :meth:`SupernetTrainer.evaluate_arch`) vs. the single-core fast path
   of :class:`repro.supernet.SupernetFastEval`: no-grad eval forwards,
   all N candidates batched into one forward per layer, and opt-in int8
   GEMMs on the deployment weight grid. The entry records per-stage
   wall-time attribution (im2col / GEMM / scoring / other) for both the
   float and int8 fast paths, the float path's exactness delta against
   per-arch eval-mode forwards (must be 0.0), and the int8 path's
   ranking-fidelity gate (Kendall tau and top-K overlap against fp32).
4. **Batched objective** (``eq4_objective_batch``) — one-at-a-time
   ``Objective.evaluate`` over the N=100 sample vs.
   :meth:`SubspaceQuality.estimate` backed by ``evaluate_many`` with a
   batched latency predictor (the surrogate-based analytic path).

Three more entries time the multi-process evaluation backend against the
same work run serially (``--workers``, default 4): an Eq. 4 quality
estimate, one progressive-shrinking stage, and one EA search. Every
parallel entry records ``max_abs_delta`` against the serial result — the
engine's contract is bit-exactness, so the delta must be 0.0 — plus the
host ``cpu_count``, because worker speedup is meaningless without it.
``--backend serial`` (or ``auto`` with ``--workers`` < 2) skips these
entries: there is no second backend to compare against.

A ``serve_traffic`` entry drives synthetic query traffic against
an in-process ``repro.serve`` daemon through the real HTTP client:
queries/sec and client-observed p50/p99 at 1/2/4 concurrent clients
(the warm-cache saturation curve), plus the cold first-query cost and
a point-for-point ``max_abs_delta`` (must be 0.0) between the served
front and the offline pipeline run.

A final ``tabular_replay`` entry times a live supernet-backed
evolutionary search against the same search replayed from an
exhaustive :class:`repro.tabular.TabularBenchmark` — every generation
scored by one vectorized column gather instead of supernet forwards.
The replayed run's full result dict must equal the live run's
(``max_abs_delta`` must be 0.0): the table's columns were built from
the very same evaluation functions, so replay is a lookup, not an
approximation.

Results (times, speedups, equivalence deltas) are written to
``BENCH_hotpaths.json``. Expected on the CI container: >=5x on the
depthwise conv, >=20x on batch latency prediction, >=3x on the
supernet Eq. 4 estimate via no-grad + batched + int8, >=100x on
tabular replay vs the live supernet-backed search; >=2x on the
parallel quality estimate when the host has >=4 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.accuracy import AccuracySurrogate
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.objective import Objective
from repro.core.quality import SubspaceQuality
from repro.hardware.calibration import calibrated_devices
from repro.hardware.lut import LatencyLUT
from repro.hardware.predictor import LatencyPredictor
from repro.data import BatchLoader
from repro.data.synthetic import SyntheticImageDataset
from repro.nn.functional import grouped_conv2d_loop, grouped_conv2d_loop_backward
from repro.nn.layers.conv import Conv2d
from repro.nn.quantized import ranking_fidelity
from repro.parallel import TabularBackend, create_backend, resolve_backend_name
from repro.runstate.atomic import atomic_write_json
from repro.space import SearchSpace, imagenet_a, proxy
from repro.supernet import Supernet, SupernetFastEval
from repro.train.supernet_trainer import SupernetTrainer, TrainConfig


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time in seconds (minimum is the least noisy)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- 1. depthwise conv forward+backward ---------------------------------------


def bench_depthwise_conv(quick: bool) -> dict:
    # Full size mirrors the deepest depthwise layers of ``imagenet_a``
    # (320 channels at 7x7), where the per-group Python loop hurts most.
    n, c, hw, k = (2, 32, 16, 3) if quick else (4, 320, 7, 3)
    repeats = 3 if quick else 5
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, c, hw, hw))
    conv = Conv2d(c, c, k, stride=1, padding=k // 2, groups=c, rng=rng)
    conv.train()
    weight = conv.weight.data
    grad_out = rng.standard_normal((n, c, hw, hw))

    def loop_path():
        out, cols = grouped_conv2d_loop(x, weight, 1, k // 2, c)
        grouped_conv2d_loop_backward(
            grad_out.reshape(n, c, -1), cols, weight, x.shape, 1, k // 2, c
        )
        return out

    def vec_path():
        out = conv.forward(x)
        conv.backward(grad_out)
        return out

    # Correctness guard before timing anything.
    out_loop, cols = grouped_conv2d_loop(x, weight, 1, k // 2, c)
    gx_loop, gw_loop = grouped_conv2d_loop_backward(
        grad_out.reshape(n, c, -1), cols, weight, x.shape, 1, k // 2, c
    )
    out_vec = conv.forward(x)
    conv.weight.grad = None
    gx_vec = conv.backward(grad_out)
    max_delta = max(
        float(np.abs(out_loop.reshape(out_vec.shape) - out_vec).max()),
        float(np.abs(gx_loop - gx_vec).max()),
        float(np.abs(gw_loop - conv.weight.grad).max()),
    )
    assert max_delta < 1e-6, f"loop/vectorized mismatch: {max_delta}"

    t_loop = _best_of(loop_path, repeats)
    t_vec = _best_of(vec_path, repeats)
    return {
        "shape": [n, c, hw, hw],
        "groups": c,
        "kernel": k,
        "loop_s": t_loop,
        "vectorized_s": t_vec,
        "speedup": t_loop / t_vec,
        "max_abs_delta": max_delta,
    }


# -- 2. batch latency prediction ----------------------------------------------


def bench_latency_batch(quick: bool) -> dict:
    space = SearchSpace(imagenet_a())
    device = calibrated_devices()["cpu"]
    lut = LatencyLUT.build(space, device, samples_per_cell=2, seed=0)
    predictor = LatencyPredictor(lut, space)

    num_archs = 500 if quick else 5000
    repeats = 2 if quick else 5
    rng = np.random.default_rng(7)
    archs = [space.sample(rng) for _ in range(num_archs)]

    scalar = [lut.sum_ops_ms(a, space) for a in archs]
    batch = lut.sum_ops_ms_batch(archs, space)
    max_delta = float(np.abs(np.asarray(scalar) - batch).max())
    assert max_delta == 0.0, f"batch/scalar latency mismatch: {max_delta}"
    pm_delta = max(
        abs(predictor.predict(a) - p)
        for a, p in zip(archs, predictor.predict_many(archs))
    )
    assert pm_delta == 0.0, f"predict_many mismatch: {pm_delta}"

    t_loop = _best_of(lambda: [lut.sum_ops_ms(a, space) for a in archs], repeats)
    t_vec = _best_of(lambda: lut.sum_ops_ms_batch(archs, space), repeats)
    return {
        "space": "imagenet_a",
        "num_archs": num_archs,
        "loop_s": t_loop,
        "vectorized_s": t_vec,
        "speedup": t_loop / t_vec,
        "max_abs_delta": max_delta,
    }


# -- 3. Eq. 4 quality estimate on the real supernet ---------------------------


def bench_supernet_quality(quick: bool) -> dict:
    """Per-arch training-style forwards vs the no-grad+batched+int8 path.

    The baseline is exactly what the search stack ran before the fast
    path existed: one :meth:`SupernetTrainer.evaluate_arch` call per
    candidate. The fast path batches all candidates through
    :class:`SupernetFastEval`; its float flavour must be bit-exact with
    per-arch eval-mode forwards, its int8 flavour must pass the
    ranking-fidelity gate against the float scores.
    """
    cfg = proxy()
    space = SearchSpace(cfg)
    net = Supernet(space, seed=0)
    ds = SyntheticImageDataset.generate(
        num_classes=cfg.num_classes,
        train_per_class=16,
        test_per_class=4,
        image_size=cfg.input_size,
        channels=cfg.input_channels,
        seed=0,
    )
    loader = BatchLoader(ds.train_x, ds.train_y, batch_size=16, seed=0)
    trainer = SupernetTrainer(net, loader, TrainConfig(base_lr=0.1, seed=0))
    epochs = 1 if quick else 3
    trainer.train_epochs(space, epochs=epochs)

    num_archs = 20 if quick else 100
    repeats = 2 if quick else 3
    rng = np.random.default_rng(7)
    archs = [space.sample(rng) for _ in range(num_archs)]
    images, labels = ds.test_x[:16], ds.test_y[:16]

    fast_float = SupernetFastEval(net, precision="float")
    fast_int8 = SupernetFastEval(net, precision="int8")

    # Exactness guard: the float batched forward must be bit-identical
    # to one eval-mode supernet forward per architecture.
    ref_logits = []
    net.eval()
    for arch in archs:
        net.set_architecture(arch)
        ref_logits.append(net.forward(images))
    ref_logits = np.stack(ref_logits)
    net.train()
    float_logits = fast_float.forward_many(archs, images)
    max_delta = float(np.abs(ref_logits - float_logits).max())
    assert max_delta == 0.0, f"fast float path not bit-exact: {max_delta}"

    # Ranking-fidelity gate for int8: per-arch mean true-class logit.
    int8_logits = fast_int8.forward_many(archs, images)
    sample_idx = np.arange(images.shape[0])
    ref_scores = [float(l[sample_idx, labels].mean()) for l in float_logits]
    int8_scores = [float(l[sample_idx, labels].mean()) for l in int8_logits]
    fidelity = ranking_fidelity(
        ref_scores, int8_scores, top_k=max(1, num_archs // 10)
    )
    if not quick:
        assert fidelity["passed"], f"int8 ranking fidelity failed: {fidelity}"

    def per_arch_path():
        return [trainer.evaluate_arch(a, images, labels) for a in archs]

    t_base = _best_of(per_arch_path, repeats)
    t_float = _best_of(
        lambda: fast_float.accuracy_many(archs, images, labels), repeats
    )
    t_int8 = _best_of(
        lambda: fast_int8.accuracy_many(archs, images, labels), repeats
    )

    # Per-stage attribution for one representative run of each flavour.
    fast_float.reset_stage_times()
    fast_float.accuracy_many(archs, images, labels)
    stages_float = fast_float.stage_times()
    fast_int8.reset_stage_times()
    fast_int8.accuracy_many(archs, images, labels)
    stages_int8 = fast_int8.stage_times()

    return {
        "space": "proxy_supernet",
        "num_archs": num_archs,
        "num_images": int(images.shape[0]),
        "train_epochs": epochs,
        "per_arch_s": t_base,
        "no_grad_batched_s": t_float,
        "int8_batched_s": t_int8,
        # loop_s/vectorized_s mirror the other entries' schema; the
        # headline speedup is the full no-grad + batched + int8 path.
        "loop_s": t_base,
        "vectorized_s": t_int8,
        "speedup": t_base / t_int8,
        "speedup_float": t_base / t_float,
        "max_abs_delta": max_delta,
        "fidelity_int8": fidelity,
        "stages_float": stages_float,
        "stages_int8": stages_int8,
    }


# -- 4. batched objective (surrogate path) ------------------------------------


def bench_objective_batch(quick: bool) -> dict:
    space = SearchSpace(imagenet_a())
    device = calibrated_devices()["cpu"]
    lut = LatencyLUT.build(space, device, samples_per_cell=2, seed=0)
    predictor = LatencyPredictor(lut, space)
    surrogate = AccuracySurrogate.for_space(space)

    scalar_obj = Objective(
        accuracy_fn=surrogate.proxy_accuracy,
        latency_fn=predictor.predict,
        target_ms=22.5,
        beta=-0.5,
    )
    batched_obj = Objective(
        accuracy_fn=surrogate.proxy_accuracy,
        latency_fn=predictor.predict,
        target_ms=22.5,
        beta=-0.5,
        latency_many_fn=predictor.predict_many,
    )
    num_samples = 50 if quick else 100
    repeats = 2 if quick else 5

    def run_estimate(obj):
        q = SubspaceQuality(obj, num_samples=num_samples, seed=3)
        return q.estimate(space)

    q_scalar = run_estimate(scalar_obj)
    q_batched = run_estimate(batched_obj)
    delta = abs(q_scalar - q_batched)
    assert delta == 0.0, f"quality estimate mismatch: {delta}"

    t_loop = _best_of(lambda: run_estimate(scalar_obj), repeats)
    t_vec = _best_of(lambda: run_estimate(batched_obj), repeats)
    return {
        "space": "imagenet_a",
        "num_samples": num_samples,
        "loop_s": t_loop,
        "vectorized_s": t_vec,
        "speedup": t_loop / t_vec,
        "max_abs_delta": delta,
    }


# -- 4-6. serial vs multi-process evaluation engine ---------------------------


def _engine_objective() -> tuple[SearchSpace, Objective]:
    """The batched objective both engine paths share (workers only change
    where ``evaluate_many`` runs, never what it computes)."""
    space = SearchSpace(imagenet_a())
    device = calibrated_devices()["cpu"]
    lut = LatencyLUT.build(space, device, samples_per_cell=2, seed=0)
    predictor = LatencyPredictor(lut, space)
    surrogate = AccuracySurrogate.for_space(space)
    obj = Objective(
        accuracy_fn=surrogate.proxy_accuracy,
        latency_fn=predictor.predict,
        target_ms=22.5,
        beta=-0.5,
        latency_many_fn=predictor.predict_many,
    )
    return space, obj


def bench_quality_parallel(quick: bool, workers: int, backend: str) -> dict:
    space, obj = _engine_objective()
    num_samples = 50 if quick else 400
    repeats = 2 if quick else 5

    def run(evaluator):
        q = SubspaceQuality(
            obj, num_samples=num_samples, seed=3, evaluator=evaluator
        )
        return q.estimate(space)

    q_serial = run(None)
    with create_backend(backend, obj.evaluate_many, workers=workers) as evaluator:
        q_parallel = run(evaluator)  # also warms the pool before timing
        delta = abs(q_serial - q_parallel)
        assert delta == 0.0, f"parallel quality mismatch: {delta}"
        t_serial = _best_of(lambda: run(None), repeats)
        t_parallel = _best_of(lambda: run(evaluator), repeats)
    return {
        "space": "imagenet_a",
        "num_samples": num_samples,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "speedup": t_serial / t_parallel,
        "max_abs_delta": delta,
    }


def bench_shrink_stage_parallel(quick: bool, workers: int, backend: str) -> dict:
    # One progressive-shrinking stage: K candidate subspaces for the last
    # layer, each scored with an indexed Eq. 4 estimate (Sec. III-C).
    space, obj = _engine_objective()
    layer = len(space.candidate_ops) - 1
    subspaces = [
        space.fix_operator(layer, op) for op in space.candidate_ops[layer]
    ]
    indices = list(range(len(subspaces)))
    num_samples = 30 if quick else 150
    repeats = 2 if quick else 5

    def run(evaluator):
        q = SubspaceQuality(
            obj, num_samples=num_samples, seed=11, evaluator=evaluator
        )
        return q.estimate_many(subspaces, indices=indices)

    serial = run(None)
    with create_backend(backend, obj.evaluate_many, workers=workers) as evaluator:
        parallel = run(evaluator)
        delta = max(abs(a - b) for a, b in zip(serial, parallel))
        assert delta == 0.0, f"parallel shrink-stage mismatch: {delta}"
        t_serial = _best_of(lambda: run(None), repeats)
        t_parallel = _best_of(lambda: run(evaluator), repeats)
    return {
        "space": "imagenet_a",
        "num_subspaces": len(subspaces),
        "num_samples": num_samples,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "speedup": t_serial / t_parallel,
        "max_abs_delta": delta,
    }


def bench_ea_generation_parallel(quick: bool, workers: int, backend: str) -> dict:
    # A short EA run (init population + breeding generations); every
    # evaluation batch routes through the worker pool when parallel.
    space, obj = _engine_objective()
    cfg = EvolutionConfig(
        generations=2,
        population_size=20 if quick else 100,
        num_parents=8 if quick else 25,
        seed=2,
    )
    repeats = 2 if quick else 5

    def run(evaluator):
        # Fresh search (and fresh cache) per run: a shared cache would
        # turn every repeat after the first into pure hits.
        return EvolutionarySearch(space, obj, cfg, evaluator=evaluator).run()

    serial = run(None)
    with create_backend(backend, obj.evaluate_many, workers=workers) as evaluator:
        parallel = run(evaluator)
        assert parallel.to_dict() == serial.to_dict(), "parallel EA mismatch"
        delta = abs(parallel.best.score - serial.best.score)
        t_serial = _best_of(lambda: run(None), repeats)
        t_parallel = _best_of(lambda: run(evaluator), repeats)
    return {
        "space": "imagenet_a",
        "generations": cfg.generations,
        "population_size": cfg.population_size,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "speedup": t_serial / t_parallel,
        "max_abs_delta": delta,
    }


# -- 7. serve: synthetic traffic against the search daemon --------------------


def bench_serve_traffic(quick: bool) -> dict:
    """Synthetic query traffic against an in-process ``repro.serve`` daemon.

    One server (serial evaluation backend), hammered by 1/2/4 client
    threads issuing the same front query — the saturation curve for the
    warm-cache hot path. The first request pays the one cold NSGA-II
    computation; everything after is the cache + coalescing + HTTP
    overhead the daemon adds, which is what this entry measures
    (queries/sec and client-observed p50/p99). The served front is
    compared point-for-point against the offline pipeline run —
    ``max_abs_delta`` must be 0.0.
    """
    import threading

    from repro.serve import ServeClient, ServeConfig, start_server
    from repro.serve.metrics import percentile
    from repro.serve.pipeline import (
        build_front_predictor,
        front_search,
        space_for_layout,
    )
    from repro.serve.query import FrontQuery

    query = dict(
        device="edge", layout="proxy", seed=3,
        generations=2 if quick else 5,
        population_size=8 if quick else 20,
    )
    requests_per_level = 30 if quick else 200
    levels = (1, 2, 4)

    config = ServeConfig(backend="serial", quiet=True)
    server, thread = start_server(config)
    try:
        client = ServeClient(*server.endpoint)

        t0 = time.perf_counter()
        served = client.front(**query, target_ms=50.0)
        cold_s = time.perf_counter() - t0

        # Bit-exactness vs the offline pipeline, point for point.
        q = FrontQuery(**query)
        space = space_for_layout(q.layout)
        predictor = build_front_predictor(space, q.device, q.seed)
        offline = front_search(
            space, predictor, seed=q.seed, generations=q.generations,
            population_size=q.population_size, backend="serial",
        )
        assert len(served["front"]) == len(offline.front)
        max_delta = max(
            max(
                abs(got["latency_ms"] - want.latency_ms),
                abs(got["accuracy"] - want.accuracy),
            )
            for got, want in zip(served["front"], offline.front)
        )
        assert max_delta == 0.0, f"served/offline mismatch: {max_delta}"

        curve = []
        for clients in levels:
            latencies = []
            lock = threading.Lock()
            per_client = requests_per_level // clients

            def hammer():
                mine = []
                for _ in range(per_client):
                    t = time.perf_counter()
                    status, _body = client.request_raw(
                        "GET",
                        "/front?device={device}&layout={layout}"
                        "&seed={seed}&generations={generations}"
                        "&population_size={population_size}".format(**query),
                    )
                    mine.append(time.perf_counter() - t)
                    assert status == 200
                with lock:
                    latencies.extend(mine)

            workers = [
                threading.Thread(target=hammer) for _ in range(clients)
            ]
            t0 = time.perf_counter()
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            wall_s = time.perf_counter() - t0
            window = sorted(ms * 1e3 for ms in latencies)
            curve.append({
                "clients": clients,
                "requests": len(latencies),
                "qps": len(latencies) / wall_s,
                "p50_ms": percentile(window, 0.50),
                "p99_ms": percentile(window, 0.99),
            })

        metrics = client.metrics()
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=30)

    warm = max(curve, key=lambda row: row["qps"])
    return {
        "query": query,
        "cold_front_s": cold_s,
        "saturation_curve": curve,
        "best_qps": warm["qps"],
        "p99_ms_at_best": warm["p99_ms"],
        "coalesced": metrics["queries"]["coalesced"],
        "front_cache": metrics["front_cache"],
        "max_abs_delta": max_delta,
    }


# -- 8. chaos drill: overloaded + fault-injected daemon stays deterministic ---


def bench_serve_chaos(quick: bool) -> dict:
    """Mixed traffic against a saturated, fault-injected daemon.

    One in-process server with tight admission (1 computing slot, 2
    queue slots) and seeded chaos on every live front computation,
    hammered at ~4x saturation. The drill asserts the overload
    contract from docs/robustness.md — every single response is one
    of: 200 healthy (byte-identical per query), 200 degraded (flagged),
    503 shed (deterministic + Retry-After), 504 deadline (partial
    progress), or 500 injected fault — and the daemon answers
    ``/healthz`` after the storm. Reported numbers are the shed rate
    and the client-observed p99 under overload.
    """
    import threading

    from repro.serve import ServeClient, ServeConfig, start_server
    from repro.serve.metrics import percentile

    clients = 4
    per_client = 8 if quick else 25
    seeds = (3, 4, 5)
    query = dict(
        device="edge", layout="proxy",
        generations=2 if quick else 4,
        population_size=8 if quick else 16,
    )

    config = ServeConfig(
        backend="serial",
        quiet=True,
        max_inflight=1,
        queue_depth=2,
        queue_timeout_s=0.2,
        breaker_failures=3,
        breaker_cooldown_s=0.5,
        chaos="seed=7,error=0.25,burst=2",
    )
    server, thread = start_server(config)
    counts = {
        "healthy": 0, "degraded": 0, "shed": 0,
        "deadline": 0, "fault": 0,
    }
    latencies = []
    healthy_bodies = {}
    lock = threading.Lock()
    try:
        client = ServeClient(*server.endpoint)

        # One doomed request up front: an expired deadline must answer
        # 504 with generation-granular progress, never hang.
        status, body = client.request_raw(
            "POST",
            "/query",
            body={**query, "seed": 99, "deadline_ms": 1},
        )
        deadline_ok = status in (504, 500, 503)
        if status == 504:
            progress = json.loads(body)["progress"]
            assert progress["generations_done"] == 0
            with lock:
                counts["deadline"] += 1
        assert deadline_ok, f"deadline probe got {status}: {body!r}"

        def classify(path, status, body):
            if status == 200:
                payload = json.loads(body)
                if payload.get("degraded"):
                    return "degraded"
                healthy_bodies.setdefault(path, set()).add(body)
                return "healthy"
            if status == 503:
                payload = json.loads(body)
                assert payload["shed"] is True
                assert payload["retry_after_s"] >= 1
                return "shed"
            if status == 504:
                assert "progress" in json.loads(body)
                return "deadline"
            if status == 500:
                assert b"ChaosError" in body, body
                return "fault"
            raise AssertionError(f"unclassifiable HTTP {status}: {body!r}")

        def hammer(worker_id):
            mine = []
            classes = []
            for i in range(per_client):
                seed = seeds[(worker_id + i) % len(seeds)]
                path = (
                    "/front?device={device}&layout={layout}&seed={s}"
                    "&generations={generations}"
                    "&population_size={population_size}"
                ).format(**query, s=seed)
                t = time.perf_counter()
                status, body = client.request_raw("GET", path)
                mine.append(time.perf_counter() - t)
                classes.append(classify(path, status, body))
            with lock:
                latencies.extend(mine)
                for cls in classes:
                    counts[cls] += 1

        workers = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(clients)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        # Liveness after the storm, and per-query byte-identity of
        # every healthy response.
        alive = client.health() == {"status": "ok"}
        assert alive, "daemon died under chaos"
        bit_identical = all(
            len(bodies) == 1 for bodies in healthy_bodies.values()
        )
        assert bit_identical, {
            path: len(bodies) for path, bodies in healthy_bodies.items()
        }
        metrics = client.metrics()
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=30)

    total = sum(counts.values())
    window = sorted(ms * 1e3 for ms in latencies)
    return {
        "chaos": config.chaos,
        "clients": clients,
        "requests": total,
        "outcomes": counts,
        "shed_rate": counts["shed"] / total,
        "p99_ms_under_overload": percentile(window, 0.99),
        "p50_ms_under_overload": percentile(window, 0.50),
        "alive_after_storm": alive,
        "non_degraded_bit_identical": bit_identical,
        "resilience": metrics["resilience"],
    }


# -- 9. tabular replay: live supernet-backed search vs column gathers ---------


def bench_tabular_replay(quick: bool) -> dict:
    """Live supernet-backed EA vs the same EA replayed from a table.

    The table is built exhaustively over the mini space with the same
    evaluation functions the live search uses — accuracy from the
    batched :class:`SupernetFastEval` float path (bit-exact with
    per-arch forwards), latency from the LUT predictor's
    ``predict_many``. The replayed search therefore scores every
    population with one gather per column and must reproduce the live
    result byte for byte.
    """
    from repro.space import mini, space_for_layout
    from repro.tabular import TabularBenchmark, TabularEvaluator

    if quick:
        # Two operators per layer: 6^4 = 1,296 architectures, so the
        # exhaustive build stays within a CI smoke budget.
        space = SearchSpace(mini(), candidate_ops=[(0, 2)] * 4)
    else:
        # Three operators per layer: 9^4 = 6,561 architectures. Large
        # enough that the replayed EA's fixed overhead amortizes away,
        # small enough that the exhaustive supernet-backed build stays
        # in benchmark (not batch-job) territory — the full 15^4 mini
        # space costs ~8x more build time for the same speedup story.
        space = SearchSpace(mini(), candidate_ops=[(0, 1, 2)] * 4)
    cfg = space.config
    device = calibrated_devices()["edge"]

    net = Supernet(space, seed=0)
    ds = SyntheticImageDataset.generate(
        num_classes=cfg.num_classes,
        train_per_class=8,
        test_per_class=2 if quick else 8,
        image_size=cfg.input_size,
        channels=cfg.input_channels,
        seed=0,
    )
    images, labels = ds.test_x, ds.test_y
    fast = SupernetFastEval(net, precision="float")

    def accuracy_many(batch):
        # Bounded chunks keep the batched forward's activation memory
        # flat across the 50k-arch exhaustive build.
        out = []
        for i in range(0, len(batch), 256):
            out.extend(fast.accuracy_many(batch[i:i + 256], images, labels))
        return out

    def accuracy_one(arch):
        return accuracy_many([arch])[0]

    lut = LatencyLUT.build(space, device, samples_per_cell=2, seed=0)
    predictor = LatencyPredictor(lut, space)

    t0 = time.perf_counter()
    table = TabularBenchmark.build(
        space,
        predictor.predict,
        accuracy_one,
        num_archs=None,
        seed=0,
        device="edge",
        latency_many_fn=predictor.predict_many,
        accuracy_many_fn=accuracy_many,
    )
    build_s = time.perf_counter() - t0

    target_ms = float(np.median(table.latency_column("edge")))
    ea_cfg = EvolutionConfig(
        generations=3 if quick else 12,
        population_size=8 if quick else 40,
        num_parents=3 if quick else 12,
        seed=2,
    )

    def run_live():
        obj = Objective(
            accuracy_fn=accuracy_one,
            latency_fn=predictor.predict,
            target_ms=target_ms,
            beta=-0.5,
            accuracy_many_fn=accuracy_many,
            latency_many_fn=predictor.predict_many,
        )
        return EvolutionarySearch(space, obj, ea_cfg).run()

    def run_replay():
        lookup = TabularEvaluator(table, device="edge")
        obj = Objective(
            accuracy_fn=lookup.accuracy,
            latency_fn=lookup.latency,
            target_ms=target_ms,
            beta=-0.5,
            accuracy_many_fn=lookup.accuracy_many,
            latency_many_fn=lookup.latency_many,
        )
        with TabularBackend(obj.evaluate_many) as evaluator:
            return EvolutionarySearch(
                space, obj, ea_cfg, evaluator=evaluator
            ).run()

    live = run_live()
    replay = run_replay()
    assert replay.to_dict() == live.to_dict(), "replayed search diverged"
    max_delta = max(
        max(
            abs(a.best.score - b.best.score),
            abs(a.best.latency_ms - b.best.latency_ms),
        )
        for a, b in zip(live.generations, replay.generations)
    )
    assert max_delta == 0.0, f"live/replay mismatch: {max_delta}"

    t_live = _best_of(run_live, 1 if quick else 2)
    t_replay = _best_of(run_replay, 3 if quick else 5)
    return {
        "space": "mini[2-op]" if quick else "mini[3-op]",
        "table_rows": len(table),
        "generations": ea_cfg.generations,
        "population_size": ea_cfg.population_size,
        "build_s": build_s,
        "live_s": t_live,
        "replay_s": t_replay,
        "loop_s": t_live,
        "vectorized_s": t_replay,
        "speedup": t_live / t_replay,
        "max_abs_delta": max_delta,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller problem sizes / fewer repeats (CI smoke run)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent.parent
        / "BENCH_hotpaths.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker processes for the parallel-engine entries",
    )
    parser.add_argument(
        "--backend", choices=("auto", "serial", "multiprocess"),
        default="auto",
        help="evaluation backend for the engine entries; a serial "
             "resolution skips the serial-vs-parallel comparisons",
    )
    args = parser.parse_args()
    # Fail on an unwritable --out before minutes of timing, not after.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    resolved = resolve_backend_name(args.backend, args.workers)

    results = {
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "backend": resolved,
    }
    for name, fn in (
        ("depthwise_conv_fwd_bwd", bench_depthwise_conv),
        ("latency_batch_5k", bench_latency_batch),
        ("eq4_quality_estimate", bench_supernet_quality),
        ("eq4_objective_batch", bench_objective_batch),
    ):
        results[name] = fn(args.quick)
        r = results[name]
        print(
            f"{name:>24s}: loop {r['loop_s'] * 1e3:9.2f} ms   "
            f"vectorized {r['vectorized_s'] * 1e3:9.2f} ms   "
            f"speedup {r['speedup']:6.1f}x"
        )
    eq4 = results["eq4_quality_estimate"]
    print(
        f"{'':>24s}  per-arch {eq4['per_arch_s'] * 1e3:9.2f} ms   "
        f"no-grad batched {eq4['no_grad_batched_s'] * 1e3:9.2f} ms   "
        f"int8 {eq4['int8_batched_s'] * 1e3:9.2f} ms   "
        f"(tau {eq4['fidelity_int8']['kendall_tau']:.4f}, "
        f"top-K overlap {eq4['fidelity_int8']['top_k_overlap']:.2f})"
    )

    for name, fn in (
        ("eq4_quality_parallel", bench_quality_parallel),
        ("shrink_stage_parallel", bench_shrink_stage_parallel),
        ("ea_generation_parallel", bench_ea_generation_parallel),
    ):
        if resolved == "serial":
            results[name] = {"skipped": "serial backend selected"}
            print(f"{name:>24s}: skipped (serial backend)")
            continue
        results[name] = fn(args.quick, args.workers, args.backend)
        r = results[name]
        print(
            f"{name:>24s}: serial {r['serial_s'] * 1e3:7.2f} ms   "
            f"parallel {r['parallel_s'] * 1e3:9.2f} ms   "
            f"speedup {r['speedup']:6.1f}x  ({r['workers']} workers, "
            f"{r['cpu_count']} cores)"
        )

    results["serve_traffic"] = bench_serve_traffic(args.quick)
    serve = results["serve_traffic"]
    print(
        f"{'serve_traffic':>24s}: cold {serve['cold_front_s'] * 1e3:7.2f} ms   "
        f"best {serve['best_qps']:7.1f} q/s   "
        f"p99 {serve['p99_ms_at_best']:6.2f} ms   "
        f"(curve: "
        + ", ".join(
            f"{row['clients']}c={row['qps']:.0f}q/s"
            for row in serve["saturation_curve"]
        )
        + ")"
    )

    results["serve_chaos"] = bench_serve_chaos(args.quick)
    chaos = results["serve_chaos"]
    print(
        f"{'serve_chaos':>24s}: {chaos['requests']} requests   "
        f"shed {chaos['shed_rate'] * 100:5.1f}%   "
        f"p99 {chaos['p99_ms_under_overload']:8.2f} ms   "
        f"(outcomes: "
        + ", ".join(
            f"{name}={count}"
            for name, count in sorted(chaos["outcomes"].items())
        )
        + ")"
    )

    results["tabular_replay"] = bench_tabular_replay(args.quick)
    tab = results["tabular_replay"]
    print(
        f"{'tabular_replay':>24s}: live {tab['live_s'] * 1e3:9.2f} ms   "
        f"replay {tab['replay_s'] * 1e3:9.2f} ms   "
        f"speedup {tab['speedup']:6.1f}x  "
        f"(build {tab['build_s']:.1f} s, {tab['table_rows']} rows)"
    )

    atomic_write_json(args.out, results)
    print(f"wrote {args.out}")

    if not args.quick:
        # Targets from the perf-opt issues; only enforced at full size.
        assert results["depthwise_conv_fwd_bwd"]["speedup"] >= 5.0
        assert results["latency_batch_5k"]["speedup"] >= 20.0
        # The single-core fast path must beat the pre-PR per-arch path
        # by >=3x (no-grad + batched + int8), stay bit-exact in float,
        # and pass the int8 ranking-fidelity gate.
        assert eq4["speedup"] >= 3.0
        assert eq4["max_abs_delta"] == 0.0
        assert eq4["fidelity_int8"]["passed"]
        # Replaying a search from the tabular artifact must beat the
        # live supernet-backed search by >=100x and stay bit-exact.
        assert tab["speedup"] >= 100.0
        assert tab["max_abs_delta"] == 0.0
        # Worker speedup needs actual cores: the bit-exactness deltas are
        # asserted unconditionally (inside each bench), the wall-clock
        # target only where the host can physically deliver it.
        if (
            resolved != "serial"
            and (os.cpu_count() or 1) >= 4
            and args.workers >= 4
        ):
            assert results["eq4_quality_parallel"]["speedup"] >= 2.0


if __name__ == "__main__":
    main()
