"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the workflows a downstream user runs most:

* ``search``  — one HSCoNAS pipeline run; prints the summary and writes
  a JSON artifact (architecture, metrics, per-generation history).
* ``shrink``  — progressive space shrinking only (Sec. III-C); writes
  the full decision trace with cache statistics.
* ``predict`` — build and evaluate the latency predictor on a device;
  writes the LUT JSON next to the report.
* ``table1``  — regenerate the Table-I comparison (baselines +
  HSCoNets) and write it as text and CSV.
* ``front``   — NSGA-II accuracy/latency Pareto front; writes CSV.
* ``tabulate`` — precompute a columnar tabular artifact (per-device
  latency + accuracy for every architecture) for instant replay.
* ``sweep``   — replay hundreds of (seed, target, device) search
  scenarios against a tabular artifact; writes variance bands.

All artifacts land in ``--out`` (default ``./results``) and are written
atomically (write-then-rename), so a crash never leaves a torn file.
The evaluation-heavy commands (``search``, ``shrink``, ``predict``,
``front``) accept ``--workers N`` to fan evaluation across N worker
processes and ``--backend`` to pick the evaluation backend explicitly
(``auto``, the default, resolves from ``--workers``) — results are
bit-identical either way (see ``docs/parallel.md`` and
``docs/performance.md``). ``search`` and ``front`` additionally accept
``--backend tabular --table DIR`` to replay against a prebuilt
artifact instead of evaluating live — same bytes when the artifact was
built with the matching recipe and seed, orders of magnitude faster.

``search``, ``shrink``, and ``front`` additionally accept ``--run-dir
DIR`` (start a new crash-safe checkpointed run) and ``--resume DIR``
(continue a killed one, bit-exact); see ``docs/robustness.md``. Run-
state problems — a corrupt checkpoint, a ``--resume`` directory that
does not exist or was started under different settings — exit with
code 2 and a one-line actionable message, never a traceback.

``search`` and ``front`` accept ``--deadline-ms MS``, a cooperative
wall-clock budget (:class:`repro.resilience.CancelToken`, the same
token the serving daemon propagates): a run that overruns it stops
within one generation, prints a one-line partial-progress message, and
exits with code 3. A run that finishes under its deadline is
bit-identical to the same run without one.

The long-running search-as-a-service daemon is a separate entry point:
``python -m repro.serve`` (see ``docs/serving.md``). Its served fronts
are bit-identical to ``repro front`` because both run the shared
recipe in :mod:`repro.serve.pipeline`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.accuracy import AccuracySurrogate
from repro.core import (
    EvolutionConfig,
    HSCoNAS,
    HSCoNASConfig,
)
from repro.hardware import LatencyLUT, LatencyPredictor, OnDeviceProfiler
from repro.hardware.calibration import calibrated_devices
from repro.parallel.backend import BACKEND_NAMES
from repro.report.figures import series_to_csv
from repro.resilience import CancelToken, DeadlineExceeded
from repro.runstate import (
    PhaseCheckpoint,
    RunDir,
    RunStateError,
    atomic_write_json,
    atomic_write_text,
)
from repro.space import LAYOUT_NAMES, SearchSpace, space_for_layout


def _space(layout: str) -> SearchSpace:
    try:
        return space_for_layout(layout)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _ensure_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cancel_token(args: argparse.Namespace) -> Optional[CancelToken]:
    """The ``--deadline-ms`` token for this invocation, or ``None``."""
    deadline_ms = getattr(args, "deadline_ms", None)
    if deadline_ms is None:
        return None
    if deadline_ms <= 0:
        raise SystemExit("--deadline-ms must be positive")
    return CancelToken.after_ms(deadline_ms)


def _run_state(
    args: argparse.Namespace,
    kind: str,
    config: dict,
    phase_order: Sequence[str],
) -> Optional[RunDir]:
    """The run directory for a checkpointed invocation, or ``None``.

    ``--run-dir`` starts a fresh directory (refusing to clobber an
    existing run); ``--resume`` opens an existing one, verifying the
    run kind and the identity-relevant config keys (``workers`` is
    deliberately absent from ``config``: it is wall-clock-only, so a
    run may be resumed with a different worker count).
    """
    run_dir = getattr(args, "run_dir", None)
    resume = getattr(args, "resume", None)
    if run_dir and resume:
        raise RunStateError(
            "pass either --run-dir (new run) or --resume (continue), not both"
        )
    if resume:
        return RunDir.open(resume, expect_kind=kind, expect_config=config)
    if run_dir:
        return RunDir.create(run_dir, kind, config, phase_order)
    return None


def cmd_search(args: argparse.Namespace) -> int:
    space = _space(args.layout)
    device = calibrated_devices()[args.device]
    config = HSCoNASConfig(
        target_ms=args.target,
        seed=args.seed,
        evolution=EvolutionConfig(seed=args.seed),
        workers=args.workers,
        backend=args.backend,
        table=args.table,
        # Replay the latency column matching the requested device.
        table_device=args.device if args.table else None,
    )
    run_state = _run_state(
        args,
        "search",
        {
            "device": args.device,
            "layout": args.layout,
            "target_ms": args.target,
            "seed": args.seed,
        },
        HSCoNAS.PHASES,
    )
    result = HSCoNAS(space, device, config).run(
        run_state=run_state, cancel=_cancel_token(args)
    )
    print(result.summary())

    out = _ensure_out(args.out)
    artifact = {
        "device": args.device,
        "layout": args.layout,
        "target_ms": args.target,
        "seed": args.seed,
        "workers": args.workers,
        "backend": args.backend,
        "table": args.table,
        "architecture": result.arch.to_dict(),
        "top1_error": result.top1_error,
        "top5_error": result.top5_error,
        "predicted_latency_ms": result.predicted_latency_ms,
        "measured_latency_ms": result.measured_latency_ms,
        "bias_ms": result.bias_ms,
        "cache_stats": result.search.cache_stats,
        "shrink": result.shrink.to_dict() if result.shrink else None,
        "degradation": (
            result.degradation.to_dict() if result.degradation else None
        ),
        "generations": [
            {
                "index": g.index,
                "best_score": g.best.score,
                "best_latency_ms": g.best.latency_ms,
            }
            for g in result.search.generations
        ],
    }
    path = out / f"search_{args.device}_{args.layout}_{args.target:g}ms.json"
    atomic_write_json(path, artifact)
    print(f"\nartifact written to {path}")
    return 0


def cmd_shrink(args: argparse.Namespace) -> int:
    space = _space(args.layout)
    device = calibrated_devices()[args.device]
    # The shrink recipe: HSCoNAS's stage 1 at 3 LUT samples per cell
    # and 25 calibration architectures (no retries, strict lookups),
    # then exactly the shrink phase a full pipeline run performs.
    config = HSCoNASConfig(
        target_ms=args.target,
        lut_samples_per_cell=3,
        bias_calibration_archs=25,
        quality_samples=args.quality_samples,
        seed=args.seed,
        workers=args.workers,
        backend=args.backend,
        retry=None,
        degraded_ok=False,
    )
    run_state = _run_state(
        args,
        "shrink",
        {
            "device": args.device,
            "layout": args.layout,
            "target_ms": args.target,
            "quality_samples": args.quality_samples,
            "seed": args.seed,
        },
        ("predictor", "shrink"),
    )
    result, dispatch_stats = HSCoNAS(
        space, device, config, surrogate=AccuracySurrogate(space)
    ).shrink(run_state)

    removed = sum(result.orders_of_magnitude_removed())
    print(
        f"shrunk 10^{result.initial_log10_size:.1f} -> "
        f"10^{result.stage_log10_sizes[-1]:.1f} architectures "
        f"(-{removed:.1f} orders of magnitude, "
        f"{result.quality_evaluations} quality evaluations)"
    )
    for stage in result.stages:
        for d in stage:
            print(
                f"  layer {d.layer:2d}: fixed op {d.chosen_op} "
                f"(margin {d.margin():.4f})"
            )
    if result.cache_stats is not None:
        print(f"cache: {result.cache_stats}")

    out = _ensure_out(args.out)
    artifact = result.to_dict()
    artifact.update(
        {
            "device": args.device,
            "layout": args.layout,
            "target_ms": args.target,
            "seed": args.seed,
            "workers": args.workers,
            "backend": args.backend,
            "dispatch_stats": dispatch_stats,
        }
    )
    path = out / f"shrink_{args.device}_{args.layout}_{args.target:g}ms.json"
    atomic_write_json(path, artifact)
    print(f"\ntrace written to {path}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    space = _space(args.layout)
    device = calibrated_devices()[args.device]
    lut = LatencyLUT.build(
        space, device, samples_per_cell=3, seed=args.seed,
        workers=args.workers, backend=args.backend,
    )
    predictor = LatencyPredictor(lut, space)
    profiler = OnDeviceProfiler(device, seed=args.seed + 1)
    bias = predictor.calibrate_bias(space, profiler, num_archs=40,
                                    seed=args.seed + 2)
    rng = np.random.default_rng(args.seed + 3)
    holdout = space.sample_many(rng, 40)
    report = predictor.evaluate(space, profiler, holdout)
    print(f"bias B = {bias:+.2f} ms")
    print(report)

    out = _ensure_out(args.out)
    lut_path = out / f"lut_{args.device}_{args.layout}.json"
    atomic_write_text(lut_path, lut.to_json() + "\n")
    print(f"LUT written to {lut_path}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.baselines import all_baselines
    from repro.report import TableRow, render_table1
    from repro.report.tables import render_markdown

    devices = calibrated_devices()
    rows: List[TableRow] = []
    for model in all_baselines():
        net = model.build()
        rows.append(
            TableRow(
                name=model.name,
                group=model.group,
                top1_error=model.published.top1_error,
                top5_error=model.published.top5_error,
                latency_gpu_ms=devices["gpu"].run_network_ms(net.layers),
                latency_cpu_ms=devices["cpu"].run_network_ms(net.layers),
                latency_edge_ms=devices["edge"].run_network_ms(net.layers),
            )
        )

    targets = {"gpu": 9.0, "cpu": 22.5, "edge": 34.0}
    if not args.baselines_only:
        space = _space("a")
        surrogate = AccuracySurrogate(space)
        for key, target in targets.items():
            result = HSCoNAS(
                space, devices[key],
                HSCoNASConfig(target_ms=target, seed=args.seed),
                surrogate=surrogate,
            ).run()
            lats = {
                k: OnDeviceProfiler(devices[k], seed=11).measure_ms(
                    space, result.arch
                )
                for k in targets
            }
            rows.append(
                TableRow(
                    name=f"HSCoNet-{key.upper()}-A",
                    group="hsconas",
                    top1_error=round(result.top1_error, 1),
                    top5_error=result.top5_error,
                    latency_gpu_ms=lats["gpu"],
                    latency_cpu_ms=lats["cpu"],
                    latency_edge_ms=lats["edge"],
                )
            )

    text = render_table1(rows)
    print(text)
    out = _ensure_out(args.out)
    atomic_write_text(out / "table1.txt", text + "\n")
    atomic_write_text(out / "table1.md", render_markdown(rows) + "\n")
    print(f"\nartifacts written to {out}/table1.txt and table1.md")
    return 0


def _replay_front(args: argparse.Namespace, space: SearchSpace):
    """The ``front`` command's tabular-replay path (no live predictor).

    Bit-identical to the live path when the artifact was built with the
    ``"front"`` recipe at this seed (the CI replay gate proves it);
    misconfigurations fail loudly before any search runs.
    """
    from repro.serve.pipeline import replay_front_search
    from repro.tabular import load_artifact

    if args.table is None:
        raise SystemExit(
            "--backend tabular replays a prebuilt artifact; pass "
            "--table DIR (build one with `repro tabulate`)"
        )
    if args.run_dir or args.resume:
        raise SystemExit(
            "--run-dir/--resume checkpoint live searches; a tabular "
            "replay finishes in milliseconds and takes no checkpoints"
        )
    table = load_artifact(args.table, space=space)
    if not table.exhaustive:
        raise SystemExit(
            f"front replay needs an exhaustive table; {args.table} "
            f"holds {len(table)} architectures — rebuild with "
            "`repro tabulate --num-archs 0`"
        )
    return replay_front_search(space, table, args.device, seed=args.seed)


def cmd_front(args: argparse.Namespace) -> int:
    from repro.core import BiObjective, EvaluationCache
    from repro.serve.pipeline import front_pipeline, front_search

    space = _space(args.layout)
    if args.backend == "tabular":
        result = _replay_front(args, space)
        return _write_front(args, result)
    # The predictor build and NSGA-II run are the shared serving-layer
    # recipe (repro.serve.pipeline): the daemon must stay bit-identical
    # to this offline path, so both call the same functions.
    stage = front_pipeline(
        space, args.device, args.seed,
        workers=args.workers, backend=args.backend,
    )
    run_state = _run_state(
        args,
        "front",
        {"device": args.device, "layout": args.layout, "seed": args.seed},
        ("predictor", "front"),
    )
    predictor = stage.checkpointed_predictor(run_state)
    cache = EvaluationCache()
    front_ckpt = None
    if run_state is not None:
        front_ckpt = PhaseCheckpoint(
            run_state,
            "front",
            extra_save=lambda: {
                "cache": cache.snapshot(lambda p: p.to_dict())
            },
            extra_restore=lambda state: cache.restore(
                state["cache"], BiObjective.from_dict
            ),
        )

    result = front_search(
        space,
        predictor,
        seed=args.seed,
        cache=cache,
        workers=args.workers,
        backend=args.backend,
        checkpoint=front_ckpt,
        surrogate=stage.surrogate,
        cancel=_cancel_token(args),
    )
    return _write_front(args, result)


def _write_front(args: argparse.Namespace, result) -> int:
    """Print and persist a Pareto front (shared by live and replay)."""
    print(f"{len(result.front)} Pareto points "
          f"({result.num_evaluations} evaluations):")
    for p in result.front:
        print(f"  {p.latency_ms:7.2f} ms -> proxy acc {p.accuracy:.4f}")

    out = _ensure_out(args.out)
    csv = series_to_csv(
        {
            "latency_ms": [p.latency_ms for p in result.front],
            "proxy_accuracy": [p.accuracy for p in result.front],
        }
    )
    path = out / f"front_{args.device}_{args.layout}.csv"
    atomic_write_text(path, csv + "\n")
    print(f"front written to {path}")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    from repro.hardware import EnergyModel, EnergyPredictor

    space = _space(args.layout)
    device = calibrated_devices()[args.device]
    model = EnergyModel(device)
    predictor = EnergyPredictor(space, model).build(seed=args.seed)
    bias = predictor.calibrate_bias(num_archs=30, seed=args.seed + 1)

    rng = np.random.default_rng(args.seed + 2)
    rows = []
    for _ in range(args.samples):
        arch = space.sample(rng)
        rows.append(
            (
                device.latency_ms(space, arch),
                model.arch_energy_mj(space, arch),
                predictor.predict(arch),
            )
        )
    print(f"energy predictor bias = {bias:+.2f} mJ")
    print(f"{'latency ms':>11s} {'energy mJ':>10s} {'predicted mJ':>13s}")
    for lat, mj, pred in rows[:10]:
        print(f"{lat:11.2f} {mj:10.1f} {pred:13.1f}")

    out = _ensure_out(args.out)
    csv = series_to_csv(
        {
            "latency_ms": [r[0] for r in rows],
            "energy_mj": [r[1] for r in rows],
            "predicted_mj": [r[2] for r in rows],
        }
    )
    path = out / f"energy_{args.device}_{args.layout}.csv"
    atomic_write_text(path, csv + "\n")
    print(f"samples written to {path}")
    return 0


def cmd_tabulate(args: argparse.Namespace) -> int:
    from repro.tabular import save_artifact, tabulate

    space = _space(args.layout)
    devices = tuple(args.device) if args.device else ("edge",)
    table = tabulate(
        space,
        devices,
        seed=args.seed,
        num_archs=args.num_archs or None,
        recipe=args.recipe,
        workers=args.workers,
        backend=args.backend,
    )
    out = _ensure_out(args.out)
    path = out / f"table_{args.layout}_{args.recipe}_seed{args.seed}"
    save_artifact(table, path, layout=args.layout)
    coverage = "exhaustive" if table.exhaustive else "sampled"
    print(
        f"tabulated {len(table)} architectures ({coverage}) for "
        f"{', '.join(table.devices)} "
        f"[recipe={args.recipe} seed={args.seed}]"
    )
    print(f"artifact written to {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.report.sweeps import render_sweep_summary
    from repro.tabular import load_artifact, run_sweep

    table = load_artifact(args.table)
    devices = tuple(args.device) if args.device else table.devices
    if args.target:
        targets = tuple(args.target)
    else:
        # No target given: sweep around the artifact's own latency
        # distribution (the median of the primary device's column).
        targets = (float(np.median(table.latency_column())),)
    report = run_sweep(
        table,
        targets=targets,
        seeds=tuple(range(args.seeds)),
        devices=devices,
        generations=args.generations,
        population_size=args.population,
        num_parents=args.parents,
    )
    print(
        f"{len(report.results)} scenarios "
        f"({len(devices)} devices x {len(targets)} targets x "
        f"{args.seeds} seeds):"
    )
    print(render_sweep_summary(report.summary_rows()))

    out = _ensure_out(args.out)
    path = out / "sweep.json"
    atomic_write_json(path, report.to_dict())
    for label, band in report.bands().items():
        csv = series_to_csv(
            {
                "generation": band["generation"],
                "mean": band["mean"],
                "std": band["std"],
                "min": band["min"],
                "max": band["max"],
            }
        )
        band_path = out / f"sweep_band_{label.replace('@', '_')}.csv"
        atomic_write_text(band_path, csv + "\n")
    print(f"sweep written to {path} (+ per-group band CSVs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HSCoNAS reproduction command-line interface",
    )
    parser.add_argument("--out", default="results",
                        help="artifact output directory (default: results)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers(
        p: argparse.ArgumentParser, tabular: bool = False
    ) -> None:
        p.add_argument(
            "--workers", type=int, default=0,
            help="evaluation worker processes; 0 = serial (the default), "
                 "results are identical for any value",
        )
        choices = BACKEND_NAMES + ("tabular",) if tabular else BACKEND_NAMES
        p.add_argument(
            "--backend", choices=choices, default="auto",
            help="evaluation backend; auto picks multiprocess when "
                 "--workers >= 2, serial otherwise — results are "
                 "identical either way (see docs/performance.md)"
                 + (", and tabular replays a prebuilt artifact "
                    "(requires --table)" if tabular else ""),
        )
        if tabular:
            p.add_argument(
                "--table", default=None, metavar="DIR",
                help="tabular artifact directory for --backend tabular "
                     "(build one with `repro tabulate`)",
            )

    def add_deadline(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deadline-ms", type=float, default=None, metavar="MS",
            help="cooperative wall-clock budget: a run that overruns it "
                 "stops within one generation and exits 3 with a "
                 "partial-progress line (see docs/robustness.md)",
        )

    def add_run_state(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--run-dir", default=None, metavar="DIR",
            help="start a new crash-safe checkpointed run in DIR "
                 "(refuses to clobber an existing run)",
        )
        p.add_argument(
            "--resume", default=None, metavar="DIR",
            help="resume a killed checkpointed run from DIR, bit-exact "
                 "(see docs/robustness.md)",
        )

    p = sub.add_parser("search", help="run one HSCoNAS pipeline")
    p.add_argument("--device", choices=("gpu", "cpu", "edge"), default="edge")
    p.add_argument("--layout", choices=LAYOUT_NAMES, default="a")
    p.add_argument("--target", type=float, default=34.0,
                   help="latency constraint T in ms")
    p.add_argument("--seed", type=int, default=0)
    add_workers(p, tabular=True)
    add_run_state(p)
    add_deadline(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("shrink",
                       help="progressive space shrinking trace (Sec. III-C)")
    p.add_argument("--device", choices=("gpu", "cpu", "edge"), default="edge")
    p.add_argument("--layout", choices=LAYOUT_NAMES, default="a")
    p.add_argument("--target", type=float, default=34.0,
                   help="latency constraint T in ms")
    p.add_argument("--quality-samples", type=int, default=100,
                   help="N in the Eq. 4 quality estimate")
    p.add_argument("--seed", type=int, default=0)
    add_workers(p)
    add_run_state(p)
    p.set_defaults(func=cmd_shrink)

    p = sub.add_parser("predict", help="build + evaluate the latency predictor")
    p.add_argument("--device", choices=("gpu", "cpu", "edge"), default="edge")
    p.add_argument("--layout", choices=LAYOUT_NAMES, default="a")
    p.add_argument("--seed", type=int, default=0)
    add_workers(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("table1", help="regenerate the Table-I comparison")
    p.add_argument("--baselines-only", action="store_true",
                   help="skip the HSCoNAS runs (baselines only, fast)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("front", help="NSGA-II accuracy/latency Pareto front")
    p.add_argument("--device", choices=("gpu", "cpu", "edge"), default="edge")
    p.add_argument("--layout", choices=LAYOUT_NAMES, default="a")
    p.add_argument("--seed", type=int, default=0)
    add_workers(p, tabular=True)
    add_run_state(p)
    add_deadline(p)
    p.set_defaults(func=cmd_front)

    p = sub.add_parser("energy",
                       help="energy model + predictor samples (future work)")
    p.add_argument("--device", choices=("gpu", "cpu", "edge"), default="edge")
    p.add_argument("--layout", choices=LAYOUT_NAMES, default="a")
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser(
        "tabulate",
        help="precompute a columnar tabular artifact for instant replay",
    )
    p.add_argument("--layout", choices=LAYOUT_NAMES, default="mini")
    p.add_argument(
        "--device", action="append", default=[],
        choices=("gpu", "cpu", "edge"), metavar="DEV",
        help="latency column(s) to tabulate (repeatable; default: edge)",
    )
    p.add_argument(
        "--num-archs", type=int, default=0, metavar="N",
        help="architectures to sample; 0 (default) = exhaustive "
             "(small layouts only — capped at 1e6)",
    )
    p.add_argument(
        "--recipe", choices=("front", "search"), default="front",
        help="which live pipeline's predictor/surrogate to tabulate: "
             "the serving-layer front recipe or the HSCoNAS search "
             "recipe (they score differently; replay must match)",
    )
    p.add_argument("--seed", type=int, default=0)
    add_workers(p)
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser(
        "sweep",
        help="replay (device x target x seed) search scenarios "
             "against a tabular artifact; writes variance bands",
    )
    p.add_argument(
        "--table", required=True, metavar="DIR",
        help="tabular artifact directory (from `repro tabulate`)",
    )
    p.add_argument(
        "--device", action="append", default=[], metavar="DEV",
        help="device column(s) to sweep (repeatable; default: all "
             "columns in the artifact)",
    )
    p.add_argument(
        "--target", action="append", default=[], type=float, metavar="MS",
        help="latency target(s) in ms (repeatable; default: the median "
             "latency of the artifact's primary device column)",
    )
    p.add_argument(
        "--seeds", type=int, default=5, metavar="N",
        help="replay seeds 0..N-1 per (device, target) cell (default 5)",
    )
    p.add_argument("--generations", type=int, default=20)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--parents", type=int, default=20)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RunStateError as exc:
        # Operator errors (bad --resume dir, corrupt checkpoint, config
        # mismatch) get one actionable line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Same contract for artifact problems (wrong space fingerprint,
        # corrupt columns, sampled table where replay needs exhaustive).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeadlineExceeded as exc:
        # --deadline-ms fired: one line of partial progress, exit 3
        # (distinct from operator errors so scripts can tell "ran out
        # of budget" from "misconfigured").
        progress = " ".join(
            f"{key}={value}"
            for key, value in sorted(exc.progress.items())
        )
        detail = f" ({progress})" if progress else ""
        print(f"deadline exceeded{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
