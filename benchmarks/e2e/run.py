"""End-to-end benchmark of the HSCoNAS reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload search_a --seed 0 --seconds 18
    python3 benchmarks/e2e/run.py --passes 3 --out results.json
    python3 benchmarks/e2e/run.py --workload serve_mix --trace-dir traces
    python3 benchmarks/e2e/run.py --compare base.json new.json

One ``--workload`` runs in this process and prints every metric with its
unit, sample count, median and quartiles, then one JSON result as the
last line of standard output. Several workloads (default: all four) or
``--passes`` above one run each workload in its own fresh process.
``--trace 1`` measures the per-layer metrics instead of the end-to-end
ones; ``--trace-dir DIR`` also writes a Chrome trace and a per-layer
summary there. The exit code is 1 when any output check fails.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - after the set-up clock starts
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the box has two cores and the serving workload runs
# two client threads; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The whole run on one core: the probe that rescales timings (see
# workloads.HostProbe) then runs on the core doing the work, whichever
# thread does it.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402


def _print_record(record: dict) -> None:
    name = record["workload"]
    mode = "traced" if record["trace"] else "untraced"
    print(f"{name} seed={record['seed']} {mode}: {record['cycles']} cycles, "
          f"{record['attempted']} operations, {record['failed']} failed")
    factors = "".join(
        f", {kind} {f:.4f}" for kind, f in sorted(record["speed_factors"].items())
    )
    print(f"  idle-host timings (speed factors: run {record['speed_factor']:.4f}"
          f"{factors}):")
    for kind, summary in sorted(record["samples"].items()):
        unit = "s" if kind.endswith("_s") else "ms"
        print(report.format_samples(kind, unit, summary))
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<32s} {entry['value']:.6g} {entry['unit']}")
    details = record["details"]
    for key, value in sorted(details.get("op_table", {}).items()):
        print(f"  {key:<46s} {value:.6g} us")
    for failure in record["failures"][:20]:
        print(f"  FAILED: {failure}")


def _result_line(records) -> dict:
    """The last-line JSON: one run's metrics, or the median of each
    workload's runs under ``<workload>.<metric>`` names."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        series = {}
        for r in records:
            for k, v in r["metrics"].items():
                entry = series.setdefault(f"{r['workload']}.{k}", {
                    "values": [], "unit": v["unit"]})
                entry["values"].append(v["value"])
        metrics = {
            name: {"value": statistics.median(e["values"]), "unit": e["unit"]}
            for name, e in series.items()
        }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def _child(args, name: str, seed: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=600)
    if not out.exists():
        raise SystemExit(f"{name} seed {seed}: exited {done.returncode} "
                         "without a result")
    return json.loads(out.read_text())["runs"][0]


def main(argv=None) -> int:
    spec = report.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first cycle seed; every input derives from it")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass reporting per-layer metrics")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="traced pass that also writes a Chrome trace "
                             "and a per-layer summary to DIR")
    parser.add_argument("--passes", type=int, default=1,
                        help="runs per workload, seeds SEED, SEED+1, ...")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write every run's full record as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --out files and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--update-golden", type=int, default=None,
                        metavar="N", help="rewrite golden.json with the "
                        "fingerprints of cycle seeds 0..N-1")
    args = parser.parse_args(argv)
    if args.trace_dir:
        args.trace = 1

    if args.compare:
        return report.compare_files(*args.compare, spec=spec)

    import workloads
    from repro.runstate.atomic import atomic_write_json

    selected = args.workload or names
    if args.setup_only:
        seconds = workloads.setup_only(selected[0], STARTED)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.update_golden is not None:
        golden = workloads.load_golden()
        for name in selected:
            golden[name] = {
                "sizes": workloads.jsonable(workloads.WORKLOADS[name].DEFAULTS),
                "fingerprints": workloads.golden_fingerprints(
                    name, range(args.update_golden)
                ),
            }
        atomic_write_json(
            workloads.GOLDEN_PATH, dict(sorted(golden.items())), indent=1
        )
        return 0

    if len(selected) == 1 and args.passes == 1:
        records = [workloads.run_workload(
            selected[0], seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), setup_repeats=3,
            trace_dir=args.trace_dir, golden=workloads.load_golden(),
            started=STARTED, spec=spec,
        )]
    else:
        records = []
        with tempfile.TemporaryDirectory(prefix=".tmp-runs-", dir=HERE) as tmp:
            for p in range(args.passes):
                for name in selected:
                    out = Path(tmp) / f"{name}-{p}.json"
                    print(f"pass {p}: {name}", file=sys.stderr, flush=True)
                    records.append(_child(args, name, args.seed + p, out))
    for record in records:
        _print_record(record)
    if args.out:
        atomic_write_json(args.out, {"runs": records}, indent=1)
    result = _result_line(records)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
