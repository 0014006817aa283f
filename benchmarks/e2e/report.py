"""Sample statistics, result tables, and ``--compare`` verdicts.

Stdlib only: ``--compare`` reads two result files and needs nothing
from the program under test.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(Path(path).read_text())


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail_percentile(values: Sequence[float]):
    """``(p, value)`` for the highest of p90/p99/p99.9 with at least ten
    samples beyond it, or ``None`` when there are fewer than 100."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            rank = max(1, math.ceil(p / 100 * n))
            best = (p, ordered[rank - 1])
    return best


def describe(values: Sequence[float]) -> dict:
    """n, median and quartiles (plus the valid tail percentile)."""
    q1, median, q3 = quartiles(values)
    out = {"n": len(values), "median": median, "q1": q1, "q3": q3}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail"] = {"p": tail[0], "value": tail[1]}
    return out


def format_samples(name: str, unit: str, d: dict) -> str:
    """One line of a :func:`describe` summary."""
    line = (
        f"  {name:<22s} {unit:<5s} n={d['n']:<5d} median={d['median']:<12.6g}"
        f" q1={d['q1']:<12.6g} q3={d['q3']:<12.6g}"
    )
    if "tail" in d:
        line += f" p{d['tail']['p']:g}={d['tail']['value']:.6g}"
    return line


# -- compare -------------------------------------------------------------------


def _runs_by_workload(results: dict) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in results["runs"]:
        if not run.get("trace"):
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> dict:
    """Compare two sets of per-run values of one metric.

    ``regressed`` when the new median is worse by more than ``bound``;
    ``unresolved`` when either side's quartile spread (as a share of
    its median) is wider than the bound, unless every new run reads
    better than every base run; ``ok`` otherwise.
    """
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    delta = (nmed - bmed) / bmed if bmed else 0.0
    worse_by = delta if better == "lower" else -delta
    spread = max(
        (bq3 - bq1) / bmed if bmed else 0.0,
        (nq3 - nq1) / nmed if nmed else 0.0,
    )
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if all_better:
        status = "ok"
    elif spread > bound:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    else:
        status = "ok"
    return {
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "n": len(base)},
        "new": {"median": nmed, "q1": nq1, "q3": nq3, "n": len(new)},
        "delta": delta,
        "spread": spread,
        "bound": bound,
        "verdict": status,
    }


def compare(base: dict, new: dict, spec: dict) -> dict:
    """Verdict rows per workload x end-to-end metric, plus correctness.

    Correctness problems are fingerprint changes on any seed both sides
    ran and a rise in the share of failed operations.
    """
    base_runs = _runs_by_workload(base)
    new_runs = _runs_by_workload(new)
    rows = []
    problems = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        b, n = base_runs[workload], new_runs[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
            if not bv or not nv:
                continue
            row = verdict(bv, nv, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
        base_fp = _fingerprints(b)
        new_fp = _fingerprints(n)
        for seed in sorted(set(base_fp) & set(new_fp), key=int):
            if base_fp[seed] != new_fp[seed]:
                problems.append(
                    f"{workload}: fingerprint of seed {seed} changed "
                    f"{base_fp[seed]} -> {new_fp[seed]}"
                )
        base_share = _failed_share(b)
        new_share = _failed_share(n)
        if new_share > base_share:
            problems.append(
                f"{workload}: failed share rose {base_share:.4%} -> "
                f"{new_share:.4%}"
            )
    return {"rows": rows, "problems": problems}


def _fingerprints(runs: Iterable[dict]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for run in runs:
        out.update(run.get("fingerprints", {}))
    return out


def _failed_share(runs: Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def format_compare(report: dict) -> str:
    lines = [
        f"{'workload':<15s} {'metric':<14s} {'base median [q1, q3]':<34s} "
        f"{'new median [q1, q3]':<34s} {'delta':>8s} {'bound':>6s}  verdict"
    ]

    def cell(side):
        return (
            f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]"
        )

    for row in report["rows"]:
        lines.append(
            f"{row['workload']:<15s} {row['metric']:<14s} "
            f"{cell(row['base']):<34s} {cell(row['new']):<34s} "
            f"{row['delta']:>+8.2%} {row['bound']:>6.2f}  {row['verdict']}"
        )
    for problem in report["problems"]:
        lines.append(f"CORRECTNESS: {problem}")
    return "\n".join(lines)


def compare_files(base_path: str, new_path: str,
                  spec: Optional[dict] = None) -> int:
    """Print the comparison; 1 on any regression or correctness change."""
    spec = spec if spec is not None else load_spec()
    report = compare(
        json.loads(Path(base_path).read_text()),
        json.loads(Path(new_path).read_text()),
        spec,
    )
    print(format_compare(report))
    failed = report["problems"] or any(
        row["verdict"] == "regressed" for row in report["rows"]
    )
    return 1 if failed else 0
