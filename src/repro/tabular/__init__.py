"""Tabular NAS benchmark artifacts (HW-NAS-Bench style).

The subsystem has two ends:

* **Build** (:mod:`repro.tabular.build`, :meth:`TabularBenchmark.build`)
  — precompute accuracy + per-device latency columns for a space,
  fanning evaluation out through the :mod:`repro.parallel` backends and
  the vectorized ``predict_many`` batch paths, and ship the result as a
  versioned, checksummed artifact (:mod:`repro.tabular.artifact`).
* **Replay** (:class:`TabularEvaluator`, :mod:`repro.tabular.sweep`) —
  re-run entire EA / NSGA-II searches against the dense columns,
  bit-identical to the live recipe and orders of magnitude faster,
  including whole ``(device x target x seed)`` scenario sweeps.

See ``docs/performance.md`` ("Tabular replay") for the artifact format
and how replay is checked against live search.
"""

from repro.tabular.artifact import (
    SCHEMA_VERSION,
    TabularArtifactError,
    load_artifact,
    load_manifest,
    save_artifact,
)
from repro.tabular.build import RECIPES, tabulate
from repro.tabular.evaluator import TabularEvaluator
from repro.tabular.sweep import (
    ScenarioResult,
    SweepReport,
    SweepScenario,
    run_scenario,
    run_sweep,
)
from repro.tabular.table import (
    TableEntry,
    TabularBenchmark,
    decode_indices,
    resolve_indices,
    sample_indices,
    space_fingerprint,
)

__all__ = [
    "SCHEMA_VERSION",
    "TableEntry",
    "TabularBenchmark",
    "TabularEvaluator",
    "TabularArtifactError",
    "RECIPES",
    "ScenarioResult",
    "SweepReport",
    "SweepScenario",
    "decode_indices",
    "load_artifact",
    "load_manifest",
    "resolve_indices",
    "run_scenario",
    "run_sweep",
    "sample_indices",
    "save_artifact",
    "space_fingerprint",
    "tabulate",
]
