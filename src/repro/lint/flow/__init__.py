"""Whole-program flow analyses (``RF3xx``) for ``repro.lint``.

Where the ``RL1xx`` rules see one file at a time, this package builds
a project-wide module/class/function index and a static call graph,
then proves (or refutes) the invariants the reproduction's guarantees
rest on:

* :mod:`~repro.lint.flow.rng` — **RF300** RNG provenance: every draw
  flows from an explicitly seeded stream, across call boundaries;
* :mod:`~repro.lint.flow.locks` — **RF301** guarded-field discipline
  and **RF302** lock-order inversions in the threaded serve layer;
* :mod:`~repro.lint.flow.cachekeys` — **RF303** cache-key soundness:
  floats reach keys only through the one-decimal quantizers.

Entry point: :func:`analyze_flow`. A finding that is accepted on
purpose carries a ``# repro-lint: disable=RULE`` comment with its
reason on the reported line; CI uploads the run as SARIF
(:mod:`~repro.lint.flow.sarif`).
"""

from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.driver import FlowStats, analyze_flow
from repro.lint.flow.project import Project
from repro.lint.flow.sarif import render_sarif

__all__ = [
    "FlowStats",
    "analyze_flow",
    "Project",
    "CallGraph",
    "build_call_graph",
    "render_sarif",
]
