"""Fixpoint driver: build the project once, run every RF analysis.

The driver owns the expensive shared artifacts — the
:class:`~repro.lint.flow.project.Project` index and the call graph —
and hands them to the three analyses. It also applies the same inline
``# repro-lint: disable=...`` suppression contract as the per-file
rules, and reports run statistics for ``--stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.lint.astcache import AstCache
from repro.lint.findings import Finding, sort_findings
from repro.lint.flow.cachekeys import analyze_cache_keys
from repro.lint.flow.callgraph import build_call_graph
from repro.lint.flow.locks import analyze_locks
from repro.lint.flow.project import Project
from repro.lint.flow.rng import analyze_rng
from repro.lint.rules import filter_suppressed


@dataclass
class FlowStats:
    """What one flow run analyzed, for ``--stats`` and tests."""

    files: int = 0
    functions: int = 0
    classes: int = 0
    calls_resolved: int = 0
    calls_unresolved: int = 0
    wall_ms: float = 0.0

    def format(self) -> str:
        return (
            f"flow: {self.files} files, {self.functions} functions, "
            f"{self.classes} classes, {self.calls_resolved} calls "
            f"resolved ({self.calls_unresolved} opaque), "
            f"{self.wall_ms:.1f} ms"
        )


def analyze_flow(
    paths: Sequence[str], cache: Optional[AstCache] = None
) -> Tuple[List[Finding], FlowStats]:
    """Run the whole-program analyses over ``paths``.

    ``cache`` shares parsed trees with the per-file pass.
    """
    start = time.perf_counter()
    if cache is None:
        cache = AstCache()
    project = Project.from_paths(paths, cache)
    graph = build_call_graph(project)

    findings: List[Finding] = []
    findings.extend(analyze_rng(project, graph))
    findings.extend(analyze_locks(project, graph))
    findings.extend(analyze_cache_keys(project, graph))

    # Inline suppression, same contract as the RL rules.
    kept: List[Finding] = []
    for finding in findings:
        module = project.modules_by_path.get(finding.file)
        lines = module.lines if module is not None else []
        kept.extend(filter_suppressed([finding], lines))

    stats = FlowStats(
        files=len(project.modules),
        functions=len(project.functions),
        classes=len(project.classes),
        calls_resolved=graph.resolved,
        calls_unresolved=graph.unresolved,
        wall_ms=(time.perf_counter() - start) * 1e3,
    )
    return sort_findings(kept), stats
