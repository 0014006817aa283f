"""Findings: the common currency of every lint rule.

The AST code lint and the flow analyses both report :class:`Finding`
objects. A finding carries a stable rule id (``RL1xx`` for code rules,
``RF3xx`` for flow rules), a human message, and its ``file:line:col``.
Every finding is an error: a run with any finding exits 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    rule_id: str
    message: str
    file: str
    line: Optional[int] = None
    column: Optional[int] = None

    def location(self) -> str:
        return f"{self.file}:{self.line or 0}:{self.column or 0}"

    def format(self) -> str:
        return f"{self.location()}: {self.rule_id} error: {self.message}"


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable report order: by path, line, column, rule id."""
    return sorted(
        findings,
        key=lambda f: (f.file, f.line or 0, f.column or 0, f.rule_id),
    )


def render_text(findings: Iterable[Finding]) -> str:
    ordered = sort_findings(findings)
    lines = [f.format() for f in ordered]
    lines.append(f"{len(ordered)} finding(s)")
    return "\n".join(lines)
