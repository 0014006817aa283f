"""Findings: the common currency of every lint rule.

The AST code lint and the flow analyses both report :class:`Finding`
objects. A finding carries a stable rule id (``RL1xx`` for code rules,
``RF3xx`` for flow rules), a severity, a human message, and a location:
``file:line:col`` for code findings, a logical ``component`` (e.g.
``baseline:lint_baseline.json``) for a stale baseline entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional


class Severity(Enum):
    """Finding severity; only errors fail a non-strict run."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Exactly one of (``file``, ``component``) is normally set: code
    findings point into a source file, a stale-baseline finding at the
    baseline file as a whole.
    """

    rule_id: str
    severity: Severity
    message: str
    file: Optional[str] = None
    line: Optional[int] = None
    column: Optional[int] = None
    component: Optional[str] = None

    def location(self) -> str:
        if self.file is not None:
            line = self.line if self.line is not None else 0
            col = self.column if self.column is not None else 0
            return f"{self.file}:{line}:{col}"
        return self.component or "<global>"

    def format(self) -> str:
        return f"{self.location()}: {self.rule_id} {self.severity}: {self.message}"

    def to_dict(self) -> Dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "component": self.component,
        }


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable report order: file findings first (by path/line/col), then
    component findings by component and rule id."""
    return sorted(
        findings,
        key=lambda f: (
            f.file is None,
            f.file or "",
            f.line or 0,
            f.column or 0,
            f.component or "",
            f.rule_id,
        ),
    )


def render_text(findings: Iterable[Finding]) -> str:
    ordered = sort_findings(findings)
    lines = [f.format() for f in ordered]
    errors = sum(1 for f in ordered if f.severity is Severity.ERROR)
    warnings = len(ordered) - errors
    lines.append(
        f"{len(ordered)} finding(s): {errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    return json.dumps(
        [f.to_dict() for f in sort_findings(findings)], indent=2
    )


def exit_code(findings: Iterable[Finding], strict: bool = False) -> int:
    """0 if the run passes, 1 otherwise.

    Errors always fail; with ``strict`` warnings fail too.
    """
    for f in findings:
        if f.severity is Severity.ERROR or strict:
            return 1
    return 0
