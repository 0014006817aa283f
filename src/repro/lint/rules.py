"""Rule framework: registry, metadata, and inline suppression.

A :class:`Rule` is pure metadata (id, name, rationale) shared by
``--list-rules``, the SARIF catalog and the docs. Checkers — AST
visitors and flow analyses — reference their rule and emit
:class:`~repro.lint.findings.Finding` objects.

Inline suppression mirrors the usual lint idiom::

    ready.wait()  # repro-lint: disable=RL109
    buf += 1.0  # repro-lint: disable=RL103,RL109
    buf += 1.0  # repro-lint: disable

A bare ``disable`` suppresses every rule on that line; named forms
suppress only the listed ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.findings import Finding

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<rules>[A-Z0-9,\s]+))?"
)


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule."""

    rule_id: str
    name: str
    description: str


class RuleRegistry:
    """Id-keyed rule collection."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id {rule.rule_id}")
        self._rules[rule.rule_id] = rule
        return rule

    def all(self) -> List[Rule]:
        return sorted(self._rules.values(), key=lambda r: r.rule_id)


CODE_RULES = RuleRegistry()


def suppressed_rules(source_line: str) -> Optional[Set[str]]:
    """Rule ids suppressed by an inline comment on ``source_line``.

    Returns ``None`` when the line has no suppression marker, the empty
    set for the bare ``disable`` form (suppress everything), and the set
    of named ids otherwise.
    """
    match = _SUPPRESS_RE.search(source_line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return set()
    return {r.strip() for r in rules.split(",") if r.strip()}


def filter_suppressed(
    findings: Iterable[Finding], source_lines: Sequence[str]
) -> List[Finding]:
    """Drop code findings whose source line carries a matching
    ``# repro-lint: disable`` marker."""
    kept: List[Finding] = []
    for f in findings:
        if f.line is not None and 1 <= f.line <= len(source_lines):
            marker = suppressed_rules(source_lines[f.line - 1])
            if marker is not None and (not marker or f.rule_id in marker):
                continue
        kept.append(f)
    return kept
