"""Rule framework: registry, metadata, and inline suppression.

A :class:`Rule` is pure metadata (id, name, default severity, rationale)
shared by the report renderer and the docs. Checkers — AST visitors and
flow analyses — reference their rule and emit
:class:`~repro.lint.findings.Finding` objects.

Inline suppression mirrors the usual lint idiom::

    entries[0.5] = ms  # repro-lint: disable=RL102
    entries[0.5] = ms  # repro-lint: disable=RL102,RL103
    entries[0.5] = ms  # repro-lint: disable

A bare ``disable`` suppresses every rule on that line; named forms
suppress only the listed ids. Suppression applies to findings with a
file/line; a stale-baseline finding (``RF399``) has neither — delete
the dead baseline entry instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.findings import Finding, Severity

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<rules>[A-Z0-9,\s]+))?"
)


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule."""

    rule_id: str
    name: str
    severity: Severity
    description: str


class RuleRegistry:
    """Id-keyed rule collection with select/ignore filtering."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id {rule.rule_id}")
        self._rules[rule.rule_id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        return self._rules[rule_id]

    def all(self) -> List[Rule]:
        return sorted(self._rules.values(), key=lambda r: r.rule_id)

    def resolve(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> Set[str]:
        """Active rule ids after --select / --ignore filtering."""
        ids = set(self._rules)
        if select:
            unknown = set(select) - ids
            if unknown:
                raise KeyError(f"unknown rule id(s): {sorted(unknown)}")
            ids = set(select)
        if ignore:
            ids -= set(ignore)
        return ids


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
