"""Static consistency checking for the HSCoNAS search stack.

One report format, one CLI (``python -m repro.lint``):

* an **AST code lint** (``repro.lint.ast_rules``, rules ``RL1xx``) with
  repo-specific rules — global-RNG usage, shared workspace/cache buffer
  mutation, atomic JSON writes, backend/serve-layer bypasses, unbounded
  waits;
* **whole-program flow analyses** (``repro.lint.flow``, rules
  ``RF3xx``) behind ``--flow``.

Every finding is an error. A rule is kept only where nothing else
catches its bug class: generic hygiene (bare ``except``, mutable
defaults) is ruff's, and search artifacts are not linted but checked
where they enter the program. A config, encoding or shrink plan by its
constructor or :func:`repro.core.shrinking.validate_stage_layers`; a
run directory by :class:`repro.runstate.RunDir` on resume; a restored
LUT's coverage by ``HSCoNAS`` before the shrink phase.

See ``docs/static_analysis.md`` for the full rule catalog and
suppression syntax.
"""

from repro.lint.findings import Finding, render_text, sort_findings
from repro.lint.rules import CODE_RULES, Rule

__all__ = [
    "Finding",
    "Rule",
    "CODE_RULES",
    "sort_findings",
    "render_text",
]
