"""Static consistency checking for the HSCoNAS search stack.

Two halves, one report format, one CLI (``python -m repro.lint``):

* an **AST code lint** (``repro.lint.ast_rules``, rules ``RL1xx``) with
  repo-specific rules — global-RNG usage, raw float cache keys, shared
  workspace/cache buffer mutation, mutable defaults, atomic JSON
  writes, backend/serve-layer bypasses, unbounded waits;
* **domain checkers** (rules ``RD2xx``) that statically validate search
  artifacts: LUT coverage of a space's reachable cells
  (``lut_check``), space-geometry consistency (``space_check``), and
  crash-safe run-directory integrity (``runstate_check``).

Configs, encodings and shrink plans are not linted: their constructors
and :func:`repro.core.shrinking.validate_stage_layers` reject a bad
value where it enters the program.

See ``docs/static_analysis.md`` for the full rule catalog and
suppression syntax.
"""

from repro.lint.findings import (
    Finding,
    Severity,
    exit_code,
    render_json,
    render_text,
    sort_findings,
)
from repro.lint.rules import CODE_RULES, DOMAIN_RULES, Rule

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "CODE_RULES",
    "DOMAIN_RULES",
    "sort_findings",
    "render_text",
    "render_json",
    "exit_code",
    "lint_source",
    "lint_paths",
    "check_lut_coverage",
    "check_space",
    "check_run_dir",
]


def __getattr__(name):
    # Lazy re-exports: the AST lint must import without numpy, and the
    # domain checkers pull in the full search stack only when used.
    if name in ("lint_source", "lint_paths"):
        from repro.lint import ast_rules

        return getattr(ast_rules, name)
    if name == "check_lut_coverage":
        from repro.lint.lut_check import check_lut_coverage

        return check_lut_coverage
    if name == "check_space":
        from repro.lint.space_check import check_space

        return check_space
    if name == "check_run_dir":
        from repro.lint.runstate_check import check_run_dir

        return check_run_dir
    raise AttributeError(f"module 'repro.lint' has no attribute {name!r}")
