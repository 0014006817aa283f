"""``python -m repro.lint`` — run the code lint and the flow analyses.

::

    python -m repro.lint src tests benchmarks examples   # code rules (RL1xx)
    python -m repro.lint src --flow                      # plus flow rules (RF3xx)
    python -m repro.lint src --flow --sarif findings.sarif --stats
    python -m repro.lint --list-rules

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
errors. A finding accepted on purpose carries a
``# repro-lint: disable=RULE`` comment, with its reason, on its line.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.findings import render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="static consistency checks for the HSCoNAS search stack",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to run the AST code lint over",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="run the whole-program flow analyses (RF3xx) over paths",
    )
    parser.add_argument(
        "--sarif", metavar="OUT",
        help="additionally write the findings as SARIF 2.1.0 to OUT",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print files/functions analyzed, parse counts, and wall "
        "time after the report",
    )
    return parser


def _list_rules() -> str:
    # Importing the rule modules populates the registry.
    import repro.lint.ast_rules  # noqa: F401
    import repro.lint.flow  # noqa: F401
    from repro.lint.rules import CODE_RULES

    return "\n".join(
        f"{rule.rule_id} {rule.name} — {rule.description}"
        for rule in CODE_RULES.all()
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.error("nothing to do: pass paths to lint")

    # One AST cache for the whole run: the per-file rules and the flow
    # analyses share parsed trees, so each file is parsed exactly once.
    from repro.lint.ast_rules import lint_paths
    from repro.lint.astcache import AstCache

    cache = AstCache()
    findings = lint_paths(args.paths, cache=cache)
    flow_stats = None
    if args.flow:
        from repro.lint.flow import analyze_flow

        flow_findings, flow_stats = analyze_flow(args.paths, cache=cache)
        findings.extend(flow_findings)

    if args.sarif:
        from repro.lint.flow.sarif import render_sarif
        from repro.runstate.atomic import atomic_write_text

        atomic_write_text(args.sarif, render_sarif(findings))

    print(render_text(findings) if findings else "repro.lint: no findings")
    if args.stats:
        parse_stats = cache.stats()
        print(
            f"repro.lint stats: {parse_stats['files']} files, "
            f"{parse_stats['parses']} parses, "
            f"{parse_stats['hits']} cache hits"
        )
        if flow_stats is not None:
            print(f"repro.lint stats: {flow_stats.format()}")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
