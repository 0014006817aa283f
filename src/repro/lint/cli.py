"""``python -m repro.lint`` — run the code lint and the flow analyses.

Code lint (AST rules, RL1xx)::

    python -m repro.lint src                 # lint a tree
    python -m repro.lint src --strict        # warnings fail too
    python -m repro.lint src --format json

Whole-program flow analyses (RF3xx) with a baseline and SARIF output::

    python -m repro.lint src --flow
    python -m repro.lint src --flow --strict --baseline lint_baseline.json
    python -m repro.lint src --flow --sarif findings.sarif --stats

Exit status: 0 when clean, 1 when any error (or, with ``--strict``, any
finding at all) is reported, 2 on usage errors (including a
``--baseline`` path that does not exist).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.findings import Finding, exit_code, render_json, render_text


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
        "--strict", action="store_true",
        help="exit nonzero on warnings as well as errors",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", action="append", metavar="RULE",
        help="only run these code-rule ids (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="skip these code-rule ids (repeatable)",
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
        "--baseline", metavar="FILE",
        help="suppress findings accepted in this baseline JSON file "
        "(stale entries are reported as warnings)",
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
        f"{rule.rule_id} {rule.name} [{rule.severity}] — {rule.description}"
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
    if args.baseline and not os.path.exists(args.baseline):
        print(
            f"error: baseline file {args.baseline} does not exist; "
            "create it with an empty suppression list "
            '({"version": 1, "suppressions": []}) or drop --baseline',
            file=sys.stderr,
        )
        return 2

    # One AST cache for the whole run: the per-file rules and the flow
    # analyses share parsed trees, so each file is parsed exactly once.
    from repro.lint.astcache import AstCache

    cache = AstCache()
    flow_stats = None
    from repro.lint.ast_rules import lint_paths

    if args.flow:
        import repro.lint.flow  # noqa: F401 - registers RF rules

    try:
        findings: List[Finding] = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            cache=cache,
        )
    except KeyError as exc:
        parser.error(str(exc))
    if args.flow:
        from repro.lint.flow import analyze_flow

        flow_findings, flow_stats = analyze_flow(
            args.paths,
            cache=cache,
            select=args.select,
            ignore=args.ignore,
        )
        findings.extend(flow_findings)
    suppressed = 0
    if args.baseline:
        from repro.lint.flow.baseline import (
            apply_baseline,
            load_baseline,
            stale_entry_findings,
        )

        try:
            entries = load_baseline(args.baseline)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, suppressed, stale = apply_baseline(findings, entries)
        findings.extend(stale_entry_findings(stale, args.baseline))

    if args.sarif:
        from repro.lint.flow.sarif import render_sarif
        from repro.runstate.atomic import atomic_write_text

        atomic_write_text(args.sarif, render_sarif(findings))

    if args.format == "json":
        print(render_json(findings))
    elif findings:
        print(render_text(findings))
    else:
        print("repro.lint: no findings")
    if args.stats:
        parse_stats = cache.stats()
        lines = [
            f"repro.lint stats: {parse_stats['files']} files, "
            f"{parse_stats['parses']} parses, "
            f"{parse_stats['hits']} cache hits"
        ]
        if flow_stats is not None:
            lines.append(f"repro.lint stats: {flow_stats.format()}")
        if args.baseline:
            lines.append(
                f"repro.lint stats: {suppressed} finding(s) suppressed "
                f"by {args.baseline}"
            )
        print("\n".join(lines))
    return exit_code(findings, strict=args.strict)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
