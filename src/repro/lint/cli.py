"""``python -m repro.lint`` — run the code lint and/or domain checkers.

Code lint (AST rules, RL1xx)::

    python -m repro.lint src                 # lint a tree
    python -m repro.lint src --strict        # warnings fail too
    python -m repro.lint src --format json

Domain checks (RD2xx) over the bundled presets::

    python -m repro.lint --domain                          # all presets
    python -m repro.lint --domain --preset imagenet_a      # one preset
    python -m repro.lint --domain --preset imagenet_a \\
        --build-lut --device edge                          # + LUT coverage
    python -m repro.lint --domain --lut results/lut.json \\
        --preset imagenet_a                                # saved LUT

Run-directory validation (RD211) over a crash-safe run directory::

    python -m repro.lint --run-dir results/run1

Whole-program flow analyses (RF3xx) with a baseline and SARIF output::

    python -m repro.lint src --flow
    python -m repro.lint src --flow --strict --baseline lint_baseline.json
    python -m repro.lint src --flow --sarif findings.sarif --stats

Exit status: 0 when clean, 1 when any error (or, with ``--strict``, any
finding at all) is reported, 2 on usage errors (including a ``--lut``,
``--run-dir``, or ``--baseline`` path that does not exist).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.findings import Finding, exit_code, render_json, render_text

_PRESETS = ("imagenet_a", "imagenet_b", "mini", "proxy")


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
        "--domain", action="store_true",
        help="run the domain checkers (space geometry, LUT coverage)",
    )
    parser.add_argument(
        "--preset", action="append", choices=_PRESETS, metavar="NAME",
        help=f"presets to check (default: all of {', '.join(_PRESETS)})",
    )
    parser.add_argument(
        "--build-lut", action="store_true",
        help="build the preset's LUT on --device and check full coverage",
    )
    parser.add_argument(
        "--lut", metavar="FILE",
        help="check coverage of a saved LUT JSON instead of building one",
    )
    parser.add_argument(
        "--device", choices=("gpu", "cpu", "edge"), default="edge",
        help="device for --build-lut (default: edge)",
    )
    parser.add_argument(
        "--run-dir", action="append", metavar="DIR",
        help="validate a crash-safe run directory (RD211; repeatable)",
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
    # Importing the rule modules populates the registries.
    import repro.lint.ast_rules  # noqa: F401
    import repro.lint.flow  # noqa: F401
    import repro.lint.lut_check  # noqa: F401
    import repro.lint.runstate_check  # noqa: F401
    import repro.lint.space_check  # noqa: F401
    from repro.lint.rules import CODE_RULES, DOMAIN_RULES

    lines = []
    for title, registry in (
        ("code rules", CODE_RULES),
        ("domain rules", DOMAIN_RULES),
    ):
        lines.append(f"{title}:")
        for rule in registry.all():
            lines.append(
                f"  {rule.rule_id} {rule.name} [{rule.severity}] — "
                f"{rule.description}"
            )
    return "\n".join(lines)


def _domain_findings(args: argparse.Namespace) -> List[Finding]:
    # Imports are deferred so that plain code-lint runs do not pay for
    # the numpy-backed search stack.
    from repro.lint.lut_check import check_lut_coverage
    from repro.lint.space_check import check_space
    from repro.space import config as space_config
    from repro.space.search_space import SearchSpace

    findings: List[Finding] = []
    presets = args.preset or list(_PRESETS)
    for preset in presets:
        space = SearchSpace(getattr(space_config, preset)())
        findings.extend(check_space(space))
        if args.lut:
            from repro.hardware.lut import LatencyLUT

            with open(args.lut, "r", encoding="utf-8") as handle:
                lut = LatencyLUT.from_json(handle.read())
            findings.extend(check_lut_coverage(space, lut))
        elif args.build_lut:
            from repro.hardware.calibration import calibrated_devices
            from repro.hardware.lut import LatencyLUT

            device = calibrated_devices()[args.device]
            lut = LatencyLUT.build(space, device, samples_per_cell=1)
            findings.extend(
                check_lut_coverage(
                    space, lut, expected_device=device.spec.key
                )
            )
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths and not args.domain and not args.run_dir:
        parser.error(
            "nothing to do: pass paths to lint, --domain, and/or --run-dir"
        )
    if args.lut and args.build_lut:
        parser.error("--lut and --build-lut are mutually exclusive")
    if args.lut and not os.path.exists(args.lut):
        print(
            f"error: LUT file {args.lut} does not exist; point --lut at a "
            "saved LUT JSON (written by 'repro predict') or use --build-lut",
            file=sys.stderr,
        )
        return 2
    if args.flow and not args.paths:
        parser.error("--flow needs paths to analyze")
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
    findings: List[Finding] = []
    if args.paths:
        from repro.lint.ast_rules import lint_paths

        if args.flow:
            import repro.lint.flow  # noqa: F401 - registers RF rules

        try:
            findings.extend(
                lint_paths(
                    args.paths,
                    select=args.select,
                    ignore=args.ignore,
                    cache=cache,
                )
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
    if args.domain:
        findings.extend(_domain_findings(args))
    if args.run_dir:
        from repro.lint.runstate_check import check_run_dir

        for run_dir in args.run_dir:
            if not os.path.isdir(run_dir):
                print(
                    f"error: run directory {run_dir} does not exist",
                    file=sys.stderr,
                )
                return 2
            findings.extend(check_run_dir(run_dir))

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
