"""LUT-coverage analysis (domain checker, rules RD201/RD202).

Proves — without executing a search — that every ``(layer, op, cin,
factor)`` cell a :class:`~repro.space.search_space.SearchSpace` (the
full space or a shrunk one) can reach exists in a
:class:`~repro.hardware.lut.LatencyLUT`, head cells included. The
reachable cells are the build's own enumeration
(:meth:`~repro.hardware.lut.LatencyLUT.cells`), keyed by the LUT's
quantized cell keys, so the checker and the runtime can never disagree
about which cell an architecture hits.

A missing cell is reported with its exact coordinates and the nearest
cell the LUT *does* contain — the same diagnostic a mid-search
``KeyError`` would have produced, surfaced at load time instead.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.lut import LatencyLUT
from repro.lint.findings import Finding, Severity
from repro.lint.rules import DOMAIN_RULES, Rule
from repro.space.search_space import SearchSpace

RD200 = DOMAIN_RULES.register(
    Rule(
        "RD200",
        "lut-device-mismatch",
        Severity.WARNING,
        "LUT was built for a different device than the one being checked",
    )
)
RD201 = DOMAIN_RULES.register(
    Rule(
        "RD201",
        "lut-missing-cell",
        Severity.ERROR,
        "a reachable (layer, op, cin, factor) cell is absent from the LUT",
    )
)
RD202 = DOMAIN_RULES.register(
    Rule(
        "RD202",
        "lut-missing-head",
        Severity.ERROR,
        "a reachable head input width has no head cell in the LUT",
    )
)


def check_lut_coverage(
    space: SearchSpace,
    lut: LatencyLUT,
    expected_device: Optional[str] = None,
    max_reports: int = 50,
) -> List[Finding]:
    """All findings for ``lut`` against the reachable set of ``space``.

    At most ``max_reports`` missing cells are named individually; the
    remainder is summarized in one closing finding so a hollowed-out LUT
    does not produce tens of thousands of lines.
    """
    component = f"lut:{lut.device_key}/{space.config.name}"
    findings: List[Finding] = []
    if expected_device is not None and lut.device_key != expected_device:
        findings.append(
            Finding(
                rule_id=RD200.rule_id,
                severity=RD200.severity,
                message=(
                    f"LUT was built for device {lut.device_key!r} but is "
                    f"being checked against {expected_device!r}"
                ),
                component=component,
            )
        )

    cells = LatencyLUT.cells(space)
    missing = 0
    for (layer, op, cin, factor), key in zip(
        cells.keys[cells.operators], cells.entry_keys
    ):
        if key in lut.entries:
            continue
        missing += 1
        if missing <= max_reports:
            findings.append(
                Finding(
                    rule_id=RD201.rule_id,
                    severity=RD201.severity,
                    message=lut._miss_message(layer, op, cin, factor),
                    component=component,
                )
            )
    if missing > max_reports:
        findings.append(
            Finding(
                rule_id=RD201.rule_id,
                severity=RD201.severity,
                message=(
                    f"... and {missing - max_reports} more missing cells "
                    f"({missing} total)"
                ),
                component=component,
            )
        )

    if lut.head_ms:
        for width in sorted(cells.head_cins):
            if width not in lut.head_ms:
                present = sorted(lut.head_ms)
                nearest = min(present, key=lambda w: abs(w - width))
                findings.append(
                    Finding(
                        rule_id=RD202.rule_id,
                        severity=RD202.severity,
                        message=(
                            f"LUT has no head cell for cin={width}; "
                            f"nearest existing head cell is cin={nearest}"
                        ),
                        component=component,
                    )
                )
    return findings
