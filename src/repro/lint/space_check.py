"""Space-geometry consistency (rule RD204).

**RD204 stage-plan-inconsistent** — a space whose derived per-layer
geometry contradicts its stage plan (stride-2 anywhere but a stage
start, wrong layer count, factors off the config grid).

The other inputs the runtime receives are validated where they enter:
an encoding by :meth:`SearchSpace.contains`, a progressive-shrinking
schedule by :func:`repro.core.shrinking.validate_stage_layers`.
"""

from __future__ import annotations

from typing import List

from repro.lint.findings import Finding, Severity
from repro.lint.rules import DOMAIN_RULES, Rule
from repro.space.search_space import SearchSpace

RD204 = DOMAIN_RULES.register(
    Rule(
        "RD204",
        "stage-plan-inconsistent",
        Severity.ERROR,
        "space geometry contradicts its stage plan",
    )
)

_FACTOR_TOL = 1e-9


def check_space(space: SearchSpace) -> List[Finding]:
    """Internal-consistency findings for a space's derived geometry."""
    component = f"space:{space.config.name}"
    config = space.config
    findings: List[Finding] = []

    expected_layers = sum(s.num_blocks for s in config.stages)
    if len(space.geometry) != expected_layers:
        findings.append(
            Finding(
                rule_id=RD204.rule_id,
                severity=RD204.severity,
                message=(
                    f"geometry has {len(space.geometry)} layers but the "
                    f"stage plan sums to {expected_layers}"
                ),
                component=component,
            )
        )
        return findings

    stage_starts = []
    offset = 0
    for stage in config.stages:
        stage_starts.append(offset)
        offset += stage.num_blocks
    for geom in space.geometry:
        expected_stride = 2 if geom.layer in stage_starts else 1
        if geom.stride != expected_stride:
            findings.append(
                Finding(
                    rule_id=RD204.rule_id,
                    severity=RD204.severity,
                    message=(
                        f"layer {geom.layer}: stride {geom.stride} but the "
                        f"stage plan requires {expected_stride}"
                    ),
                    component=component,
                )
            )
        max_ch = config.layer_channels()[geom.layer]
        if geom.max_out_channels != max_ch:
            findings.append(
                Finding(
                    rule_id=RD204.rule_id,
                    severity=RD204.severity,
                    message=(
                        f"layer {geom.layer}: max_out_channels "
                        f"{geom.max_out_channels} contradicts the stage "
                        f"plan's {max_ch}"
                    ),
                    component=component,
                )
            )

    declared = tuple(float(f) for f in config.channel_factors)
    for layer, factors in enumerate(space.candidate_factors):
        off_grid = [
            f
            for f in factors
            if not any(abs(float(f) - d) < _FACTOR_TOL for d in declared)
        ]
        if off_grid:
            findings.append(
                Finding(
                    rule_id=RD204.rule_id,
                    severity=RD204.severity,
                    message=(
                        f"layer {layer}: candidate factors {off_grid} are "
                        "not on the config's factor grid"
                    ),
                    component=component,
                )
            )
    return findings

