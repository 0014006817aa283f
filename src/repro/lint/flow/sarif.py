"""SARIF 2.1.0 emitter: findings as PR-diff annotations.

SARIF (Static Analysis Results Interchange Format) is what GitHub's
``codeql-action/upload-sarif`` ingests to annotate pull-request diffs
with findings inline. The emitter maps the lint's own schema onto it:

* one ``run`` from the ``repro.lint`` driver with the full rule
  catalog (id, name, help text) so the UI can render rule metadata;
* one ``result`` per finding at the ``"error"`` level, with its
  physical location (uri + line/column).

The output is deterministic (sorted findings, sorted keys) so the
snapshot test can diff it byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.lint.findings import Finding, sort_findings

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_catalog(rule_ids: Iterable[str]) -> List[Dict]:
    """Metadata for every rule that appears in the findings (plus any
    registered rule, so the catalog is stable across runs)."""
    from repro.lint.rules import CODE_RULES

    known = {rule.rule_id: rule for rule in CODE_RULES.all()}
    catalog = []
    for rule_id in sorted(set(rule_ids)):
        rule = known.get(rule_id)
        entry: Dict = {"id": rule_id}
        if rule is not None:
            entry["name"] = rule.name
            entry["shortDescription"] = {"text": rule.description}
            entry["defaultConfiguration"] = {"level": "error"}
        catalog.append(entry)
    return catalog


def _result(finding: Finding, rule_index: Dict[str, int]) -> Dict:
    region: Dict = {}
    if finding.line is not None:
        region["startLine"] = max(1, finding.line)
    if finding.column is not None:
        # SARIF columns are 1-based; ast columns are 0-based.
        region["startColumn"] = finding.column + 1
    location: Dict = {
        "artifactLocation": {
            "uri": finding.file.replace("\\", "/"),
            "uriBaseId": "ROOTPATH",
        }
    }
    if region:
        location["region"] = region
    return {
        "ruleId": finding.rule_id,
        "ruleIndex": rule_index[finding.rule_id],
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{"physicalLocation": location}],
    }


def render_sarif(findings: Iterable[Finding]) -> str:
    """The SARIF 2.1.0 document for ``findings`` as a JSON string."""
    ordered = sort_findings(findings)
    rules = _rule_catalog(f.rule_id for f in ordered)
    rule_index = {entry["id"]: i for i, entry in enumerate(rules)}
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": (
                            "https://example.invalid/docs/"
                            "static_analysis.md"
                        ),
                        "rules": rules,
                    }
                },
                "results": [_result(f, rule_index) for f in ordered],
                "originalUriBaseIds": {
                    "ROOTPATH": {"uri": "file:///"}
                },
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
