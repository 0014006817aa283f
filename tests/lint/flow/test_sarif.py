"""SARIF 2.1.0 emitter: a full-document snapshot plus invariants."""

import json

from repro.lint.findings import Finding
from repro.lint.flow import render_sarif
from repro.lint.flow.sarif import SARIF_SCHEMA, SARIF_VERSION


def _findings():
    return [
        Finding(
            rule_id="RF300",
            message="'default_rng()' constructed without an explicit seed",
            file="src/repro/example.py",
            line=8,
            column=11,
        ),
        Finding(
            rule_id="RL100",
            message="syntax error: invalid syntax",
            file="src/repro/example.py",
            line=12,
        ),
    ]


class TestSnapshot:
    def test_document_snapshot(self):
        document = json.loads(render_sarif(_findings()))
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert document == {
            "$schema": SARIF_SCHEMA,
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro.lint",
                            "informationUri": run["tool"]["driver"][
                                "informationUri"
                            ],
                            "rules": [
                                {
                                    "id": "RF300",
                                    "name": "rng-provenance",
                                    "shortDescription": rules[0][
                                        "shortDescription"
                                    ],
                                    "defaultConfiguration": {
                                        "level": "error"
                                    },
                                },
                                # RL100 (a file that does not
                                # parse) is synthetic, so it has no
                                # catalog metadata.
                                {"id": "RL100"},
                            ],
                        }
                    },
                    "results": [
                        {
                            "ruleId": "RF300",
                            "ruleIndex": 0,
                            "level": "error",
                            "message": {
                                "text": (
                                    "'default_rng()' constructed "
                                    "without an explicit seed"
                                )
                            },
                            "locations": [
                                {
                                    "physicalLocation": {
                                        "artifactLocation": {
                                            "uri": "src/repro/example.py",
                                            "uriBaseId": "ROOTPATH",
                                        },
                                        "region": {
                                            "startLine": 8,
                                            # ast columns are 0-based,
                                            # SARIF's are 1-based.
                                            "startColumn": 12,
                                        },
                                    }
                                }
                            ],
                        },
                        {
                            "ruleId": "RL100",
                            "ruleIndex": 1,
                            "level": "error",
                            "message": {
                                "text": "syntax error: invalid syntax"
                            },
                            "locations": [
                                {
                                    "physicalLocation": {
                                        "artifactLocation": {
                                            "uri": "src/repro/example.py",
                                            "uriBaseId": "ROOTPATH",
                                        },
                                        "region": {"startLine": 12},
                                    }
                                }
                            ],
                        },
                    ],
                    "originalUriBaseIds": {"ROOTPATH": {"uri": "file:///"}},
                }
            ],
        }

    def test_version_and_schema_pinned(self):
        assert SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0.json" in SARIF_SCHEMA


class TestInvariants:
    def test_deterministic_output(self):
        assert render_sarif(_findings()) == render_sarif(_findings())

    def test_empty_run_is_valid(self):
        document = json.loads(render_sarif([]))
        assert document["runs"][0]["results"] == []

    def test_windows_separators_normalized(self):
        finding = Finding(
            rule_id="RF301",
            message="m",
            file="src\\repro\\serve\\metrics.py",
            line=1,
        )
        document = json.loads(render_sarif([finding]))
        uri = document["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["artifactLocation"]["uri"]
        assert uri == "src/repro/serve/metrics.py"
