"""Each RF rule fires on its hole-punched fixture package and stays
silent on the known-good twin."""

import os

from repro.lint.flow import analyze_flow

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _flow(package):
    findings, _stats = analyze_flow([os.path.join(FIXTURES, package)])
    return findings


def _by_rule(findings):
    out = {}
    for finding in findings:
        out.setdefault(finding.rule_id, []).append(finding)
    return out


class TestRngProvenance:
    def test_bad_package_findings(self):
        findings = _flow("fx_rng_bad")
        assert findings, "hole-punched RNG fixture produced no findings"
        assert {f.rule_id for f in findings} == {"RF300"}
        messages = [f.message for f in findings]
        # The seedless construction itself.
        assert any("without an explicit seed" in m for m in messages)
        # The same generator two call hops away, at the flow site.
        assert any(
            "flows into parameter 'rng'" in m and "middle" in m
            for m in messages
        )
        # Two sites building the same (entropy, spawn_key) identity.
        assert any("duplicate spawn_key" in m for m in messages)
        # One stream serving every worker-index iteration.
        assert any("shared across worker-index" in m for m in messages)

    def test_unseeded_flow_names_both_ends(self):
        findings = _flow("fx_rng_bad")
        flow = [
            f for f in findings if "flows into parameter" in f.message
        ][0]
        assert flow.file.endswith("pipeline.py")
        assert "pipeline.py:8" in flow.message  # construction site

    def test_clean_package_is_silent(self):
        assert _flow("fx_rng_clean") == []


class TestLockDiscipline:
    def test_bad_package_findings(self):
        findings = _flow("fx_locks_bad")
        rules = _by_rule(findings)
        assert set(rules) == {"RF301", "RF302"}
        messages = [f.message for f in rules["RF301"]]
        # Bare read and bare write inside the class.
        assert any(
            m.startswith("read of 'Counter.count'") for m in messages
        )
        assert any(
            m.startswith("write of 'Counter.count'") for m in messages
        )
        # Cross-object bare read suggests the accessor fix.
        assert any("locked accessor" in m for m in messages)

    def test_rf301_names_the_guarding_write(self):
        findings = _flow("fx_locks_bad")
        finding = [f for f in findings if f.rule_id == "RF301"][0]
        assert "written under the lock at" in finding.message
        assert "counter.py:13" in finding.message

    def test_rf302_inversion_names_both_orders(self):
        findings = _flow("fx_locks_bad")
        inversions = [f for f in findings if f.rule_id == "RF302"]
        assert len(inversions) == 1
        message = inversions[0].message
        assert "Ledger._lock_a" in message and "Ledger._lock_b" in message
        assert "deadlock" in message

    def test_clean_package_is_silent(self):
        assert _flow("fx_locks_clean") == []


class TestCacheKeySoundness:
    def test_bad_package_findings(self):
        findings = _flow("fx_keys_bad")
        assert {f.rule_id for f in findings} == {"RF303"}
        message = findings[0].message
        # The finding names the origin, the crossed parameter, and the
        # callee that keys on it.
        assert "division result" in message
        assert "parameter 'factor'" in message
        assert "LatencyTable.lookup" in message

    def test_clean_package_is_silent(self):
        # Identical dataflow, but _make_key rounds to one decimal.
        assert _flow("fx_keys_clean") == []

    def test_float_literal_keys_fire(self, tmp_path):
        # The stores the retired RL102 reported inside a function.
        (tmp_path / "keys.py").write_text(
            "def put(cache, lut_entries, ms):\n"
            "    cache[0.5] = ms\n"
            "    lut_entries[(1, 0.5)] = ms\n"
        )
        findings, _ = analyze_flow([str(tmp_path)])
        assert [(f.rule_id, f.line) for f in findings] == [
            ("RF303", 2),
            ("RF303", 3),
        ]


class TestStats:
    def test_stats_count_fixture_shapes(self):
        _, stats = analyze_flow([os.path.join(FIXTURES, "fx_locks_bad")])
        assert stats.files == 3  # __init__ + counter + transfer
        assert stats.classes == 2
        assert stats.functions >= 6
        assert stats.wall_ms > 0
        line = stats.format()
        assert "3 files" in line and "2 classes" in line
