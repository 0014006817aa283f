"""Chaos harness: seeded, replayable fault injection."""

from http.client import RemoteDisconnected

import pytest

from repro.resilience import ChaosError, ChaosInjector, ChaosSpec


class TestSpecParsing:
    def test_parse_full_spec(self):
        spec = ChaosSpec.parse(
            "seed=7,error=0.3,burst=2,hang=0.1,hang_s=2,slow=0.05,"
            "slow_s=0.5,reset=0.2,fail_first=2"
        )
        assert spec.seed == 7
        assert spec.error_rate == 0.3
        assert spec.burst == 2
        assert spec.hang_rate == 0.1
        assert spec.hang_s == 2
        assert spec.slow_rate == 0.05
        assert spec.slow_s == 0.5
        assert spec.reset_rate == 0.2
        assert spec.fail_first == 2

    def test_empty_spec_is_all_defaults(self):
        assert ChaosSpec.parse("") == ChaosSpec()

    @pytest.mark.parametrize(
        "bad",
        ["frequency=1", "error", "error=lots", "error=1.5", "burst=0"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            ChaosSpec.parse(bad)

    def test_rates_must_fit_one_budget(self):
        with pytest.raises(ValueError):
            ChaosSpec(error_rate=0.6, hang_rate=0.6)


def _decision_trace(injector: ChaosInjector, n: int):
    trace = []
    for _ in range(n):
        try:
            injector.inject()
            trace.append("ok")
        except ChaosError:
            trace.append("error")
    return trace


class TestInjectorDeterminism:
    def test_same_seed_same_fault_sequence(self):
        spec = ChaosSpec.parse("seed=7,error=0.4")
        a = _decision_trace(spec.injector(), 64)
        b = _decision_trace(spec.injector(), 64)
        assert a == b
        assert "error" in a and "ok" in a

    def test_zero_rates_inject_nothing(self):
        injector = ChaosSpec.parse("seed=3").injector()
        assert _decision_trace(injector, 32) == ["ok"] * 32
        assert injector.snapshot()["injected_errors"] == 0

    def test_error_bursts_are_consecutive(self):
        spec = ChaosSpec.parse("seed=1,error=0.2,burst=3")
        trace = _decision_trace(spec.injector(), 200)
        runs = []
        current = 0
        for item in trace:
            if item == "error":
                current += 1
            elif current:
                runs.append(current)
                current = 0
        # A burst still in progress at the end of the trace is partial;
        # only completed runs witness the burst length.
        assert runs, "expected at least one injected burst"
        assert all(run % 3 == 0 for run in runs), (
            f"bursts must come in multiples of 3, got runs {runs}"
        )

    def test_slowdowns_use_injected_sleep(self):
        sleeps = []
        spec = ChaosSpec.parse("seed=5,slow=1.0,slow_s=0.25")
        injector = spec.injector(sleep=sleeps.append)
        injector.inject()
        assert sleeps == [0.25]

    def test_bounded_hang_sleeps_hang_s(self):
        sleeps = []
        spec = ChaosSpec.parse("seed=5,hang=1.0,hang_s=2")
        injector = spec.injector(sleep=sleeps.append)
        injector.inject()
        assert sleeps == [2.0]


class TestTransportFaults:
    def test_fail_first_alternates_transient_shapes(self):
        injector = ChaosSpec.parse("seed=0,fail_first=2").injector()
        with pytest.raises(ConnectionResetError):
            injector.transport_fault()
        with pytest.raises(RemoteDisconnected):
            injector.transport_fault()
        injector.transport_fault()  # healthy from the third attempt on
        assert injector.snapshot()["injected_resets"] == 2

    def test_transport_hook_is_the_bound_fault(self):
        injector = ChaosSpec.parse("seed=0,fail_first=1").injector()
        hook = injector.transport_hook()
        with pytest.raises(ConnectionResetError):
            hook()
