"""Tests of the end-to-end benchmark itself, at tiny sizes.

Run explicitly (the tier-1 suite collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py
"""

import itertools

import pytest
import report
import tracing
import workloads

TINY = {
    "search_a": dict(
        layout="mini", quality_samples=4, generations=2, population_size=8,
        parents=4, front_generations=2, front_population=8,
    ),
    "supernet_proxy": dict(
        layout="mini", train_epochs=1, train_per_class=2, images=2,
        chunk_archs=4, quality_samples=2, generations=2, population_size=4,
        parents=2, target_archs=4, op_table_archs=2,
    ),
    "tabular_mini": dict(
        ops=(0,), quantiles=(0.5,), scenario_seeds=1, generations=2,
        population_size=4, parents=2,
    ),
    "serve_mix": dict(
        layout="mini", cold_queries=1, hits_per_burst=3, miss_layout="mini",
        misses=1, generations=2, population_size=4,
    ),
}

SPEC = report.load_spec()


def _names_and_units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_workload_emits_exactly_the_spec_metrics(name, trace):
    record = workloads.run_workload(
        name, seed=1, seconds=0, trace=trace, sizes=TINY[name]
    )
    assert record["failures"] == []
    assert record["correct"] and record["attempted"] >= 2
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert _names_and_units(record["metrics"]) == {
        m["name"]: m["unit"] for m in section
    }
    assert all(
        isinstance(entry["value"], (int, float))
        for entry in record["metrics"].values()
    )
    if not trace:
        assert all(e["value"] > 0 for e in record["metrics"].values())
    assert list(record["fingerprints"]) == ["1", "2"]


def test_traced_supernet_reports_the_op_table():
    record = workloads.run_workload(
        "supernet_proxy", seconds=0, trace=True, sizes=TINY["supernet_proxy"]
    )
    table = record["details"]["op_table"]
    assert len(table) == 5 * 3
    assert "supernet.op.shuffle3x3.w2.us_per_arch" in table
    assert "supernet.op.skip.w10.us_per_arch" in table
    assert all(v > 0 for v in table.values())


def test_self_time_is_span_minus_child_spans():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op.heavy"):             # t=1 .. t=10
        with tracer.span("core.ea"):           # t=2 .. t=7
            with tracer.span("accuracy.proxy_accuracy"):  # t=3 .. t=4
                pass
            with tracer.span("accuracy.proxy_accuracy"):  # t=5 .. t=6
                pass
        with tracer.span("hardware.predict_many"):  # t=8 .. t=9
            pass
    assert tracer.totals["op.heavy"] == [1, 9.0, 9.0 - 5.0 - 1.0]
    assert tracer.totals["core.ea"] == [1, 5.0, 5.0 - 2.0]
    assert tracer.totals["accuracy.proxy_accuracy"] == [2, 2.0, 2.0]
    layers = tracing.layer_self_times(tracer)
    assert layers["unattributed"] == 3.0
    assert layers["core"] == 3.0 and layers["accuracy"] == 2.0
    assert sum(layers.values()) == tracing.op_wall_s(tracer) == 9.0
    events = {e["name"]: e for e in tracer.events}
    assert events["core.ea"]["parent"] == events["op.heavy"]["id"]


def test_instrument_restores_methods_and_classmethods():
    class Base:
        def inherited(self):
            return "base"

    class Thing(Base):
        @classmethod
        def build(cls):
            return cls.__name__

    tracer = tracing.Tracer()
    with tracing.instrument([
        (Thing, "build", tracing.spanned(tracer, "hardware.build")),
        (Thing, "inherited", tracing.spanned(tracer, "core.inherited")),
    ]):
        assert Thing.build() == "Thing"
        assert Thing().inherited() == "base"
    assert tracer.count("hardware.build") == 1
    assert tracer.count("core.inherited") == 1
    assert "inherited" not in vars(Thing)
    assert Thing.build() == "Thing" and tracer.count("hardware.build") == 1


def _results(workload, values, fingerprints=None, failed=0):
    return {"runs": [
        {
            "workload": workload, "trace": False, "attempted": 100,
            "failed": failed,
            "metrics": {"heavy_p50_ms": {"value": v, "unit": "ms"}},
            "fingerprints": fingerprints or {"0": "abc"},
        }
        for v in values
    ]}


BOUND = next(
    m["bound"] for m in SPEC["end_to_end"] if m["name"] == "heavy_p50_ms"
)
BASE = [100.0, 101.0, 99.0, 100.5, 100.0]


@pytest.mark.parametrize("new_values, expected", [
    ([v * (1 + BOUND / 2) for v in BASE], "ok"),               # within bound
    ([v * (1 + BOUND + 0.05) for v in BASE], "regressed"),     # worse
    ([v * f for v, f in zip(BASE, (0.7, 1.5, 1.0, 1.3, 0.8))],
     "unresolved"),                                            # noisy
    ([v * 0.6 for v in BASE], "ok"),                           # better
], ids=["within-bound", "worse-than-bound", "noisy", "better"])
def test_compare_verdicts(new_values, expected):
    base = _results("search_a", BASE)
    out = report.compare(base, _results("search_a", new_values), SPEC)
    (row,) = out["rows"]
    assert row["verdict"] == expected
    assert row["bound"] == BOUND and out["problems"] == []


def test_compare_flags_fingerprint_changes_and_failures():
    base = _results("search_a", [100.0] * 3)
    new = _results("search_a", [100.0] * 3, fingerprints={"0": "xyz"},
                   failed=1)
    problems = report.compare(base, new, SPEC)["problems"]
    assert any("fingerprint of seed 0 changed" in p for p in problems)
    assert any("failed share rose" in p for p in problems)
