"""NSGA-II Pareto front vs sweeping the Eq. 1 constraint.

The weighted-sum objective finds one architecture per latency target;
the NSGA-II extension recovers the whole accuracy/latency front in one
run. This benchmark verifies that the single NSGA-II run (1000
evaluations) matches the quality of five independent Eq. 1 searches
(5000 evaluations) at their respective targets.
"""

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    Nsga2Config,
    Nsga2Search,
    Objective,
)
from repro.hardware import LatencyLUT, LatencyPredictor, OnDeviceProfiler

_SWEEP_TARGETS = (22.0, 28.0, 34.0, 40.0, 46.0)


def test_nsga2_front_vs_constraint_sweep(benchmark, space_a, surrogate_a, devices):
    device = devices["edge"]

    def experiment():
        lut = LatencyLUT.build(space_a, device, samples_per_cell=2, seed=0)
        predictor = LatencyPredictor(lut, space_a)
        profiler = OnDeviceProfiler(device, seed=0)
        predictor.calibrate_bias(space_a, profiler, num_archs=25, seed=1)

        nsga = Nsga2Search(
            space_a,
            accuracy_fn=surrogate_a.proxy_accuracy,
            latency_fn=predictor.predict,
            config=Nsga2Config(generations=20, population_size=50, seed=3),
        ).run()

        sweep = {}
        for target in _SWEEP_TARGETS:
            best = EvolutionarySearch(
                space_a,
                Objective(
                    surrogate_a.proxy_accuracy, predictor.predict,
                    target_ms=target, beta=-0.5,
                ),
                EvolutionConfig(seed=3),
            ).run().best
            sweep[target] = best
        return nsga, sweep

    nsga, sweep = benchmark.pedantic(experiment, rounds=1, iterations=1)

    print("\n=== NSGA-II front vs Eq. 1 constraint sweep (edge) ===")
    print(f"NSGA-II: {len(nsga.front)} front points from "
          f"{nsga.num_evaluations} evaluations")
    print("front (latency ms -> proxy accuracy):")
    for p in nsga.front[:: max(1, len(nsga.front) // 10)]:
        print(f"  {p.latency_ms:6.1f} -> {p.accuracy:.4f}")
    print("\nEq. 1 sweep (5 searches x 1000 evaluations):")
    total_sweep_evals = 0
    for target, best in sweep.items():
        knee = nsga.knee_under(target * 1.02)
        gap = knee.accuracy - best.accuracy
        print(f"  T={target:5.1f}: sweep acc {best.accuracy:.4f} "
              f"(lat {best.latency_ms:5.1f}) | NSGA-II knee {knee.accuracy:.4f} "
              f"(lat {knee.latency_ms:5.1f})  gap {gap:+.4f}")
        total_sweep_evals += 1000

    # Shape criteria: one NSGA-II run covers all sweep targets with at
    # most a small accuracy gap at each, using ~5x fewer evaluations.
    for target, best in sweep.items():
        knee = nsga.knee_under(target * 1.02)
        assert knee.accuracy >= best.accuracy - 0.012, target
    assert nsga.num_evaluations < total_sweep_evals / 3
    # The front spans the whole sweep range.
    lats = [p.latency_ms for p in nsga.front]
    assert min(lats) < _SWEEP_TARGETS[0]
    assert max(lats) > _SWEEP_TARGETS[-2]
