"""Energy-constrained search — the paper's announced future work.

"In future, we plan to extend HSCoNAS, which will incorporate different
hardware constraints like power consumption." This benchmark runs that
extension end to end on the edge device: the Eq. 1 objective is
augmented with a one-sided energy-budget penalty, the energy side gets
its own LUT+bias predictor (the Eq. 2-3 pattern applied to a power
rail), and the EA searches under latency target *and* energy budget
simultaneously.
"""

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    MultiConstraintObjective,
    Objective,
)
from repro.hardware import (
    EnergyModel,
    EnergyPredictor,
    LatencyLUT,
    LatencyPredictor,
    OnDeviceProfiler,
)

_TARGET_MS = 34.0


def test_energy_constrained_search(benchmark, space_a, surrogate_a, devices):
    device = devices["edge"]
    energy_model = EnergyModel(device)

    def experiment():
        # Latency predictor (Eq. 2-3).
        lut = LatencyLUT.build(space_a, device, samples_per_cell=2, seed=0)
        lat_predictor = LatencyPredictor(lut, space_a)
        profiler = OnDeviceProfiler(device, seed=0)
        lat_predictor.calibrate_bias(space_a, profiler, num_archs=25, seed=1)

        # Energy predictor (same pattern, power rail).
        energy_predictor = EnergyPredictor(space_a, energy_model).build(seed=0)
        energy_predictor.calibrate_bias(num_archs=25, seed=2)

        # Baseline: latency-only search (plain Eq. 1).
        cfg = EvolutionConfig(seed=8)
        latency_only = EvolutionarySearch(
            space_a,
            Objective(
                surrogate_a.proxy_accuracy, lat_predictor.predict,
                _TARGET_MS, beta=-0.5,
            ),
            cfg,
        ).run().best

        # The budget: 15% below what the latency-only winner burns —
        # tight enough that the constrained search must adapt.
        unconstrained_energy = energy_model.arch_energy_mj(
            space_a, latency_only.arch
        )
        budget = unconstrained_energy * 0.85

        constrained = EvolutionarySearch(
            space_a,
            MultiConstraintObjective(
                surrogate_a.proxy_accuracy,
                lat_predictor.predict,
                _TARGET_MS,
                energy_fn=energy_predictor.predict,
                energy_budget_mj=budget,
                beta=-0.5,
                beta_energy=-1.5,
            ),
            cfg,
        ).run().best

        return latency_only, constrained, budget, profiler

    latency_only, constrained, budget, profiler = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    lo_energy = energy_model.arch_energy_mj(space_a, latency_only.arch)
    co_energy = energy_model.arch_energy_mj(space_a, constrained.arch)
    lo_err = surrogate_a.top1_error(latency_only.arch)
    co_err = surrogate_a.top1_error(constrained.arch)
    co_lat = profiler.measure_ms(space_a, constrained.arch)

    print(f"\n=== Future-work extension: energy budget (edge, T={_TARGET_MS} ms) ===")
    print(f"latency-only search : {lo_energy:6.1f} mJ  "
          f"lat {latency_only.latency_ms:5.1f} ms  top-1 err {lo_err:5.2f}%")
    print(f"energy budget       : {budget:6.1f} mJ (-15%)")
    print(f"constrained search  : {co_energy:6.1f} mJ  "
          f"lat {co_lat:5.1f} ms  top-1 err {co_err:5.2f}%")
    print(f"accuracy cost of the energy budget: {co_err - lo_err:+.2f} pts")

    # The constrained run respects the budget (small predictor slack).
    assert co_energy <= budget * 1.05
    # It still honours the latency constraint.
    assert co_lat <= _TARGET_MS * 1.10
    # And the budget genuinely binds: energy dropped vs the baseline.
    assert co_energy < lo_energy
    # Physics costs something: bounded accuracy sacrifice.
    assert co_err >= lo_err - 0.1
    assert co_err - lo_err < 2.5
