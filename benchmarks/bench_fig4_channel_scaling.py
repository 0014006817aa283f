"""Fig. 4 — conventional (uniform) vs dynamic (per-layer) channel scaling.

The conventional scheme takes a finished architecture and applies one
uniform width multiplier, chosen as the largest factor that still meets
the latency target. HSCoNAS's dynamic scheme searches a per-layer factor
vector jointly (here: EA over factors with the operators held fixed).
Both schemes get the same operators, the same latency budget, and the
same accuracy model — the dynamic scheme must find a better
accuracy/latency trade-off, which is the figure's point.
"""

from repro.core import (
    EvolutionConfig,
    EvolutionarySearch,
    Objective,
    best_uniform_factor,
    greedy_fit_factors,
    uniform_scaled,
)
from repro.hardware import LatencyLUT, LatencyPredictor, OnDeviceProfiler
from repro.space import Architecture, SearchSpace

_TARGET_MS = 30.0  # edge-device budget that forces scaling down


def _factors_only_space(space, ops):
    """The dynamic-scaling search space: operators pinned, factors free."""
    return SearchSpace(
        space.config,
        candidate_ops=[[op] for op in ops],
        candidate_factors=[list(space.config.channel_factors)] * space.num_layers,
    )


def test_fig4_channel_scaling(benchmark, space_a, surrogate_a, devices):
    device = devices["edge"]

    def experiment():
        lut = LatencyLUT.build(space_a, device, samples_per_cell=2, seed=0)
        predictor = LatencyPredictor(lut, space_a)
        profiler = OnDeviceProfiler(device, seed=0)
        predictor.calibrate_bias(space_a, profiler, num_archs=25, seed=1)

        # A strong fixed operator assignment (kernel-5 blocks all through).
        ops = (1,) * space_a.num_layers
        base = Architecture(ops, (1.0,) * space_a.num_layers)

        # Conventional: one uniform factor, largest that fits the budget.
        factor = best_uniform_factor(
            base,
            space_a.config.channel_factors,
            predictor.predict,
            target_ms=_TARGET_MS,
        )
        assert factor is not None
        conventional = uniform_scaled(base, factor)

        # Greedy per-layer fitting: deterministic middle ground.
        greedy = greedy_fit_factors(
            base,
            space_a.candidate_factors,
            predictor.predict,
            surrogate_a.proxy_accuracy,
            target_ms=_TARGET_MS,
        )

        # Dynamic: EA over the factor genes only (Sec. III-B + III-D).
        objective = Objective(
            accuracy_fn=surrogate_a.proxy_accuracy,
            latency_fn=predictor.predict,
            target_ms=_TARGET_MS,
            beta=-0.5,
        )
        search = EvolutionarySearch(
            _factors_only_space(space_a, ops),
            objective,
            EvolutionConfig(generations=15, population_size=40,
                            num_parents=15, seed=2),
        )
        dynamic = search.run().best.arch
        return conventional, factor, greedy, dynamic, predictor

    conventional, factor, greedy, dynamic, predictor = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    conv_lat = predictor.predict(conventional)
    greedy_lat = predictor.predict(greedy)
    dyn_lat = predictor.predict(dynamic)
    conv_err = surrogate_a.top1_error(conventional)
    greedy_err = surrogate_a.top1_error(greedy)
    dyn_err = surrogate_a.top1_error(dynamic)

    print("\n=== Fig. 4: conventional vs dynamic channel scaling (edge, "
          f"T={_TARGET_MS} ms) ===")
    print(f"conventional: uniform factor {factor:.1f}  "
          f"latency {conv_lat:5.1f} ms  top-1 err {conv_err:5.2f}%")
    print(f"greedy:       latency {greedy_lat:5.1f} ms  "
          f"top-1 err {greedy_err:5.2f}%")
    print(f"dynamic:      per-layer factors {dynamic.factors}")
    print(f"              latency {dyn_lat:5.1f} ms  top-1 err {dyn_err:5.2f}%")
    print(f"accuracy gain from dynamic scaling: {conv_err - dyn_err:+.2f} pts "
          f"at comparable latency")

    # Shape criteria: dynamic scaling uses the budget better.
    assert dyn_lat <= _TARGET_MS * 1.05
    assert greedy_lat <= _TARGET_MS
    assert dyn_err < conv_err
    # The searched per-layer factors beat (or match) the greedy fit,
    # which beats the uniform multiplier.
    assert dyn_err <= greedy_err + 0.1
    assert greedy_err < conv_err
    # The dynamic factors must actually vary per layer (not collapse to
    # the uniform solution).
    assert len(set(dynamic.factors)) > 1
