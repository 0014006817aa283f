"""Sec. III-C complexity claim — progressive vs joint shrinking cost.

"If we evaluate the subspaces of four layers at the same time, it needs
to evaluate 5^4 subspaces, whereas our method only needs to evaluate
5 x 4 subspaces." Reproduced by counting subspace-quality estimates for
both procedures on a 2-layer stage (5^2 = 25 vs 5 x 2 = 10) and
extrapolating the 4-layer arithmetic, plus checking that the cheap
procedure reaches a near-equal-quality subspace.
"""

from repro.core import (
    JointShrinking,
    Objective,
    ProgressiveSpaceShrinking,
    SubspaceQuality,
)
from repro.space import NUM_OPERATORS, SearchSpace, proxy

_N = 25  # F-evaluations per quality estimate (paper: 100)
_LAYERS = (7, 6)


def _objective(space):
    return Objective(
        accuracy_fn=lambda a: min(1.0, (space.arch_flops(a) / 2.5e5) ** 0.5),
        latency_fn=lambda a: space.arch_flops(a) / 1e4,
        target_ms=16.0,
        beta=-0.4,
    )


def test_shrinking_complexity(benchmark):
    def experiment():
        space = SearchSpace(proxy())
        objective = _objective(space)

        prog_quality = SubspaceQuality(objective, num_samples=_N, seed=0)
        shrinker = ProgressiveSpaceShrinking(
            prog_quality, stage_layers=[_LAYERS]
        )
        prog_result = shrinker.run(space)

        joint_quality = SubspaceQuality(objective, num_samples=_N, seed=0)
        joint = JointShrinking(joint_quality)
        joint_space, joint_evals = joint.run_stage(space, _LAYERS)
        return prog_result, prog_quality, joint_space, joint_evals, objective

    prog_result, prog_quality, joint_space, joint_evals, objective = (
        benchmark.pedantic(experiment, rounds=1, iterations=1)
    )

    k = NUM_OPERATORS
    n_layers = len(_LAYERS)
    prog_subspaces = prog_quality.evaluations // _N
    joint_subspaces = joint_evals // _N

    final_prog = prog_result.final_space
    q = SubspaceQuality(objective, num_samples=200, seed=99)
    q_prog = q.estimate(final_prog)
    q_joint = q.estimate(joint_space)

    print("\n=== Sec. III-C: shrinking complexity (2-layer stage) ===")
    print(f"progressive: {prog_subspaces} subspace evaluations "
          f"(K x layers = {k} x {n_layers})")
    print(f"joint:       {joint_subspaces} subspace evaluations "
          f"(K^layers = {k}^{n_layers})")
    print(f"paper-scale 4-layer stage: {k * 4} vs {k ** 4}")
    print(f"resulting subspace quality: progressive {q_prog:.4f}, "
          f"joint {q_joint:.4f}")

    # The claimed counts, exactly.
    assert prog_subspaces == k * n_layers
    assert joint_subspaces == k ** n_layers
    # The cheap procedure must not give up meaningful quality.
    assert q_prog >= q_joint - 0.01
